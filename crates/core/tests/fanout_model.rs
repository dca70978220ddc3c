//! The fanout against a reference model: for every page, the superedge
//! graphs a probe consults are the ones that store a list for it, those it
//! looks up are the ones of them the fanout does not answer itself (a
//! single-target dictionary of one entry), answers equal the source graph
//! whatever the cache budget, and damage to one superedge blob costs
//! exactly that blob's part: a degraded open sends every page of the
//! supernode to the damaged graph's slot, and goes without it.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use wg_corpus::{Corpus, CorpusConfig};
use wg_graph::Graph;
use wg_snode::cache::{CacheEvent, CachedGraph, Fanout, GraphKey};
use wg_snode::codec::ListCodec;
use wg_snode::disk::{index_file_path, IndexFileReader, SNodeMeta};
use wg_snode::subgraphs::{Layout, SuperedgeIndex};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

/// A generated 3k-page corpus plus fifteen in sixteen of the links from
/// every page of one domain to every page of another, the missing ones
/// scattered — dense superedge graphs, each stored as its links: a list
/// per source where the lists differ, a list dictionary where `|Nj|` is
/// small enough that whole lists repeat.
/// Returns the directory, per page in the representation's numbering its
/// sorted adjacency list, and the dense block's graphs as (supernode,
/// slot).
fn build_block_corpus(name: &str) -> (PathBuf, Vec<Vec<u32>>, Vec<(u32, usize)>) {
    let corpus = Corpus::generate(CorpusConfig::scaled(3000, 5));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    // Supernodes never cross a domain, so whichever way refinement cuts
    // the two domains, every superedge graph between them is this dense.
    let (pages, domain_of) = (corpus.num_pages(), domains.as_slice());
    let pages_of = move |d: u32| (0..pages).filter(move |&p| domain_of[p as usize] == d);
    let from_domain = domain_of[0];
    let to_domain = (0..corpus.domains.len() as u32)
        .filter(|&d| d != from_domain)
        .max_by_key(|&d| pages_of(d).count())
        .expect("a second domain");
    let block = pages_of(from_domain).flat_map(|u| {
        let present = move |v: &u32| {
            let mix = u64::from(u).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(*v);
            mix.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40 & 15 != 0
        };
        pages_of(to_domain).filter(present).map(move |v| (u, v))
    });
    let graph = Graph::from_edges(corpus.num_pages(), corpus.graph.edges().chain(block));

    let mut dir = std::env::temp_dir();
    dir.push(format!("wg_snode_fanout_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &graph,
    };
    let (_, renum) = build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let meta = SNodeMeta::read(&dir).unwrap();
    let files = IndexFileReader::open_resident(&dir).unwrap();
    let (mut block, mut streams) = (Vec::new(), 0);
    for &s in &meta.domain_supernodes[from_domain as usize] {
        let graphs = superedges_of(&meta, &files, s);
        let row = meta.supergraph.adj[s as usize].iter();
        for (k, (&j, g)) in row.zip(&graphs).enumerate() {
            if !meta.domain_supernodes[to_domain as usize].contains(&j) {
                continue;
            }
            let pages = (meta.supernode_size(s), meta.supernode_size(j));
            assert_eq!(g.sources().len() as u32, pages.0, "{s} → {j}: every page");
            match g.layout() {
                Layout::Lists => streams += 1,
                layout => assert_eq!(layout, Layout::ListDictionary, "{s} → {j}: {pages:?}"),
            }
            block.push((s, k));
        }
    }
    assert!(
        streams >= 2,
        "the dense block: {streams} streams of {block:?}"
    );
    let truth = (renum.old_of_new.iter())
        .map(|&old| {
            let mut l: Vec<u32> = (graph.neighbors(old).iter())
                .map(|&t| renum.new_of_old[t as usize])
                .collect();
            l.sort_unstable();
            l
        })
        .collect();
    (dir, truth, block)
}

/// Per graph, the one target a fanout answers its pages with, if any.
fn targets_of(graphs: &[SuperedgeIndex]) -> Vec<Option<u32>> {
    graphs.iter().map(SuperedgeIndex::one_target).collect()
}

/// The fanout of a supernode of `ni` pages over its out-superedge graphs.
fn fanout_of(ni: u32, graphs: &[SuperedgeIndex]) -> Fanout {
    let sources: Vec<Vec<u32>> = graphs
        .iter()
        .map(|g| g.sources().iter().collect())
        .collect();
    let sources = sources.iter().map(|g| Some(&g[..]));
    Fanout::build(ni, sources, &targets_of(graphs)).unwrap()
}

/// Every out-superedge graph of supernode `s`, parsed from the files.
fn superedges_of(meta: &SNodeMeta, files: &IndexFileReader, s: u32) -> Vec<SuperedgeIndex> {
    let ni = u64::from(meta.supernode_size(s));
    (meta.supergraph.adj[s as usize].iter())
        .zip(&meta.superedge_loc[s as usize])
        .map(|(&j, loc)| {
            let nj = u64::from(meta.supernode_size(j));
            let bytes = files.read_blob(loc).unwrap();
            SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).unwrap()
        })
        .collect()
}

fn loads(snode: &SNode) -> Vec<GraphKey> {
    (snode.take_cache_log().into_iter())
        .filter_map(|ev| match ev {
            CacheEvent::Load(key) => Some(key),
            CacheEvent::Unload(_) => None,
        })
        .collect()
}

#[test]
fn fanout_names_exactly_the_graphs_that_list_a_page() {
    let (dir, truth, block) = build_block_corpus("model");
    let meta = SNodeMeta::read(&dir).unwrap();
    let files = IndexFileReader::open_resident(&dir).unwrap();
    let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
    snode.enable_cache_log();
    let (mut named, mut out_superedges) = (0usize, 0usize);
    let mut answered = 0usize;
    for s in 0..meta.num_supernodes() {
        let graphs = superedges_of(&meta, &files, s);
        let targets = targets_of(&graphs);
        let fanout = fanout_of(meta.supernode_size(s), &graphs);
        assert!((0u32..).zip(&targets).all(|(k, &t)| fanout.target(k) == t));
        // Every graph read: none that every page consults.
        assert!(fanout.always().is_empty(), "supernode {s}");
        for p in meta.page_range(s) {
            let local = p - meta.page_range(s).start;
            let model: Vec<u32> = (0u32..)
                .zip(&graphs)
                .filter(|(_, g)| g.sources().contains(local))
                .map(|(k, _)| k)
                .collect();
            let got: Vec<u32> = fanout.slots_of(local).iter().collect();
            assert_eq!(got, model, "page {p}");
            let dense = block.iter().filter(|&&(b, _)| b == s);
            assert!(
                dense.clone().all(|&(_, k)| got.contains(&(k as u32))),
                "page {p}"
            );
            named += model.len();
            out_superedges += graphs.len();

            // And a cold probe through the handle loads just those the
            // fanout does not answer.
            snode.clear_cache();
            snode.take_cache_log();
            assert_eq!(snode.out_neighbors(p).unwrap(), truth[p as usize]);
            let mut expected = vec![GraphKey::Intra(s), GraphKey::Fanout(s)];
            let row = &meta.supergraph.adj[s as usize];
            let (one, looked_up): (Vec<u32>, Vec<u32>) =
                model.iter().partition(|&&k| targets[k as usize].is_some());
            answered += one.len();
            expected.extend(
                looked_up
                    .iter()
                    .map(|&k| GraphKey::Super(s, row[k as usize])),
            );
            assert_eq!(loads(&snode), expected, "page {p}");
        }
    }
    assert!(
        named * 4 < out_superedges,
        "{named} graphs named of {out_superedges} out-superedges"
    );
    assert!(
        answered > 0,
        "some page is answered by a graph the fanout holds"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn answers_hold_under_every_budget() {
    let (dir, truth, _) = build_block_corpus("budget");
    let meta = SNodeMeta::read(&dir).unwrap();
    let blobs: u64 = (meta.supergraph.adj.iter())
        .map(|adj| 1 + adj.len() as u64)
        .sum();
    for budget in [1usize << 10, 1 << 20, 256 << 20] {
        let snode = SNode::open_resident(&dir, budget).unwrap();
        for (p, want) in (0u32..).zip(&truth) {
            assert_eq!(&snode.out_neighbors(p).unwrap(), want, "{budget} {p}");
        }
        // `meta.bin` and every blob were checksummed, once however
        // often a small budget had it read, and held.
        let (checks, failures) = snode.integrity_stats();
        assert!(snode.disk_reads() >= blobs, "{budget}");
        assert_eq!(checks, 1 + blobs, "{budget}");
        assert_eq!(failures, 0, "{budget}");
    }
    // The batched path draws each group's graphs from the union of
    // its pages' rows.
    let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
    let pages: Vec<u32> = (0..truth.len() as u32).rev().step_by(3).collect();
    let mut seen = 0usize;
    snode
        .out_neighbors_batch(&pages, &mut |p, list| {
            assert_eq!(list, truth[p as usize], "batched page {p}");
            seen += 1;
        })
        .unwrap();
    assert_eq!(seen, pages.len());

    // Under a budget the directory fits, as Table 2 and global access
    // open it.
    let snode = SNode::open_resident(&dir, 1 << 30).unwrap();
    for (p, want) in (0u32..).zip(&truth) {
        assert_eq!(&snode.out_neighbors(p).unwrap(), want, "resident page {p}");
    }
    let graph = snode.to_graph().unwrap();
    for (p, want) in (0u32..).zip(&truth) {
        assert_eq!(graph.neighbors(p), want.as_slice(), "to_graph page {p}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn flip_byte(dir: &Path, file: u32, offset: u64) {
    let path = index_file_path(dir, file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[offset as usize] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
}

/// The damaged blob is one of the dense block's, which every page of its
/// supernode draws on, in a supernode with another out-superedge.
#[test]
fn one_flipped_superedge_byte_costs_exactly_that_part() {
    let (dir, truth, block) = build_block_corpus("flip");
    let meta = SNodeMeta::read(&dir).unwrap();
    let (s, k) = *(block.iter())
        .find(|&&(s, _)| meta.supergraph.adj[s as usize].len() >= 2)
        .expect("a dense graph beside another out-superedge");
    let source = 0;
    let loc = meta.superedge_loc[s as usize][k];
    flip_byte(&dir, loc.file, loc.offset);
    let range = meta.page_range(s);
    let lost = meta.page_range(meta.supergraph.adj[s as usize][k]);

    // Strict: the first probe into the supernode fails — the fanout build
    // reads and checksums every out-superedge blob — whether or not the
    // page had a list in the damaged graph; other supernodes answer.
    let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
    for p in range.clone() {
        assert!(strict.out_neighbors(p).is_err(), "strict page {p}");
    }
    let elsewhere = if s == 0 { meta.page_range(1).start } else { 0 };
    assert_eq!(
        strict.out_neighbors(elsewhere).unwrap(),
        truth[elsewhere as usize]
    );

    // Degraded: quarantined by the build, every later answer omits that
    // part only, and each access to the supernode counts one skip.
    let degraded = SNode::open_degraded(&dir, 1 << 20).unwrap();
    let mut accesses = 0u64;
    for round in 0..2 {
        for p in range.clone() {
            let want: Vec<u32> = (truth[p as usize].iter().copied())
                .filter(|t| !lost.contains(t))
                .collect();
            assert_eq!(
                degraded.out_neighbors(p).unwrap(),
                want,
                "round {round} page {p}"
            );
            accesses += 1;
            let report = degraded.degraded();
            assert_eq!(report.quarantined_supernodes, 1);
            assert_eq!(report.skipped_edges, accesses, "one skip per access");
        }
    }
    let first = range.start + source;
    assert!(
        truth[first as usize].iter().any(|t| lost.contains(t)),
        "the damaged graph held a list of page {first}"
    );
    assert_eq!(degraded.integrity_stats().1, 1, "found once, not re-read");
    for p in (0..truth.len() as u32).filter(|p| !range.contains(p)) {
        assert_eq!(degraded.out_neighbors(p).unwrap(), truth[p as usize]);
    }
    assert_eq!(degraded.degraded().skipped_edges, accesses);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fanout_bigger_than_its_shard_is_still_admitted() {
    let (dir, truth, _) = build_block_corpus("giant");
    let meta = SNodeMeta::read(&dir).unwrap();
    let files = IndexFileReader::open_resident(&dir).unwrap();
    let budget = 1usize << 10;
    let s = (0..meta.num_supernodes())
        .max_by_key(|&s| meta.supernode_size(s))
        .unwrap();
    let graphs = superedges_of(&meta, &files, s);
    let fanout = fanout_of(meta.supernode_size(s), &graphs);
    assert!(CachedGraph::from(fanout).bytes() > budget);

    let snode = SNode::open_resident(&dir, budget).unwrap();
    snode.enable_cache_log();
    for p in meta.page_range(s) {
        assert_eq!(
            snode.out_neighbors(p).unwrap(),
            truth[p as usize],
            "page {p}"
        );
    }
    assert!(loads(&snode).contains(&GraphKey::Fanout(s)));
    std::fs::remove_dir_all(&dir).ok();
}
