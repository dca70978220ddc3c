//! The resident index pinned to a constant: everything `SNodeMeta::read`
//! returns for the 20 k-page directory `golden_build.rs` pins (page ranges,
//! every row of the supernode graph, every graph locator, the domain
//! index), and what an open `SNode` answers from it (`supernode_of` for
//! every page, `page_range` for every supernode, `supernodes_of_domain` for
//! every domain and one beyond). A change to how `meta.bin` is decoded or
//! held in memory must leave both numbers alone.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::disk::SNodeMeta;
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

/// FNV-1a over the little-endian bytes of what it is fed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    fn all(&mut self, vs: impl IntoIterator<Item = u32>) {
        let mut n = 0u64;
        for v in vs {
            self.u64(u64::from(v));
            n += 1;
        }
        self.u64(n);
    }
}

#[test]
fn the_20k_resident_index_is_the_committed_one() {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_meta_pin_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();

    let meta = SNodeMeta::read(&dir).unwrap();
    let mut h = Fnv::new();
    h.u64(u64::from(meta.num_pages));
    h.all(meta.range_start.iter().copied());
    h.u64(meta.supergraph_bits);
    h.u64(meta.max_file_bytes);
    h.u64(meta.supergraph.adj.len() as u64);
    for row in &meta.supergraph.adj {
        h.all(row.iter().copied());
    }
    let mut locators = 0u64;
    for (intra, supers) in meta.intranode_loc.iter().zip(&meta.superedge_loc) {
        for loc in std::iter::once(intra).chain(supers) {
            h.u64(u64::from(loc.file));
            h.u64(loc.offset);
            h.u64(loc.byte_len);
            h.u64(loc.bit_len);
            locators += 1;
        }
    }
    h.u64(locators);
    h.u64(meta.domain_supernodes.len() as u64);
    for list in &meta.domain_supernodes {
        h.all(list.iter().copied());
    }
    let fields = h.0;

    let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
    let mut h = Fnv::new();
    h.all((0..snode.num_pages()).map(|p| snode.supernode_of(p)));
    for s in 0..snode.num_supernodes() {
        let r = snode.page_range(s);
        h.all([r.start, r.end]);
    }
    for d in 0..=meta.domain_supernodes.len() as u32 {
        h.all(snode.supernodes_of_domain(d).iter().copied());
    }
    let answers = h.0;
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        (fields, answers),
        (0x38a3_36be_223d_5e23, 0x0dfa_7114_c8e6_91f7),
        "SNodeMeta::read hashes to {fields:#018x}, the handle's answers to {answers:#018x}"
    );
}
