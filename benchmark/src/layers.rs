//! The one adaptor between the benchmark and the program under test.
//!
//! Every call into `webgraph-repr` and every `wgr` subprocess is made
//! here and nowhere else, so a later API change is a one-file,
//! benchmark-only follow-up. The two product surfaces (`wgr build`,
//! `wgr serve`) are driven as subprocesses of the release binary; the
//! navigation surface (`SNode::open_resident` + `out_neighbors_into`) is a
//! library call because that is how its users reach it. The `price_*`
//! functions time one layer's public functions each, for the traced run.

use crate::stats::median;
use crate::trace::Tracer;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use webgraph_repr::bitio::{codes, BitReader, BitWriter};
use webgraph_repr::corpus::stream as corpus_stream;
use webgraph_repr::corpus::textio;
pub use webgraph_repr::corpus::Corpus;
use webgraph_repr::corpus::CorpusConfig;
use webgraph_repr::fault::crc32c;
use webgraph_repr::graph::Graph;
use webgraph_repr::obs;
use webgraph_repr::query::obsrun::{fingerprint_rows, run_observed};
use webgraph_repr::query::queries::Workload;
use webgraph_repr::query::reps::SchemeSet;
use webgraph_repr::query::{DomainTable, PageRankIndex, Scheme, TextIndex};
use webgraph_repr::serve::{Client, ServeContext, Status};
use webgraph_repr::snode::cache::{CachedGraph, GraphCache, GraphKey};
use webgraph_repr::snode::disk::{GraphLocator, IndexFileReader, SNodeMeta};
use webgraph_repr::snode::integrity::IntegrityManifest;
use webgraph_repr::snode::refenc::{encode_lists, ListsIndex, RefMode, Universe};
use webgraph_repr::snode::subgraphs::SuperedgeIndex;
use webgraph_repr::snode::{build_snode_sharded, Renumbering, RepoInput, SNode, SNodeConfig};

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// The program: build it, find it.

/// Where cargo puts build output: `CARGO_TARGET_DIR` (the driver sets it
/// to `.bench_build`) or `target`, relative to the checkout root.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `wgr` from the checkout's source (a no-op when fresh) and
/// returns the path of the release binary.
pub fn build_wgr() -> Res<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "wgr"])
        .stdout(Stdio::null())
        .status()
        .map_err(err("run cargo build"))?;
    if !status.success() {
        return Err(format!("cargo build --release --bin wgr failed: {status}"));
    }
    let wgr = target_dir().join("release").join("wgr");
    if wgr.is_file() {
        Ok(wgr)
    } else {
        Err(format!("{} missing after cargo build", wgr.display()))
    }
}

// ---------------------------------------------------------------------
// Write side: corpus generation and `wgr build`.

#[derive(Debug, Clone, Copy)]
pub struct Streamed {
    pub edges: u64,
    pub secs: f64,
}

/// `corpus.stream_s`: generates the seed's corpus straight to `dir`.
pub fn stream_corpus(dir: &Path, pages: u32, seed: u64) -> Res<Streamed> {
    let t = Instant::now();
    let st = corpus_stream::stream_corpus(dir, &CorpusConfig::scaled(pages, seed))
        .map_err(err("stream corpus"))?;
    Ok(Streamed {
        edges: st.num_edges,
        secs: secs_since(t),
    })
}

/// `corpus.read_s`: parses the corpus text files back.
pub fn read_corpus(dir: &Path) -> Res<(Corpus, f64)> {
    let t = Instant::now();
    let c = textio::read_corpus(dir).map_err(err("read corpus"))?;
    Ok((c, secs_since(t)))
}

#[derive(Debug, Clone, Copy)]
pub struct BuildRun {
    /// Spawn → exit of the `wgr build` process.
    pub secs: f64,
    /// The child's `VmHWM`, polled every 5 ms until it exits.
    pub peak_rss_bytes: u64,
}

/// One `wgr build --corpus C --out O --shards K --threads T` in a fresh
/// process.
pub fn wgr_build(
    wgr: &Path,
    corpus: &Path,
    out: &Path,
    shards: u32,
    threads: u32,
) -> Res<BuildRun> {
    let t = Instant::now();
    let mut child = Command::new(wgr)
        .arg("build")
        .arg("--corpus")
        .arg(corpus)
        .arg("--out")
        .arg(out)
        .args(["--shards", &shards.to_string()])
        .args(["--threads", &threads.to_string()])
        .stdout(Stdio::null())
        .spawn()
        .map_err(err("spawn wgr build"))?;
    let status_path = format!("/proc/{}/status", child.id());
    let done = AtomicBool::new(false);
    let (status, peak) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0u64;
            while !done.load(Ordering::Acquire) {
                if let Some(m) = std::fs::read_to_string(&status_path)
                    .ok()
                    .and_then(|t| obs::procstat::parse_status(&t))
                {
                    peak = peak.max(m.peak_rss_bytes);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            peak
        });
        let status = child.wait();
        done.store(true, Ordering::Release);
        (status, poller.join().unwrap_or(0))
    });
    let secs = secs_since(t);
    let status = status.map_err(err("wait for wgr build"))?;
    if !status.success() {
        return Err(format!("wgr build exited with {status}"));
    }
    Ok(BuildRun {
        secs,
        peak_rss_bytes: peak,
    })
}

/// Exact size of the representation in bits: `meta.bin` plus every
/// `index_*.bin`, the accounting of the paper's Table 1.
pub fn representation_bits(dir: &Path) -> Res<u64> {
    let mut bytes = 0u64;
    for e in std::fs::read_dir(dir).map_err(err("list representation"))? {
        let e = e.map_err(err("list representation"))?;
        let name = e.file_name().to_string_lossy().into_owned();
        if name == "meta.bin" || (name.starts_with("index_") && name.ends_with(".bin")) {
            bytes += e.metadata().map_err(err("stat representation file"))?.len();
        }
    }
    Ok(bytes * 8)
}

/// Flips one byte in the middle of `dir/index_000.bin` (the smoke test's
/// proof that the correctness gate fires).
pub fn flip_index_byte(dir: &Path) -> Res<()> {
    let path = dir.join("index_000.bin");
    let mut bytes = std::fs::read(&path).map_err(err("read index file"))?;
    let mid = bytes.len() / 2;
    *bytes.get_mut(mid).ok_or("index file is empty")? ^= 0x5a;
    std::fs::write(&path, bytes).map_err(err("write index file"))
}

/// Stage times and sizes of one in-process `build_snode_sharded`, by
/// name, for the `build.*` layer metrics: the body of the `stage-child`
/// subcommand, a re-exec'd child so that the RSS reading belongs to this
/// build alone.
pub fn build_stages(
    corpus_dir: &Path,
    out: &Path,
    shards: u32,
    threads: u32,
) -> Res<Vec<(&'static str, f64)>> {
    let (corpus, read_s) = read_corpus(corpus_dir)?;
    let rss_after_read_mb = obs::sample_self().map_or(0.0, |m| m.rss_bytes as f64 / 1e6);
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let config = SNodeConfig {
        threads,
        ..SNodeConfig::default()
    };
    let (stats, _) = build_snode_sharded(input, &config, out, shards).map_err(err("build"))?;
    let t = stats.timings;
    Ok(vec![
        ("read_s", read_s),
        ("refine_s", t.refine_secs),
        ("remap_s", t.remap_secs),
        ("encode_s", t.encode_secs),
        ("write_s", t.write_secs),
        ("total_s", t.total_secs),
        ("rss_after_read_mb", rss_after_read_mb),
        ("intranode_bits", stats.intranode_bits as f64),
        ("superedge_bits", stats.superedge_bits as f64),
        ("meta_bits", stats.meta_bytes as f64 * 8.0),
        ("num_edges", stats.num_edges as f64),
        ("supernodes", f64::from(stats.num_supernodes)),
        ("superedges", stats.num_superedges as f64),
    ])
}

// ---------------------------------------------------------------------
// Ground truth.

/// FNV-1a over a list's length and entries.
pub fn hash_list(list: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(list.len() as u32);
    list.iter().copied().for_each(&mut eat);
    h
}

/// The corpus CSR graph plus a representation's page renumbering: what
/// every `out_neighbors` answer is checked against.
pub struct Truth {
    graph: Graph,
    renum: Renumbering,
}

impl Truth {
    /// `graph` is the corpus graph; the renumbering is read from the
    /// representation at `snode_dir`.
    pub fn new(graph: Graph, snode_dir: &Path) -> Res<Self> {
        let renum = Renumbering::read(snode_dir).map_err(err("read pagemap"))?;
        if renum.old_of_new.len() != graph.num_nodes() as usize {
            return Err("pagemap and corpus disagree on the page count".into());
        }
        Ok(Self { graph, renum })
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The true adjacency list of representation page `p`, in
    /// representation ids, ascending.
    pub fn neighbors(&self, p: u32) -> Vec<u32> {
        let old = self.renum.old_of_new[p as usize];
        let mut v: Vec<u32> = self
            .graph
            .neighbors(old)
            .iter()
            .map(|&t| self.renum.new_of_old[t as usize])
            .collect();
        v.sort_unstable();
        v
    }

    /// [`hash_list`] of the true list of every page in `pages`.
    pub fn expected(&self, pages: &[u32]) -> Vec<u64> {
        pages
            .iter()
            .map(|&p| hash_list(&self.neighbors(p)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Read side, in process: the navigation surface.

#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_loaded: u64,
}

/// An `SNode::open_resident` handle.
pub struct Resident(SNode);

impl Resident {
    pub fn open(dir: &Path, budget: usize) -> Res<Self> {
        SNode::open_resident(dir, budget)
            .map(Resident)
            .map_err(err("open_resident"))
    }

    /// `nav.scalar_us_per_call`: the adjacency list of one page.
    pub fn probe(&self, p: u32, out: &mut Vec<u32>) -> Res<()> {
        self.0
            .out_neighbors_into(p, out)
            .map_err(err("out_neighbors_into"))
    }

    /// `nav.batch_us_per_page`: one frontier through the batched path;
    /// returns the edges delivered.
    pub fn batch(&self, pages: &[u32]) -> Res<u64> {
        let mut edges = 0u64;
        self.0
            .out_neighbors_batch(pages, &mut |_, list| edges += list.len() as u64)
            .map_err(err("out_neighbors_batch"))?;
        Ok(edges)
    }

    /// Exact when one thread navigates (every workload here).
    pub fn cache_counts(&self) -> CacheCounts {
        let s = self.0.cache_stats();
        CacheCounts {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bytes_loaded: s.bytes_loaded,
        }
    }
}

/// This process's current and peak resident set, in bytes.
pub fn self_memory() -> (u64, u64) {
    obs::sample_self().map_or((0, 0), |m| (m.rss_bytes, m.peak_rss_bytes))
}

// ---------------------------------------------------------------------
// The shadow probe: the cold read path taken apart from outside.

#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    pub graphs: u64,
    pub encoded_bytes: u64,
    pub edges: u64,
}

/// The resident pieces a cold `out_neighbors` probe uses, opened through
/// their own public constructors.
pub struct Shadow {
    meta: SNodeMeta,
    files: IndexFileReader,
    blob_crc: Vec<u32>,
    blob_base: Vec<u64>,
    /// `disk.open_resident_ms`: `SNodeMeta::read` + `IndexFileReader::open_resident`.
    pub open_ms: f64,
}

impl Shadow {
    pub fn open(dir: &Path) -> Res<Self> {
        let t = Instant::now();
        let meta = SNodeMeta::read(dir).map_err(err("read meta"))?;
        let files = IndexFileReader::open_resident(dir).map_err(err("open index files"))?;
        let open_ms = secs_since(t) * 1e3;
        let blob_crc = IntegrityManifest::read(dir)
            .map_err(err("read sums.bin"))?
            .ok_or("representation has no sums.bin")?
            .blob_crc;
        let mut blob_base = vec![0u64];
        for adj in &meta.supergraph.adj {
            blob_base.push(blob_base[blob_base.len() - 1] + 1 + adj.len() as u64);
        }
        Ok(Self {
            meta,
            files,
            blob_crc,
            blob_base,
            open_ms,
        })
    }

    pub fn meta(&self) -> &SNodeMeta {
        &self.meta
    }

    /// `disk.resident_bytes`.
    pub fn resident_bytes(&self) -> u64 {
        self.files.resident_bytes()
    }

    fn parse_intra(&self, blob: &[u8], loc: &GraphLocator) -> Res<ListsIndex> {
        ListsIndex::parse(
            blob,
            loc.bit_len,
            Universe::SameAsCount,
            self.meta.codec.intra,
        )
        .map_err(err("ListsIndex::parse"))
    }

    fn parse_super(
        &self,
        blob: &[u8],
        loc: &GraphLocator,
        ni: u64,
        nj: u64,
    ) -> Res<SuperedgeIndex> {
        SuperedgeIndex::parse(blob, loc.bit_len, ni, nj, self.meta.codec.superedge)
            .map_err(err("SuperedgeIndex::parse"))
    }

    /// Locators of supernode `s`'s graphs with their linear blob index:
    /// the intranode graph (`None`), then one per superedge target.
    fn parts(&self, s: u32) -> impl Iterator<Item = (Option<u32>, GraphLocator, u64)> + '_ {
        let base = self.blob_base[s as usize];
        let supers = self.meta.supergraph.adj[s as usize]
            .iter()
            .zip(&self.meta.superedge_loc[s as usize])
            .enumerate()
            .map(move |(k, (&j, &loc))| (Some(j), loc, base + 1 + k as u64));
        std::iter::once((None, self.meta.intranode_loc[s as usize], base)).chain(supers)
    }

    /// One probe through `supernode_of → read_blob → crc32c → parse →
    /// decode → merge`, a span per call. Fills `out` with the list.
    pub fn probe(&self, p: u32, t: &mut Tracer, id: u64, out: &mut Vec<u32>) -> Res<ShadowCounts> {
        let root = t.begin("shadow_probe", "shadow", id);
        let sp = t.begin("supernode_of", "nav", id);
        let s = self.meta.supernode_of(p);
        t.end(sp);
        let range = self.meta.page_range(s);
        let local = p - range.start;
        let ni = u64::from(self.meta.supernode_size(s));
        let mut counts = ShadowCounts::default();
        let mut lists: Vec<(u32, Vec<u32>)> = Vec::new();
        for (target, loc, blob_idx) in self.parts(s) {
            let sp = t.begin("read_blob", "disk", id);
            let blob = self.files.read_blob(&loc);
            t.end(sp);
            let blob = blob.map_err(err("read_blob"))?;
            let sp = t.begin("crc32c", "disk", id);
            let crc = crc32c(&blob);
            t.end(sp);
            if self.blob_crc.get(blob_idx as usize) != Some(&crc) {
                return Err("shadow probe: blob checksum mismatch".into());
            }
            counts.graphs += 1;
            counts.encoded_bytes += loc.byte_len;
            let (start, list) = match target {
                None => {
                    let sp = t.begin("index_parse", "refenc", id);
                    let index = self.parse_intra(&blob, &loc);
                    t.end(sp);
                    let index = index?;
                    let sp = t.begin("decode_list", "refenc", id);
                    let list = index.decode_list(&blob, loc.bit_len, local);
                    t.end(sp);
                    (range.start, list.map_err(err("decode_list"))?)
                }
                Some(j) => {
                    let nj = u64::from(self.meta.supernode_size(j));
                    let sp = t.begin("index_parse", "refenc", id);
                    let index = self.parse_super(&blob, &loc, ni, nj);
                    t.end(sp);
                    let index = index?;
                    let sp = t.begin("decode_list", "refenc", id);
                    let list = index.targets_of(&blob, loc.bit_len, u64::from(local), nj);
                    t.end(sp);
                    (
                        self.meta.page_range(j).start,
                        list.map_err(err("targets_of"))?,
                    )
                }
            };
            counts.edges += list.len() as u64;
            lists.push((start, list));
        }
        let sp = t.begin("merge", "nav", id);
        lists.sort_unstable_by_key(|&(start, _)| start);
        out.clear();
        for (start, list) in &lists {
            out.extend(list.iter().map(|&x| start + x));
        }
        t.end(sp);
        t.end(root);
        Ok(counts)
    }

    /// Encoded intranode graphs of `supernodes`, parsed, with their
    /// decoded lists — the inputs of the whole-graph refenc costs.
    fn intranode_graphs(&self, supernodes: &[u32]) -> Res<Vec<(Vec<Vec<u32>>, u64)>> {
        supernodes
            .iter()
            .map(|&s| {
                let loc = self.meta.intranode_loc[s as usize];
                let blob = self.files.read_blob(&loc).map_err(err("read_blob"))?;
                let index = self.parse_intra(&blob, &loc)?;
                let t = Instant::now();
                let lists = index
                    .decode_all(&blob, loc.bit_len)
                    .map_err(err("decode_all"))?;
                Ok((lists, ns_since(t)))
            })
            .collect()
    }

    /// `refenc.decode_all_ns_per_edge` and `refenc.encode_ns_per_edge`
    /// over the intranode graphs of `supernodes`: decode each whole graph,
    /// then encode the decoded lists again with the builder's defaults.
    pub fn price_whole_graphs(&self, supernodes: &[u32]) -> Res<(f64, f64)> {
        let graphs = self.intranode_graphs(supernodes)?;
        let edges: u64 = graphs
            .iter()
            .flat_map(|(lists, _)| lists.iter().map(|l| l.len() as u64))
            .sum();
        let decode_ns: u64 = graphs.iter().map(|&(_, ns)| ns).sum();
        let t = Instant::now();
        for (lists, _) in &graphs {
            let enc = encode_lists(
                lists,
                lists.len() as u64,
                RefMode::default(),
                self.meta.codec.intra,
            );
            std::hint::black_box(enc.bit_len);
        }
        let encode_ns = ns_since(t);
        let edges = edges.max(1) as f64;
        Ok((decode_ns as f64 / edges, encode_ns as f64 / edges))
    }

    /// `cache.get_hit_ns` and `cache.insert_evict_ns`, on `GraphCache`
    /// directly: hits over a cache that holds every graph of
    /// `supernodes`, then inserts into a 1 MiB cache that must evict.
    pub fn price_cache(&self, supernodes: &[u32]) -> Res<(f64, f64)> {
        let make = |rounds: usize| -> Res<Vec<(GraphKey, CachedGraph)>> {
            let mut v = Vec::new();
            for _ in 0..rounds {
                for &s in supernodes {
                    let ni = u64::from(self.meta.supernode_size(s));
                    for (target, loc, _) in self.parts(s) {
                        let blob = self.files.read_blob(&loc).map_err(err("read_blob"))?;
                        v.push(match target {
                            None => {
                                let index = self.parse_intra(&blob, &loc)?;
                                (
                                    GraphKey::Intra(s),
                                    CachedGraph::new_encoded_intra(blob, loc.bit_len, index),
                                )
                            }
                            Some(j) => {
                                let nj = u64::from(self.meta.supernode_size(j));
                                let index = self.parse_super(&blob, &loc, ni, nj)?;
                                (
                                    GraphKey::Super(s, j),
                                    CachedGraph::new_encoded_super(blob, loc.bit_len, index, nj),
                                )
                            }
                        });
                    }
                }
            }
            Ok(v)
        };
        let graphs = make(1)?;
        let keys: Vec<GraphKey> = graphs.iter().map(|&(k, _)| k).collect();
        let cache = GraphCache::new(1 << 30);
        for (k, g) in graphs {
            cache.insert(k, g);
        }
        const HIT_ROUNDS: usize = 20;
        let t = Instant::now();
        for _ in 0..HIT_ROUNDS {
            for &k in &keys {
                std::hint::black_box(cache.get(k).is_some());
            }
        }
        let get_hit_ns = ns_since(t) as f64 / (HIT_ROUNDS * keys.len().max(1)) as f64;

        let graphs = make(3)?;
        let n = graphs.len().max(1);
        let cache = GraphCache::new(1 << 20);
        let t = Instant::now();
        for (k, g) in graphs {
            std::hint::black_box(cache.insert(k, g));
        }
        Ok((get_hit_ns, ns_since(t) as f64 / n as f64))
    }

    /// `bitio.*`: γ over the corpus's real gap stream (at most
    /// `max_symbols` gaps) and the supernode graph's canonical Huffman
    /// code over its real target stream. Returns ns per symbol for
    /// (γ encode, γ decode, Huffman decode).
    pub fn price_bitio(&self, graph: &Graph, max_symbols: usize) -> Res<(f64, f64, f64)> {
        let mut gaps: Vec<u64> = Vec::with_capacity(max_symbols);
        'fill: for v in 0..graph.num_nodes() {
            let mut prev: Option<u32> = None;
            for &x in graph.neighbors(v) {
                gaps.push(prev.map_or(u64::from(x), |p| u64::from(x - p - 1)));
                prev = Some(x);
                if gaps.len() == max_symbols {
                    break 'fill;
                }
            }
        }
        let n = gaps.len().max(1) as f64;
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut w = BitWriter::new();
            for &g in &gaps {
                codes::write_gamma(&mut w, g);
            }
            let (bytes, bits) = w.finish();
            enc.push(ns_since(t) as f64 / n);
            let t = Instant::now();
            let mut r = BitReader::with_bit_len(&bytes, bits);
            let mut sum = 0u64;
            for _ in 0..gaps.len() {
                sum = sum.wrapping_add(codes::read_gamma(&mut r).map_err(err("read_gamma"))?);
            }
            dec.push(ns_since(t) as f64 / n);
            if sum != gaps.iter().fold(0u64, |a, &g| a.wrapping_add(g)) {
                return Err("gamma round trip changed the gap stream".into());
            }
        }

        let sg = &self.meta.supergraph;
        let code = sg.canonical_code();
        let mut w = BitWriter::new();
        let mut symbols = 0u64;
        for &t in sg.adj.iter().flatten() {
            code.encode(&mut w, t);
            symbols += 1;
        }
        let (bytes, bits) = w.finish();
        let decoder = code.decoder();
        let mut huff = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut r = BitReader::with_bit_len(&bytes, bits);
            let mut sum = 0u64;
            for _ in 0..symbols {
                sum += u64::from(decoder.decode(&mut r).map_err(err("huffman decode"))?);
            }
            huff.push(ns_since(t) as f64 / symbols.max(1) as f64);
            if sum != sg.adj.iter().flatten().map(|&t| u64::from(t)).sum::<u64>() {
                return Err("huffman round trip changed the target stream".into());
            }
        }
        Ok((median(&enc), median(&dec), median(&huff)))
    }
}

// ---------------------------------------------------------------------
// Read side, over the wire: `wgr serve` and its client.

/// A running `wgr serve` subprocess; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub port: u16,
    /// Spawn → the "serving … on 127.0.0.1:PORT" line. Without `reuse`
    /// this is the service's whole bring-up: read the corpus, build every
    /// representation, build the text/PageRank/domain indexes, bind.
    pub ready_secs: f64,
}

/// The command line of one `wgr serve`.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec<'a> {
    pub corpus: &'a Path,
    pub reps: &'a Path,
    /// Serve the representations already under `reps`.
    pub reuse: bool,
    pub workers: usize,
    pub budget: usize,
    pub telemetry: bool,
    /// Threads of the representation builds (`WGR_THREADS`).
    pub build_threads: u32,
}

impl Server {
    pub fn spawn(wgr: &Path, spec: &ServerSpec<'_>) -> Res<Self> {
        let t = Instant::now();
        let mut cmd = Command::new(wgr);
        cmd.arg("serve")
            .arg(spec.corpus)
            .arg("--reps")
            .arg(spec.reps);
        cmd.args(["--port", "0"]);
        cmd.args(["--workers", &spec.workers.to_string()]);
        cmd.args(["--budget", &spec.budget.to_string()]);
        cmd.env("WGR_THREADS", spec.build_threads.to_string());
        if spec.reuse {
            cmd.arg("--reuse");
        }
        if !spec.telemetry {
            cmd.arg("--no-telemetry");
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(err("spawn wgr serve"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("wgr serve has no stdout")?);
        let mut line = String::new();
        let port = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err("wgr serve exited before it started serving".into());
                }
            }
            let port = line
                .split("127.0.0.1:")
                .nth(1)
                .and_then(|r| r.split_whitespace().next())
                .and_then(|p| p.parse::<u16>().ok());
            if let (true, Some(p)) = (line.starts_with("serving "), port) {
                break p;
            }
        };
        Ok(Self {
            child,
            _stdout: stdout,
            port,
            ready_secs: secs_since(t),
        })
    }

    /// The server process's current and peak resident set, in bytes.
    pub fn memory(&self) -> (u64, u64) {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|t| obs::procstat::parse_status(&t))
            .map_or((0, 0), |m| (m.rss_bytes, m.peak_rss_bytes))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One client connection. Any reply other than a clean `Ok` — an error, a
/// refusal, a degraded answer — is an `Err` and counts as a failed op.
pub struct Wire(Client);

impl Wire {
    pub fn connect(port: u16) -> Res<Self> {
        Client::connect(port).map(Wire).map_err(err("connect"))
    }

    /// `serve.ping_rtt_us`.
    pub fn ping(&mut self) -> Res<()> {
        match self.0.ping().map_err(err("ping"))? {
            Status::Ok => Ok(()),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    /// Runs workload query `n` and returns the server's row fingerprint,
    /// after checking it against the rows that came with it.
    pub fn query(&mut self, n: u8) -> Res<u64> {
        let r = self.0.query(n).map_err(err("query"))?;
        if r.status != Status::Ok {
            return Err(format!("q{n} answered {:?}", r.status));
        }
        if fingerprint_rows(&r.rows) != r.fingerprint {
            return Err(format!("q{n}: rows do not match their fingerprint"));
        }
        Ok(r.fingerprint)
    }

    pub fn out_neighbors(&mut self, p: u32) -> Res<Vec<u32>> {
        match self.0.out_neighbors(p).map_err(err("out_neighbors"))? {
            (Status::Ok, pages) => Ok(pages),
            (other, _) => Err(format!("out_neighbors answered {other:?}")),
        }
    }
}

/// The in-process twin of the server: the same representations under
/// `reps`, the same indexes, the same discovered workload — the reference
/// every wire answer must equal, and where the `query.*` layer is timed.
pub struct Reference {
    ctx: ServeContext,
    set: SchemeSet,
}

impl Reference {
    pub fn open(corpus: &Corpus, reps: &Path, budget: usize) -> Res<Self> {
        let set = SchemeSet::open_existing(reps, &corpus.graph, budget)
            .map_err(err("open representations"))?;
        let text = TextIndex::build(corpus, &set.renumbering);
        let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
        let domains = DomainTable::build(corpus, &set.renumbering);
        let workload = Workload::discover(&text, &domains);
        let ctx = ServeContext {
            text,
            pagerank,
            domains,
            workload,
            fwd: set
                .open(Scheme::SNode)
                .map_err(err("open forward s-node"))?,
            back: set
                .open_transpose(Scheme::SNode)
                .map_err(err("open transpose s-node"))?,
            num_pages: set.graph.num_nodes(),
        };
        Ok(Self { ctx, set })
    }

    /// `query.qN_ms`: runs workload query `n` in process; returns its
    /// wall time in ms and its row fingerprint.
    pub fn run_query(&self, n: u8) -> Res<(f64, u64)> {
        let t = Instant::now();
        let out = self.ctx.run_query(n).map_err(err("run_query"))?;
        Ok((secs_since(t) * 1e3, fingerprint_rows(&out.rows)))
    }

    /// `query.lists_decoded_per_cycle` and `query.pages_fetched_per_cycle`:
    /// one observed Q1–6 cycle over freshly opened representations.
    /// Raises the process-wide metrics flag for the duration, so call it
    /// after everything that is timed.
    pub fn observed_cycle(&self) -> Res<(u64, u64)> {
        obs::set_metrics_enabled(true);
        let report = run_observed(self.ctx.env(), &self.set, Scheme::SNode, &self.ctx.workload);
        obs::set_metrics_enabled(false);
        let report = report.map_err(err("run_observed"))?;
        Ok(report.queries.iter().fold((0, 0), |(lists, pages), q| {
            (
                lists + q.intra_lists_decoded + q.super_lists_decoded,
                pages + q.pages_fetched,
            )
        }))
    }
}
