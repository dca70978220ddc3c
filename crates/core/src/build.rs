//! End-to-end S-Node construction (§3): refine the partition, renumber
//! pages, encode every graph, and lay the representation out on disk. A
//! transpose is laid out over its forward directory's partition instead.

use crate::disk::{GraphLocator, IndexFileWriter, Renumbering, SNodeMeta};
use crate::flat::{FlatLists, ListBuf};
use crate::partition::{refine, Partition, RefineConfig, RefineStats, SplitState};
use crate::refenc::{plan_lists, write_lists, EncodedLists, RefMode};
use crate::subgraphs::{
    plan_superedge, write_superedge, EncodedSuperedge, SuperedgeLinks, SuperedgePlan,
};
use crate::supergraph::SupernodeGraph;
use crate::Result;
use std::path::Path;
use wg_graph::Graph;
use wg_obs::{record_span, Stopwatch};

/// The repository slice the builder consumes.
#[derive(Debug, Clone, Copy)]
pub struct RepoInput<'a> {
    /// Full URL per page (drives URL split and page ordering). Borrowed
    /// string slices: callers keep ownership and no URL text is cloned
    /// anywhere on the build path.
    pub urls: &'a [&'a str],
    /// Domain id per page (drives `P0` and the domain index).
    pub domains: &'a [u32],
    /// The Web graph.
    pub graph: &'a Graph,
}

/// Build-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct SNodeConfig {
    /// Partition-refinement parameters.
    pub refine: RefineConfig,
    /// Reference-selection mode for intranode/superedge compression.
    pub ref_mode: RefMode,
    /// Index-file size cap (paper: 500 MB).
    pub max_file_bytes: u64,
    /// Worker threads for the encode pipeline (refinement runs on one).
    ///
    /// `0` (the default) resolves at build time via
    /// [`crate::par::resolve_threads`]: the `WGR_THREADS` environment
    /// variable if set, otherwise the machine's available parallelism.
    /// The representation produced is byte-identical for every value.
    pub threads: u32,
}

impl Default for SNodeConfig {
    fn default() -> Self {
        Self {
            refine: RefineConfig::default(),
            ref_mode: RefMode::default(),
            max_file_bytes: 500 << 20,
            threads: 0,
        }
    }
}

/// Wall-clock breakdown of one build, by pipeline stage.
///
/// Timings are measurements, not outputs: they vary run to run and carry
/// no information about the representation, which is byte-identical
/// across thread counts. Determinism tests must compare the rest of
/// [`BuildStats`], never this.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Worker threads the build resolved to (after `WGR_THREADS` / auto).
    pub threads: u32,
    /// Partition refinement (§3.2).
    pub refine_secs: f64,
    /// Page renumbering.
    pub remap_secs: f64,
    /// Per-supernode graph remap plus intranode/superedge graph encoding
    /// (the parallel stage), summed over the windows.
    pub encode_secs: f64,
    /// Serial index-file appends, summed over the windows, plus
    /// `pagemap.bin`, `meta.bin` and `sums.bin`.
    pub write_secs: f64,
    /// Whole build, end to end.
    pub total_secs: f64,
}

/// Everything the builder measured, for the scalability and compression
/// experiments.
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// Partition-refinement statistics.
    pub refine: RefineStats,
    /// Final number of supernodes (Figure 9a).
    pub num_supernodes: u32,
    /// Final number of superedges (Figure 9b).
    pub num_superedges: u64,
    /// Huffman-encoded supernode-graph size including 4-byte pointers per
    /// vertex and edge (Figure 10's accounting).
    pub supernode_graph_bytes_with_pointers: u64,
    /// Encoded supernode-graph adjacency alone, in bits.
    pub supernode_graph_bits: u64,
    /// Total bits across all intranode graphs.
    pub intranode_bits: u64,
    /// Total bits across all superedge graphs.
    pub superedge_bits: u64,
    /// Bytes of `meta.bin` (supernode graph + pointers + both indexes).
    pub meta_bytes: u64,
    /// Bytes across all index files.
    pub index_bytes: u64,
    /// Bytes of the `sums.bin` integrity manifest. Deliberately excluded
    /// from [`BuildStats::total_bits`]: checksums are operational armour,
    /// not part of the representation the paper's Table 1 measures, and
    /// the committed benchmark baselines predate them.
    pub checksum_bytes: u64,
    /// Edges in the input graph.
    pub num_edges: u64,
    /// Per-stage wall-clock breakdown (not part of the representation;
    /// varies run to run).
    pub timings: StageTimings,
}

impl BuildStats {
    /// Total representation size in bits: encoded supernode graph, pointer
    /// tables, PageID index, domain index, and every intranode/superedge
    /// graph — i.e. `meta.bin` plus the index files, the same accounting
    /// the paper's Table 1 uses ("total space used by the graph
    /// representation").
    pub fn total_bits(&self) -> u64 {
        (self.meta_bytes + self.index_bytes) * 8
    }

    /// Bits per edge (Table 1's metric).
    pub fn bits_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.total_bits() as f64 / self.num_edges as f64
        }
    }
}

/// Supernodes encoded, and their blobs held, between two appends to the
/// index files: enough to keep every worker busy up to the window's end,
/// few enough that their blobs are a rounding error next to the corpus.
/// Build time is flat from 32 to 256 at 100k–1M pages; peak RSS with three
/// or more workers starts to climb past 128 (DESIGN §5i).
const ENCODE_WINDOW: usize = 64;

/// Builds the complete S-Node representation of `input` under `dir`.
///
/// Returns the build statistics and the page renumbering (input ids →
/// S-Node ids). The renumbering is also persisted as `pagemap.bin`.
pub fn build_snode(
    input: RepoInput<'_>,
    config: &SNodeConfig,
    dir: &Path,
) -> Result<(BuildStats, Renumbering)> {
    build_windowed(input, config, dir, ENCODE_WINDOW)
}

/// Exists only for `benchmark/src/layers.rs`, which is frozen and calls the
/// builder by this name; forwards to [`build_snode`] and goes with the next
/// change to `benchmark/`.
pub fn build_snode_sharded(
    input: RepoInput<'_>,
    config: &SNodeConfig,
    dir: &Path,
    _num_shards: u32,
) -> Result<(BuildStats, Renumbering)> {
    build_snode(input, config, dir)
}

/// Builds the S-Node representation of `transpose`, the transpose of the
/// graph the directory at `forward_dir` holds, in that directory's page
/// ids, under `dir`. WGᵀ is stored over WG's partition and numbering: its
/// supernodes and page ranges are the forward directory's, so its supernode
/// graph is the forward one reversed, its domain index is the forward one,
/// and its `pagemap.bin` is the identity. Nothing is refined, so
/// [`BuildStats::refine`] is zero.
pub fn build_snode_transpose(
    forward_dir: &Path,
    transpose: &Graph,
    config: &SNodeConfig,
    dir: &Path,
) -> Result<BuildStats> {
    let t_build = Stopwatch::start();
    let partition = {
        // A strict open: `meta.bin` is held to `sums.bin` before it is read.
        let forward = crate::SNode::open_resident(forward_dir, 0)?;
        let index = forward.index();
        assert_eq!(index.num_pages(), transpose.num_nodes());
        let domains = (0..index.num_domains()).map(|d| index.supernodes_of_domain(d));
        Partition::from_ranges(index.range_start(), domains)
    };
    let identity = Renumbering::from_old_of_new((0..transpose.num_nodes()).collect());
    let mut stats = encode_and_write(transpose, &partition, &identity, config, dir, ENCODE_WINDOW)?;
    stats.timings.total_secs = secs(record_span("core.build.total", "build", &t_build));
    Ok(stats)
}

/// [`build_snode`] with the window size as an argument, so tests can show
/// that the output does not depend on it.
fn build_windowed(
    input: RepoInput<'_>,
    config: &SNodeConfig,
    dir: &Path,
    window: usize,
) -> Result<(BuildStats, Renumbering)> {
    let n_pages = input.graph.num_nodes();
    assert_eq!(input.urls.len(), n_pages as usize);
    assert_eq!(input.domains.len(), n_pages as usize);
    let t_build = Stopwatch::start();

    // 1. Iterative partition refinement (§3.2).
    let t = Stopwatch::start();
    let (partition, refine_stats) = refine(input.urls, input.domains, &config.refine);
    let refine_secs = secs(record_span("core.build.refine", "build", &t));
    if wg_obs::metrics_enabled() {
        let reg = wg_obs::global();
        let count = |name: &str, n: u64| reg.counter(&format!("core.build.refine.{name}")).add(n);
        count("iterations", refine_stats.iterations);
        count("url_splits", refine_stats.url_splits);
        count("cuts", refine_stats.cuts);
    }

    // 2. Page numbering (§3.3): supernodes numbered 1..n in element order;
    //    pages ordered by (supernode, lexicographic URL).
    let t = Stopwatch::start();
    let renumbering = number_pages(&partition, input.urls);
    let remap_secs = secs(record_span("core.build.remap", "build", &t));

    let mut stats = encode_and_write(input.graph, &partition, &renumbering, config, dir, window)?;
    stats.refine = refine_stats;
    stats.timings.refine_secs = refine_secs;
    stats.timings.remap_secs = remap_secs;
    stats.timings.total_secs = secs(record_span("core.build.total", "build", &t_build));
    Ok((stats, renumbering))
}

/// Encodes every graph of `graph` over `partition`, its pages numbered by
/// `renumbering`, and writes the directory: index files, `pagemap.bin`,
/// `meta.bin` and `sums.bin`, in place of whatever a build left in `dir`
/// before. The stats it returns carry no refinement and, of the timings,
/// only the encode and write ones.
fn encode_and_write(
    graph: &Graph,
    partition: &Partition,
    renumbering: &Renumbering,
    config: &SNodeConfig,
    dir: &Path,
    window: usize,
) -> Result<BuildStats> {
    remove_owned_files(dir)?;
    let threads = crate::par::resolve_threads(config.threads);
    let range_start = compute_ranges(partition);

    // 3. Remap and encode every graph (see `SupernodeEncoder`), one window
    //    of consecutive supernodes at a time, in parallel across the
    //    window, and append the window's blobs to the index files in the
    //    paper's linear order: IntraNode_i, then SEdge_{i, j} for each j in
    //    superedge order. `par_map` returns results in supernode order, so
    //    the files are what a serial pipeline would write, whatever the
    //    window and thread count; only a supernode's row of the supernode
    //    graph outlives its window.
    let n_super = partition.len();
    let encoder = SupernodeEncoder {
        graph,
        partition,
        renumbering,
        range_start: &range_start,
        config,
    };
    let mut writer = IndexFileWriter::create(dir, config.max_file_bytes)?;
    let mut supergraph = SupernodeGraph {
        adj: Vec::with_capacity(n_super),
    };
    let mut intranode_loc = Vec::with_capacity(n_super);
    let mut superedge_loc: Vec<Vec<GraphLocator>> = Vec::with_capacity(n_super);
    let mut intranode_bits = 0u64;
    let mut superedge_bits = 0u64;
    // Per-blob CRCs for the integrity manifest, collected in the same
    // linear order the blobs hit the disk in.
    let mut blob_crc = Vec::new();
    let (mut encode_secs, mut write_secs) = (0.0, 0.0);
    for first in (0..n_super).step_by(window) {
        let t = Stopwatch::start();
        let len = window.min(n_super - first);
        let encoded: Vec<EncodedSupernode> =
            crate::par::par_map(threads, len, |m| encoder.encode((first + m) as u32));
        encode_secs += secs(record_span("core.build.encode", "build", &t));

        let t = Stopwatch::start();
        for EncodedSupernode {
            targets,
            intra,
            edges,
        } in encoded
        {
            intranode_bits += intra.bit_len;
            blob_crc.push(wg_fault::crc32c(&intra.bytes));
            intranode_loc.push(writer.append(&intra.bytes, intra.bit_len)?);

            let mut locs = Vec::with_capacity(edges.len());
            for enc in &edges {
                superedge_bits += enc.bit_len;
                blob_crc.push(wg_fault::crc32c(&enc.bytes));
                locs.push(writer.append(&enc.bytes, enc.bit_len)?);
            }
            superedge_loc.push(locs);
            supergraph.adj.push(targets);
        }
        write_secs += secs(record_span("core.build.write", "build", &t));
    }

    // 4. Meta: supernode graph + pointers + PageID index + domain index.
    let t = Stopwatch::start();
    let (index_bytes, _files) = writer.finish()?;
    // Every page's domain is its supernode's: the index runs to the highest
    // domain any page has.
    let num_domains = partition
        .elements
        .iter()
        .map(|e| e.domain as usize + 1)
        .max();
    let mut domain_supernodes: Vec<Vec<u32>> = vec![Vec::new(); num_domains.unwrap_or(0)];
    for (s, e) in partition.elements.iter().enumerate() {
        domain_supernodes[e.domain as usize].push(s as u32);
    }
    let supergraph_bits = supergraph.encoded_bits();
    let meta = SNodeMeta {
        num_pages: graph.num_nodes(),
        range_start,
        supergraph_bits,
        supergraph,
        intranode_loc,
        superedge_loc,
        domain_supernodes,
        codec: Default::default(),
        max_file_bytes: config.max_file_bytes,
    };
    // `meta.bin` is what a reader opens a directory by, so it goes in after
    // everything it points to; then the sidecar integrity manifest, which
    // checksums every file above. A build that dies before this point
    // leaves a directory that does not open.
    renumbering.write(dir)?;
    let meta_bytes = meta.write(dir)?;
    let checksum_bytes = crate::integrity::IntegrityManifest::compute(dir, blob_crc)?.write(dir)?;
    write_secs += secs(record_span("core.build.write", "build", &t));

    // `StageTimings` is a *view* of the same stopwatches the spans record —
    // one measurement, two renderings, never parallel bookkeeping.
    let timings = StageTimings {
        threads,
        encode_secs,
        write_secs,
        ..StageTimings::default()
    };
    Ok(BuildStats {
        refine: RefineStats::default(),
        num_supernodes: meta.num_supernodes(),
        num_superedges: meta.supergraph.num_superedges(),
        supernode_graph_bytes_with_pointers: meta.supergraph.encoded_bytes_with_pointers(),
        supernode_graph_bits: supergraph_bits,
        intranode_bits,
        superedge_bits,
        meta_bytes,
        index_bytes,
        checksum_bytes,
        num_edges: graph.num_edges(),
        timings,
    })
}

/// Span nanoseconds as the seconds `StageTimings` reports.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Orders pages: supernode by element index, lexicographic URL within,
/// ties by page id. A run the cut made is in that order already.
fn number_pages(partition: &Partition, urls: &[&str]) -> Renumbering {
    let mut old_of_new = Vec::with_capacity(urls.len());
    for e in &partition.elements {
        let start = old_of_new.len();
        old_of_new.extend_from_slice(&e.pages);
        if e.state != SplitState::Cut {
            // Stable, over ascending ids: ties stay in page-id order.
            old_of_new[start..].sort_by(|&a, &b| urls[a as usize].cmp(urls[b as usize]));
        }
    }
    Renumbering::from_old_of_new(old_of_new)
}

/// Contiguous page-id range starts per supernode.
fn compute_ranges(partition: &Partition) -> Vec<u32> {
    let mut starts = Vec::with_capacity(partition.len() + 1);
    let mut acc = 0u32;
    starts.push(0);
    for e in &partition.elements {
        acc += e.pages.len() as u32;
        starts.push(acc);
    }
    starts
}

/// Creates `dir` if needed and removes from it everything a build writes:
/// `meta.bin`, `pagemap.bin`, `sums.bin`, every `index_NNN.bin`, and the
/// `shards.bin` and `spill/` that builders before this one left. An
/// earlier build's index files would be checksummed into this build's
/// `sums.bin`; its `meta.bin` and `pagemap.bin`, were this build to die
/// before replacing them, would open over this build's index files as a
/// directory with no manifest to say otherwise.
fn remove_owned_files(dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "spill" {
                std::fs::remove_dir_all(entry.path())?;
            }
        } else if matches!(&*name, "meta.bin" | "pagemap.bin" | "shards.bin")
            || name == crate::integrity::SUMS_FILE
            || (name.starts_with("index_") && name.ends_with(".bin"))
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// One supernode's encoded graphs.
struct EncodedSupernode {
    /// The supernodes its superedges lead to, ascending: its row of the
    /// supernode graph. `edges` is parallel to it.
    targets: Vec<u32>,
    intra: EncodedLists,
    edges: Vec<EncodedSuperedge>,
}

/// Remaps and encodes one supernode at a time, from read-only views of the
/// build's input and its numbering that every worker shares. A worker holds
/// one supernode's links, in space proportional to their number and to no
/// other graph's, so the build's peak is what the caller holds of the input
/// — for `wgr build` the URL text, the page domains and the CSR graph, not
/// a `Corpus` — plus the partition and the numbering, that per worker, and
/// one window's encoded blobs.
struct SupernodeEncoder<'a> {
    graph: &'a Graph,
    partition: &'a Partition,
    renumbering: &'a Renumbering,
    range_start: &'a [u32],
    config: &'a SNodeConfig,
}

/// The links of one supernode in local ids, as the flat collections the
/// encoders read: nothing here is allocated per page or per superedge.
struct SupernodeLinks {
    /// The intranode graph: a list per page.
    intra: ListBuf,
    /// The supernodes its cross links lead to, ascending: one superedge
    /// each, `targets[k]`'s being superedge `k`.
    targets: Vec<u32>,
    /// Superedge `k`'s source pages are `sources[run_start[k]..
    /// run_start[k + 1]]`, ascending.
    run_start: Vec<u32>,
    sources: Vec<u32>,
    /// Parallel to `sources`: where that page's target list ends among
    /// its superedge's values.
    ends: Vec<u32>,
    /// Superedge `k`'s values are `values[value_start[k]..
    /// value_start[k + 1]]`: its pages' target lists, one after the other.
    value_start: Vec<u32>,
    values: Vec<u32>,
}

impl SupernodeLinks {
    /// Superedge `k` between supernodes of `ni` and `nj` pages.
    fn superedge(&self, k: usize, ni: u64, nj: u64) -> SuperedgeLinks<'_> {
        let runs = self.run_start[k] as usize..self.run_start[k + 1] as usize;
        let values = self.value_start[k] as usize..self.value_start[k + 1] as usize;
        SuperedgeLinks {
            sources: &self.sources[runs.clone()],
            lists: FlatLists::new(&self.values[values], &self.ends[runs]),
            ni,
            nj,
        }
    }
}

impl SupernodeEncoder<'_> {
    fn size(&self, j: u32) -> u32 {
        self.range_start[j as usize + 1] - self.range_start[j as usize]
    }

    /// Encodes the intranode graph of supernode `s` and one superedge
    /// graph per target supernode, serially — the build's threads each
    /// take a supernode of the window — in three passes: every link once
    /// into local ids, every graph's representation chosen, every stream
    /// written.
    fn encode(&self, s: u32) -> EncodedSupernode {
        let ref_mode = self.config.ref_mode;
        let ni = u64::from(self.size(s));

        let t = Stopwatch::start();
        let links = self.walk(s);
        record_span("core.build.encode.walk", "build", &t);

        let t = Stopwatch::start();
        let intra_plan = plan_lists(links.intra.view(), ni, ref_mode);
        let superedge = |k: usize| links.superedge(k, ni, u64::from(self.size(links.targets[k])));
        let plans: Vec<SuperedgePlan> = (0..links.targets.len())
            .map(|k| plan_superedge(superedge(k), ref_mode))
            .collect();
        record_span("core.build.encode.select", "build", &t);

        let t = Stopwatch::start();
        let intra = write_lists(links.intra.view(), ni, &intra_plan);
        let edges = plans
            .iter()
            .enumerate()
            .map(|(k, plan)| write_superedge(superedge(k), plan))
            .collect();
        record_span("core.build.encode.write", "build", &t);
        EncodedSupernode {
            targets: links.targets,
            intra,
            edges,
        }
    }

    /// Walks the pages of supernode `s` once, re-expressing every link in
    /// local ids, and cuts the cross links into superedges by counting.
    ///
    /// Pages are walked in ascending local id, so a stable distribution of
    /// the cross links over their target supernodes leaves each superedge
    /// with its source pages ascending and every page's targets together:
    /// only those short runs are sorted, never the links as a whole.
    fn walk(&self, s: u32) -> SupernodeLinks {
        const NO_SLOT: u32 = u32::MAX;
        let first_page = self.range_start[s as usize] as usize;
        let pages = &self.renumbering.old_of_new[first_page..][..self.size(s) as usize];

        // Pass 1: every link once. An intranode link goes to its page's
        // list; of a cross link the target supernode and local target are
        // kept in walk order, and where each page's stop.
        let mut intra = ListBuf::default();
        let (mut cross_super, mut cross_target) = (Vec::new(), Vec::new());
        let mut cross_ends = Vec::with_capacity(pages.len());
        let mut slot_of = vec![NO_SLOT; self.partition.len()];
        let mut targets = Vec::new();
        for &old_src in pages {
            let local = self.graph.neighbors(old_src).iter().filter_map(|&old_tgt| {
                let j = self.partition.elem_of[old_tgt as usize];
                let local_tgt =
                    self.renumbering.new_of_old[old_tgt as usize] - self.range_start[j as usize];
                if j == s {
                    return Some(local_tgt);
                }
                if slot_of[j as usize] == NO_SLOT {
                    slot_of[j as usize] = 0; // seen; ranked in pass 2
                    targets.push(j);
                }
                cross_super.push(j);
                cross_target.push(local_tgt);
                None
            });
            // Lists must be sorted for the codecs.
            intra.push_set(local);
            cross_ends.push(cross_super.len());
        }

        // Pass 2: a superedge per distinct target supernode, in
        // supernode-graph order; count each one's links and its runs (a
        // page's links into one supernode), and note every link's superedge.
        assert!(
            cross_target.len() <= u32::MAX as usize,
            "a supernode holds < 2^32 cross links"
        );
        targets.sort_unstable();
        for (slot, &j) in targets.iter().enumerate() {
            slot_of[j as usize] = slot as u32;
        }
        let mut value_start = vec![0u32; targets.len() + 1];
        let mut run_start = vec![0u32; targets.len() + 1];
        let mut last_source = vec![NO_SLOT; targets.len()];
        let page_links = |page: usize| match page {
            0 => 0..cross_ends[0],
            _ => cross_ends[page - 1]..cross_ends[page],
        };
        for page in 0..pages.len() {
            for j in &mut cross_super[page_links(page)] {
                let slot = slot_of[*j as usize] as usize;
                *j = slot as u32;
                value_start[slot + 1] += 1;
                if last_source[slot] != page as u32 {
                    last_source[slot] = page as u32;
                    run_start[slot + 1] += 1;
                }
            }
        }
        for slot in 0..targets.len() {
            value_start[slot + 1] += value_start[slot];
            run_start[slot + 1] += run_start[slot];
        }

        // Pass 3: every link to its superedge, in walk order.
        let mut value_at = value_start.clone();
        let mut run_at = run_start.clone();
        last_source.fill(NO_SLOT);
        let mut values = vec![0u32; cross_target.len()];
        let mut sources = vec![0u32; run_start[targets.len()] as usize];
        let mut ends = vec![0u32; sources.len()];
        for page in 0..pages.len() {
            for link in page_links(page) {
                let slot = cross_super[link] as usize;
                if last_source[slot] != page as u32 {
                    last_source[slot] = page as u32;
                    sources[run_at[slot] as usize] = page as u32;
                    run_at[slot] += 1;
                }
                values[value_at[slot] as usize] = cross_target[link];
                value_at[slot] += 1;
                ends[run_at[slot] as usize - 1] = value_at[slot] - value_start[slot];
            }
        }

        // A page's targets in one supernode arrived in the order of their
        // old ids. Distinct they are already: the graph's adjacency lists
        // hold no repeats and the renumbering is a bijection.
        for slot in 0..targets.len() {
            let superedge = &mut values[value_start[slot] as usize..value_start[slot + 1] as usize];
            let mut from = 0;
            for &to in &ends[run_start[slot] as usize..run_start[slot + 1] as usize] {
                superedge[from..to as usize].sort_unstable();
                from = to as usize;
            }
        }
        SupernodeLinks {
            intra,
            targets,
            run_start,
            sources,
            ends,
            value_start,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ListCodec;
    use crate::disk::{IndexFileReader, SNodeMeta};
    use crate::subgraphs::{decode_intranode, decode_superedge, Layout, SuperedgeIndex};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_snode_build_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// A small but structured repository: 2 domains, 3 hosts, 12 pages.
    fn small_repo() -> (Vec<&'static str>, Vec<u32>, Graph) {
        let urls: Vec<&'static str> = vec![
            "http://www.alpha.edu/a/p0.html",
            "http://www.alpha.edu/a/p1.html",
            "http://www.alpha.edu/b/p2.html",
            "http://www.alpha.edu/b/p3.html",
            "http://cs.alpha.edu/p4.html",
            "http://cs.alpha.edu/p5.html",
            "http://www.beta.com/x/p6.html",
            "http://www.beta.com/x/p7.html",
            "http://www.beta.com/y/p8.html",
            "http://www.beta.com/p9.html",
            "http://www.beta.com/y/p10.html",
            "http://cs.alpha.edu/z/p11.html",
        ];
        let domains = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0];
        let graph = Graph::from_edges(
            12,
            [
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 3),
                (3, 6),
                (4, 5),
                (5, 11),
                (6, 7),
                (7, 8),
                (8, 6),
                (9, 10),
                (10, 0),
                (6, 0),
                (1, 6),
                (2, 6),
                (4, 0),
                (11, 4),
            ],
        );
        (urls, domains, graph)
    }

    fn build_small(
        name: &str,
    ) -> (
        std::path::PathBuf,
        BuildStats,
        Renumbering,
        Graph,
        Vec<&'static str>,
        Vec<u32>,
    ) {
        let (urls, domains, graph) = small_repo();
        let dir = temp_dir(name);
        let config = SNodeConfig {
            max_file_bytes: 64, // force multiple index files
            ..Default::default()
        };
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let (stats, renum) = build_snode(input, &config, &dir).unwrap();
        (dir, stats, renum, graph, urls, domains)
    }

    #[test]
    fn renumbering_is_a_permutation_grouped_by_supernode() {
        let (dir, stats, renum, graph, urls, domains) = build_small("perm");
        assert_eq!(renum.old_of_new.len(), graph.num_nodes() as usize);
        let mut sorted = renum.old_of_new.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..graph.num_nodes()).collect::<Vec<_>>());
        // Within each supernode range, URLs ascend.
        let meta = SNodeMeta::read(&dir).unwrap();
        for s in 0..meta.num_supernodes() {
            let r = meta.page_range(s);
            let window: Vec<&str> = r
                .clone()
                .map(|n| urls[renum.old_of_new[n as usize] as usize])
                .collect();
            assert!(window.windows(2).all(|w| w[0] < w[1]), "supernode {s}");
            // Domain purity.
            let doms: Vec<u32> = r
                .map(|n| domains[renum.old_of_new[n as usize] as usize])
                .collect();
            assert!(doms.windows(2).all(|w| w[0] == w[1]));
        }
        assert!(stats.num_supernodes >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Opens the directory at `dir`, decodes every graph in it and holds
    /// the links that come back, page for page, to `graph`'s.
    fn assert_directory_holds(dir: &Path, graph: &Graph) {
        let meta = SNodeMeta::read(dir).unwrap();
        let renum = Renumbering::read(dir).unwrap();
        let files = IndexFileReader::open_resident(dir).unwrap();
        assert_eq!(meta.num_pages, graph.num_nodes());

        // Decode everything back and compare edge sets in new-id space.
        let mut rebuilt: Vec<Vec<u32>> = vec![Vec::new(); graph.num_nodes() as usize];
        for s in 0..meta.num_supernodes() {
            let start = meta.page_range(s).start;
            let bytes = files.read_blob(&meta.intranode_loc[s as usize]).unwrap();
            let lists = decode_intranode(&bytes, meta.intranode_loc[s as usize].bit_len).unwrap();
            for (local, list) in lists.iter().enumerate() {
                for &t in list {
                    rebuilt[(start + local as u32) as usize].push(start + t);
                }
            }
            for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
                let loc = &meta.superedge_loc[s as usize][k];
                let bytes = files.read_blob(loc).unwrap();
                let ni = u64::from(meta.supernode_size(s));
                let nj = u64::from(meta.supernode_size(j));
                let lists = decode_superedge(&bytes, loc.bit_len, ni, nj).unwrap();
                let jstart = meta.page_range(j).start;
                for (local, list) in lists.iter().enumerate() {
                    for &t in list {
                        rebuilt[(start + local as u32) as usize].push(jstart + t);
                    }
                }
            }
        }
        for l in &mut rebuilt {
            l.sort_unstable();
        }
        for old in 0..graph.num_nodes() {
            let new = renum.new_of_old[old as usize];
            let expected: Vec<u32> = {
                let mut v: Vec<u32> = graph
                    .neighbors(old)
                    .iter()
                    .map(|&t| renum.new_of_old[t as usize])
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                rebuilt[new as usize], expected,
                "adjacency mismatch for old page {old}"
            );
        }
    }

    #[test]
    fn representation_reconstructs_graph_exactly() {
        let (dir, _stats, _renum, graph, _urls, _domains) = build_small("exact");
        assert_directory_holds(&dir, &graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_are_consistent() {
        let (dir, stats, _renum, graph, _urls, _domains) = build_small("stats");
        assert_eq!(stats.num_edges, graph.num_edges());
        assert!(stats.total_bits() > 0);
        assert!(stats.bits_per_edge() > 0.0);
        // index files hold exactly the encoded graphs.
        assert!(stats.index_bytes > 0);
        assert!(stats.meta_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn domain_index_covers_all_supernodes() {
        let (dir, _stats, _renum, _graph, _urls, domains) = build_small("domidx");
        let meta = SNodeMeta::read(&dir).unwrap();
        let num_domains = domains.iter().copied().max().unwrap() + 1;
        assert_eq!(meta.domain_supernodes.len(), num_domains as usize);
        let mut covered: Vec<u32> = meta
            .domain_supernodes
            .iter()
            .flat_map(|l| l.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..meta.num_supernodes()).collect::<Vec<_>>(),
            "every supernode belongs to exactly one domain"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_is_deterministic() {
        let (dir_a, stats_a, renum_a, ..) = build_small("det_a");
        let (dir_b, stats_b, renum_b, ..) = build_small("det_b");
        assert_eq!(renum_a, renum_b);
        assert_eq!(stats_a.num_supernodes, stats_b.num_supernodes);
        assert_eq!(stats_a.total_bits(), stats_b.total_bits());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// All regular files directly under `dir`, as (name, bytes).
    fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                out.push((
                    entry.file_name().into_string().unwrap(),
                    std::fs::read(entry.path()).unwrap(),
                ));
            }
        }
        out.sort();
        out
    }

    /// `build_windowed` at every given window and thread count against
    /// `build_snode` on one repository: every file, `sums.bin` included.
    fn assert_window_invariant(
        name: &str,
        input: RepoInput<'_>,
        config: &SNodeConfig,
    ) -> (std::path::PathBuf, BuildStats) {
        let dir_ref = temp_dir(&format!("{name}_ref"));
        let (stats_ref, renum_ref) = build_snode(input, config, &dir_ref).unwrap();
        let files_ref = dir_files(&dir_ref);
        let n_super = stats_ref.num_supernodes as usize;

        let windows = [1, 2, 7, n_super, n_super + 1];
        for (window, threads) in windows.iter().flat_map(|&w| [(w, 1), (w, 4)]) {
            let config = SNodeConfig { threads, ..*config };
            let dir = temp_dir(&format!("{name}_{window}x{threads}"));
            let (stats, renum) = build_windowed(input, &config, &dir, window).unwrap();
            assert_eq!(renum, renum_ref);
            assert_eq!(stats.num_supernodes, stats_ref.num_supernodes);
            assert_eq!(stats.num_superedges, stats_ref.num_superedges);
            assert_eq!(stats.intranode_bits, stats_ref.intranode_bits);
            assert_eq!(stats.superedge_bits, stats_ref.superedge_bits);
            assert_eq!(stats.index_bytes, stats_ref.index_bytes);
            assert_eq!(stats.meta_bytes, stats_ref.meta_bytes);
            assert_eq!(stats.checksum_bytes, stats_ref.checksum_bytes);
            assert!(
                dir_files(&dir) == files_ref,
                "a file differs at window={window} threads={threads}"
            );
            assert_directory_holds(&dir, input.graph);
            std::fs::remove_dir_all(&dir).ok();
        }
        (dir_ref, stats_ref)
    }

    #[test]
    fn window_size_and_thread_count_do_not_change_a_byte() {
        let (urls, domains, graph) = small_repo();
        let config = SNodeConfig {
            max_file_bytes: 64,
            ..Default::default()
        };
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let (dir, _) = assert_window_invariant("window", input, &config);
        std::fs::remove_dir_all(&dir).ok();

        // A generated 3k-page corpus, plus fifteen in sixteen of the links
        // from every page of one domain to every page of another, the
        // missing ones scattered: dense superedge graphs, each stored as its
        // links.
        let corpus = wg_corpus::Corpus::generate(wg_corpus::CorpusConfig::scaled(3000, 5));
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
        let config = SNodeConfig {
            max_file_bytes: 4096,
            ..Default::default()
        };
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let (dir, _) = assert_window_invariant("window3k", input, &config);
        assert!(dir.join("index_003.bin").exists(), "several rotations");
        let meta = SNodeMeta::read(&dir).unwrap();
        let files = IndexFileReader::open_resident(&dir).unwrap();
        let (mut block, mut streams) = (0, 0);
        for &s in &meta.domain_supernodes[from_domain as usize] {
            let ni = u64::from(meta.supernode_size(s));
            let row = meta.supergraph.adj[s as usize].iter();
            for (&j, loc) in row.zip(&meta.superedge_loc[s as usize]) {
                if !meta.domain_supernodes[to_domain as usize].contains(&j) {
                    continue;
                }
                let nj = u64::from(meta.supernode_size(j));
                let bytes = files.read_blob(loc).unwrap();
                let index = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).unwrap();
                let edges = index.count_edges(&bytes, loc.bit_len).unwrap();
                assert!(8 * edges > 7 * ni * nj, "{s} → {j}: {edges} of {ni} × {nj}");
                // A list each where they differ; a list dictionary where
                // |Nj| is small enough that whole lists repeat.
                match index.layout() {
                    Layout::Lists => streams += 1,
                    layout => assert_eq!(layout, Layout::ListDictionary, "{s} → {j}"),
                }
                block += 1;
            }
        }
        assert!(
            streams >= 2,
            "the dense block: {streams} streams of {block} graphs"
        );

        // The supernode graph the per-supernode remap produced is the one
        // a pass over every edge collects as a set of supernode pairs.
        let renum = Renumbering::read(&dir).unwrap();
        let super_of = |old: u32| {
            let new = renum.new_of_old[old as usize];
            (meta.range_start.partition_point(|&st| st <= new) - 1) as u32
        };
        let pairs: std::collections::BTreeSet<(u32, u32)> = graph
            .edges()
            .map(|(u, v)| (super_of(u), super_of(v)))
            .filter(|(i, j)| i != j)
            .collect();
        let adj = &meta.supergraph.adj;
        let got = (adj.iter().enumerate()).flat_map(|(i, l)| l.iter().map(move |&j| (i as u32, j)));
        assert!(got.eq(pairs.iter().copied()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A build into a used directory leaves nothing of the earlier build
    /// behind: no higher-numbered index files, and none of what the
    /// sharded builder of earlier versions wrote — no `shards.bin` to
    /// checksum into this build's manifest, no killed build's `spill/`.
    #[test]
    fn rebuild_removes_what_the_earlier_build_owned() {
        let (urls, domains, graph) = small_repo();
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let many_files = SNodeConfig {
            max_file_bytes: 8,
            ..Default::default()
        };
        let fresh = temp_dir("rebuild_fresh");
        build_snode(input, &many_files, &fresh).unwrap();

        let used = temp_dir("rebuild_used");
        build_snode(input, &many_files, &used).unwrap();
        std::fs::write(used.join("shards.bin"), b"SNSH of an earlier version").unwrap();
        std::fs::create_dir_all(used.join("spill")).unwrap();
        std::fs::write(used.join("spill/shard_000.bin"), b"killed mid-build").unwrap();
        build_snode(input, &many_files, &used).unwrap();
        assert!(!used.join("spill").exists());
        assert!(dir_files(&used) == dir_files(&fresh), "stale files remain");
        assert_directory_holds(&used, &graph);

        // Many index files, then the default cap's single one.
        assert!(used.join("index_001.bin").exists());
        let (stats, _) = build_snode(input, &SNodeConfig::default(), &used).unwrap();
        let index_files = dir_files(&used)
            .iter()
            .filter(|(n, _)| n.starts_with("index_"))
            .count();
        assert_eq!(index_files, 1);
        let resident = IndexFileReader::open_resident(&used).unwrap();
        assert_eq!(resident.resident_bytes(), stats.index_bytes);
        assert_directory_holds(&used, &graph);
        std::fs::remove_dir_all(&used).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }

    #[test]
    fn single_page_repository() {
        let urls = vec!["http://www.solo.org/p.html"];
        let domains = vec![0u32];
        let graph = Graph::from_edges(1, []);
        let dir = temp_dir("solo");
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let (stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        assert_eq!(stats.num_supernodes, 1);
        assert_eq!(stats.num_superedges, 0);
        assert_eq!(renum.old_of_new, vec![0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
