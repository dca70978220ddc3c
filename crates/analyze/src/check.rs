//! The multi-pass walk over an on-disk S-Node representation.
//!
//! Pass 1 audits the resident metadata (PageID tiling, domain index, the
//! stored supernode-graph stream). Pass 2 audits the physical index files
//! against the locator tables. Pass 3 decodes every intranode and
//! superedge graph and checks the per-graph invariants. Nothing here stops
//! at the first finding: the only fatal condition is `meta.bin` itself
//! being unreadable, because every other check is rooted in it.

use crate::{Code, Diagnostic, Location, Report};
use std::path::Path;
use wg_snode::codec::ListCodec;
use wg_snode::disk::{index_file_path, GraphLocator, IndexFileReader, SNodeMeta};
use wg_snode::refenc::{ListsIndex, Universe, MAX_REF_CHAIN};
use wg_snode::subgraphs::{SuperedgeIndex, SuperedgeKind};
use wg_snode::supergraph::SupernodeGraph;

/// Aggregate facts about the representation, reported alongside the
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub num_pages: u32,
    pub num_supernodes: u32,
    pub num_superedges: u64,
    /// Page-level links decoded from intranode graphs.
    pub intranode_edges: u64,
    /// Page-level links decoded from superedge graphs (positive count).
    pub superedge_edges: u64,
    pub num_index_files: u32,
    pub index_bytes: u64,
}

impl Summary {
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"num_pages\":{},\"num_supernodes\":{},\"num_superedges\":{},\
             \"intranode_edges\":{},\"superedge_edges\":{},\
             \"num_index_files\":{},\"index_bytes\":{}}}",
            self.num_pages,
            self.num_supernodes,
            self.num_superedges,
            self.intranode_edges,
            self.superedge_edges,
            self.num_index_files,
            self.index_bytes
        ));
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pages, {} supernodes, {} superedges, {} intranode + {} superedge edges, {} index files ({} bytes)",
            self.num_pages,
            self.num_supernodes,
            self.num_superedges,
            self.intranode_edges,
            self.superedge_edges,
            self.num_index_files,
            self.index_bytes
        )
    }
}

/// Runs every pass over the representation in `dir` and returns all
/// findings.
///
/// `Err` is reserved for a representation so damaged that nothing can be
/// audited: `meta.bin` missing, truncated, or undecodable. Everything
/// else — missing index files, corrupt graphs, broken invariants — comes
/// back as diagnostics inside the `Ok` report.
pub fn check(dir: &Path) -> wg_snode::Result<Report> {
    let meta = SNodeMeta::read(dir)?;
    let mut diags = Vec::new();
    let mut summary = Summary {
        num_pages: meta.num_pages,
        num_supernodes: meta.num_supernodes(),
        num_superedges: meta.supergraph.num_superedges(),
        ..Summary::default()
    };

    check_page_ranges(&meta, &mut diags);
    check_domain_index(&meta, &mut diags);
    check_supergraph_stream(dir, &mut diags);
    let files = check_index_files(dir, &meta, &mut diags, &mut summary);
    check_graphs(dir, &meta, &files, &mut diags, &mut summary);

    Ok(Report {
        diagnostics: diags,
        summary,
    })
}

// --- Pass 1: resident metadata ---------------------------------------------

/// SN001: `SNodeMeta::read` requires the ranges to tile `0..num_pages`
/// monotonically, but tolerates empty ranges; the builder never produces a
/// supernode that owns no pages.
fn check_page_ranges(meta: &SNodeMeta, diags: &mut Vec<Diagnostic>) {
    for (s, w) in meta.range_start.windows(2).enumerate() {
        if w[0] == w[1] {
            diags.push(Diagnostic::new(
                Code::PageidGap,
                Location::Meta,
                format!(
                    "supernode {s} owns no pages (PageID range {}..{})",
                    w[0], w[1]
                ),
            ));
        }
    }
}

/// SN002: every supernode belongs to exactly one domain, and each domain's
/// supernode list is strictly ascending.
fn check_domain_index(meta: &SNodeMeta, diags: &mut Vec<Diagnostic>) {
    let n = meta.num_supernodes() as usize;
    let mut seen = vec![0u32; n];
    for (d, list) in meta.domain_supernodes.iter().enumerate() {
        let mut prev: Option<u32> = None;
        for &s in list {
            if let Some(p) = prev {
                if s <= p {
                    diags.push(Diagnostic::new(
                        Code::DomainIndexInvalid,
                        Location::DomainIndex,
                        format!("domain {d} supernode list is not strictly ascending at {s}"),
                    ));
                }
            }
            prev = Some(s);
            if let Some(c) = seen.get_mut(s as usize) {
                *c += 1;
            } else {
                diags.push(Diagnostic::new(
                    Code::DomainIndexInvalid,
                    Location::DomainIndex,
                    format!("domain {d} names supernode {s} but only {n} exist"),
                ));
            }
        }
    }
    let missing = seen.iter().filter(|&&c| c == 0).count();
    let duplicated = seen.iter().filter(|&&c| c > 1).count();
    if missing > 0 {
        diags.push(Diagnostic::new(
            Code::DomainIndexInvalid,
            Location::DomainIndex,
            format!("{missing} supernode(s) belong to no domain"),
        ));
    }
    if duplicated > 0 {
        diags.push(Diagnostic::new(
            Code::DomainIndexInvalid,
            Location::DomainIndex,
            format!("{duplicated} supernode(s) appear in more than one domain"),
        ));
    }
}

/// SN040 + SN050 on the supernode-graph stream inside `meta.bin`: the
/// stored Huffman length table must be the canonical one implied by the
/// decoded in-degrees (the decoder re-derives code words from lengths, so
/// a non-canonical table still decodes — it is just not what the builder
/// writes), and the stream must end exactly at its declared bit length.
fn check_supergraph_stream(dir: &Path, diags: &mut Vec<Diagnostic>) {
    let (bytes, bits) = match SNodeMeta::read_supergraph_section(dir) {
        Ok(v) => v,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                Location::Supergraph,
                format!("could not re-read supergraph stream: {e}"),
            ));
            return;
        }
    };
    match SupernodeGraph::decode_full(&bytes, bits) {
        Ok((graph, stored_lengths, end)) => {
            let canonical = graph.canonical_code();
            if stored_lengths != canonical.lengths() {
                diags.push(Diagnostic::new(
                    Code::HuffmanNonCanonical,
                    Location::Supergraph,
                    "stored Huffman length table differs from the canonical table \
                     implied by the supernode in-degrees"
                        .to_string(),
                ));
            }
            if end < bits {
                diags.push(Diagnostic::new(
                    Code::TrailingBits,
                    Location::Supergraph,
                    format!("decode consumed {end} of {bits} declared bits"),
                ));
            }
        }
        Err(e) => {
            // `SNodeMeta::read` decodes this same stream, so reaching here
            // means the two reads raced with a concurrent writer.
            diags.push(Diagnostic::new(
                Code::DecodeError,
                Location::Supergraph,
                format!("supergraph stream failed to decode: {e}"),
            ));
        }
    }
}

// --- Pass 2: index files ----------------------------------------------------

/// On-disk index-file sizes, in file-number order.
struct IndexFiles {
    sizes: Vec<u64>,
}

impl IndexFiles {
    /// True when `loc` names an existing file and lies within it.
    fn contains(&self, loc: &GraphLocator) -> bool {
        self.sizes
            .get(loc.file as usize)
            .is_some_and(|&size| loc.offset.saturating_add(loc.byte_len) <= size)
    }
}

/// SN060 + the bounds half of SN070/SN013: stats every `index_NNN.bin`,
/// cross-checks sizes against the locator tables, and flags files that
/// break the rotation discipline.
fn check_index_files(
    dir: &Path,
    meta: &SNodeMeta,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) -> IndexFiles {
    let mut sizes = Vec::new();
    while let Ok(m) = std::fs::metadata(index_file_path(dir, sizes.len() as u32)) {
        sizes.push(m.len());
    }
    summary.num_index_files = sizes.len() as u32;
    summary.index_bytes = sizes.iter().sum();
    let files = IndexFiles { sizes };

    // Referenced extent and graph count per file.
    let mut extent = vec![0u64; files.sizes.len()];
    let mut graphs = vec![0u32; files.sizes.len()];
    let all_locs = meta
        .intranode_loc
        .iter()
        .chain(meta.superedge_loc.iter().flatten());
    for loc in all_locs {
        if let Some(e) = extent.get_mut(loc.file as usize) {
            *e = (*e).max(loc.offset.saturating_add(loc.byte_len));
            graphs[loc.file as usize] += 1;
        }
    }
    for (no, &size) in files.sizes.iter().enumerate() {
        let loc = Location::IndexFile(no as u32);
        if graphs[no] == 0 {
            diags.push(Diagnostic::new(
                Code::IndexFileOversize,
                loc,
                format!("{size} bytes on disk but no locator references this file"),
            ));
            continue;
        }
        if size > extent[no] {
            diags.push(Diagnostic::new(
                Code::IndexFileOversize,
                loc,
                format!(
                    "{} trailing byte(s) beyond the last referenced graph",
                    size - extent[no]
                ),
            ));
        }
        // A single graph larger than the cap legitimately gets a file to
        // itself; two or more graphs must respect the rotation rule.
        if size > meta.max_file_bytes && graphs[no] > 1 {
            diags.push(Diagnostic::new(
                Code::IndexFileOversize,
                loc,
                format!(
                    "{size} bytes exceeds the {} byte cap with {} graphs inside",
                    meta.max_file_bytes, graphs[no]
                ),
            ));
        }
    }
    files
}

// --- Pass 3: every graph ----------------------------------------------------

/// Accumulates per-list violations so one bad graph yields a bounded
/// number of diagnostics instead of one per list.
#[derive(Default)]
struct ListAudit {
    out_of_range: u64,
    first_out_of_range: Option<(u32, u32)>,
    not_monotone: u64,
    first_not_monotone: Option<u32>,
}

impl ListAudit {
    fn scan(&mut self, list_id: u32, list: &[u32], universe: u64) {
        let mut prev: Option<u32> = None;
        for &x in list {
            if u64::from(x) >= universe {
                self.out_of_range += 1;
                if self.first_out_of_range.is_none() {
                    self.first_out_of_range = Some((list_id, x));
                }
            }
            if let Some(p) = prev {
                if x <= p {
                    self.not_monotone += 1;
                    if self.first_not_monotone.is_none() {
                        self.first_not_monotone = Some(list_id);
                    }
                }
            }
            prev = Some(x);
        }
    }

    fn emit(&self, universe: u64, loc: Location, diags: &mut Vec<Diagnostic>) {
        if let Some((l, v)) = self.first_out_of_range {
            diags.push(Diagnostic::new(
                Code::EntryOutOfRange,
                loc,
                format!(
                    "{} entr(ies) outside universe {universe} (first: list {l} holds {v})",
                    self.out_of_range
                ),
            ));
        }
        if let Some(l) = self.first_not_monotone {
            diags.push(Diagnostic::new(
                Code::ListNotMonotone,
                loc,
                format!(
                    "{} entr(ies) break strict ascending order (first in list {l})",
                    self.not_monotone
                ),
            ));
        }
    }
}

/// SN020/SN021 + the parent half of SN012, in one ascending pass: a list
/// stream's references point backward, so its parents are a forest exactly
/// when every one precedes its list, and a list's depth is its parent's
/// plus one. (`ListsIndex::parse_at` refuses a reference that does not
/// point backward, so for the parents of a parsed index SN020 is a second
/// line behind SN013.)
fn audit_ref_chains(parents: &[Option<u32>], loc: Location, diags: &mut Vec<Diagnostic>) {
    let n = parents.len();
    let mut depth = vec![0u32; n];
    let mut cycle_reported = false;
    for (i, parent) in parents.iter().enumerate() {
        let Some(p) = *parent else { continue };
        if p as usize >= n {
            diags.push(Diagnostic::new(
                Code::EntryOutOfRange,
                loc,
                format!("list {i} references parent {p} but only {n} lists exist"),
            ));
        } else if p as usize >= i {
            if !cycle_reported {
                diags.push(Diagnostic::new(
                    Code::RefChainCycle,
                    loc,
                    format!("list {i} references list {p}, which does not precede it"),
                ));
                cycle_reported = true;
            }
        } else {
            depth[i] = depth[p as usize].saturating_add(1);
        }
    }
    let deepest = depth.iter().copied().max().unwrap_or(0);
    if deepest > MAX_REF_CHAIN {
        diags.push(Diagnostic::new(
            Code::RefChainTooDeep,
            loc,
            format!("deepest reference chain is {deepest} (selection's cap is {MAX_REF_CHAIN})"),
        ));
    }
}

/// Decodes every intranode and superedge graph and audits the per-graph
/// invariants (SN010–SN050, plus the missing-graph half of SN070/SN013).
fn check_graphs(
    dir: &Path,
    meta: &SNodeMeta,
    files: &IndexFiles,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) {
    let total_graphs =
        meta.intranode_loc.len() + meta.superedge_loc.iter().map(Vec::len).sum::<usize>();
    if files.sizes.is_empty() {
        if total_graphs > 0 {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                Location::Meta,
                format!("no index files on disk; {total_graphs} graph(s) are unreadable"),
            ));
        }
        return;
    }
    let reader = match IndexFileReader::open_resident(dir) {
        Ok(r) => r,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                Location::Meta,
                format!("could not open index files: {e}"),
            ));
            return;
        }
    };

    let n = meta.num_supernodes();
    for s in 0..n {
        let ni = u64::from(meta.supernode_size(s));
        check_intranode(meta, files, &reader, s, ni, diags, summary);
        for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
            let nj = if (j as usize) < meta.range_start.len() - 1 {
                u64::from(meta.supernode_size(j))
            } else {
                // Target out of range is caught at supergraph decode; be
                // defensive anyway.
                0
            };
            let loc = meta.superedge_loc[s as usize][k];
            check_superedge(files, &reader, s, j, ni, nj, &loc, diags, summary);
        }
    }
}

fn check_intranode(
    meta: &SNodeMeta,
    files: &IndexFiles,
    reader: &IndexFileReader,
    s: u32,
    ni: u64,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) {
    let here = Location::Intranode(s);
    let loc = meta.intranode_loc[s as usize];
    if !files.contains(&loc) {
        diags.push(Diagnostic::new(
            Code::DecodeError,
            here,
            format!(
                "locator (file {}, offset {}, {} bytes) lies outside the index files",
                loc.file, loc.offset, loc.byte_len
            ),
        ));
        return;
    }
    let bytes = match reader.read_blob(&loc) {
        Ok(b) => b,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("read failed: {e}"),
            ));
            return;
        }
    };
    let (index, lists) = match ListsIndex::load(&bytes, loc.bit_len, Universe::SameAsCount) {
        Ok(v) => v,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("undecodable: {e}"),
            ));
            return;
        }
    };
    if u64::from(index.num_lists()) != ni {
        diags.push(Diagnostic::new(
            Code::IntranodeSizeMismatch,
            here,
            format!(
                "{} adjacency lists stored but supernode {s} owns {ni} pages",
                index.num_lists()
            ),
        ));
    }
    let mut audit = ListAudit::default();
    for (i, list) in lists.iter().enumerate() {
        summary.intranode_edges += list.len() as u64;
        audit.scan(i as u32, list, index.universe());
    }
    audit.emit(index.universe(), here, diags);
    match index.reference_parents(&bytes, loc.bit_len) {
        Ok(parents) => audit_ref_chains(&parents, here, diags),
        Err(e) => diags.push(Diagnostic::new(
            Code::DecodeError,
            here,
            format!("reference directory unreadable: {e}"),
        )),
    }
    if index.end_bit() < loc.bit_len {
        diags.push(Diagnostic::new(
            Code::TrailingBits,
            here,
            format!(
                "decode consumed {} of {} declared bits",
                index.end_bit(),
                loc.bit_len
            ),
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn check_superedge(
    files: &IndexFiles,
    reader: &IndexFileReader,
    s: u32,
    j: u32,
    ni: u64,
    nj: u64,
    loc: &GraphLocator,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) {
    let here = Location::Superedge(s, j);
    if !files.contains(loc) {
        diags.push(Diagnostic::new(
            Code::MissingSuperedgeGraph,
            here,
            format!(
                "supernode graph has edge {s}->{j} but its locator \
                 (file {}, offset {}, {} bytes) lies outside the index files",
                loc.file, loc.offset, loc.byte_len
            ),
        ));
        return;
    }
    let bytes = match reader.read_blob(loc) {
        Ok(b) => b,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::MissingSuperedgeGraph,
                here,
                format!("supernode graph has edge {s}->{j} but the graph is unreadable: {e}"),
            ));
            return;
        }
    };
    // The analyzer reads every stored list, so it asks for the list count
    // and the end of the payload straight after the parse, which built the
    // list-stream directory or the dictionary they come from.
    let parsed = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).and_then(|index| {
        let num_stored = index.num_stored_lists(&bytes, loc.bit_len)?;
        let end_bit = index.end_bit(&bytes, loc.bit_len)?;
        Ok((index, num_stored, end_bit))
    });
    let (index, num_stored, end_bit) = match parsed {
        Ok(p) => p,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("undecodable: {e}"),
            ));
            return;
        }
    };
    // Decode every stored list once; all per-list checks run off this.
    let mut stored = Vec::with_capacity(num_stored as usize);
    for i in 0..num_stored {
        match index.stored_list(&bytes, loc.bit_len, i) {
            Ok(l) => stored.push(l),
            Err(e) => {
                diags.push(Diagnostic::new(
                    Code::DecodeError,
                    here,
                    format!("list {i} undecodable: {e}"),
                ));
                return;
            }
        }
    }
    let stored_edges: u64 = stored.iter().map(|l| l.len() as u64).sum();
    let mut audit = ListAudit::default();
    for (i, list) in stored.iter().enumerate() {
        audit.scan(i as u32, list, nj.max(1));
    }
    audit.emit(nj.max(1), here, diags);

    match index.kind {
        SuperedgeKind::Positive => {
            if index.sources().len() != stored.len() {
                diags.push(Diagnostic::new(
                    Code::DecodeError,
                    here,
                    format!(
                        "{} source ids but {} stored lists",
                        index.sources().len(),
                        stored.len()
                    ),
                ));
            }
            let mut src_audit = ListAudit::default();
            src_audit.scan(u32::MAX, index.sources(), ni.max(1));
            if src_audit.first_out_of_range.is_some() {
                diags.push(Diagnostic::new(
                    Code::EntryOutOfRange,
                    here,
                    format!("{} source id(s) outside 0..{ni}", src_audit.out_of_range),
                ));
            }
            if src_audit.first_not_monotone.is_some() {
                diags.push(Diagnostic::new(
                    Code::ListNotMonotone,
                    here,
                    "source id list is not strictly ascending".to_string(),
                ));
            }
            summary.superedge_edges += stored_edges;
            if stored_edges == 0 {
                diags.push(Diagnostic::new(
                    Code::EmptySuperedge,
                    here,
                    "superedge graph encodes zero links".to_string(),
                ));
            }
        }
        SuperedgeKind::Negative => {
            if stored.len() as u64 != ni {
                diags.push(Diagnostic::new(
                    Code::DecodeError,
                    here,
                    format!(
                        "negative encoding stores {} lists for {ni} source pages",
                        stored.len()
                    ),
                ));
            }
            let pos_edges = (ni * nj).saturating_sub(stored_edges);
            summary.superedge_edges += pos_edges;
            if pos_edges == 0 {
                diags.push(Diagnostic::new(
                    Code::EmptySuperedge,
                    here,
                    "superedge graph encodes zero links".to_string(),
                ));
            }
            // §2: the builder only goes negative when the complement is
            // strictly smaller.
            if stored_edges >= pos_edges {
                diags.push(Diagnostic::new(
                    Code::NegativeNotSmaller,
                    here,
                    format!(
                        "negative encoding stores {stored_edges} edges but the positive \
                         form would store {pos_edges}"
                    ),
                ));
            }
        }
    }

    // The reference forest of whatever list stream the graph stores: its
    // per-source lists, or a list dictionary's entries. (A single-target
    // dictionary stores none; decoding it, above, validated every index
    // against its entries.)
    if let Some(lists) = index.lists() {
        match lists.reference_parents(&bytes, loc.bit_len) {
            Ok(parents) => audit_ref_chains(&parents, here, diags),
            Err(e) => diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("reference directory unreadable: {e}"),
            )),
        }
    }
    if end_bit < loc.bit_len {
        diags.push(Diagnostic::new(
            Code::TrailingBits,
            here,
            format!("decode consumed {end_bit} of {} declared bits", loc.bit_len),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ref_chain_forest_is_clean() {
        let mut diags = Vec::new();
        // 0 plain, 1 -> 0, 2 -> 1, 3 plain.
        let parents = vec![None, Some(0u32), Some(1), None];
        audit_ref_chains(&parents, Location::Intranode(0), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ref_chain_cycle_detected_once() {
        let mut diags = Vec::new();
        // 0 -> 1 -> 2 -> 0 plus a tail 3 -> 0 into the cycle: a cycle has
        // a reference that does not point backward, here two.
        let parents = vec![Some(1u32), Some(2), Some(0), Some(0)];
        audit_ref_chains(&parents, Location::Intranode(0), &mut diags);
        assert_eq!(codes(&diags), vec![Code::RefChainCycle]);
    }

    #[test]
    fn ref_chain_depth_warns_past_cap() {
        let mut diags = Vec::new();
        // A chain of MAX_REF_CHAIN + 1 references.
        let n = MAX_REF_CHAIN as usize + 2;
        let mut parents: Vec<Option<u32>> = vec![None];
        for i in 1..n {
            parents.push(Some(i as u32 - 1));
        }
        audit_ref_chains(&parents, Location::Intranode(0), &mut diags);
        assert_eq!(codes(&diags), vec![Code::RefChainTooDeep]);
    }

    #[test]
    fn ref_chain_bad_parent_flagged() {
        let mut diags = Vec::new();
        let parents = vec![None, Some(9u32)];
        audit_ref_chains(&parents, Location::Intranode(0), &mut diags);
        assert_eq!(codes(&diags), vec![Code::EntryOutOfRange]);
    }

    #[test]
    fn list_audit_aggregates() {
        let mut audit = ListAudit::default();
        audit.scan(0, &[1, 5, 3, 99], 10);
        audit.scan(1, &[2, 2], 10);
        let mut diags = Vec::new();
        audit.emit(10, Location::Intranode(0), &mut diags);
        assert_eq!(
            codes(&diags),
            vec![Code::EntryOutOfRange, Code::ListNotMonotone]
        );
        assert_eq!(audit.out_of_range, 1);
        assert_eq!(audit.not_monotone, 2);
    }
}
