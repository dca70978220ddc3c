//! The one walk over an on-disk S-Node directory (`wgr check`).
//!
//! The physical pass runs first. It reads `sums.bin`, then every file the
//! manifest lists, whole, and holds each to its record: `meta.bin` by its
//! five sections, an index file by the CRC of each graph blob in it.
//! Damage is reported once, at the finest unit that caught it — SN104 for
//! a blob, SN102 for a `meta.bin` section, and SN103 or SN105 for a whole
//! file only when no finer record in it failed (`pagemap.bin`, bytes past
//! the last blob, a file cut short or missing).
//!
//! The logical passes then decode only what verified: the resident
//! metadata (PageID tiling, domain index, the stored supernode-graph
//! stream), the index files' sizes against the locator tables, and every
//! graph whose blob matched its CRC. Nothing stops at the first finding.
//! A directory without a usable manifest, or whose `meta.bin` does not
//! verify and parse, gets no logical pass: nothing in it can be trusted.

use crate::{Code, Diagnostic, Location, Report};
use std::path::Path;
use wg_snode::codec::ListCodec;
use wg_snode::disk::{GraphLocator, SNodeMeta};
use wg_snode::integrity::{meta_section_bounds, META_SECTION_NAMES};
use wg_snode::refenc::{ListsIndex, Universe, MAX_REF_CHAIN};
use wg_snode::subgraphs::SuperedgeIndex;
use wg_snode::supergraph::SupernodeGraph;
use wg_snode::IntegrityManifest;

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

/// Runs every pass over the directory `dir` and returns all findings.
/// Infallible: a directory too damaged to audit — no manifest, or a
/// `meta.bin` that is missing or does not verify — is an error-severity
/// diagnostic like any other.
pub fn check(dir: &Path) -> Report {
    let mut diags = Vec::new();
    let mut summary = Summary::default();
    if let Some(v) = verify(dir, &mut diags) {
        summary.num_pages = v.meta.num_pages;
        summary.num_supernodes = v.meta.num_supernodes();
        summary.num_superedges = v.meta.supergraph.num_superedges();
        summary.num_index_files = v.files.len() as u32;
        summary.index_bytes = v.files.iter().map(|f| f.len() as u64).sum();
        check_page_ranges(&v.meta, &mut diags);
        check_domain_index(&v.meta, &mut diags);
        check_supergraph_stream(&v.meta, &v.meta_buf, &mut diags);
        check_index_files(&v.meta, &v.files, &mut diags);
        check_graphs(&v, &mut diags, &mut summary);
    }
    Report {
        diagnostics: diags,
        summary,
    }
}

/// Every graph of the directory in the builder's linear order — supernode
/// `s`'s intranode graph, then its superedge graphs in `adj[s]` order —
/// which is the order of the manifest's blob CRCs.
fn graphs(meta: &SNodeMeta) -> impl Iterator<Item = (Location, &GraphLocator)> {
    (0..meta.num_supernodes()).flat_map(move |s| {
        let supers = (meta.supergraph.adj[s as usize].iter())
            .zip(&meta.superedge_loc[s as usize])
            .map(move |(&j, loc)| (Location::Superedge(s, j), loc));
        std::iter::once((Location::Intranode(s), &meta.intranode_loc[s as usize])).chain(supers)
    })
}

/// The bytes of the graph at `loc`, or `None` when it lies outside the
/// index files.
fn blob<'a>(files: &'a [Vec<u8>], loc: &GraphLocator) -> Option<&'a [u8]> {
    let end = loc.offset.checked_add(loc.byte_len)?;
    files
        .get(loc.file as usize)?
        .get(loc.offset as usize..end as usize)
}

// --- The physical pass -------------------------------------------------------

/// What the physical pass verified, for the logical passes to decode.
struct Verified {
    meta: SNodeMeta,
    meta_buf: Vec<u8>,
    /// The index files in number order, as read (empty where one is not).
    files: Vec<Vec<u8>>,
    /// Per graph, in linear order: whether its blob matched its CRC.
    blob_ok: Vec<bool>,
}

/// Where a finding about the manifest-listed file `name` is anchored.
fn file_location(name: &str) -> Location {
    match name {
        "meta.bin" => Location::Meta,
        "pagemap.bin" => Location::Pagemap,
        _ => (name.strip_prefix("index_"))
            .and_then(|r| r.strip_suffix(".bin"))
            .and_then(|n| n.parse().ok())
            .map_or(Location::Manifest, Location::IndexFile),
    }
}

/// Checks `sums.bin`, every file it lists, the `meta.bin` sections and the
/// graph blobs, pushing a diagnostic per damaged unit. `Some` when
/// `meta.bin` verified and parsed, so that the logical passes can run.
fn verify(dir: &Path, diags: &mut Vec<Diagnostic>) -> Option<Verified> {
    let manifest = match IntegrityManifest::read(dir) {
        Ok(Some(m)) => m,
        Ok(None) => {
            diags.push(Diagnostic::new(
                Code::MissingManifest,
                Location::Manifest,
                "no integrity manifest, so nothing can be verified: rebuild the directory",
            ));
            return None;
        }
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::ManifestCorrupt,
                Location::Manifest,
                format!("integrity manifest unreadable: {e}"),
            ));
            return None;
        }
    };

    // Whole files. The damage of a file with finer records (`meta.bin`,
    // the index files) is held until those have had their say.
    let mut meta_file = None;
    let mut files: Vec<Vec<u8>> = Vec::new();
    let mut held: Vec<Option<Diagnostic>> = Vec::new();
    for sum in &manifest.files {
        let at = file_location(&sum.name);
        let bytes = match wg_fault::read_file(&dir.join(&sum.name)) {
            Ok(bytes) => bytes,
            Err(e) => {
                diags.push(Diagnostic::new(
                    Code::TruncatedFile,
                    at,
                    format!("unreadable ({}): {e}", sum.name),
                ));
                continue;
            }
        };
        let damage = if bytes.len() as u64 != sum.len {
            Some(Diagnostic::new(
                Code::TruncatedFile,
                at,
                format!(
                    "{} byte(s) on disk, manifest records {} ({})",
                    bytes.len(),
                    sum.len,
                    sum.name
                ),
            ))
        } else if wg_fault::crc32c(&bytes) != sum.crc {
            Some(Diagnostic::new(
                Code::FileChecksum,
                at,
                format!(
                    "whole-file checksum mismatch ({} bytes, {})",
                    sum.len, sum.name
                ),
            ))
        } else {
            None
        };
        match at {
            Location::Meta => meta_file = Some((bytes, damage)),
            Location::IndexFile(no) => {
                let no = no as usize;
                if files.len() <= no {
                    files.resize_with(no + 1, Vec::new);
                    held.resize_with(no + 1, || None);
                }
                files[no] = bytes;
                held[no] = damage;
            }
            _ => diags.extend(damage),
        }
    }
    let verified = verify_meta(&manifest, meta_file, diags).map(|(meta, meta_buf)| {
        let blob_ok = verify_blobs(&manifest, &meta, &files, &mut held, diags);
        Verified {
            meta,
            meta_buf,
            files,
            blob_ok,
        }
    });
    diags.extend(held.into_iter().flatten());
    verified
}

/// `meta.bin` verified section by section, then parsed. The parse also
/// checks the header's version and codec word: checksums prove the bytes
/// are the ones a builder wrote, not that it wrote the one format read.
fn verify_meta(
    manifest: &IntegrityManifest,
    meta_file: Option<(Vec<u8>, Option<Diagnostic>)>,
    diags: &mut Vec<Diagnostic>,
) -> Option<(SNodeMeta, Vec<u8>)> {
    let Some((buf, damage)) = meta_file else {
        // Unreadable (reported) or, in a manifest that lists no `meta.bin`,
        // never read.
        if manifest.file_sum("meta.bin").is_none() {
            diags.push(Diagnostic::new(
                Code::ManifestCorrupt,
                Location::Manifest,
                "integrity manifest lists no meta.bin",
            ));
        }
        return None;
    };
    if let Some(damage) = damage {
        let locations = [
            Location::Meta,
            Location::Supergraph,
            Location::SizeTable,
            Location::Checkpoints,
            Location::DomainIndex,
        ];
        let before = diags.len();
        for ((sec, name), at) in manifest
            .meta_sections
            .iter()
            .zip(META_SECTION_NAMES)
            .zip(locations)
        {
            let end = sec.start.saturating_add(sec.len);
            let bytes = buf.get(sec.start as usize..end as usize);
            if bytes.is_some_and(|b| wg_fault::crc32c(b) != sec.crc) {
                diags.push(Diagnostic::new(
                    Code::MetaSectionChecksum,
                    at,
                    format!(
                        "meta.bin {name} section ({} bytes at offset {}) checksum mismatch",
                        sec.len, sec.start
                    ),
                ));
            }
        }
        if diags.len() == before {
            diags.push(damage);
        }
        return None;
    }
    match SNodeMeta::parse(&buf) {
        Ok(meta) => Some((meta, buf)),
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                Location::Meta,
                format!("meta.bin verified but does not parse: {e}"),
            ));
            None
        }
    }
}

/// Each graph blob against its CRC (SN104). A failed blob clears the held
/// damage of its file: the blob is the finer unit that caught it. A blob
/// outside the index files is left to the logical pass.
fn verify_blobs(
    manifest: &IntegrityManifest,
    meta: &SNodeMeta,
    files: &[Vec<u8>],
    held: &mut [Option<Diagnostic>],
    diags: &mut Vec<Diagnostic>,
) -> Vec<bool> {
    let num_graphs = graphs(meta).count();
    if manifest.blob_crc.len() != num_graphs {
        diags.push(Diagnostic::new(
            Code::ManifestCorrupt,
            Location::Manifest,
            format!(
                "manifest records {} blob checksum(s) but meta.bin names {num_graphs} graph(s)",
                manifest.blob_crc.len()
            ),
        ));
        return vec![false; num_graphs];
    }
    let mut blob_ok = Vec::with_capacity(num_graphs);
    for ((at, loc), &crc) in graphs(meta).zip(&manifest.blob_crc) {
        let Some(bytes) = blob(files, loc) else {
            blob_ok.push(false);
            continue;
        };
        let ok = wg_fault::crc32c(bytes) == crc;
        if !ok {
            diags.push(Diagnostic::new(
                Code::BlobChecksum,
                at,
                format!(
                    "encoded graph ({} bytes in index_{:03}.bin at offset {}) \
                     checksum mismatch",
                    loc.byte_len, loc.file, loc.offset
                ),
            ));
            if let Some(file) = held.get_mut(loc.file as usize) {
                *file = None;
            }
        }
        blob_ok.push(ok);
    }
    blob_ok
}

// --- The logical passes: resident metadata ------------------------------------

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

/// SN040 + SN050 on the supernode-graph stream of the verified `meta.bin`:
/// the stored Huffman length table must be the canonical one implied by
/// the decoded in-degrees (the decoder re-derives code words from lengths,
/// so a non-canonical table still decodes — it is just not what the
/// builder writes), and the stream must end exactly at its declared bit
/// length.
fn check_supergraph_stream(meta: &SNodeMeta, buf: &[u8], diags: &mut Vec<Diagnostic>) {
    // The section is the stream's bit and byte lengths (`u64` each), then
    // the stream, which `SNodeMeta::parse` has already decoded once.
    let Ok([_, (start, len), ..]) = meta_section_bounds(buf) else {
        return;
    };
    let stream = buf
        .get(start as usize + 16..(start + len) as usize)
        .unwrap_or_default();
    let bits = meta.supergraph_bits;
    let Ok((graph, stored_lengths, end)) = SupernodeGraph::decode_full(stream, bits) else {
        return;
    };
    if stored_lengths != graph.canonical_code().lengths() {
        diags.push(Diagnostic::new(
            Code::HuffmanNonCanonical,
            Location::Supergraph,
            "stored Huffman length table differs from the canonical table \
             implied by the supernode in-degrees",
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

// --- The logical passes: index files -------------------------------------------

/// SN060: cross-checks the index files' sizes against the locator tables,
/// and flags files that break the rotation discipline.
fn check_index_files(meta: &SNodeMeta, files: &[Vec<u8>], diags: &mut Vec<Diagnostic>) {
    // Referenced extent and graph count per file.
    let mut extent = vec![0u64; files.len()];
    let mut graphs_in = vec![0u32; files.len()];
    for (_, loc) in graphs(meta) {
        if let Some(e) = extent.get_mut(loc.file as usize) {
            *e = (*e).max(loc.offset.saturating_add(loc.byte_len));
            graphs_in[loc.file as usize] += 1;
        }
    }
    for (no, file) in files.iter().enumerate() {
        let size = file.len() as u64;
        let loc = Location::IndexFile(no as u32);
        if graphs_in[no] == 0 {
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
        if size > meta.max_file_bytes && graphs_in[no] > 1 {
            diags.push(Diagnostic::new(
                Code::IndexFileOversize,
                loc,
                format!(
                    "{size} bytes exceeds the {} byte cap with {} graphs inside",
                    meta.max_file_bytes, graphs_in[no]
                ),
            ));
        }
    }
}

// --- The logical passes: every graph -------------------------------------------

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
    fn scan(&mut self, list_id: u32, list: impl IntoIterator<Item = u32>, universe: u64) {
        let mut prev: Option<u32> = None;
        for x in list {
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

/// Decodes every graph whose blob verified and audits the per-graph
/// invariants (SN010–SN050); a locator outside the index files is SN013
/// for an intranode graph and SN070 for a superedge graph.
fn check_graphs(v: &Verified, diags: &mut Vec<Diagnostic>, summary: &mut Summary) {
    for ((at, loc), &ok) in graphs(&v.meta).zip(&v.blob_ok) {
        let Some(bytes) = blob(&v.files, loc) else {
            let (code, edge) = match at {
                Location::Superedge(s, j) => (
                    Code::MissingSuperedgeGraph,
                    format!("supernode graph has edge {s}->{j} but its "),
                ),
                _ => (Code::DecodeError, String::new()),
            };
            diags.push(Diagnostic::new(
                code,
                at,
                format!(
                    "{edge}locator (file {}, offset {}, {} bytes) lies outside the index files",
                    loc.file, loc.offset, loc.byte_len
                ),
            ));
            continue;
        };
        if !ok {
            continue; // its damage is the physical pass's finding
        }
        match at {
            Location::Intranode(s) => {
                check_intranode(&v.meta, s, bytes, loc.bit_len, diags, summary);
            }
            Location::Superedge(s, j) => {
                check_superedge(&v.meta, s, j, bytes, loc.bit_len, diags, summary);
            }
            _ => {}
        }
    }
}

fn check_intranode(
    meta: &SNodeMeta,
    s: u32,
    bytes: &[u8],
    bit_len: u64,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) {
    let here = Location::Intranode(s);
    let ni = u64::from(meta.supernode_size(s));
    let (index, lists) = match ListsIndex::load(bytes, bit_len, Universe::SameAsCount) {
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
        audit.scan(i as u32, list.iter().copied(), index.universe());
    }
    audit.emit(index.universe(), here, diags);
    match index.reference_parents(bytes, bit_len) {
        Ok(parents) => audit_ref_chains(&parents, here, diags),
        Err(e) => diags.push(Diagnostic::new(
            Code::DecodeError,
            here,
            format!("reference directory unreadable: {e}"),
        )),
    }
    if index.end_bit() < bit_len {
        diags.push(Diagnostic::new(
            Code::TrailingBits,
            here,
            format!(
                "decode consumed {} of {} declared bits",
                index.end_bit(),
                bit_len
            ),
        ));
    }
}

fn check_superedge(
    meta: &SNodeMeta,
    s: u32,
    j: u32,
    bytes: &[u8],
    bit_len: u64,
    diags: &mut Vec<Diagnostic>,
    summary: &mut Summary,
) {
    let here = Location::Superedge(s, j);
    let (ni, nj) = (meta.supernode_size(s).into(), meta.supernode_size(j).into());
    let index = match SuperedgeIndex::parse(bytes, bit_len, ni, nj, ListCodec) {
        Ok(index) => index,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("undecodable: {e}"),
            ));
            return;
        }
    };
    // Decode every stored list once — one per source, which the parse
    // holds the list count to; all per-list checks run off this.
    let sources = index.sources();
    let mut stored = Vec::with_capacity(sources.len());
    for i in 0..sources.len() as u32 {
        match index.stored_list(bytes, bit_len, i) {
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
    let mut audit = ListAudit::default();
    for (i, list) in stored.iter().enumerate() {
        audit.scan(i as u32, list.iter().copied(), nj.max(1));
    }
    audit.emit(nj.max(1), here, diags);

    let mut src_audit = ListAudit::default();
    src_audit.scan(u32::MAX, sources.iter(), ni.max(1));
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
    let edges: u64 = stored.iter().map(|l| l.len() as u64).sum();
    summary.superedge_edges += edges;
    if edges == 0 {
        diags.push(Diagnostic::new(
            Code::EmptySuperedge,
            here,
            "superedge graph encodes zero links".to_string(),
        ));
    }

    // The reference forest of whatever list stream the graph stores: its
    // per-source lists, or a list dictionary's entries. (A single-target
    // dictionary stores none; decoding it, above, validated every index
    // against its entries.)
    if let Some(lists) = index.lists() {
        match lists.reference_parents(bytes, bit_len) {
            Ok(parents) => audit_ref_chains(&parents, here, diags),
            Err(e) => diags.push(Diagnostic::new(
                Code::DecodeError,
                here,
                format!("reference directory unreadable: {e}"),
            )),
        }
    }
    let end_bit = index.end_bit();
    if end_bit < bit_len {
        diags.push(Diagnostic::new(
            Code::TrailingBits,
            here,
            format!("decode consumed {end_bit} of {bit_len} declared bits"),
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
        audit.scan(0, [1, 5, 3, 99], 10);
        audit.scan(1, [2, 2], 10);
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
