//! Physical integrity walk (`wgr fsck`): verifies every checksummed
//! section of an S-Node directory against its `sums.bin` manifest and
//! reports a per-section verdict.
//!
//! Three granularities are checked, coarsest first:
//!
//! 1. **Whole files** — every manifest-listed file's length and CRC-32C
//!    (SN103/SN105). This catches damage anywhere, including bytes no
//!    finer-grained record covers (blob padding, locator gaps).
//! 2. **`meta.bin` sections** — the four logical sections (header,
//!    supergraph, size table, domain index) at their recorded byte
//!    ranges (SN102), localising metadata damage.
//! 3. **Graph blobs** — each intranode and superedge blob at its locator
//!    (SN104), attributing index-file damage to the supernode or
//!    superedge whose queries it would poison. Blob checks need the
//!    locator tables, so they run only when `meta.bin` itself verified.
//!
//! Unlike [`crate::check`], which audits *logical* invariants by decoding
//! everything, this pass is purely physical: it never decodes a bitstream,
//! so it is cheap and cannot itself be confused by corrupt encodings. A
//! directory without a manifest (pre-checksum v1 layout) yields a single
//! SN100 warning — there is nothing to verify against.

use crate::{Code, Diagnostic, Location, Severity};
use std::path::Path;
use wg_snode::disk::{GraphLocator, IndexFileReader, SNodeMeta};
use wg_snode::integrity::META_SECTION_NAMES;
use wg_snode::{IntegrityCounters, IntegrityManifest};

/// Everything one `fsck` run found.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Per-section verdicts (only failures and the SN100 warning are
    /// recorded; verified sections are counted, not listed).
    pub diagnostics: Vec<Diagnostic>,
    /// Checksummed units verified: whole files + meta sections + blobs.
    pub sections_checked: u64,
    /// True when a manifest was present and usable — without one the
    /// directory's bytes are unverifiable and `sections_checked` is 0.
    pub verified: bool,
}

impl FsckReport {
    /// Number of error-severity findings (actual damage).
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when no damage was found (a missing-manifest warning on a v1
    /// directory still counts as clean — there is nothing to fail).
    pub fn is_clean(&self) -> bool {
        self.num_errors() == 0
    }

    /// Machine-readable form, one stable JSON object (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"verified\":{},\"sections_checked\":{},\"errors\":{},\"warnings\":{},\
             \"diagnostics\":[",
            self.verified,
            self.sections_checked,
            self.num_errors(),
            self.num_warnings()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"name\":\"");
            out.push_str(d.code.name());
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.as_str());
            out.push_str("\",\"location\":\"");
            crate::json_escape_into(&mut out, &d.location.to_string());
            out.push_str("\",\"message\":\"");
            crate::json_escape_into(&mut out, &d.message);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} section(s) checked, {} error(s), {} warning(s)",
            self.sections_checked,
            self.num_errors(),
            self.num_warnings()
        )
    }
}

/// Best-effort location for a manifest-listed file name.
fn file_location(name: &str) -> Location {
    if name == "meta.bin" {
        Location::Meta
    } else if name == "pagemap.bin" {
        Location::Pagemap
    } else if let Some(no) = name
        .strip_prefix("index_")
        .and_then(|r| r.strip_suffix(".bin"))
        .and_then(|n| n.parse().ok())
    {
        Location::IndexFile(no)
    } else {
        Location::Manifest
    }
}

/// Location of `meta.bin` section `i` (see [`META_SECTION_NAMES`]).
fn section_location(i: usize) -> Location {
    match i {
        0 => Location::Meta,
        1 => Location::Supergraph,
        2 => Location::SizeTable,
        _ => Location::DomainIndex,
    }
}

/// Walks every checksummed section of the S-Node directory at `dir`.
///
/// Infallible by design: every problem, up to and including a missing or
/// corrupt manifest, is a diagnostic in the report, so callers get one
/// uniform verdict list. Verifications and failures are also counted on
/// the `integrity.checks` / `integrity.failures` wg-obs counters when
/// metrics are enabled.
pub fn fsck(dir: &Path) -> FsckReport {
    let counters = IntegrityCounters::new();
    let mut diags = Vec::new();
    let manifest = match IntegrityManifest::read(dir) {
        Ok(Some(m)) => m,
        Ok(None) => {
            diags.push(Diagnostic::new(
                Code::MissingManifest,
                Location::Manifest,
                "no integrity manifest (pre-checksum v1 directory); nothing to verify",
            ));
            return FsckReport {
                diagnostics: diags,
                sections_checked: 0,
                verified: false,
            };
        }
        Err(e) => {
            counters.check();
            counters.failure();
            diags.push(Diagnostic::new(
                Code::ManifestCorrupt,
                Location::Manifest,
                format!("integrity manifest unreadable: {e}"),
            ));
            return FsckReport {
                diagnostics: diags,
                sections_checked: 1,
                verified: false,
            };
        }
    };
    counters.check(); // the manifest's own self-checksum, verified by read
    let mut checked = 1u64;

    // Pass 1: whole files.
    let mut meta_bytes: Option<Vec<u8>> = None;
    let mut meta_file_ok = false;
    for fsum in &manifest.files {
        checked += 1;
        counters.check();
        let before = diags.len();
        match wg_fault::read_file(&dir.join(&fsum.name)) {
            Err(e) => diags.push(Diagnostic::new(
                Code::TruncatedFile,
                file_location(&fsum.name),
                format!("{}: unreadable: {e}", fsum.name),
            )),
            Ok(bytes) => {
                if bytes.len() as u64 != fsum.len {
                    diags.push(Diagnostic::new(
                        Code::TruncatedFile,
                        file_location(&fsum.name),
                        format!(
                            "{}: {} byte(s) on disk, manifest records {}",
                            fsum.name,
                            bytes.len(),
                            fsum.len
                        ),
                    ));
                } else if wg_fault::crc32c(&bytes) != fsum.crc {
                    diags.push(Diagnostic::new(
                        Code::FileChecksum,
                        file_location(&fsum.name),
                        format!(
                            "whole-file checksum mismatch ({} bytes, {})",
                            fsum.len, fsum.name
                        ),
                    ));
                } else if fsum.name == "meta.bin" {
                    meta_file_ok = true;
                }
                if fsum.name == "meta.bin" {
                    meta_bytes = Some(bytes);
                }
            }
        }
        if diags.len() > before {
            counters.failure();
        }
    }

    // Pass 2: meta.bin sections, localising damage inside the file. The
    // section bounds come from the manifest (recorded at build time), so
    // this works even when the damaged header no longer parses.
    if let Some(bytes) = &meta_bytes {
        for (i, sec) in manifest.meta_sections.iter().enumerate() {
            checked += 1;
            counters.check();
            let name = META_SECTION_NAMES.get(i).copied().unwrap_or("section");
            let slice = sec
                .start
                .checked_add(sec.len)
                .and_then(|end| bytes.get(sec.start as usize..end as usize));
            match slice {
                Some(sl) if wg_fault::crc32c(sl) == sec.crc => {}
                Some(_) => {
                    counters.failure();
                    diags.push(Diagnostic::new(
                        Code::MetaSectionChecksum,
                        section_location(i),
                        format!(
                            "meta.bin {name} section ({} bytes at offset {}) checksum mismatch",
                            sec.len, sec.start
                        ),
                    ));
                }
                None => {
                    counters.failure();
                    // Only report once: the whole-file pass already flagged
                    // a short meta.bin unless the manifest itself is off.
                    if meta_file_ok {
                        diags.push(Diagnostic::new(
                            Code::ManifestCorrupt,
                            section_location(i),
                            format!(
                                "manifest places the {name} section at {}..{} but meta.bin \
                                 holds {} byte(s)",
                                sec.start,
                                sec.start.saturating_add(sec.len),
                                bytes.len()
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Pass 3: graph blobs. The locator tables live in meta.bin, so blob
    // verdicts are only trustworthy when it verified. The parse also
    // validates the v2 header's codec-id word — checksums prove the bytes
    // are the ones the builder wrote, not that a (buggy or newer) builder
    // wrote a codec this tool can decode.
    if meta_file_ok {
        if let Some(bytes) = &meta_bytes {
            checked += 1;
            counters.check();
            match SNodeMeta::parse(bytes) {
                Ok(meta) => {
                    check_blobs(dir, &meta, &manifest, &counters, &mut diags, &mut checked);
                }
                Err(e) => {
                    counters.failure();
                    diags.push(Diagnostic::new(
                        Code::DecodeError,
                        Location::Meta,
                        format!("meta.bin verified but did not parse (header or codec id): {e}"),
                    ));
                }
            }
        }
    }

    FsckReport {
        diagnostics: diags,
        sections_checked: checked,
        verified: true,
    }
}

/// Verifies every intranode and superedge blob against the manifest's
/// blob table, in the builder's linear order.
fn check_blobs(
    dir: &Path,
    meta: &SNodeMeta,
    manifest: &IntegrityManifest,
    counters: &IntegrityCounters,
    diags: &mut Vec<Diagnostic>,
    checked: &mut u64,
) {
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
    let mut blob_idx = 0usize;
    let mut verify = |loc: &GraphLocator, at: Location, idx: usize| {
        let Some(&want) = manifest.blob_crc.get(idx) else {
            return; // count mismatch reported once below
        };
        *checked += 1;
        counters.check();
        match reader.read_blob(loc) {
            Ok(bytes) if wg_fault::crc32c(&bytes) == want => {}
            Ok(_) => {
                counters.failure();
                diags.push(Diagnostic::new(
                    Code::BlobChecksum,
                    at,
                    format!(
                        "encoded graph ({} bytes in index_{:03}.bin at offset {}) \
                         checksum mismatch",
                        loc.byte_len, loc.file, loc.offset
                    ),
                ));
            }
            Err(e) => {
                counters.failure();
                diags.push(Diagnostic::new(
                    Code::TruncatedFile,
                    at,
                    format!("encoded graph unreadable: {e}"),
                ));
            }
        }
    };
    for s in 0..meta.num_supernodes() {
        verify(
            &meta.intranode_loc[s as usize],
            Location::Intranode(s),
            blob_idx,
        );
        blob_idx += 1;
        for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
            verify(
                &meta.superedge_loc[s as usize][k],
                Location::Superedge(s, j),
                blob_idx,
            );
            blob_idx += 1;
        }
    }
    if blob_idx != manifest.blob_crc.len() {
        diags.push(Diagnostic::new(
            Code::ManifestCorrupt,
            Location::Manifest,
            format!(
                "manifest records {} blob checksum(s) but the directory holds {} graph(s)",
                manifest.blob_crc.len(),
                blob_idx
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_snode::{build_snode, RepoInput, SNodeConfig};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("wg_fsck_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A small two-domain repository with intranode and cross links.
    fn build_fixture(dir: &Path) {
        let urls: Vec<String> = (0..40)
            .map(|i| format!("http://d{}.example/p{i}", i / 20))
            .collect();
        let domains: Vec<u32> = (0..40u32).map(|i| i / 20).collect();
        let g = wg_graph::Graph::from_edges(
            40,
            (0..40u32).flat_map(|i| [(i, (i + 1) % 40), (i, (i + 7) % 40)]),
        );
        let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let input = RepoInput {
            urls: &url_refs,
            domains: &domains,
            graph: &g,
        };
        build_snode(input, &SNodeConfig::default(), dir).unwrap();
    }

    #[test]
    fn clean_directory_is_clean() {
        let dir = temp_dir("clean");
        build_fixture(&dir);
        let r = fsck(&dir);
        assert!(r.verified);
        assert!(r.is_clean(), "unexpected findings: {r}");
        assert!(r.diagnostics.is_empty());
        assert!(r.sections_checked > 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_single_warning() {
        let dir = temp_dir("nomanifest");
        build_fixture(&dir);
        std::fs::remove_file(dir.join("sums.bin")).unwrap();
        let r = fsck(&dir);
        assert!(!r.verified);
        assert!(r.is_clean());
        assert_eq!(r.num_warnings(), 1);
        assert_eq!(r.diagnostics[0].code, Code::MissingManifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let dir = temp_dir("flips");
        build_fixture(&dir);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "sums.bin")
            .collect();
        names.sort();
        // Flip one bit at a spread of offsets in every data file; each
        // flip must surface as at least one error, and restoring the byte
        // must return the directory to clean.
        for name in names {
            let path = dir.join(&name);
            let orig = std::fs::read(&path).unwrap();
            let step = (orig.len() / 13).max(1);
            for pos in (0..orig.len()).step_by(step) {
                let mut bytes = orig.clone();
                bytes[pos] ^= 1 << (pos % 8);
                std::fs::write(&path, &bytes).unwrap();
                let r = fsck(&dir);
                assert!(
                    r.num_errors() > 0,
                    "flip at {name}:{pos} went undetected: {r}"
                );
            }
            std::fs::write(&path, &orig).unwrap();
        }
        assert!(fsck(&dir).is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_corrupt_manifest_reported() {
        let dir = temp_dir("trunc");
        build_fixture(&dir);
        // Truncate an index file.
        let idx = dir.join("index_000.bin");
        let orig = std::fs::read(&idx).unwrap();
        std::fs::write(&idx, &orig[..orig.len() - 1]).unwrap();
        let r = fsck(&dir);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::TruncatedFile && d.location == Location::IndexFile(0)));
        std::fs::write(&idx, &orig).unwrap();
        // Damage the manifest itself.
        let sums = dir.join("sums.bin");
        let mut bytes = std::fs::read(&sums).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&sums, &bytes).unwrap();
        let r = fsck(&dir);
        assert!(!r.verified);
        assert_eq!(r.diagnostics[0].code, Code::ManifestCorrupt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_codec_id_in_verified_header_is_reported() {
        let dir = temp_dir("codec");
        build_fixture(&dir);
        // meta.bin v2 header layout: magic u32, version u32, codec u32.
        let path = dir.join("meta.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        // Re-manifest so every checksum matches: the damage is purely
        // logical now and only the codec-id validation can catch it.
        let m = wg_snode::IntegrityManifest::read(&dir).unwrap().unwrap();
        wg_snode::IntegrityManifest::compute(&dir, m.blob_crc.clone())
            .unwrap()
            .write(&dir)
            .unwrap();
        let r = fsck(&dir);
        assert!(!r.is_clean(), "bad codec id must fail fsck: {r}");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == Code::DecodeError && d.message.contains("codec")),
            "{r}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_damage_is_attributed_to_its_graph() {
        let dir = temp_dir("blob");
        build_fixture(&dir);
        // Flip a bit inside the first supernode's intranode blob.
        let meta = SNodeMeta::read(&dir).unwrap();
        let loc = meta.intranode_loc[0];
        let path = dir.join(format!("index_{:03}.bin", loc.file));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[loc.offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let r = fsck(&dir);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::BlobChecksum && d.location == Location::Intranode(0)));
        // The containing file also fails its whole-file check.
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::FileChecksum && d.location == Location::IndexFile(loc.file)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
