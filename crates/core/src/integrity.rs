//! The integrity manifest (`sums.bin`) — per-section CRC-32C checksums
//! over an S-Node directory.
//!
//! Design constraint: adding checksums must not change a single byte of
//! the existing files. The committed baselines fingerprint the
//! directory (`tests/golden_build.rs`, at 20 k, 100 k, 300 k and 1 M
//! pages), and
//! byte-identical builds across thread counts are a load-bearing
//! property of the encoder — so the checksums live in a **sidecar
//! manifest** rather than inline trailers,
//! and the directory format version bump (v1 → [`DIRECTORY_VERSION`]) is
//! carried by the manifest itself. (`meta.bin` has its own version, 3, the
//! one readers accept: directories an earlier version wrote are refused
//! whether or not they carry a manifest.) A directory without a manifest
//! (hand-assembled, or stripped of it) is `Corrupt` to every strict
//! reader, which says to rebuild it; only a degraded open reads it,
//! unverified.
//!
//! The manifest covers every byte of the directory:
//!
//! * `meta.bin` is checksummed in four sections tiling the file —
//!   header (magic through the PageID index), supergraph, size table,
//!   domain index — so `wgr check` can localise damage within it;
//! * every other file (`index_NNN.bin`, `pagemap.bin`) gets a whole-file
//!   `(length, CRC)` record, which also witnesses truncation;
//! * every intranode/superedge blob gets its own CRC in linear order, the
//!   granularity the read path verifies at (one blob read = one check);
//! * the manifest ends with a CRC of itself, so corruption *of the
//!   checksums* is detected too, never misreported as data damage.

use crate::{Result, SNodeError};
use std::path::Path;
use wg_fault::crc32c;

/// Name of the manifest file inside a representation directory.
pub const SUMS_FILE: &str = "sums.bin";

/// Manifest magic: "SNCS" (S-Node CheckSums).
pub const SUMS_MAGIC: u32 = 0x534E_4353;

/// Directory format version this workspace writes. Version 1 is the
/// manifest-less layout; version 2 adds `sums.bin`. The bump lives here —
/// not in `meta.bin` — so fault-free v2 builds remain byte-identical to
/// v1 builds in every fingerprinted file.
pub const DIRECTORY_VERSION: u32 = 2;

/// FNV-1a over (file name, file bytes) of every file in `dir`, in sorted
/// name order — enough to witness byte-identical builds. The `sums.bin`
/// integrity manifest is excluded: fingerprints witness the paper's
/// payload bytes, and checksum overhead is reported separately
/// (`BuildStats::checksum_bytes`). What `tests/golden_build.rs` holds a
/// build to.
pub fn fingerprint_dir(dir: &Path) -> std::io::Result<u64> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.file_name().is_some_and(|n| n != SUMS_FILE) {
            paths.push(path);
        }
    }
    paths.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    for path in paths {
        if let Some(name) = path.file_name() {
            eat(name.as_encoded_bytes());
        }
        eat(&wg_fault::read_file(&path)?);
    }
    Ok(h)
}

/// Human names of the four `meta.bin` sections, index-aligned with
/// [`IntegrityManifest::meta_sections`].
pub const META_SECTION_NAMES: [&str; 4] = ["header", "supergraph", "size-table", "domain-index"];

/// One checksummed byte range of `meta.bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaSection {
    /// Byte offset of the section start.
    pub start: u64,
    /// Section length in bytes.
    pub len: u64,
    /// CRC-32C of the section bytes.
    pub crc: u32,
}

/// Whole-file checksum record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSum {
    /// File name relative to the directory.
    pub name: String,
    /// Expected file length.
    pub len: u64,
    /// CRC-32C of the file bytes.
    pub crc: u32,
}

/// The parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityManifest {
    /// The four `meta.bin` sections, in [`META_SECTION_NAMES`] order.
    pub meta_sections: Vec<MetaSection>,
    /// Whole-file records for every file except the manifest itself,
    /// sorted by name.
    pub files: Vec<FileSum>,
    /// Per-blob CRCs in linear order: for each supernode `s`, its
    /// intranode graph, then its superedge graphs in `adj[s]` order.
    pub blob_crc: Vec<u32>,
}

/// Byte ranges of the four `meta.bin` sections, tiling the whole buffer.
/// Parses just enough structure to find the boundaries; full validation is
/// [`crate::disk::SNodeMeta::read`]'s job.
pub fn meta_section_bounds(buf: &[u8]) -> Result<[(u64, u64); 4]> {
    let mut c = Cur { buf, pos: 0 };
    c.u32()?; // magic
    c.u32()?; // version
    c.u32()?; // codec word
    c.u32()?; // num_pages
    let n = c.u32()? as u64;
    let header_end = c
        .pos
        .checked_add(
            (n as usize)
                .checked_add(1)
                .and_then(|k| k.checked_mul(4))
                .ok_or(SNodeError::Corrupt("meta header section size overflows"))?,
        )
        .ok_or(SNodeError::Corrupt("meta header section end overflows"))?;
    if header_end > buf.len() {
        return Err(SNodeError::Corrupt("meta file ends inside pageid index"));
    }
    c.pos = header_end;
    c.u64()?; // sg_bits
    let sg_len = c.u64()? as usize;
    let sg_end = c
        .pos
        .checked_add(sg_len)
        .ok_or(SNodeError::Corrupt("meta supergraph section end overflows"))?;
    if sg_end > buf.len() {
        return Err(SNodeError::Corrupt("meta file ends inside supergraph"));
    }
    c.pos = sg_end;
    c.u64()?; // max_file_bytes
    c.u64()?; // size_bits
    let size_len = c.u64()? as usize;
    let size_end = c
        .pos
        .checked_add(size_len)
        .ok_or(SNodeError::Corrupt("meta size-table section end overflows"))?;
    if size_end > buf.len() {
        return Err(SNodeError::Corrupt("meta file ends inside size table"));
    }
    Ok([
        (0, header_end as u64),
        (header_end as u64, (sg_end - header_end) as u64),
        (sg_end as u64, (size_end - sg_end) as u64),
        (size_end as u64, (buf.len() - size_end) as u64),
    ])
}

impl IntegrityManifest {
    /// Computes a manifest over the directory as it sits on disk: section
    /// CRCs from `meta.bin`, whole-file CRCs for everything except
    /// `sums.bin`, and the given per-blob CRCs (collected by the writer in
    /// linear order — recomputing them here would need the locator tables).
    pub fn compute(dir: &Path, blob_crc: Vec<u32>) -> Result<Self> {
        let meta_buf = wg_fault::read_file(&dir.join("meta.bin"))
            .map_err(|e| SNodeError::file_io(dir.join("meta.bin"), e))?;
        let bounds = meta_section_bounds(&meta_buf)?;
        let meta_sections = bounds
            .iter()
            .map(|&(start, len)| MetaSection {
                start,
                len,
                crc: crc32c(&meta_buf[start as usize..(start + len) as usize]),
            })
            .collect();

        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.metadata()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != SUMS_FILE {
                names.push(name);
            }
        }
        names.sort();
        let mut files = Vec::with_capacity(names.len());
        for name in names {
            let path = dir.join(&name);
            let bytes = wg_fault::read_file(&path).map_err(|e| SNodeError::file_io(path, e))?;
            files.push(FileSum {
                name,
                len: bytes.len() as u64,
                crc: crc32c(&bytes),
            });
        }
        Ok(Self {
            meta_sections,
            files,
            blob_crc,
        })
    }

    /// The CRC of every graph blob under `dir` as it sits on disk, in
    /// linear order: what [`IntegrityManifest::compute`] takes to describe
    /// a directory whose index files changed after the build.
    pub fn blob_crcs(dir: &Path) -> Result<Vec<u32>> {
        let meta = crate::disk::SNodeMeta::read(dir)?;
        let files = crate::disk::IndexFileReader::open_resident(dir)?;
        let mut crcs = Vec::new();
        for (intra, supers) in meta.intranode_loc.iter().zip(&meta.superedge_loc) {
            for loc in std::iter::once(intra).chain(supers) {
                crcs.push(crc32c(&files.read_blob(loc)?));
            }
        }
        Ok(crcs)
    }

    /// Serialises to `dir/sums.bin`, returning the bytes written.
    pub fn write(&self, dir: &Path) -> Result<u64> {
        let mut out = Vec::new();
        put_u32(&mut out, SUMS_MAGIC);
        put_u32(&mut out, DIRECTORY_VERSION);
        put_u32(&mut out, self.meta_sections.len() as u32);
        for s in &self.meta_sections {
            put_u64(&mut out, s.start);
            put_u64(&mut out, s.len);
            put_u32(&mut out, s.crc);
        }
        put_u32(&mut out, self.files.len() as u32);
        for f in &self.files {
            put_u32(&mut out, f.name.len() as u32);
            out.extend_from_slice(f.name.as_bytes());
            put_u64(&mut out, f.len);
            put_u32(&mut out, f.crc);
        }
        put_u64(&mut out, self.blob_crc.len() as u64);
        for &crc in &self.blob_crc {
            put_u32(&mut out, crc);
        }
        let self_crc = crc32c(&out);
        put_u32(&mut out, self_crc);
        let path = dir.join(SUMS_FILE);
        std::fs::write(&path, &out).map_err(|e| SNodeError::file_io(path, e))?;
        Ok(out.len() as u64)
    }

    /// Reads `dir/sums.bin`. `Ok(None)` when absent (a directory assembled
    /// by hand or stripped of it, which strict readers refuse); an error when
    /// present but damaged, so manifest corruption is never mistaken for
    /// clean data.
    pub fn read(dir: &Path) -> Result<Option<Self>> {
        let path = dir.join(SUMS_FILE);
        let buf = match wg_fault::read_file(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SNodeError::file_io(path, e)),
        };
        if buf.len() < 4 {
            return Err(SNodeError::Corrupt(
                "integrity manifest shorter than its own checksum",
            ));
        }
        let body = &buf[..buf.len() - 4];
        let tail = &buf[buf.len() - 4..];
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32c(body) != stored {
            return Err(SNodeError::Corrupt(
                "integrity manifest self-checksum mismatch",
            ));
        }
        let mut c = Cur { buf: body, pos: 0 };
        if c.u32()? != SUMS_MAGIC {
            return Err(SNodeError::Corrupt("bad integrity manifest magic"));
        }
        if c.u32()? != DIRECTORY_VERSION {
            return Err(SNodeError::Corrupt(
                "unsupported integrity manifest version",
            ));
        }
        let ns = c.u32()? as usize;
        let mut meta_sections = Vec::with_capacity(ns.min(1 << 10));
        for _ in 0..ns {
            let start = c.u64()?;
            let len = c.u64()?;
            let crc = c.u32()?;
            meta_sections.push(MetaSection { start, len, crc });
        }
        let nf = c.u32()? as usize;
        let mut files = Vec::with_capacity(nf.min(1 << 10));
        for _ in 0..nf {
            let name_len = c.u32()? as usize;
            let name_bytes = c.bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| SNodeError::Corrupt("integrity manifest file name not utf-8"))?
                .to_string();
            let len = c.u64()?;
            let crc = c.u32()?;
            files.push(FileSum { name, len, crc });
        }
        let nb = c.u64()?;
        let crcs = nb
            .checked_mul(4)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(SNodeError::Corrupt(
                "integrity manifest blob count overflows",
            ))?;
        let blob_crc = (c.bytes(crcs)?.chunks_exact(4))
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        Ok(Some(Self {
            meta_sections,
            files,
            blob_crc,
        }))
    }

    /// Whole-file record for `name`, if the manifest has one.
    pub fn file_sum(&self, name: &str) -> Option<&FileSum> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Verifies `bytes` against the whole-file record for `name`.
    /// `Ok(false)` when the manifest has no record for the file.
    pub fn check_file_bytes(&self, name: &str, bytes: &[u8]) -> Result<bool> {
        let Some(sum) = self.file_sum(name) else {
            return Ok(false);
        };
        if bytes.len() as u64 != sum.len {
            return Err(SNodeError::Corrupt(
                "file length differs from integrity manifest",
            ));
        }
        if crc32c(bytes) != sum.crc {
            return Err(SNodeError::Corrupt(
                "file checksum differs from integrity manifest",
            ));
        }
        Ok(true)
    }
}

/// Always-counted integrity check counters with an optional mirror into
/// the global registry (`integrity.checks` / `integrity.failures`),
/// following the workspace's two-tier metrics pattern.
#[derive(Debug, Default)]
pub struct IntegrityCounters {
    checks: wg_obs::Counter,
    failures: wg_obs::Counter,
    global: Option<(wg_obs::Counter, wg_obs::Counter)>,
}

impl IntegrityCounters {
    /// Instance counters, mirrored globally when metrics were enabled at
    /// construction time.
    pub fn new() -> Self {
        let global = if wg_obs::metrics_enabled() {
            let reg = wg_obs::global();
            Some((
                reg.counter("integrity.checks"),
                reg.counter("integrity.failures"),
            ))
        } else {
            None
        };
        Self {
            checks: wg_obs::Counter::default(),
            failures: wg_obs::Counter::default(),
            global,
        }
    }

    /// Records one verification performed.
    pub fn check(&self) {
        self.checks.inc();
        if let Some((c, _)) = &self.global {
            c.inc();
        }
    }

    /// Records one verification failure.
    pub fn failure(&self) {
        self.failures.inc();
        if let Some((_, f)) = &self.global {
            f.inc();
        }
    }

    /// Verifications performed by this instance.
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }

    /// Verification failures seen by this instance.
    pub fn failures(&self) -> u64 {
        self.failures.get()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SNodeError::Corrupt("integrity manifest length overflows"))?;
        if end > self.buf.len() {
            return Err(SNodeError::Corrupt("integrity manifest truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_snode_integrity_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample() -> IntegrityManifest {
        IntegrityManifest {
            meta_sections: vec![
                MetaSection {
                    start: 0,
                    len: 16,
                    crc: 0xDEAD_BEEF,
                },
                MetaSection {
                    start: 16,
                    len: 4,
                    crc: 1,
                },
            ],
            files: vec![
                FileSum {
                    name: "index_000.bin".into(),
                    len: 123,
                    crc: 42,
                },
                FileSum {
                    name: "meta.bin".into(),
                    len: 20,
                    crc: 7,
                },
            ],
            blob_crc: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("rt");
        let m = sample();
        m.write(&dir).unwrap();
        let back = IntegrityManifest::read(&dir).unwrap().expect("present");
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_manifest_reads_as_none() {
        let dir = temp_dir("absent");
        assert!(IntegrityManifest::read(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_flip_in_the_manifest_is_detected() {
        let dir = temp_dir("selfcrc");
        sample().write(&dir).unwrap();
        let clean = std::fs::read(dir.join(SUMS_FILE)).unwrap();
        for byte in (0..clean.len()).step_by(5) {
            let mut bad = clean.clone();
            bad[byte] ^= 0x10;
            std::fs::write(dir.join(SUMS_FILE), &bad).unwrap();
            assert!(
                IntegrityManifest::read(&dir).is_err(),
                "flip at byte {byte} undetected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_file_bytes_verdicts() {
        let m = sample();
        // Unknown file: unverified, not an error.
        assert!(!m.check_file_bytes("nope.bin", &[]).unwrap());
        // Known file with wrong length / wrong bytes: errors.
        assert!(m.check_file_bytes("meta.bin", &[0u8; 3]).is_err());
        assert!(m.check_file_bytes("meta.bin", &[0u8; 20]).is_err());
        // Matching bytes: verified.
        let payload = vec![9u8; 20];
        let m2 = IntegrityManifest {
            files: vec![FileSum {
                name: "meta.bin".into(),
                len: 20,
                crc: crc32c(&payload),
            }],
            ..sample()
        };
        assert!(m2.check_file_bytes("meta.bin", &payload).unwrap());
    }
}
