//! Build-level bit-flip robustness: navigation over a built directory
//! whose bytes were corrupted must never panic. The integrity manifest is
//! re-computed over each flip so the decode paths see the damage raw,
//! instead of the checksum layer rejecting the blob before a single bit is
//! decoded — this is what exercises the checked conversions (`Corrupt`
//! instead of truncating casts or out-of-bounds indexing) on the
//! navigation paths.
//!
//! Outcomes other than a panic are all acceptable: an open may error, any
//! query may error, and generous flips may even decode to a different
//! (still well-formed) graph.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, IntegrityManifest, RepoInput, SNode, SNodeConfig};

/// A directory built afresh for each case, removed when dropped: a case
/// that fails leaves nothing behind either.
struct Built(std::path::PathBuf);

impl Drop for Built {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A directory whose graphs take every layout, so the list streams and the
/// dictionaries' decode paths all face flipped bits.
fn built_dir() -> Built {
    let dir = std::env::temp_dir().join(format!("wg_bitflip_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Corpus::generate(CorpusConfig::scaled(300, 11));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    Built(dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_bit_flips_never_panic_navigation(
        in_meta in any::<bool>(),
        pos in any::<u64>(),
    ) {
        let built = built_dir();
        let dir = built.0.as_path();
        let name = if in_meta { "meta.bin" } else { "index_000.bin" };
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        let bit = (pos % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        // The blobs as the flipped `meta.bin` places them, or, where it
        // no longer parses, as the build wrote them; a flip that moves the
        // section bounds out of the file stays caught by the old manifest.
        let blobs = IntegrityManifest::blob_crcs(dir)
            .unwrap_or_else(|_| IntegrityManifest::read(dir).unwrap().unwrap().blob_crc);
        if let Ok(manifest) = IntegrityManifest::compute(dir, blobs) {
            manifest.write(dir).unwrap();
        }
        if let Ok(snode) = SNode::open_resident(dir, 1 << 20) {
            for p in 0..snode.num_pages().min(400) {
                let _ = snode.out_neighbors(p);
            }
        }
        let _ = SNode::open_resident(dir, 1 << 30).and_then(|snode| snode.to_graph());
    }
}
