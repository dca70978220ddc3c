//! Build-level bit-flip robustness: navigation over a built directory
//! whose bytes were corrupted must never panic. The integrity manifest is
//! removed first so the decode paths see the damage raw, instead of the
//! checksum layer rejecting the blob before a single bit is decoded —
//! this is what exercises the checked conversions (`Corrupt` instead of
//! truncating casts or out-of-bounds indexing) on the navigation paths.
//!
//! Outcomes other than a panic are all acceptable: `open`/`load` may
//! error, any query may error, and generous flips may even decode to a
//! different (still well-formed) graph.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::sync::OnceLock;
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, CodecConfig, RepoInput, SNode, SNodeConfig, SNodeInMemory};

/// The paper's plain format and the default, so both the list streams and
/// the dictionary layouts' decode paths face flipped bits.
const CODECS: [&str; 2] = ["g", "g+st"];

fn built_dir(codec: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "wg_bitflip_{}_{}",
        codec.replace('+', "_"),
        std::process::id()
    ));
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
    let config = SNodeConfig {
        codec: CodecConfig::parse(codec).unwrap(),
        ..SNodeConfig::default()
    };
    build_snode(input, &config, &dir).unwrap();
    std::fs::remove_file(dir.join("sums.bin")).unwrap();
    dir
}

fn dirs() -> &'static [std::path::PathBuf; 2] {
    static DIRS: OnceLock<[std::path::PathBuf; 2]> = OnceLock::new();
    DIRS.get_or_init(|| [built_dir(CODECS[0]), built_dir(CODECS[1])])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_bit_flips_never_panic_navigation(
        codec in 0usize..2,
        in_meta in any::<bool>(),
        pos in any::<u64>(),
    ) {
        let dir = &dirs()[codec];
        let name = if in_meta { "meta.bin" } else { "index_000.bin" };
        let path = dir.join(name);
        let orig = std::fs::read(&path).unwrap();
        let bit = (pos % (orig.len() as u64 * 8)) as usize;
        let mut bytes = orig.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(snode) = SNode::open_resident(dir, 1 << 20) {
            for p in 0..snode.num_pages().min(400) {
                let _ = snode.out_neighbors(p);
            }
        }
        if let Ok(mem) = SNodeInMemory::load(dir) {
            for p in 0..mem.num_pages().min(400) {
                let _ = mem.out_neighbors(p);
            }
        }
        std::fs::write(&path, &orig).unwrap();
    }
}
