//! The build pinned to constants: the directory `build_snode` writes for
//! one generated corpus, as its `fingerprint_dir` (FNV-1a over the name
//! and bytes of every file but `sums.bin`), in both formats and at four
//! thread counts, which must all write the same bytes — below the
//! encode window of 64 supernodes, above half of it, and above all of it:
//! the window is shared out by supernode whatever the count. A change to
//! refinement, numbering, reference selection or encoding that is meant to
//! be invisible must leave both numbers alone — one changed byte in one
//! file moves them; one that is meant to move the format updates them
//! and says so.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::integrity::fingerprint_dir;
use wg_snode::{build_snode, CodecConfig, RepoInput, SNodeConfig};

#[test]
fn build_of_a_generated_corpus_is_the_committed_directory() {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let golden = [
        ("g+st", 0x2c52_dd63_7393_fe69_u64),
        ("g", 0x3512_40ea_59b3_3bfb),
    ];
    for (name, want) in golden {
        let codec = CodecConfig::parse(name).unwrap();
        assert_eq!(codec == CodecConfig::default(), name == "g+st");
        for threads in [1, 4, 48, 80] {
            let dir = std::env::temp_dir().join(format!(
                "wg_golden_build_{}_{name}_{threads}",
                std::process::id()
            ));
            let config = SNodeConfig {
                codec,
                threads,
                ..SNodeConfig::default()
            };
            build_snode(input, &config, &dir).unwrap();
            let got = fingerprint_dir(&dir).unwrap();
            assert_eq!(
                got, want,
                "{name}, {threads} threads: the directory hashes to {got:#018x}"
            );

            // The fingerprint sees every byte it covers: one flipped bit
            // in an index file moves it.
            let index = dir.join("index_000.bin");
            let mut bytes = std::fs::read(&index).unwrap();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 1;
            std::fs::write(&index, bytes).unwrap();
            assert_ne!(fingerprint_dir(&dir).unwrap(), want);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
