//! Property test for the corpus generator's two sinks: for any (size,
//! seed), the in-memory corpus written by `write_corpus` is the same bytes
//! as the text sink's `stream_corpus` — what the memory sink collects is
//! what the text sink writes.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wg_corpus::stream::stream_corpus;
use wg_corpus::textio::write_corpus;
use wg_corpus::{Corpus, CorpusConfig};

fn temp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_streamprop_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

proptest! {
    // Each case generates two corpora; keep the count moderate so the
    // suite stays in seconds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_same_bytes_through_either_writer(
        pages in 1u32..1_500,
        seed in 0u64..1_000_000,
    ) {
        let config = CorpusConfig::scaled(pages, seed);
        let dir_mem = temp(&format!("mem_{pages}_{seed}"));
        let dir_str = temp(&format!("str_{pages}_{seed}"));

        write_corpus(&dir_mem, &Corpus::generate(config.clone())).unwrap();
        stream_corpus(&dir_str, &config).unwrap();

        for f in ["urls.txt", "domains.txt", "edges.txt", "phrases.txt"] {
            let a = std::fs::read(dir_mem.join(f)).unwrap();
            let b = std::fs::read(dir_str.join(f)).unwrap();
            prop_assert!(a == b, "{} differs at pages={} seed={}", f, pages, seed);
        }
        std::fs::remove_dir_all(&dir_mem).ok();
        std::fs::remove_dir_all(&dir_str).ok();
    }
}
