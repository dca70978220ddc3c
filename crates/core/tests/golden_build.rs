//! The build pinned to constants: the directory `build_snode` writes for
//! one generated corpus, as its `fingerprint_dir` (FNV-1a over the name
//! and bytes of every file but `sums.bin`), in both formats and at four
//! thread counts, which must all write the same bytes — below the
//! encode window of 64 supernodes, above half of it, and above all of it:
//! the window is shared out by supernode whatever the count. A change to
//! refinement, numbering, reference selection or encoding that is meant to
//! be invisible must leave both numbers alone — one changed byte in one
//! file moves them; one that is meant to move the format updates them
//! and says so. The 100 k-page directory the ledger's `nav-100k` reads is
//! pinned the same way, with the answers of 10 000 probes into it.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::integrity::fingerprint_dir;
use wg_snode::{build_snode, CodecConfig, RepoInput, SNode, SNodeConfig};

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

/// Every probe's page and answer hashed as `wgr scale-step query` hashes
/// its 10 000 (FNV-1a's basis, its own multiplier): pages in Knuth's
/// multiplicative scatter over the id space.
fn probe_fingerprint(snode: &SNode) -> u64 {
    let (n, mut h, mut out) = (snode.num_pages(), 0xcbf2_9ce4_8422_2325_u64, Vec::new());
    for i in 0..10_000u64 {
        let p = (i * 2_654_435_761 % u64::from(n)) as u32;
        snode.out_neighbors_into(p, &mut out).unwrap();
        for t in std::iter::once(p).chain(out.iter().copied()) {
            for b in t.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
            }
        }
    }
    h
}

/// The corpus streamed as `wgr scale-step build` streams it and read back
/// as `wgr build` reads it, built with the default config: the directory
/// the ledger's `nav-100k` workload reads, and the answers of the scale
/// step's probes into it — at 1 MiB, and at 256 MiB on a second pass,
/// every graph cached.
#[test]
fn the_100k_directory_and_its_answers_are_the_committed_ones() {
    let root = std::env::temp_dir().join(format!("wg_golden_100k_{}", std::process::id()));
    let (corpus, dir) = (root.join("corpus"), root.join("repo"));
    wg_corpus::stream::stream_corpus(&corpus, &CorpusConfig::scaled(100_000, 42)).unwrap();
    let input = wg_corpus::textio::read_build_input(&corpus).unwrap();
    let urls = input.urls();
    let repo = RepoInput {
        urls: &urls,
        domains: &input.domains,
        graph: &input.graph,
    };
    build_snode(repo, &SNodeConfig::default(), &dir).unwrap();
    assert_eq!(fingerprint_dir(&dir).unwrap(), 0x114a_dca4_dae3_8b1c);

    let answers = 0xda91_2306_e8d1_4cb6;
    let small = SNode::open_resident(&dir, 1 << 20).unwrap();
    assert_eq!(probe_fingerprint(&small), answers, "1 MiB");
    let warm = SNode::open_resident(&dir, 256 << 20).unwrap();
    probe_fingerprint(&warm);
    let cold = warm.cache_stats().misses;
    assert_eq!(probe_fingerprint(&warm), answers, "256 MiB, warm");
    assert_eq!(
        warm.cache_stats().misses,
        cold,
        "the second pass found every graph"
    );
    std::fs::remove_dir_all(&root).ok();
}
