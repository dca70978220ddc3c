//! The build pinned to constants: the directory `build_snode` writes for
//! one generated corpus, as its `fingerprint_dir` (FNV-1a over the name
//! and bytes of every file but `sums.bin`), at four thread counts, which
//! must all write the same bytes — below the encode window of 64
//! supernodes, above half of it, and above all of it: the window is shared
//! out by supernode whatever the count. A change to refinement, numbering,
//! reference selection or encoding that is meant to be invisible must
//! leave the number alone — one changed byte in one file moves it; one
//! that is meant to move the format updates it and says so. The streamed
//! 100 k-page directory the ledger's `nav-100k` reads is pinned the same
//! way, with the answers of 10 000 probes into it; so are the 300 k and
//! 1 M rungs of the scale ladder, in tests that run only when asked
//! (`-- --ignored`, in release).

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::integrity::fingerprint_dir;
use wg_snode::{build_snode, Renumbering, RepoInput, SNode, SNodeConfig};

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
    // Moved when supernodes above `MAX_ELEMENT_PAGES` came to be cut into
    // runs: this corpus's largest became two (so did the fingerprints of
    // every rung below; the answers in corpus ids did not move).
    let want = 0x1a50_6089_ebcf_ac4b_u64;
    for threads in [1, 4, 48, 80] {
        let dir =
            std::env::temp_dir().join(format!("wg_golden_build_{}_{threads}", std::process::id()));
        let config = SNodeConfig {
            threads,
            ..SNodeConfig::default()
        };
        build_snode(input, &config, &dir).unwrap();
        let got = fingerprint_dir(&dir).unwrap();
        assert_eq!(
            got, want,
            "{threads} threads: the directory hashes to {got:#018x}"
        );

        // The fingerprint sees every byte it covers: one flipped bit in an
        // index file moves it.
        let index = dir.join("index_000.bin");
        let mut bytes = std::fs::read(&index).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 1;
        std::fs::write(&index, bytes).unwrap();
        assert_ne!(fingerprint_dir(&dir).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every probe's page and answer hashed into one number (FNV-1a's basis,
/// its own multiplier): 10 000 pages in Knuth's multiplicative scatter over
/// the corpus's ids. A probe and its answer are hashed in corpus ids, the
/// answer ascending, so the number holds whatever ids the partition gives
/// the pages: a renumbering moves no answer.
fn probe_fingerprint(snode: &SNode, renumbering: &Renumbering) -> u64 {
    let (n, mut h) = (snode.num_pages(), 0xcbf2_9ce4_8422_2325_u64);
    let (mut out, mut answer) = (Vec::new(), Vec::new());
    for i in 0..10_000u64 {
        let page = (i * 2_654_435_761 % u64::from(n)) as u32;
        snode
            .out_neighbors_into(renumbering.new_of_old[page as usize], &mut out)
            .unwrap();
        answer.clear();
        answer.extend(out.iter().map(|&t| renumbering.old_of_new[t as usize]));
        answer.sort_unstable();
        for t in std::iter::once(page).chain(answer.iter().copied()) {
            for b in t.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
            }
        }
    }
    h
}

/// The corpus of `pages` pages streamed as `wgr build --stream` streams it
/// and read back as `wgr build` reads it, built with the default config,
/// is the directory `fingerprint`; and the answers of the probes into it
/// are `answers` — at 1 MiB, and at 256 MiB on a second pass, every graph
/// cached.
fn streamed_build_is_pinned(pages: u32, fingerprint: u64, answers: u64) {
    let root = std::env::temp_dir().join(format!("wg_golden_{pages}_{}", std::process::id()));
    let (corpus, dir) = (root.join("corpus"), root.join("repo"));
    wg_corpus::stream::stream_corpus(&corpus, &CorpusConfig::scaled(pages, 42)).unwrap();
    let input = wg_corpus::textio::read_build_input(&corpus).unwrap();
    let urls = input.urls();
    let repo = RepoInput {
        urls: &urls,
        domains: &input.domains,
        graph: &input.graph,
    };
    let (_, renumbering) = build_snode(repo, &SNodeConfig::default(), &dir).unwrap();
    assert_eq!(fingerprint_dir(&dir).unwrap(), fingerprint, "{pages} pages");

    let small = SNode::open_resident(&dir, 1 << 20).unwrap();
    assert_eq!(
        probe_fingerprint(&small, &renumbering),
        answers,
        "{pages} pages, 1 MiB"
    );
    let warm = SNode::open_resident(&dir, 256 << 20).unwrap();
    probe_fingerprint(&warm, &renumbering);
    let cold = warm.cache_stats().misses;
    assert_eq!(
        probe_fingerprint(&warm, &renumbering),
        answers,
        "{pages} pages, 256 MiB, warm"
    );
    assert_eq!(
        warm.cache_stats().misses,
        cold,
        "{pages} pages: the second pass found every graph"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The directory the ledger's `nav-100k` workload reads.
#[test]
fn the_100k_directory_and_its_answers_are_the_committed_ones() {
    streamed_build_is_pinned(100_000, 0xce63_a710_38cf_db9e, 0xcfbe_d9da_3848_91c3);
}

/// The ladder's upper rungs: `cargo test --release -p wg-snode --test
/// golden_build -- --ignored` (about half a minute together).
#[test]
#[ignore = "release only: streams and builds 300 000 pages"]
fn the_300k_directory_and_its_answers_are_the_committed_ones() {
    streamed_build_is_pinned(300_000, 0xf4c1_8eb8_1cc7_245e, 0x8ca5_0a4c_83a6_e835);
}

#[test]
#[ignore = "release only: streams and builds 1 000 000 pages"]
fn the_1m_directory_and_its_answers_are_the_committed_ones() {
    streamed_build_is_pinned(1_000_000, 0x4295_1025_b002_3c91, 0x98a7_c7bb_6a82_354f);
}
