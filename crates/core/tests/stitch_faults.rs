//! The sharded build's stitch pass reads its spill files through the
//! wg-fault shim: a transient fault there is retried, a persistent one
//! fails the build. One test, in a process of its own, because the
//! installed fault plan is process-wide.

use wg_corpus::{Corpus, CorpusConfig};
use wg_fault::io::{clear_transients, install_transients, RETRY_ATTEMPTS};
use wg_fault::{retries_performed, transient_faults_injected, TransientKind};
use wg_snode::{build_snode_sharded, RepoInput, SNodeConfig};

#[test]
fn stitch_reads_see_injected_faults() {
    let corpus = Corpus::generate(CorpusConfig::scaled(600, 77));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir =
        |name: &str| std::env::temp_dir().join(format!("wg_stitch_{name}_{}", std::process::id()));
    let config = SNodeConfig::default();
    let clean = dir("clean");
    build_snode_sharded(input, &config, &clean, 4).expect("clean build");

    // The corpus is in memory, so the build's first shim read is the
    // stitch's first chunk of a spill file.
    install_transients(vec![(0, TransientKind::Eio)]);
    let (injected, retried) = (transient_faults_injected(), retries_performed());
    let blip = dir("blip");
    build_snode_sharded(input, &config, &blip, 4).expect("one fault is retried");
    assert_eq!(transient_faults_injected(), injected + 1);
    assert!(retries_performed() > retried);
    for name in ["index_000.bin", "meta.bin", "sums.bin"] {
        let (a, b) = (
            std::fs::read(clean.join(name)),
            std::fs::read(blip.join(name)),
        );
        assert_eq!(a.expect("clean file"), b.expect("rebuilt file"), "{name}");
    }

    install_transients(
        (0..u64::from(RETRY_ATTEMPTS))
            .map(|i| (i, TransientKind::Eio))
            .collect(),
    );
    let failed = build_snode_sharded(input, &config, &dir("down"), 4);
    clear_transients();
    assert!(
        failed.is_err(),
        "a fault past the retry budget fails the build"
    );

    for name in ["clean", "blip", "down"] {
        std::fs::remove_dir_all(dir(name)).ok();
    }
}
