//! An open and its first answer start no thread. A child process opens a
//! 2 000-page directory with `SNode::open_resident`, answers one probe and
//! reads its own `/proc/self/status`: `Threads: 1`. The directory is built
//! in the parent, and this test has no libtest harness, so that no thread
//! but the child's main one can be counted (Linux only; elsewhere it
//! reports itself skipped).

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::Path;
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

const CHILD: &str = "WG_ONE_THREAD_OPEN_DIR";

fn main() {
    if let Some(dir) = std::env::var_os(CHILD) {
        let snode = SNode::open_resident(Path::new(&dir), 1 << 20).unwrap();
        snode.out_neighbors(0).unwrap();
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let threads = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        println!("{threads}");
        return;
    }
    if !Path::new("/proc/self/status").exists() {
        println!("test an_open_and_a_first_probe_start_no_thread ... skipped: no /proc");
        return;
    }
    let corpus = Corpus::generate(CorpusConfig::scaled(2_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_one_thread_open_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .env(CHILD, &dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let words: Vec<&str> = stdout.split_whitespace().collect();
    assert_eq!(
        words,
        ["Threads:", "1"],
        "the child's status reads {stdout}"
    );
    println!("test an_open_and_a_first_probe_start_no_thread ... ok");
}
