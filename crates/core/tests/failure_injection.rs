//! Failure injection: a corrupted or truncated on-disk S-Node
//! representation must surface errors, never panic and never silently
//! return wrong adjacency data at the points corruption is detectable.

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn build_repo(name: &str) -> (std::path::PathBuf, u32) {
    let corpus = Corpus::generate(CorpusConfig::scaled(600, 77));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut dir = std::env::temp_dir();
    dir.push(format!("wg_failinj_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    (dir, corpus.num_pages())
}

#[test]
fn truncated_meta_fails_to_open() {
    let (dir, _) = build_repo("meta_trunc");
    let meta = dir.join("meta.bin");
    let bytes = std::fs::read(&meta).unwrap();
    for cut in [0, 1, 7, bytes.len() / 3, bytes.len() - 1] {
        std::fs::write(&meta, &bytes[..cut]).unwrap();
        assert!(
            SNode::open_resident(&dir, 1 << 20).is_err(),
            "open must fail with meta truncated to {cut} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_meta_never_panics() {
    let (dir, num_pages) = build_repo("meta_flip");
    let meta = dir.join("meta.bin");
    let original = std::fs::read(&meta).unwrap();
    // Flip a byte at a spread of positions; open must either fail or
    // produce a representation that errors (not panics) on navigation.
    for pos in (0..original.len()).step_by(original.len() / 23 + 1) {
        let mut bytes = original.clone();
        bytes[pos] ^= 0xA5;
        std::fs::write(&meta, &bytes).unwrap();
        match SNode::open_resident(&dir, 1 << 20) {
            Err(_) => {}
            Ok(snode) => {
                for p in (0..num_pages.min(snode.num_pages())).step_by(97) {
                    let _ = snode.out_neighbors(p); // must not panic
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_files_fail_to_open() {
    let (dir, _) = build_repo("missing_idx");
    std::fs::remove_file(dir.join("index_000.bin")).unwrap();
    assert!(SNode::open_resident(&dir, 1 << 20).is_err());
    assert!(SNode::open_resident(&dir, 1 << 30)
        .and_then(|snode| snode.to_graph())
        .is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_index_file_errors_on_access() {
    let (dir, num_pages) = build_repo("idx_trunc");
    let idx = dir.join("index_000.bin");
    let bytes = std::fs::read(&idx).unwrap();
    std::fs::write(&idx, &bytes[..bytes.len() / 2]).unwrap();
    // Open may succeed (meta is intact); navigation into the truncated
    // region must error, not panic.
    match SNode::open_resident(&dir, 1 << 20) {
        Err(_) => {}
        Ok(snode) => {
            let mut saw_error = false;
            for p in 0..num_pages {
                if snode.out_neighbors(p).is_err() {
                    saw_error = true;
                }
            }
            assert!(
                saw_error,
                "half the index file is gone; something must fail"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_index_payload_is_detected_or_decodes_to_something() {
    // Bit flips inside graph payloads may or may not be detectable (a
    // flipped gap still decodes); the guarantee is no panic and no
    // out-of-range page ids.
    let (dir, num_pages) = build_repo("idx_flip");
    let idx = dir.join("index_000.bin");
    let original = std::fs::read(&idx).unwrap();
    for pos in (0..original.len()).step_by(original.len() / 17 + 1) {
        let mut bytes = original.clone();
        bytes[pos] ^= 0xFF;
        std::fs::write(&idx, &bytes).unwrap();
        let Ok(snode) = SNode::open_resident(&dir, 1 << 20) else {
            continue;
        };
        for p in (0..num_pages).step_by(41) {
            if let Ok(list) = snode.out_neighbors(p) {
                assert!(
                    list.iter().all(|&t| t < num_pages),
                    "decoded target out of page range after corruption"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pagemap_corruption_is_rejected() {
    let (dir, _) = build_repo("pagemap");
    let pm = dir.join("pagemap.bin");
    let mut bytes = std::fs::read(&pm).unwrap();
    // Out-of-range entry.
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&pm, &bytes).unwrap();
    assert!(wg_snode::Renumbering::read(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
