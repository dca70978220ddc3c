//! End-to-end test of `wgr check`: a representation with several injected
//! corruptions must report every one with its stable code through the
//! `--json` interface, and the exit codes must follow the contract
//! (0 clean, 1 denied warnings, 2 errors or an unusable directory).

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;
use webgraph_repr::bitio::BitWriter;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::codec::{CodecConfig, ListCodec};
use webgraph_repr::snode::disk::{GraphLocator, IndexFileWriter, SNodeMeta};
use webgraph_repr::snode::refenc::{encode_lists, RefMode};
use webgraph_repr::snode::subgraphs::{encode_intranode, encode_superedge, SuperedgePolicy};
use webgraph_repr::snode::supergraph::SupernodeGraph;
use webgraph_repr::snode::{build_snode, IntegrityManifest, RepoInput, SNodeConfig};

fn wgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wgr"))
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_checkcli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Re-manifests `dir` as it sits on disk: damage made since the build
/// passes every checksum, and only the logical passes can find it.
fn remanifest(dir: &Path) {
    let blobs = IntegrityManifest::blob_crcs(dir).unwrap();
    IntegrityManifest::compute(dir, blobs)
        .unwrap()
        .write(dir)
        .unwrap();
}

fn build_clean(dir: &Path) {
    let corpus = Corpus::generate(CorpusConfig::scaled(800, 3));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    build_snode(input, &SNodeConfig::default(), dir).unwrap();
}

/// Injects four corruptions: an empty PageID range (SN001), a zero-link
/// superedge (SN010), a negative encoding larger than its positive form
/// (SN030), and trailing index-file garbage (SN060) — under a manifest
/// that matches, as a build would write one.
fn craft_corrupt(dir: &Path) {
    let supergraph = SupernodeGraph {
        adj: vec![vec![2], vec![], vec![0]],
    };
    let cap = 1u64 << 20;
    let mut w = IndexFileWriter::create(dir, cap).unwrap();
    let mut intranode_loc = Vec::new();
    let mut superedge_loc: Vec<Vec<GraphLocator>> = Vec::new();

    let intra0 = encode_intranode(&[vec![1], vec![2], vec![]], RefMode::None);
    intranode_loc.push(w.append(&intra0.bytes, intra0.bit_len).unwrap());
    let se02 = encode_superedge(
        &[vec![], vec![], vec![]],
        2,
        RefMode::None,
        SuperedgePolicy::EncodedSize,
    );
    superedge_loc.push(vec![w.append(&se02.bytes, se02.bit_len).unwrap()]);

    let intra1 = encode_intranode(&[], RefMode::None);
    intranode_loc.push(w.append(&intra1.bytes, intra1.bit_len).unwrap());
    superedge_loc.push(vec![]);

    let intra2 = encode_intranode(&[vec![1], vec![]], RefMode::None);
    intranode_loc.push(w.append(&intra2.bytes, intra2.bit_len).unwrap());
    let neg_lists = vec![vec![1u32, 2], vec![0, 1, 2]];
    let mut bw = BitWriter::new();
    bw.write_bit(true);
    let enc = encode_lists(&neg_lists, 3, RefMode::None, ListCodec);
    bw.append(&enc.bytes, enc.bit_len);
    let (bytes, bits) = bw.finish();
    superedge_loc.push(vec![w.append(&bytes, bits).unwrap()]);
    w.finish().unwrap();

    let meta = SNodeMeta {
        num_pages: 5,
        range_start: vec![0, 3, 3, 5],
        supergraph,
        supergraph_bits: 0,
        intranode_loc,
        superedge_loc,
        domain_supernodes: vec![vec![0, 1, 2]],
        max_file_bytes: cap,
        codec: CodecConfig::default(),
    };
    meta.write(dir).unwrap();

    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("index_000.bin"))
        .unwrap();
    f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
    remanifest(dir);
}

#[test]
fn check_reports_all_injected_corruptions_as_json() {
    let repo = temp_dir("corrupt");
    craft_corrupt(&repo);

    let out = wgr()
        .arg("check")
        .arg(&repo)
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "errors must exit 2: {out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    for code in ["SN001", "SN010", "SN030", "SN060"] {
        assert!(json.contains(code), "{code} missing from: {json}");
    }
    for name in [
        "pageid-gap",
        "empty-superedge",
        "negative-superedge-not-smaller",
        "index-file-oversize",
    ] {
        assert!(json.contains(name), "{name} missing from: {json}");
    }
    assert!(json.contains("\"summary\""));
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn check_exit_codes_follow_contract() {
    let repo = temp_dir("exitcodes");
    build_clean(&repo);

    // Clean: exit 0 in both renderings.
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = wgr()
        .arg("check")
        .arg(&repo)
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"diagnostics\":[]"));

    // Warning only (trailing index-file bytes the manifest covers):
    // tolerated by default, denied with --deny warn.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(repo.join("index_000.bin"))
        .unwrap();
    f.write_all(&[0u8; 5]).unwrap();
    drop(f);
    remanifest(&repo);
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "warnings tolerated: {out:?}");
    let out = wgr()
        .arg("check")
        .arg(&repo)
        .args(["--deny", "warn"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "warnings denied: {out:?}");

    // Corrupt metadata: exit 2.
    std::fs::write(repo.join("meta.bin"), b"junk").unwrap();
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&repo).ok();
}

/// Damage inside a graph is an error with exit 2, never a panic: an
/// intranode graph whose list stream sets the bit that once announced a
/// per-list directory (a reference mode no version writes any more;
/// re-manifested, so that the decoder meets it), and an index file cut in
/// half.
#[test]
fn check_fails_a_retired_list_stream_and_a_truncated_index() {
    let repo = temp_dir("damage");
    build_clean(&repo);
    let idx = repo.join("index_000.bin");
    let clean = std::fs::read(&idx).unwrap();

    // The bit follows the γ-coded list count, which for an intranode graph
    // is the supernode's size.
    let meta = SNodeMeta::read(&repo).unwrap();
    let loc = meta.intranode_loc[0];
    assert_eq!(loc.file, 0);
    let bit = webgraph_repr::bitio::codes::gamma_len(u64::from(meta.supernode_size(0)));
    let mut bytes = clean.clone();
    bytes[(loc.offset + bit / 8) as usize] |= 0x80 >> (bit % 8);
    assert_ne!(bytes, clean, "no build sets the bit");
    std::fs::write(&idx, &bytes).unwrap();
    remanifest(&repo);
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("retired reference mode: rebuild the directory"),
        "{text}"
    );

    std::fs::write(&idx, &clean[..clean.len() / 2]).unwrap();
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lies outside the index files"), "{text}");
    std::fs::remove_dir_all(&repo).ok();
}

/// `pagemap.bin` has no record finer than its whole-file checksum: one
/// flipped byte in it is one SN103, and exit 2.
#[test]
fn check_fails_a_flipped_pagemap_byte() {
    let repo = temp_dir("pagemap");
    build_clean(&repo);
    let path = repo.join("pagemap.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let out = wgr()
        .arg("check")
        .arg(&repo)
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"errors\":1,\"warnings\":0,"), "{json}");
    assert_eq!(json.matches("\"code\":").count(), 1, "{json}");
    assert!(json.contains("\"code\":\"SN103\""), "{json}");
    std::fs::remove_dir_all(&repo).ok();
}
