//! End-to-end analyzer tests: a freshly built representation is clean, and
//! a representation with several injected corruptions reports every one of
//! them with its stable code.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use wg_analyze::{check, Code};
use wg_bitio::BitWriter;
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::codec::{CodecConfig, ListCodec};
use wg_snode::disk::{GraphLocator, IndexFileWriter, SNodeMeta};
use wg_snode::refenc::{encode_lists, RefMode};
use wg_snode::subgraphs::{encode_intranode, encode_superedge, SuperedgePolicy};
use wg_snode::supergraph::SupernodeGraph;
use wg_snode::{build_snode, RepoInput, SNodeConfig};

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_analyze_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

#[test]
fn built_representation_is_clean() {
    let dir = temp_dir("clean");
    let corpus = Corpus::generate(CorpusConfig::scaled(1_200, 7));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();

    let report = check(&dir).unwrap();
    assert!(report.is_clean(), "expected a clean report, got:\n{report}");
    assert_eq!(report.summary.num_pages, 1_200);
    assert!(report.summary.num_supernodes > 0);
    // Every link of the input is in exactly one graph of the directory.
    assert!(report.summary.intranode_edges > 0 && report.summary.superedge_edges > 0);
    assert_eq!(
        report.summary.intranode_edges + report.summary.superedge_edges,
        corpus.graph.num_edges()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-builds a representation with four distinct injected corruptions:
///
/// * SN001 — supernode 1 owns an empty PageID range;
/// * SN010 — superedge 0→2 encodes zero links;
/// * SN030 — superedge 2→0 is stored negative although the complement is
///   larger than the positive form;
/// * SN060 — `index_000.bin` carries trailing unreferenced bytes.
fn craft_corrupt(dir: &std::path::Path) {
    let supergraph = SupernodeGraph {
        adj: vec![vec![2], vec![], vec![0]],
    };
    let cap = 1u64 << 20;
    let mut w = IndexFileWriter::create(dir, cap).unwrap();
    let mut intranode_loc = Vec::new();
    let mut superedge_loc: Vec<Vec<GraphLocator>> = Vec::new();

    // Linear order: intra0, se(0→2), intra1, intra2, se(2→0).
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
    // Negative encoding of se(2→0): positive form would store 1 edge
    // (source 0 → target 0); the complement stores 5.
    let neg_lists = vec![vec![1u32, 2], vec![0, 1, 2]];
    let mut bw = BitWriter::new();
    bw.write_bit(true); // kind = negative
    let enc = encode_lists(&neg_lists, 3, RefMode::None, ListCodec);
    bw.append(&enc.bytes, enc.bit_len);
    let (bytes, bits) = bw.finish();
    superedge_loc.push(vec![w.append(&bytes, bits).unwrap()]);
    w.finish().unwrap();

    let meta = SNodeMeta {
        num_pages: 5,
        range_start: vec![0, 3, 3, 5], // supernode 1 is empty
        supergraph,
        supergraph_bits: 0, // recomputed on write
        intranode_loc,
        superedge_loc,
        domain_supernodes: vec![vec![0, 1, 2]],
        max_file_bytes: cap,
        codec: CodecConfig::default(),
    };
    meta.write(dir).unwrap();

    // Trailing garbage past the last referenced graph.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("index_000.bin"))
        .unwrap();
    f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
}

#[test]
fn injected_corruptions_all_reported() {
    let dir = temp_dir("corrupt");
    craft_corrupt(&dir);

    let report = check(&dir).unwrap();
    let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&Code::PageidGap), "missing SN001: {report}");
    assert!(
        codes.contains(&Code::EmptySuperedge),
        "missing SN010: {report}"
    );
    assert!(
        codes.contains(&Code::NegativeNotSmaller),
        "missing SN030: {report}"
    );
    assert!(
        codes.contains(&Code::IndexFileOversize),
        "missing SN060: {report}"
    );
    assert_eq!(codes.len(), 4, "unexpected extra findings: {report}");
    assert_eq!(report.num_errors(), 2);
    assert_eq!(report.num_warnings(), 2);

    // Stable codes surface verbatim in the JSON rendering.
    let json = report.to_json();
    for code in ["SN001", "SN010", "SN030", "SN060"] {
        assert!(json.contains(code), "{code} absent from JSON: {json}");
    }
    assert!(json.contains("\"severity\":\"error\""));
    assert!(json.contains("\"severity\":\"warning\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_meta_is_fatal() {
    let dir = temp_dir("fatal");
    assert!(check(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_files_are_diagnosed_not_fatal() {
    let dir = temp_dir("noindex");
    craft_corrupt(&dir);
    for no in 0..3 {
        std::fs::remove_file(wg_snode::disk::index_file_path(&dir, no)).ok();
    }
    let report = check(&dir).unwrap();
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::DecodeError),
        "expected an unreadable-graphs diagnostic: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
