//! End-to-end analyzer tests: a freshly built representation is clean, a
//! representation with several injected corruptions reports every one of
//! them with its stable code, and physical damage is reported once, at the
//! finest checksummed unit that caught it.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use wg_analyze::{check, Code, Location, Report};
use wg_bitio::{BitWriter, HuffmanCode};
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::codec::{CodecConfig, ListCodec};
use wg_snode::disk::{GraphLocator, IndexFileWriter, SNodeMeta};
use wg_snode::integrity::meta_section_bounds;
use wg_snode::refenc::{encode_lists, RefMode};
use wg_snode::subgraphs::{encode_intranode, encode_superedge};
use wg_snode::supergraph::SupernodeGraph;
use wg_snode::{build_snode, IntegrityManifest, RepoInput, SNodeConfig};

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

    let report = check(&dir);
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
/// * SN013 — superedge 2→0 is stored in the complement form earlier
///   builds wrote (its kind bit set), which no reader takes;
/// * SN060 — `index_000.bin` carries trailing unreferenced bytes.
///
/// The manifest is computed last, as a build would write it: every byte
/// verifies, and only the logical passes can find the damage.
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
    let se02 = encode_superedge(&[vec![], vec![], vec![]], 2, RefMode::None);
    superedge_loc.push(vec![w.append(&se02.bytes, se02.bit_len).unwrap()]);

    let intra1 = encode_intranode(&[], RefMode::None);
    intranode_loc.push(w.append(&intra1.bytes, intra1.bit_len).unwrap());
    superedge_loc.push(vec![]);

    let intra2 = encode_intranode(&[vec![1], vec![]], RefMode::None);
    intranode_loc.push(w.append(&intra2.bytes, intra2.bit_len).unwrap());
    // se(2→0) as its complement, one list per page of the targets it
    // does not link to: source 0 → target 0 is the one link.
    let neg_lists = vec![vec![1u32, 2], vec![0, 1, 2]];
    let mut bw = BitWriter::new();
    bw.write_bit(true); // the kind bit, which must read 0
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
    let blobs = IntegrityManifest::blob_crcs(dir).unwrap();
    IntegrityManifest::compute(dir, blobs)
        .unwrap()
        .write(dir)
        .unwrap();
}

/// The logical codes `craft_corrupt` does not reach, each from one more
/// defect under a manifest that matches:
///
/// * SN002 — supernode 1 is listed by both domains;
/// * SN040 — the supergraph stream codes both supernodes, though neither
///   is ever a target (the canonical table codes one);
/// * SN011 — supernode 0 owns two pages, its intranode graph one list;
/// * SN050 — supernode 1's intranode graph declares a byte it never reads.
#[test]
fn domain_table_size_and_trailing_bit_defects_are_reported() {
    let dir = temp_dir("logical");
    let cap = 1u64 << 20;
    let mut w = IndexFileWriter::create(&dir, cap).unwrap();
    let intra0 = encode_intranode(&[vec![]], RefMode::None);
    let intra1 = encode_intranode(&[vec![1], vec![0]], RefMode::None);
    let mut padded = intra1.bytes.clone();
    padded.push(0);
    let intranode_loc = vec![
        w.append(&intra0.bytes, intra0.bit_len).unwrap(),
        w.append(&padded, intra1.bit_len + 8).unwrap(),
    ];
    w.finish().unwrap();
    let meta = SNodeMeta {
        num_pages: 4,
        range_start: vec![0, 2, 4],
        supergraph: SupernodeGraph {
            adj: vec![vec![], vec![]],
        },
        supergraph_bits: 0,
        intranode_loc,
        superedge_loc: vec![vec![], vec![]],
        domain_supernodes: vec![vec![0, 1], vec![1]],
        max_file_bytes: cap,
        codec: CodecConfig::default(),
    };
    meta.write(&dir).unwrap();
    // The supergraph section is the stream's bit and byte lengths, then
    // the stream: splice in one under the other table, and point the
    // checkpoints at its rows.
    let mut sg = BitWriter::new();
    wg_bitio::codes::write_gamma(&mut sg, 2);
    HuffmanCode::from_lengths(vec![1, 1])
        .unwrap()
        .write_lengths(&mut sg);
    let rows_at = sg.bit_len() as u32;
    wg_bitio::codes::write_gamma(&mut sg, 0);
    wg_bitio::codes::write_gamma(&mut sg, 0);
    let (stream, bits) = sg.finish();
    let path = dir.join("meta.bin");
    let old = std::fs::read(&path).unwrap();
    let [_, (start, len), ..] = meta_section_bounds(&old).unwrap();
    let mut bytes = old[..start as usize].to_vec();
    bytes.extend_from_slice(&bits.to_le_bytes());
    bytes.extend_from_slice(&(stream.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&stream);
    bytes.extend_from_slice(&old[(start + len) as usize..]);
    // The checkpoints point into the new stream: its one group's rows
    // start after the table and end where the stream does.
    let [.., (checkpoints, _), _] = meta_section_bounds(&bytes).unwrap();
    for (k, bit) in [(0, rows_at), (1, bits as u32)] {
        let at = checkpoints as usize + 20 * k;
        bytes[at..at + 4].copy_from_slice(&bit.to_le_bytes());
    }
    std::fs::write(&path, bytes).unwrap();
    let blobs = IntegrityManifest::blob_crcs(&dir).unwrap();
    IntegrityManifest::compute(&dir, blobs)
        .unwrap()
        .write(&dir)
        .unwrap();

    let report = check(&dir);
    let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        [
            Code::DomainIndexInvalid,
            Code::HuffmanNonCanonical,
            Code::IntranodeSizeMismatch,
            Code::TrailingBits
        ],
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_corruptions_all_reported() {
    let dir = temp_dir("corrupt");
    craft_corrupt(&dir);

    let report = check(&dir);
    let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&Code::PageidGap), "missing SN001: {report}");
    assert!(
        codes.contains(&Code::EmptySuperedge),
        "missing SN010: {report}"
    );
    // The complement form is one error, at its graph, that says why.
    let negative: Vec<_> = (report.diagnostics.iter())
        .filter(|d| d.location == Location::Superedge(2, 0))
        .collect();
    assert_eq!(negative.len(), 1, "{report}");
    assert_eq!(negative[0].code, Code::DecodeError, "{report}");
    assert!(
        (negative[0].message).contains("negative superedge graph: rebuild the directory"),
        "{report}"
    );
    assert!(
        codes.contains(&Code::IndexFileOversize),
        "missing SN060: {report}"
    );
    assert_eq!(codes.len(), 4, "unexpected extra findings: {report}");
    assert_eq!(report.num_errors(), 3);
    assert_eq!(report.num_warnings(), 1);

    // Stable codes surface verbatim in the JSON rendering.
    let json = report.to_json();
    for code in ["SN001", "SN010", "SN013", "SN060"] {
        assert!(json.contains(code), "{code} absent from JSON: {json}");
    }
    assert!(json.contains("\"severity\":\"error\""));
    assert!(json.contains("\"severity\":\"warning\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// Nothing to verify is an error, not a panic: an empty directory, and a
/// built one stripped of `sums.bin`, are one SN100 each, and no logical
/// pass runs over bytes nothing vouches for.
#[test]
fn a_directory_without_a_manifest_is_one_error() {
    let dir = temp_dir("nomanifest");
    let only_sn100 = |report: &Report| {
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [Code::MissingManifest], "{report}");
        assert_eq!(report.num_errors(), 1);
    };
    only_sn100(&check(&dir));
    build_small(&dir);
    std::fs::remove_file(dir.join("sums.bin")).unwrap();
    only_sn100(&check(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_files_are_diagnosed_not_fatal() {
    let dir = temp_dir("noindex");
    craft_corrupt(&dir);
    for no in 0..3 {
        std::fs::remove_file(wg_snode::disk::index_file_path(&dir, no)).ok();
    }
    let report = check(&dir);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::DecodeError),
        "expected an unreadable-graphs diagnostic: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A small two-domain repository with intranode and cross links.
fn build_small(dir: &Path) {
    let urls: Vec<String> = (0..40)
        .map(|i| format!("http://d{}.example/p{i}", i / 20))
        .collect();
    let domains: Vec<u32> = (0..40u32).map(|i| i / 20).collect();
    let g = wg_graph::Graph::from_edges(
        40,
        (0..40u32).flat_map(|i| [(i, (i + 1) % 40), (i, (i + 7) % 40)]),
    );
    let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
    let input = RepoInput {
        urls: &url_refs,
        domains: &domains,
        graph: &g,
    };
    build_snode(input, &SNodeConfig::default(), dir).unwrap();
}

/// One flipped bit anywhere in a fresh build is exactly one error, at the
/// finest unit that caught it: SN102 in `meta.bin` (a section), SN104 in
/// an index file (a blob), SN103 in `pagemap.bin` (the whole file), SN101
/// in `sums.bin` itself. Restoring the byte restores a clean report.
#[test]
fn every_single_bit_flip_is_exactly_one_error() {
    let dir = temp_dir("flips");
    build_small(&dir);
    assert!(check(&dir).is_clean());
    for (name, code) in [
        ("meta.bin", Code::MetaSectionChecksum),
        ("index_000.bin", Code::BlobChecksum),
        ("pagemap.bin", Code::FileChecksum),
        ("sums.bin", Code::ManifestCorrupt),
    ] {
        let path = dir.join(name);
        let orig = std::fs::read(&path).unwrap();
        let step = (orig.len() / 13).max(1);
        for pos in (0..orig.len()).step_by(step) {
            let mut bytes = orig.clone();
            bytes[pos] ^= 1 << (pos % 8);
            std::fs::write(&path, &bytes).unwrap();
            let report = check(&dir);
            let errors: Vec<Code> = (report.diagnostics.iter())
                .filter(|d| d.severity == wg_analyze::Severity::Error)
                .map(|d| d.code)
                .collect();
            assert_eq!(errors, [code], "flip at {name}:{pos}: {report}");
        }
        std::fs::write(&path, &orig).unwrap();
    }
    assert!(check(&dir).is_clean());
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped blob byte is SN104 at its graph, and not again as SN103 at
/// its file; bytes appended past the last blob, which no blob covers, are
/// the file's SN105.
#[test]
fn index_damage_is_reported_at_the_blob_or_else_at_the_file() {
    let dir = temp_dir("blob");
    build_small(&dir);
    let meta = wg_snode::disk::SNodeMeta::read(&dir).unwrap();
    let loc = meta.intranode_loc[0];
    let path = wg_snode::disk::index_file_path(&dir, loc.file);
    let orig = std::fs::read(&path).unwrap();
    let mut bytes = orig.clone();
    bytes[loc.offset as usize] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let report = check(&dir);
    assert_eq!(report.diagnostics.len(), 1, "{report}");
    let d = &report.diagnostics[0];
    assert_eq!(
        (d.code, d.location),
        (Code::BlobChecksum, Location::Intranode(0))
    );

    let mut bytes = orig.clone();
    bytes.push(0);
    std::fs::write(&path, &bytes).unwrap();
    let report = check(&dir);
    let errors: Vec<(Code, Location)> = (report.diagnostics.iter())
        .filter(|d| d.severity == wg_analyze::Severity::Error)
        .map(|d| (d.code, d.location))
        .collect();
    assert_eq!(
        errors,
        [(Code::TruncatedFile, Location::IndexFile(loc.file))],
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated index file is its SN105, and each graph cut off an SN013
/// or SN070 of the logical pass; a manifest that does not read is SN101.
#[test]
fn truncation_and_corrupt_manifest_reported() {
    let dir = temp_dir("trunc");
    build_small(&dir);
    let idx = dir.join("index_000.bin");
    let orig = std::fs::read(&idx).unwrap();
    std::fs::write(&idx, &orig[..orig.len() - 1]).unwrap();
    let report = check(&dir);
    let codes: Vec<(Code, Location)> = (report.diagnostics.iter())
        .map(|d| (d.code, d.location))
        .collect();
    assert!(
        codes.contains(&(Code::TruncatedFile, Location::IndexFile(0))),
        "{report}"
    );
    assert!(
        codes
            .iter()
            .any(|&(c, _)| c == Code::DecodeError || c == Code::MissingSuperedgeGraph),
        "{report}"
    );
    std::fs::write(&idx, &orig).unwrap();

    let sums = dir.join("sums.bin");
    let mut bytes = std::fs::read(&sums).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&sums, &bytes).unwrap();
    let report = check(&dir);
    assert_eq!(report.diagnostics.len(), 1, "{report}");
    assert_eq!(report.diagnostics[0].code, Code::ManifestCorrupt);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checksums prove the bytes are the ones a builder wrote, not that it
/// wrote the one format read: a verified header with an unknown codec
/// word is SN013, and says to rebuild.
#[test]
fn invalid_codec_id_in_verified_header_is_reported() {
    let dir = temp_dir("codec");
    build_small(&dir);
    // meta.bin header layout: magic u32, version u32, codec u32.
    let path = dir.join("meta.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let blobs = IntegrityManifest::read(&dir).unwrap().unwrap().blob_crc;
    IntegrityManifest::compute(&dir, blobs)
        .unwrap()
        .write(&dir)
        .unwrap();
    let report = check(&dir);
    assert_eq!(report.diagnostics.len(), 1, "{report}");
    let d = &report.diagnostics[0];
    assert!(
        d.code == Code::DecodeError && d.message.contains("rebuild"),
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
