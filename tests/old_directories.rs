//! One format, written and read: `meta.bin` version 4. `tests/fixtures/v3_g_st/`
//! (see its README), written by the last commit that had the codec grid,
//! is a version-3 directory of the corpus a build of which writes the same
//! index files and `pagemap.bin` byte for byte today, and a `meta.bin` of
//! version 4. Every reader refuses it, and every older header — versions 1
//! and 2, and version 3 with any codec word — as `Corrupt` ("rebuild the
//! directory"), `wgr check` exits 2 on it, and `wgr check --repair` names
//! the earlier format and turns the directory into this version's build.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::bits::BitLedger;
use webgraph_repr::snode::disk::SNodeMeta;
use webgraph_repr::snode::{
    build_snode, IntegrityManifest, Renumbering, RepoInput, SNode, SNodeConfig, SNodeError,
};

fn wgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wgr"))
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3_g_st")
}

/// Every file of `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = (std::fs::read_dir(dir).unwrap())
        .map(|entry| entry.unwrap())
        .map(|entry| {
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Every page's adjacency list in the corpus's own page ids, read from
/// `snode` through the directory's `pagemap.bin`.
fn answers(snode: &SNode, dir: &Path) -> Vec<Vec<u32>> {
    let renum = Renumbering::read(dir).unwrap();
    (renum.new_of_old.iter())
        .map(|&new| {
            let list = snode.out_neighbors(new).unwrap();
            let mut old: Vec<u32> = (list.iter())
                .map(|&t| renum.old_of_new[t as usize])
                .collect();
            old.sort_unstable();
            old
        })
        .collect()
}

/// `wgr gen` of the fixture's corpus into `root/corpus`.
fn gen_corpus(root: &Path) -> PathBuf {
    let corpus = root.join("corpus");
    let out = (wgr().args(["gen", "--pages", "400", "--seed", "5", "--out"]))
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    corpus
}

/// Whether `got` is the `Corrupt` that says to rebuild the directory.
fn says_rebuild(got: Result<(), SNodeError>) -> bool {
    match got {
        Err(SNodeError::Corrupt(why)) => why.contains("rebuild"),
        _ => false,
    }
}

#[test]
fn the_v3_directory_is_refused_and_a_repair_rewrites_it() {
    let corpus = Corpus::generate(CorpusConfig::scaled(400, 5));
    let truth: Vec<Vec<u32>> = (0..corpus.num_pages())
        .map(|p| corpus.graph.neighbors(p).to_vec())
        .collect();
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let root = std::env::temp_dir().join(format!("wg_old_dirs_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let rebuilt_dir = root.join("rebuilt");
    build_snode(input, &SNodeConfig::default(), &rebuilt_dir).unwrap();
    let rebuilt = answers(
        &SNode::open_resident(&rebuilt_dir, 1 << 20).unwrap(),
        &rebuilt_dir,
    );
    assert_eq!(rebuilt, truth, "this version's own build");
    // The graphs and the renumbering are the fixture's, byte for byte.
    let (ours, old) = (files(&rebuilt_dir), files(&fixture()));
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&ours), names(&old));
    for ((name, ours), (_, old)) in ours.iter().zip(&old) {
        let same = !matches!(name.as_str(), "meta.bin" | "sums.bin");
        assert_eq!(ours == old, same, "{name}");
    }
    let meta = std::fs::read(rebuilt_dir.join("meta.bin")).unwrap();
    assert_eq!(meta[4..12], [4, 0, 0, 0, 0xC1, 0xC1, 0, 0]);

    let dir = fixture();
    let old_meta = std::fs::read(dir.join("meta.bin")).unwrap();
    assert_eq!(old_meta[4..12], [3, 0, 0, 0, 0xC1, 0xC1, 0, 0]);
    assert!(says_rebuild(SNodeMeta::parse(&old_meta).map(drop)), "parse");
    for budget in [1 << 20, 1 << 10] {
        let strict = SNode::open_resident(&dir, budget).map(drop);
        assert!(says_rebuild(strict), "strict open in {budget} bytes");
        let degraded = SNode::open_degraded(&dir, budget).map(drop);
        assert!(says_rebuild(degraded), "degraded open in {budget} bytes");
    }
    let out = wgr().arg("check").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "wgr check: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("rebuild"),
        "{out:?}"
    );

    // A repair of a copy names the format it replaces and the build that
    // writes this one, and leaves this version's build.
    let copy = root.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    for (file, bytes) in files(&dir) {
        std::fs::write(copy.join(file), bytes).unwrap();
    }
    let corpus_dir = gen_corpus(&root);
    let out = (wgr().arg("check").arg(&copy))
        .args(["--repair", "--from"])
        .arg(&corpus_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "repair: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("version 3") && stderr.contains("earlier format"),
        "{stderr}"
    );
    assert!(stderr.contains("wgr build --corpus"), "{stderr}");
    assert!(files(&copy) == files(&rebuilt_dir), "repaired");
    let snode = SNode::open_resident(&copy, 1 << 20).unwrap();
    assert!(snode.verifies_checksums(), "sums.bin is honoured");
    assert_eq!(answers(&snode, &copy), rebuilt);
    let ledger = BitLedger::of(&copy).unwrap();
    let bits: u64 = ledger.rows.iter().map(|row| row.bits).sum();
    assert_eq!(bits, ledger.total_bits, "--bits accounts for the directory");
    assert_eq!(ledger.edges, corpus.graph.num_edges());
    std::fs::remove_dir_all(&root).ok();
}

/// The fixture under each header an earlier version wrote. All but the
/// version-1 one are re-manifested, so the checksums agree with the bytes
/// and only the format check can tell; version 1 has no manifest at all.
/// Every reader refuses the directory and says to rebuild it, and a
/// repair from the corpus turns it into this version's build.
#[test]
fn old_headers_are_refused_then_repaired() {
    let root = std::env::temp_dir().join(format!("wg_old_headers_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let corpus = gen_corpus(&root);
    let current = root.join("current");
    let out = (wgr().args(["build", "--corpus"]).arg(&corpus))
        .arg("--out")
        .arg(&current)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // (name, version, codec word: `None` for version 1, which had none)
    let headers: [(&str, u32, Option<u32>); 4] = [
        ("v1", 1, None),
        ("v2_g", 2, Some(0x0101)),
        ("v2_g_st", 2, Some(0x4141)),
        ("v3_g", 3, Some(0x0101)),
    ];
    for (name, version, word) in headers {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        for (file, bytes) in files(&fixture()) {
            std::fs::write(dir.join(file), bytes).unwrap();
        }
        let mut meta = std::fs::read(dir.join("meta.bin")).unwrap();
        meta[4..8].copy_from_slice(&version.to_le_bytes());
        match word {
            Some(word) => meta[8..12].copy_from_slice(&word.to_le_bytes()),
            None => drop(meta.drain(8..12)),
        }
        std::fs::write(dir.join("meta.bin"), &meta).unwrap();
        match word {
            Some(_) => {
                let blobs = IntegrityManifest::read(&dir).unwrap().unwrap().blob_crc;
                let manifest = IntegrityManifest::compute(&dir, blobs).unwrap();
                manifest.write(&dir).unwrap();
            }
            None => std::fs::remove_file(dir.join("sums.bin")).unwrap(),
        }

        assert!(
            says_rebuild(SNodeMeta::parse(&meta).map(drop)),
            "{name}: parse"
        );
        let opened = SNode::open_resident(&dir, 1 << 20).map(drop);
        assert!(says_rebuild(opened), "{name}: open");

        // Version 1 had no manifest; the others verify, and do not parse.
        let out = wgr().arg("check").arg(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}: check: {out:?}");
        let code = if word.is_some() { "SN013" } else { "SN100" };
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(code), "{name}: check: {stdout}");
        let out = (wgr().args(["links", "--repo"]).arg(&dir))
            .args(["--page", "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: links: {out:?}");
        assert_eq!(stderr.lines().count(), 1, "{name}: links: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: links: {stderr}");

        let out = (wgr().arg("check").arg(&dir))
            .args(["--repair", "--from"])
            .arg(&corpus)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}: repair: {out:?}");
        assert!(files(&dir) == files(&current), "{name}: repaired");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// What this version writes is version 4 with the `g+st` codec word, and a
/// codec word with a bit no version defines — in either class's byte or in
/// the reserved half — under version 3 or 4, or one that names a cell of
/// the retired ablation grid, is `Corrupt`, never a directory that opens
/// and reads its graphs under some other layout or code.
#[test]
fn v3_header_with_an_unknown_codec_bit_is_corrupt() {
    let corpus = Corpus::generate(CorpusConfig::scaled(300, 9));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_v3_header_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let good = std::fs::read(dir.join("meta.bin")).unwrap();
    assert_eq!(good[4..8], 4u32.to_le_bytes());
    assert_eq!(good[8..12], 0xC1C1u32.to_le_bytes());
    assert!(SNodeMeta::parse(&good).is_ok());

    let with_word = |version: u32, word: u32| {
        let mut bytes = good.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        bytes[8..12].copy_from_slice(&word.to_le_bytes());
        SNodeMeta::parse(&bytes).map(drop)
    };
    for bad in [
        0x0001_C1C1, // reserved half
        0x8000_C1C1, //
        0x81C1,      // list dictionary without the single-target one
        0xC181,      //
    ] {
        for version in [3, 4] {
            let got = with_word(version, bad);
            assert!(
                matches!(got, Err(SNodeError::Corrupt(_))),
                "v{version} {bad:#x}: {got:?}"
            );
        }
    }
    // The grid v2 and v3 had beside `g` and `g+st`: the message says what
    // wrote the directory and what to do about it.
    for retired in [
        0x0102, // ζ₂
        0x0111, // +iv
        0x0121, // +cb
        0x0133, // z3+iv+cb/g
        0xC2C2, // z2+st
        0xC9C1, // never a cell: ζ₉
        0xC1C0, // nor ζ₀
    ] {
        for version in [2, 3, 4] {
            let got = with_word(version, retired);
            assert!(
                matches!(got, Err(SNodeError::Corrupt(why))
                    if why.contains("retired") && why.contains("rebuild")),
                "v{version} {retired:#x}: {got:?}"
            );
        }
    }
    // Nor does another version word make the one codec word readable.
    for version in [2, 3, 5] {
        assert!(matches!(
            with_word(version, 0xC1C1),
            Err(SNodeError::Corrupt(_))
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}
