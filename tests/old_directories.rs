//! One format, written and read. `tests/fixtures/v3_g_st/` (see its
//! README), written by the last commit that had the codec grid, is what a
//! build of its corpus writes today, byte for byte, and opens, checks and
//! answers exactly as a rebuild does. Every older header — versions 1 and
//! 2, and version 3 with any codec word but `g+st`'s — is refused as
//! `Corrupt`, and `wgr check --repair` turns such a directory back into the
//! fixture.

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

#[test]
fn the_v3_directory_opens_checks_and_answers_like_a_rebuild() {
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
    let rebuilt_dir = std::env::temp_dir().join(format!("wg_old_dirs_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &rebuilt_dir).unwrap();
    let rebuilt = answers(
        &SNode::open_resident(&rebuilt_dir, 1 << 20).unwrap(),
        &rebuilt_dir,
    );
    assert_eq!(rebuilt, truth, "this version's own build");
    assert!(
        files(&rebuilt_dir) == files(&fixture()),
        "a build writes v3_g_st/"
    );

    let dir = fixture();
    let meta_bytes = std::fs::read(dir.join("meta.bin")).unwrap();
    assert_eq!(meta_bytes[4..8], 3u32.to_le_bytes());
    assert_eq!(meta_bytes[8..12], 0xC1C1u32.to_le_bytes());
    for budget in [1 << 20, 1 << 10] {
        let snode = SNode::open_resident(&dir, budget).unwrap();
        assert!(snode.verifies_checksums(), "sums.bin is honoured");
        assert_eq!(answers(&snode, &dir), rebuilt, "in {budget} bytes");
    }
    let out = wgr().arg("check").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "wgr check: {out:?}");
    let ledger = BitLedger::of(&dir).unwrap();
    let bits: u64 = ledger.rows.iter().map(|row| row.bits).sum();
    assert_eq!(bits, ledger.total_bits, "--bits accounts for the directory");
    assert_eq!(ledger.edges, corpus.graph.num_edges());
    std::fs::remove_dir_all(&rebuilt_dir).ok();
}

/// The fixture under each header an earlier version wrote. All but the
/// version-1 one are re-manifested, so the checksums agree with the bytes
/// and only the format check can tell; version 1 has no manifest at all.
/// Every reader refuses the directory and says to rebuild it, and a
/// repair from the corpus does.
#[test]
fn old_headers_are_refused_then_repaired() {
    let root = std::env::temp_dir().join(format!("wg_old_headers_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let corpus = root.join("corpus");
    let out = (wgr().args(["gen", "--pages", "400", "--seed", "5", "--out"]))
        .arg(&corpus)
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

        let rebuild = |got: Result<(), SNodeError>| match got {
            Err(SNodeError::Corrupt(why)) => why.contains("rebuild"),
            _ => false,
        };
        assert!(rebuild(SNodeMeta::parse(&meta).map(drop)), "{name}: parse");
        let opened = SNode::open_resident(&dir, 1 << 20).map(drop);
        assert!(rebuild(opened), "{name}: open");

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
        assert!(files(&dir) == files(&fixture()), "{name}: repaired");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// What this version writes is version 3 with the `g+st` codec word, and a
/// codec word with a bit no version defines — in either class's byte or in
/// the reserved half — or one that names a cell of the retired ablation
/// grid is `Corrupt`, never a directory that opens and reads its graphs
/// under some other layout or code.
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
    assert_eq!(good[4..8], 3u32.to_le_bytes());
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
        let got = with_word(3, bad);
        assert!(
            matches!(got, Err(SNodeError::Corrupt(_))),
            "{bad:#x}: {got:?}"
        );
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
        for version in [2, 3] {
            let got = with_word(version, retired);
            assert!(
                matches!(got, Err(SNodeError::Corrupt(why))
                    if why.contains("retired") && why.contains("rebuild")),
                "v{version} {retired:#x}: {got:?}"
            );
        }
    }
    // Nor does another version word make the one codec word readable.
    for version in [2, 4] {
        assert!(matches!(
            with_word(version, 0xC1C1),
            Err(SNodeError::Corrupt(_))
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}
