//! Directories written by earlier versions keep working: the three under
//! `tests/fixtures/` (see its README) — two built by the commit before
//! `meta.bin` version 3, one by the last commit that had the codec grid —
//! are held here to opening, checking and answering exactly as a rebuild
//! of the same corpus does, and this version's two formats to the bytes
//! those commits wrote.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::bits::BitLedger;
use webgraph_repr::snode::codec::SuperedgeLayouts;
use webgraph_repr::snode::disk::SNodeMeta;
use webgraph_repr::snode::{
    build_snode, CodecConfig, Renumbering, RepoInput, SNode, SNodeConfig, SNodeError,
};

fn wgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wgr"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
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
fn v2_directories_open_check_and_answer_like_a_rebuild() {
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

    // Both formats this version writes are the bytes earlier versions
    // wrote: the default all of `v3_g_st/`, and `g` all of `v2_g/` but the
    // version word (and so the checksums over it).
    let read = |dir: &Path, file: &str| std::fs::read(dir.join(file)).unwrap();
    for file in ["index_000.bin", "meta.bin", "pagemap.bin", "sums.bin"] {
        let written = read(&fixture("v3_g_st"), file);
        assert!(read(&rebuilt_dir, file) == written, "default build: {file}");
    }
    let gamma = SNodeConfig {
        codec: CodecConfig::GAMMA,
        ..SNodeConfig::default()
    };
    build_snode(input, &gamma, &rebuilt_dir).unwrap();
    for file in ["index_000.bin", "pagemap.bin"] {
        let written = read(&fixture("v2_g"), file);
        assert!(
            read(&rebuilt_dir, file) == written,
            "--codec g build: {file}"
        );
    }
    let mut v2_meta = read(&fixture("v2_g"), "meta.bin");
    assert_eq!(v2_meta[4..8], 2u32.to_le_bytes());
    v2_meta[4..8].copy_from_slice(&3u32.to_le_bytes());
    assert!(read(&rebuilt_dir, "meta.bin") == v2_meta, "--codec g build");

    for (name, version, layouts, header) in [
        ("v2_g", 2u32, SuperedgeLayouts::Standard, 0x0101),
        ("v2_g_st", 2, SuperedgeLayouts::SingleTarget, 0x4141),
        ("v3_g_st", 3, SuperedgeLayouts::Priced, 0xC1C1),
    ] {
        let dir = fixture(name);
        let meta_bytes = std::fs::read(dir.join("meta.bin")).unwrap();
        assert_eq!(meta_bytes[4..8], version.to_le_bytes(), "{name}");
        let meta = SNodeMeta::read(&dir).unwrap();
        assert_eq!(meta.codec.superedge.layouts, layouts, "{name}");
        assert_eq!(meta.codec.to_header(), header, "{name}");

        for budget in [1 << 20, 1 << 10] {
            let snode = SNode::open_resident(&dir, budget).unwrap();
            assert!(snode.verifies_checksums(), "{name}: sums.bin is honoured");
            assert_eq!(answers(&snode, &dir), rebuilt, "{name} in {budget} bytes");
        }

        for command in ["check", "fsck"] {
            let out = wgr().arg(command).arg(&dir).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{name}: wgr {command}: {out:?}");
        }
        let ledger = BitLedger::of(&dir).unwrap();
        let bits: u64 = ledger.rows.iter().map(|row| row.bits).sum();
        assert_eq!(
            bits, ledger.total_bits,
            "{name}: --bits accounts for the directory"
        );
        assert_eq!(ledger.edges, corpus.graph.num_edges());
    }
    std::fs::remove_dir_all(&rebuilt_dir).ok();
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
    let word = u32::from_le_bytes(good[8..12].try_into().unwrap());
    assert_eq!(word, CodecConfig::default().to_header());
    assert_eq!(word, 0xC1C1);
    assert_eq!(
        SNodeMeta::parse(&good).unwrap().codec,
        CodecConfig::default()
    );

    let with_word = |version: u32, word: u32| {
        let mut bytes = good.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        bytes[8..12].copy_from_slice(&word.to_le_bytes());
        SNodeMeta::parse(&bytes).map(|meta| meta.codec)
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
    // Version 2 never had the list-dictionary bit; version 3 still reads
    // v2's own `+st`.
    assert!(matches!(with_word(2, 0xC1C1), Err(SNodeError::Corrupt(_))));
    let v2_st = with_word(3, 0x4141).unwrap();
    assert_eq!(v2_st.superedge.layouts, SuperedgeLayouts::SingleTarget);
    assert!(matches!(with_word(4, 0xC1C1), Err(SNodeError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}
