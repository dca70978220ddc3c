//! One decoder, every caller agrees: a list decoded by
//! [`ListsIndex::decode_list_into`] — with no memo, through a persistent
//! [`ListMemo`] of any cap however thrashed, in any request order, into
//! buffers that hold whatever the last decode left — is the list that was
//! encoded, and so is what `decode_all` and `decode_list` return, for
//! arbitrary list collections under every reference mode. The memo and the
//! caller-owned buffers are a performance layer; these tests pin that they
//! can never change an answer, and that damaged bytes give `Corrupt` or a
//! sorted list inside the universe through the same path. A graph held as
//! the cache holds it — one header and one arena, an intranode graph or a
//! superedge graph in any layout — answers as the directory it was parsed
//! into, with its memo and without.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wg_snode::cache::{CachedGraph, ListMemo};
use wg_snode::codec::{CodecConfig, ListCodec};
use wg_snode::refenc::{
    encode_lists, DecodeMemo, DecodeScratch, EncodedLists, ListsIndex, NoMemo, RefMode, Universe,
};
use wg_snode::subgraphs::{
    encode_superedge, Layout, SuperedgeIndex, SuperedgeKind, SuperedgePolicy,
};
use wg_snode::Blob;

const UNIVERSE: u64 = 64;

/// `bytes` as the read path hands a graph over: a slice of a resident image.
fn blob(bytes: &[u8]) -> Blob {
    let region = wg_store::Region::from_vec(bytes.to_vec());
    region.slice(0, bytes.len()).unwrap()
}

/// Strategy: up to 40 sorted deduped lists over a small universe, biased
/// towards overlap so reference encoding actually builds chains.
fn list_collections() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..64, 0..24), 0..40).prop_map(|raw| {
        raw.into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect()
    })
}

fn modes() -> [RefMode; 4] {
    [
        RefMode::None,
        RefMode::Windowed(1),
        RefMode::Windowed(32),
        RefMode::Windowed(u32::MAX),
    ]
}

fn encode(lists: &[Vec<u32>], mode: RefMode) -> (EncodedLists, ListsIndex) {
    let enc = encode_lists(lists, UNIVERSE, mode, ListCodec::GAMMA);
    let universe = Universe::Explicit(UNIVERSE);
    let index = ListsIndex::parse(&enc.bytes, enc.bit_len, universe, ListCodec::GAMMA).unwrap();
    (enc, index)
}

/// The decoder's buffers as a long-lived handle holds them: `out` full of
/// values no list has, the scratch as decoding another stream's chains
/// left it.
fn used_buffers() -> (DecodeScratch, Vec<u32>) {
    let other: Vec<Vec<u32>> = (0..12u32)
        .map(|i| (0..60).filter(|x| x % 11 != i % 11).collect())
        .collect();
    let (enc, index) = encode(&other, RefMode::Windowed(32));
    let (mut scratch, mut out) = (DecodeScratch::default(), Vec::new());
    for i in (0..12).rev() {
        index
            .decode_list_into(
                &enc.bytes,
                enc.bit_len,
                i,
                &mut NoMemo,
                &mut scratch,
                &mut out,
            )
            .unwrap();
        assert_eq!(out, other[i as usize]);
    }
    out.clear();
    out.extend([u32::MAX; 9]);
    (scratch, out)
}

/// `0..n` ascending, descending, and shuffled by `seed` with repeats, so
/// hot lists and shared prefixes get every chance to hit.
fn request_orders(n: u32, seed: u64) -> [Vec<u32>; 3] {
    let mut state = seed | 1;
    let shuffled = (0..2 * n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(n.max(1))) as u32
        })
        .collect();
    [(0..n).collect(), (0..n).rev().collect(), shuffled]
}

/// A superedge graph over `2n` pages of `Ni` in the shape one
/// representation is made for, as one list per page, with `|Nj|` and that
/// representation: 0 — one of three templates down every other page (a
/// list dictionary); 1 — one of four hubs per source (a single-target
/// dictionary); 2 — independent lists (a list stream); 3 — every target
/// but two, on every page (negative); 4 — no link at all (a list stream
/// of no lists).
fn shaped_superedge(shape: usize, seed: u64, n: usize) -> (Vec<Vec<u32>>, u64, Option<Layout>) {
    let mut state = seed | 1;
    let mut draw = move |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    let templates = [vec![2, 7, 30, 41], vec![3, 7, 33, 60], vec![0, 9, 62]];
    let dense = (0..2 * n)
        .map(|page| match shape {
            3 => {
                let holes = [draw(40), draw(40)];
                (0..40).filter(|t| !holes.contains(t)).collect()
            }
            _ if page % 2 == 1 => Vec::new(),
            0 => templates[draw(3) as usize].clone(),
            1 => vec![[1, 5, 9, 13][draw(4) as usize]],
            2 => {
                let mut list: Vec<u32> = (0..2 + draw(4)).map(|_| draw(256)).collect();
                list.sort_unstable();
                list.dedup();
                list
            }
            _ => Vec::new(),
        })
        .collect();
    let (nj, layout) = match shape {
        0 => (64, Some(Layout::ListDictionary)),
        1 => (16, Some(Layout::SingleTargets)),
        2 => (256, Some(Layout::Lists)),
        3 => (40, None),
        _ => (8, Some(Layout::Lists)),
    };
    (dense, nj, layout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every list of a graph held as the cache holds it — with the memo its
    /// admission reserves, and through the same directory without one — is
    /// the list that went in, and what `decode_all` (an intranode graph) or
    /// `targets_of` (a superedge graph) gives on the same blob: intranode
    /// graphs and superedge graphs in every layout and the negative form,
    /// `sources` empty among them, in every reference mode and request
    /// order, into buffers in use.
    #[test]
    fn arena_backed_graphs_answer_as_their_directories(
        shape in 0usize..5,
        seed in any::<u64>(),
        n in 1usize..40,
    ) {
        let codec = CodecConfig::default().superedge;
        let (mut scratch, mut out) = used_buffers();
        let (dense, nj, layout) = shaped_superedge(shape, seed, n);
        let ni = dense.len() as u64;
        // The same pages' links inside `Ni`, as an intranode graph.
        let intra: Vec<Vec<u32>> = (dense.iter())
            .map(|l| l.iter().copied().filter(|&t| u64::from(t) < ni).collect())
            .collect();
        for mode in modes() {
            let enc = encode_lists(&intra, ni, mode, ListCodec::GAMMA);
            let parse = || {
                ListsIndex::parse(&enc.bytes, enc.bit_len, Universe::SameAsCount, ListCodec::GAMMA)
                    .unwrap()
            };
            let (index, all) = (parse(), parse().decode_all(&enc.bytes, enc.bit_len).unwrap());
            prop_assert_eq!(&all, &intra);
            let graph = CachedGraph::new_encoded_intra(blob(&enc.bytes), enc.bit_len, parse());
            for i in request_orders(ni as u32, seed).into_iter().flatten() {
                graph.decode_list_into(i, &mut scratch, &mut out).unwrap();
                prop_assert_eq!(&out, &all[i as usize], "{:?} intranode {} memo", mode, i);
                index
                    .decode_list_into(&enc.bytes, enc.bit_len, i, &mut NoMemo, &mut scratch, &mut out)
                    .unwrap();
                prop_assert_eq!(&out, &all[i as usize], "{:?} intranode {} no memo", mode, i);
            }

            let enc = encode_superedge(&dense, nj, mode, SuperedgePolicy::EncodedSize, codec);
            let parse = || SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni, nj, codec).unwrap();
            let index = parse();
            prop_assert_eq!(index.kind == SuperedgeKind::Negative, layout.is_none());
            if n >= 8 {
                prop_assert_eq!(index.layout(), layout.unwrap_or(Layout::Lists), "{:?}", mode);
            }
            let graph = CachedGraph::new_encoded_super(blob(&enc.bytes), enc.bit_len, parse(), nj);
            for s in request_orders(ni as u32, seed).into_iter().flatten() {
                let want = index.targets_of(&enc.bytes, enc.bit_len, u64::from(s), nj).unwrap();
                prop_assert_eq!(&want, &dense[s as usize], "{:?} source {}", mode, s);
                graph.decode_list_into(s, &mut scratch, &mut out).unwrap();
                prop_assert_eq!(&out, &want, "{:?} source {} memo", mode, s);
                let (bytes, bits, s) = (&enc.bytes, enc.bit_len, u64::from(s));
                index
                    .targets_of_into(bytes, bits, s, nj, &mut NoMemo, &mut scratch, &mut out)
                    .unwrap();
                prop_assert_eq!(&out, &want, "{:?} source {} no memo", mode, s);
            }
        }
    }

    /// Every mode, every request order, several caps (including one so
    /// small every insertion clears the memo), one set of buffers for all
    /// of it: memoised decode = memo-free decode = `decode_all` = input.
    #[test]
    fn every_caller_of_the_decoder_agrees(lists in list_collections(), seed in any::<u64>()) {
        let (mut scratch, mut out) = used_buffers();
        for mode in modes() {
            let (enc, index) = encode(&lists, mode);
            let all = index.decode_all(&enc.bytes, enc.bit_len).unwrap();
            prop_assert_eq!(&all, &lists, "{:?}: decode_all", mode);
            for cap in [0usize, 64, usize::MAX] {
                for order in request_orders(lists.len() as u32, seed) {
                    let mut memo = ListMemo::with_cap(cap);
                    for i in order {
                        index
                            .decode_list_into(&enc.bytes, enc.bit_len, i, &mut memo, &mut scratch, &mut out)
                            .unwrap();
                        prop_assert_eq!(&out, &lists[i as usize], "{:?} list {} cap {}", mode, i, cap);
                        prop_assert!(memo.used() <= cap, "memo overran its cap");
                        index
                            .decode_list_into(&enc.bytes, enc.bit_len, i, &mut NoMemo, &mut scratch, &mut out)
                            .unwrap();
                        prop_assert_eq!(&out, &lists[i as usize], "{:?} list {} memo-free", mode, i);
                    }
                }
            }
            for (i, want) in lists.iter().enumerate() {
                let got = index.decode_list(&enc.bytes, enc.bit_len, i as u32).unwrap();
                prop_assert_eq!(&got, want);
            }
        }
    }

    /// A truncated or bit-flipped stream, decoded into buffers in use
    /// through the very directory that was parsed from the intact bytes
    /// (the decoder on its own, as on a stream damaged after it was
    /// admitted): `Corrupt`, or a sorted list inside the universe.
    #[test]
    fn damaged_streams_are_corrupt_or_sorted_and_in_universe(
        lists in list_collections(),
        damage in any::<u64>(),
    ) {
        let (mut scratch, mut out) = used_buffers();
        for mode in modes() {
            let (enc, index) = encode(&lists, mode);
            let at = damage % enc.bit_len;
            let mut flipped = enc.bytes.clone();
            flipped[(at / 8) as usize] ^= 0x80 >> (at % 8);
            for (bytes, bit_len) in [(&enc.bytes, at), (&flipped, enc.bit_len)] {
                let mut memo = ListMemo::with_cap(1 << 16);
                for i in (0..lists.len() as u32).rev() {
                    let decoded = index
                        .decode_list_into(bytes, bit_len, i, &mut memo, &mut scratch, &mut out);
                    if decoded.is_ok() {
                        prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "{:?} list {}", mode, i);
                        prop_assert!(out.iter().all(|&x| u64::from(x) < UNIVERSE));
                    }
                }
            }
        }
    }
}

/// The chain decode offers only ancestors to the memo, never the leaf:
/// decoding a plain (chain-free) list must leave a fresh memo untouched,
/// so graphs without reference chains pay nothing for the memo layer.
#[test]
fn plain_decodes_leave_the_memo_empty() {
    let lists: Vec<Vec<u32>> = (0..10u32)
        .map(|i| (0..8).map(|j| (i * 97 + j * 13) % 64).collect())
        .map(|mut l: Vec<u32>| {
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let (enc, index) = encode(&lists, RefMode::None);
    let mut memo = ListMemo::with_cap(1 << 16);
    let (mut scratch, mut out) = used_buffers();
    for i in 0..lists.len() as u32 {
        index
            .decode_list_into(
                &enc.bytes,
                enc.bit_len,
                i,
                &mut memo,
                &mut scratch,
                &mut out,
            )
            .unwrap();
        assert_eq!(out, lists[i as usize]);
    }
    assert_eq!(memo.used(), 0, "plain lists must not be retained");
    assert!(memo.get(0).is_none());
}

/// Reference chains do populate the memo, and a second pass over the same
/// lists hits the retained ancestors.
#[test]
fn chain_ancestors_are_retained_and_hit() {
    // Near-identical lists force the windowed selector to build chains.
    let base: Vec<u32> = (0..40).collect();
    let lists: Vec<Vec<u32>> = (0..20u32)
        .map(|i| {
            let mut l = base.clone();
            l.retain(|&x| x % 19 != i % 19);
            l
        })
        .collect();
    let (enc, index) = encode(&lists, RefMode::Windowed(8));
    let mut memo = ListMemo::with_cap(1 << 16);
    let (mut scratch, mut out) = used_buffers();
    // Decode back-to-front so every chain is walked from its deep end.
    for i in (0..lists.len() as u32).rev() {
        index
            .decode_list_into(
                &enc.bytes,
                enc.bit_len,
                i,
                &mut memo,
                &mut scratch,
                &mut out,
            )
            .unwrap();
        assert_eq!(out, lists[i as usize]);
    }
    assert!(memo.used() > 0, "chained decodes must retain ancestors");
    assert!(
        (0..lists.len() as u32).any(|i| memo.get(i).is_some()),
        "some ancestor must be memoised"
    );
}
