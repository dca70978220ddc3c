//! One decoder, every caller agrees: a list decoded by
//! [`ListsIndex::decode_list_into`] — with no memo, through a persistent
//! [`ListMemo`] of any cap however thrashed, in any request order, into
//! buffers that hold whatever the last decode left — is the list that was
//! encoded, and so is what `decode_all` and `decode_list` return, for
//! arbitrary list collections under every reference mode. The memo and the
//! caller-owned buffers are a performance layer; these tests pin that they
//! can never change an answer, and that damaged bytes give `Corrupt` or a
//! sorted list inside the universe through the same path.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wg_snode::cache::ListMemo;
use wg_snode::codec::ListCodec;
use wg_snode::refenc::{
    encode_lists, DecodeMemo, DecodeScratch, EncodedLists, ListsIndex, NoMemo, RefMode, Universe,
};

const UNIVERSE: u64 = 64;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
