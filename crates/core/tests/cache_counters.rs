//! `GraphCache` counts its traffic (hits, misses, evictions, refusals and
//! bytes loaded) in two places — the `stats()` view and, under
//! `--metrics`, the registry's `core.cache.*` counters `obsrun` reads —
//! and they have to agree. A file of its own: the registry is the
//! process's, and no other cache may be counting into it.

use wg_snode::cache::{CachedGraph, GraphCache, GraphKey};
use wg_snode::refenc::{encode_lists, ListsIndex, RefMode, Universe};
use wg_snode::ListCodec;

/// An encoded intranode graph of `lists` empty lists, over a blob sliced
/// from a resident image as the read path slices one.
fn encoded(lists: usize) -> CachedGraph {
    let (codec, universe) = (ListCodec, Universe::SameAsCount);
    let enc = encode_lists(&vec![Vec::new(); lists], lists as u64, RefMode::None, codec);
    let index = ListsIndex::parse(&enc.bytes, enc.bit_len, universe, codec);
    let len = enc.bytes.len();
    let blob = wg_store::Region::from_vec(enc.bytes).slice(0, len);
    CachedGraph::new_encoded_intra(blob.expect("whole"), enc.bit_len, index.expect("parse"))
}

#[test]
fn stats_and_registry_counters_agree() {
    // Up before the cache is made: that is when it picks its counters.
    wg_obs::set_metrics_enabled(true);
    // Eight shards, as a budget of 8 MiB or more gets.
    let cache = GraphCache::with_shards(24_000, 8);
    let mut state = 0x5EED_u64;
    for _ in 0..4_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (op, id) = ((state >> 60) as u32, (state >> 33) as u32 % 40);
        let key = match id % 3 {
            0 => GraphKey::Intra(id),
            1 => GraphKey::Super(id, id + 1),
            _ => GraphKey::Fanout(id),
        };
        if op < 11 {
            cache.get(key);
        } else {
            cache.insert(key, encoded(200 * (1 + id as usize % 3)));
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.misses > 0 && stats.evictions > 0);
    assert!(stats.refused > 0);

    let registry = wg_obs::global();
    assert_eq!(registry.counter("core.cache.hits").get(), stats.hits);
    assert_eq!(registry.counter("core.cache.misses").get(), stats.misses);
    assert_eq!(
        registry.counter("core.cache.evictions").get(),
        stats.evictions
    );
    assert_eq!(
        registry.counter("core.cache.bytes_loaded").get(),
        stats.bytes_loaded
    );
    assert_eq!(registry.counter("core.cache.refused").get(), stats.refused);
    let by_kind = [
        ("intra", stats.bytes_loaded_intra),
        ("super", stats.bytes_loaded_super),
        ("fanout", stats.bytes_loaded_fanout),
    ];
    for (kind, bytes) in by_kind {
        let name = format!("core.cache.bytes_loaded.{kind}");
        assert!(bytes > 0, "{name}");
        assert_eq!(registry.counter(&name).get(), bytes, "{name}");
    }
    let split: u64 = by_kind.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(split, stats.bytes_loaded, "the three kinds are the total");
}
