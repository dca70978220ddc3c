//! Criterion micro-benchmarks for the bit-level codecs every
//! representation is built on: Elias codes, canonical Huffman, and the
//! reference-encoding list codec.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wg_bitio::{codes, BitReader, BitWriter, HuffmanCode};
use wg_snode::codec::ListCodec;
use wg_snode::refenc::{encode_lists, ListsReader, RefMode, Universe};

fn pseudo(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn bench_elias(c: &mut Criterion) {
    let mut s = 42u64;
    let values: Vec<u64> = (0..4096).map(|_| pseudo(&mut s) % 100_000).collect();
    let mut group = c.benchmark_group("elias");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("gamma_encode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                codes::write_gamma(&mut w, v);
            }
            w.bit_len()
        });
    });
    let mut w = BitWriter::new();
    for &v in &values {
        codes::write_gamma(&mut w, v);
    }
    let (bytes, bits) = w.finish();
    group.bench_function("gamma_decode", |b| {
        b.iter(|| {
            let mut r = BitReader::with_bit_len(&bytes, bits);
            let mut acc = 0u64;
            for _ in 0..values.len() {
                acc = acc.wrapping_add(codes::read_gamma(&mut r).expect("decode"));
            }
            acc
        });
    });
    let mut w = BitWriter::new();
    for &v in &values {
        codes::write_delta(&mut w, v);
    }
    let (bytes, bits) = w.finish();
    group.bench_function("delta_decode", |b| {
        b.iter(|| {
            let mut r = BitReader::with_bit_len(&bytes, bits);
            let mut acc = 0u64;
            for _ in 0..values.len() {
                acc = acc.wrapping_add(codes::read_delta(&mut r).expect("decode"));
            }
            acc
        });
    });
    group.finish();
}

fn bench_huffman(c: &mut Criterion) {
    // Zipfian alphabet of 10k symbols, like page-id in-degree coding.
    let n = 10_000usize;
    let freqs: Vec<u64> = (0..n as u64).map(|i| 1_000_000 / (i + 1)).collect();
    let code = HuffmanCode::from_frequencies(&freqs);
    let mut s = 7u64;
    let msg: Vec<u32> = (0..4096)
        .map(|_| {
            // Skewed picks: low ids dominate.
            let x = pseudo(&mut s) % 100;
            if x < 80 {
                (pseudo(&mut s) % 100) as u32
            } else {
                (pseudo(&mut s) % n as u64) as u32
            }
        })
        .collect();
    let mut group = c.benchmark_group("huffman");
    group.throughput(Throughput::Elements(msg.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &m in &msg {
                code.encode(&mut w, m);
            }
            w.bit_len()
        });
    });
    let mut w = BitWriter::new();
    for &m in &msg {
        code.encode(&mut w, m);
    }
    let (bytes, bits) = w.finish();
    let dec = code.decoder();
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut r = BitReader::with_bit_len(&bytes, bits);
            let mut acc = 0u64;
            for _ in 0..msg.len() {
                acc += u64::from(dec.decode(&mut r).expect("decode"));
            }
            acc
        });
    });
    group.finish();
}

fn bench_refenc(c: &mut Criterion) {
    // 512 lists with strong pairwise similarity, like an intranode graph.
    let mut s = 11u64;
    let base: Vec<u32> = {
        let mut v: Vec<u32> = (0..40).map(|_| (pseudo(&mut s) % 512) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let lists: Vec<Vec<u32>> = (0..512)
        .map(|_| {
            let mut l = base.clone();
            l.retain(|_| pseudo(&mut s) % 10 < 8);
            l.push((pseudo(&mut s) % 512) as u32);
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let edges: u64 = lists.iter().map(|l| l.len() as u64).sum();

    let mut group = c.benchmark_group("refenc");
    group.throughput(Throughput::Elements(edges));
    group.bench_function("encode_windowed32", |b| {
        b.iter(|| encode_lists(&lists, 512, RefMode::Windowed(32), ListCodec::GAMMA).bit_len);
    });
    let enc = encode_lists(&lists, 512, RefMode::Windowed(32), ListCodec::GAMMA);
    group.bench_function("decode_all", |b| {
        b.iter(|| {
            ListsReader::parse(&enc.bytes, enc.bit_len, Universe::Explicit(512))
                .expect("parse")
                .decode_all()
                .expect("decode")
                .len()
        });
    });
    let reader = ListsReader::parse(&enc.bytes, enc.bit_len, Universe::Explicit(512)).unwrap();
    group.bench_function("decode_single_random", |b| {
        let mut s = 3u64;
        b.iter(|| {
            let i = (pseudo(&mut s) % 512) as u32;
            reader.decode_list(i).expect("decode").len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_elias, bench_huffman, bench_refenc);
criterion_main!(benches);
