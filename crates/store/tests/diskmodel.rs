//! The disk model's settings and counters are process-wide, and every
//! pager or flat-file read in the process moves them: these tests live in
//! a process of their own and take turns.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use wg_store::diskmodel::{charge_read, counters, new_stream, reset_counters, set_disk_model};

fn model_lock() -> MutexGuard<'static, ()> {
    static MODEL: Mutex<()> = Mutex::new(());
    MODEL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_model_is_free_and_counts() {
    let _model = model_lock();
    set_disk_model(0, 0);
    reset_counters();
    let stream = new_stream();
    let t0 = Instant::now();
    for i in 0..1000u64 {
        charge_read(stream, i * 100_000, 4096);
    }
    assert!(t0.elapsed().as_millis() < 50, "disabled model must be fast");
    let (reads, bytes) = counters();
    assert_eq!(reads, 1000);
    assert_eq!(bytes, 4096 * 1000);
}

#[test]
fn sequential_reads_skip_the_seek() {
    let _model = model_lock();
    set_disk_model(500, 0); // pure seek cost
    let stream = new_stream();
    charge_read(stream, 0, 4096); // position the head
    let t0 = Instant::now();
    for i in 1..41u64 {
        charge_read(stream, i * 4096, 4096); // all contiguous
    }
    let sequential = t0.elapsed();
    let t0 = Instant::now();
    for i in 0..40u64 {
        charge_read(stream, i * 1_000_000, 4096); // all scattered
    }
    let scattered = t0.elapsed();
    assert!(
        scattered > sequential * 5,
        "scattered ({scattered:?}) must dwarf sequential ({sequential:?})"
    );
    set_disk_model(0, 0);
}

#[test]
fn enabled_model_charges_time() {
    let _model = model_lock();
    set_disk_model(200, 100); // 200µs seek, 100 MB/s
    let stream = new_stream();
    let t0 = Instant::now();
    for i in 0..20u64 {
        charge_read(stream, i * 1_000_000, 8192);
    }
    // 20 × (200µs + ~82µs transfer) ≈ 5.6ms minimum.
    assert!(
        t0.elapsed().as_micros() >= 4_000,
        "model must slow reads, took {:?}",
        t0.elapsed()
    );
    set_disk_model(0, 0);
}
