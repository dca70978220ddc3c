//! The canonical read shim.
//!
//! Every positioned read in the workspace's storage crates goes through
//! [`read_exact_at`], and every whole-file slurp through [`read_file`].
//! One choke point buys three properties:
//!
//! * **portability** — the non-unix fallback is a real seek + `read_exact`
//!   loop that handles `ErrorKind::Interrupted`, not a stub;
//! * **transient-fault injection** — an installed [`crate::FaultPlan`] can
//!   make the n-th shim read fail with `EIO` or `Interrupted`,
//!   deterministically, without touching call sites;
//! * **bounded-backoff retry** — transient errors are retried up to
//!   [`RETRY_ATTEMPTS`] times with millisecond backoff before surfacing,
//!   so a blip costs latency, not availability. Retries are counted
//!   globally ([`retries_performed`]) and, when metrics are enabled,
//!   mirrored to the `fault.retries` registry counter.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// How many times a transient read error is attempted in total before it
/// surfaces to the caller.
pub const RETRY_ATTEMPTS: u32 = 4;

/// Kind of transient error an installed plan injects at the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// `ErrorKind::Interrupted` — the classic retryable signal.
    Interrupted,
    /// An `EIO`-style error (`ErrorKind::Other`), retryable by policy.
    Eio,
}

/// Transient faults keyed by global shim-read sequence number.
#[derive(Debug, Default)]
struct TransientPlan {
    /// Sorted `(read index, kind)` pairs; index counts shim reads since
    /// install.
    faults: Vec<(u64, TransientKind)>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static READ_SEQ: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<TransientPlan>> = Mutex::new(None);

fn lock_plan() -> std::sync::MutexGuard<'static, Option<TransientPlan>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs transient read faults: the shim's `indices[i].0`-th read (as
/// counted from this call) fails once with the paired kind. Replaces any
/// previously installed set and resets the read counter.
pub fn install_transients(mut faults: Vec<(u64, TransientKind)>) {
    faults.sort_unstable_by_key(|&(i, _)| i);
    READ_SEQ.store(0, Ordering::SeqCst);
    *lock_plan() = Some(TransientPlan { faults });
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes any installed transient faults.
pub fn clear_transients() {
    ACTIVE.store(false, Ordering::SeqCst);
    *lock_plan() = None;
}

/// Total transient errors injected by the shim since process start.
pub fn transient_faults_injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Total retries the shim has performed since process start.
pub fn retries_performed() -> u64 {
    RETRIES.load(Ordering::Relaxed)
}

/// One relaxed load when no plan is installed — the production cost of the
/// whole subsystem.
fn inject() -> std::io::Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    let seq = READ_SEQ.fetch_add(1, Ordering::SeqCst);
    let kind = {
        let guard = lock_plan();
        guard
            .as_ref()
            .and_then(|p| p.faults.iter().find(|&&(i, _)| i == seq).map(|&(_, k)| k))
    };
    let Some(kind) = kind else { return Ok(()) };
    INJECTED.fetch_add(1, Ordering::Relaxed);
    Err(match kind {
        TransientKind::Interrupted => std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected transient interrupt",
        ),
        TransientKind::Eio => std::io::Error::other("injected transient EIO"),
    })
}

/// Is `e` worth retrying? Interrupted always; `Other` covers both the
/// injected EIO and the real thing (the OS surfaces `EIO` as an
/// uncategorised error).
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::Other
    )
}

/// Runs `op` with bounded-backoff retry of transient errors: up to
/// [`RETRY_ATTEMPTS`] attempts, sleeping 1 ms, 2 ms, 4 ms between them.
fn with_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt + 1 < RETRY_ATTEMPTS => {
                RETRIES.fetch_add(1, Ordering::Relaxed);
                if wg_obs::metrics_enabled() {
                    wg_obs::global().counter("fault.retries").inc();
                }
                std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(4)));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads exactly `buf.len()` bytes at `offset`, without moving the file
/// cursor on unix. Short reads are errors, transient errors are retried.
pub fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    with_retry(|| {
        inject()?;
        read_exact_at_raw(f, buf, offset)
    })
}

#[cfg(unix)]
fn read_exact_at_raw(f: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
}

/// Portable fallback: seek then fill the buffer, resuming across
/// `Interrupted`, erroring (never zero-filling) on a short read. Unlike the
/// unix path this moves the file cursor, which no caller in the workspace
/// relies on.
#[cfg(not(unix))]
fn read_exact_at_raw(mut f: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    f.seek(SeekFrom::Start(offset))?;
    let mut filled = 0usize;
    while filled < buf.len() {
        match f.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "short positioned read",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads a whole file through the shim (open + slurp, with injection and
/// retry applied to the read) into a buffer of the file's length: the
/// read fills it without zeroing it first, and a file that changes length
/// while it is read is read as it then is.
#[allow(clippy::disallowed_methods)] // The shim itself.
pub fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    with_retry(|| {
        inject()?;
        let mut f = File::open(path)?;
        let len = usize::try_from(f.metadata()?.len()).map_err(std::io::Error::other)?;
        let mut buf = Vec::with_capacity(len);
        f.read_to_end(&mut buf)?;
        Ok(buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_fault_io_{name}_{}", std::process::id()));
        p
    }

    /// The installed plan and its read counter are process-wide: a test
    /// that reads through the shim while another has faults installed
    /// would take one of them. Every test here holds this for its duration.
    fn shim_lock() -> std::sync::MutexGuard<'static, ()> {
        static SHIM: Mutex<()> = Mutex::new(());
        SHIM.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn positioned_read_round_trips() {
        let _shim = shim_lock();
        let path = temp("rt");
        let data: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).expect("write fixture");
        let f = File::open(&path).expect("open fixture");
        let mut buf = [0u8; 16];
        read_exact_at(&f, &mut buf, 100).expect("positioned read");
        assert_eq!(&buf[..], &data[100..116]);
        assert_eq!(read_file(&path).expect("slurp"), data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_read_is_an_error() {
        let _shim = shim_lock();
        let path = temp("short");
        std::fs::write(&path, [1u8, 2, 3]).expect("write fixture");
        let f = File::open(&path).expect("open fixture");
        let mut buf = [0u8; 8];
        assert!(read_exact_at(&f, &mut buf, 0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_are_retried_then_surface() {
        let _shim = shim_lock();
        let path = temp("transient");
        let mut f = File::create(&path).expect("create fixture");
        f.write_all(&[7u8; 64]).expect("write fixture");
        drop(f);
        let f = File::open(&path).expect("open fixture");
        let mut buf = [0u8; 8];

        // One transient fault: retried transparently.
        install_transients(vec![(0, TransientKind::Interrupted)]);
        let before = retries_performed();
        read_exact_at(&f, &mut buf, 0).expect("retried read succeeds");
        assert!(retries_performed() > before);
        assert_eq!(buf, [7u8; 8]);

        // A run longer than the retry budget: the error surfaces.
        let run: Vec<(u64, TransientKind)> = (0..u64::from(RETRY_ATTEMPTS))
            .map(|i| (i, TransientKind::Eio))
            .collect();
        install_transients(run);
        assert!(read_exact_at(&f, &mut buf, 0).is_err());
        clear_transients();
        read_exact_at(&f, &mut buf, 0).expect("clean read after clear");
        std::fs::remove_file(&path).ok();
    }
}
