//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is generated from `(directory contents, seed, spec)` and
//! is fully reproducible: the same seed over the same files yields the same
//! faults, byte for byte. Physical faults (bit flips, truncations, torn
//! writes) are applied to the files on disk by [`FaultPlan::apply_to_dir`];
//! transient faults (EIO / Interrupted) are installed into the global read
//! shim by [`FaultPlan::install_transients`] and fire at read time.

use crate::io::TransientKind;
use std::path::Path;

/// How many faults of each kind to generate.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSpec {
    /// Single-bit flips at uniformly chosen (file, byte, bit) positions.
    pub flips: u32,
    /// Truncations to a uniformly chosen prefix length.
    pub truncations: u32,
    /// Torn writes: a trailing byte range of the file is zeroed, as if the
    /// tail of the last write never reached disk.
    pub torn_writes: u32,
    /// Transient read errors (alternating `Interrupted`/`EIO`) at chosen
    /// shim-read indices.
    pub transient_reads: u32,
}

/// One concrete fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Flip bit `bit` of byte `byte` in `file`.
    BitFlip {
        /// File name relative to the plan's directory.
        file: String,
        /// Byte offset of the flip.
        byte: u64,
        /// Bit index within the byte (0 = LSB).
        bit: u8,
    },
    /// Truncate `file` to `len` bytes.
    Truncate {
        /// File name relative to the plan's directory.
        file: String,
        /// New (shorter) length.
        len: u64,
    },
    /// Zero the last `torn_bytes` of `file` without changing its length.
    TornWrite {
        /// File name relative to the plan's directory.
        file: String,
        /// Number of trailing bytes zeroed.
        torn_bytes: u64,
    },
    /// The `read_index`-th shim read fails once with `kind`.
    TransientRead {
        /// Global shim-read sequence number (counted from install).
        read_index: u64,
        /// Error kind injected.
        kind: TransientKind,
    },
}

/// One fault as actually applied, for reporting.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    /// The fault.
    pub fault: Fault,
    /// Human description (`flip index_000.bin byte 1234 bit 5`).
    pub describe: String,
}

/// A deterministic set of faults over one representation directory.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed the plan was generated from.
    pub seed: u64,
    /// The faults, in generation order.
    pub faults: Vec<Fault>,
}

/// splitmix64 — tiny, seedable, and good enough to scatter faults.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Regular files of `dir` (name, length), sorted by name, excluding the
/// integrity manifest — corruption there is a different failure class
/// (`SN101`) and is injected explicitly when a test wants it.
fn target_files(dir: &Path) -> std::io::Result<Vec<(String, u64)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if !meta.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "sums.bin" {
            continue;
        }
        files.push((name, meta.len()));
    }
    files.sort();
    Ok(files)
}

impl FaultPlan {
    /// Generates a deterministic plan of `spec` faults over the files of
    /// `dir` (excluding `sums.bin`; see `target_files`). Only non-empty
    /// files are targeted; if the directory has none, the physical parts of
    /// the plan come back empty.
    pub fn generate(dir: &Path, seed: u64, spec: &FaultSpec) -> std::io::Result<Self> {
        let files = target_files(dir)?;
        let nonempty: Vec<&(String, u64)> = files.iter().filter(|(_, len)| *len > 0).collect();
        let mut rng = Rng(seed);
        let mut faults = Vec::new();
        if !nonempty.is_empty() {
            for _ in 0..spec.flips {
                let (name, len) = nonempty[rng.below(nonempty.len() as u64) as usize];
                faults.push(Fault::BitFlip {
                    file: name.clone(),
                    byte: rng.below(*len),
                    bit: (rng.next() % 8) as u8,
                });
            }
            for _ in 0..spec.truncations {
                let (name, len) = nonempty[rng.below(nonempty.len() as u64) as usize];
                faults.push(Fault::Truncate {
                    file: name.clone(),
                    len: rng.below(*len),
                });
            }
            for _ in 0..spec.torn_writes {
                let (name, len) = nonempty[rng.below(nonempty.len() as u64) as usize];
                faults.push(Fault::TornWrite {
                    file: name.clone(),
                    torn_bytes: 1 + rng.below(*len),
                });
            }
        }
        for i in 0..spec.transient_reads {
            faults.push(Fault::TransientRead {
                read_index: rng.below(64),
                kind: if i % 2 == 0 {
                    TransientKind::Interrupted
                } else {
                    TransientKind::Eio
                },
            });
        }
        Ok(Self { seed, faults })
    }

    /// Applies the physical faults (flips, truncations, torn writes) to the
    /// files under `dir` and returns what was done. Transient faults are
    /// not applied here — see [`FaultPlan::install_transients`]. A fault
    /// naming a file that has shrunk since generation is skipped, never an
    /// error (plans must be reusable across repair cycles).
    // Damages files on purpose: reading them back through the shim would
    // count against, and be faulted by, the plan under test.
    #[allow(clippy::disallowed_methods)]
    pub fn apply_to_dir(&self, dir: &Path) -> std::io::Result<Vec<AppliedFault>> {
        let mut applied = Vec::new();
        for fault in &self.faults {
            match fault {
                Fault::BitFlip { file, byte, bit } => {
                    let path = dir.join(file);
                    let Ok(mut bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    let Some(slot) = bytes.get_mut(*byte as usize) else {
                        continue;
                    };
                    *slot ^= 1 << bit;
                    std::fs::write(&path, &bytes)?;
                    applied.push(AppliedFault {
                        fault: fault.clone(),
                        describe: format!("flip {file} byte {byte} bit {bit}"),
                    });
                }
                Fault::Truncate { file, len } => {
                    let path = dir.join(file);
                    let Ok(bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    if (*len as usize) >= bytes.len() {
                        continue;
                    }
                    std::fs::write(&path, &bytes[..*len as usize])?;
                    applied.push(AppliedFault {
                        fault: fault.clone(),
                        describe: format!("truncate {file} to {len} bytes"),
                    });
                }
                Fault::TornWrite { file, torn_bytes } => {
                    let path = dir.join(file);
                    let Ok(mut bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    let keep = bytes.len().saturating_sub(*torn_bytes as usize);
                    for b in &mut bytes[keep..] {
                        *b = 0;
                    }
                    std::fs::write(&path, &bytes)?;
                    applied.push(AppliedFault {
                        fault: fault.clone(),
                        describe: format!("torn write: zeroed last {torn_bytes} bytes of {file}"),
                    });
                }
                Fault::TransientRead { .. } => {}
            }
        }
        Ok(applied)
    }

    /// Installs the plan's transient faults into the global read shim
    /// (replacing any previously installed set).
    pub fn install_transients(&self) {
        let transients: Vec<(u64, TransientKind)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::TransientRead { read_index, kind } => Some((*read_index, *kind)),
                _ => None,
            })
            .collect();
        crate::io::install_transients(transients);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_fault_plan_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).expect("create temp dir");
        p
    }

    fn fixture(dir: &Path) {
        std::fs::write(dir.join("a.bin"), vec![0xAAu8; 100]).expect("write a");
        std::fs::write(dir.join("b.bin"), vec![0x55u8; 50]).expect("write b");
        std::fs::write(dir.join("sums.bin"), vec![1u8; 20]).expect("write sums");
    }

    #[test]
    fn generation_is_deterministic() {
        let dir = temp_dir("det");
        fixture(&dir);
        let spec = FaultSpec {
            flips: 5,
            truncations: 2,
            torn_writes: 1,
            transient_reads: 3,
        };
        let a = FaultPlan::generate(&dir, 42, &spec).expect("plan a");
        let b = FaultPlan::generate(&dir, 42, &spec).expect("plan b");
        let c = FaultPlan::generate(&dir, 43, &spec).expect("plan c");
        assert_eq!(a.faults, b.faults);
        assert_ne!(a.faults, c.faults);
        assert_eq!(a.faults.len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plans_never_target_the_manifest() {
        let dir = temp_dir("manifest");
        fixture(&dir);
        let spec = FaultSpec {
            flips: 50,
            truncations: 10,
            torn_writes: 10,
            transient_reads: 0,
        };
        let plan = FaultPlan::generate(&dir, 7, &spec).expect("plan");
        for f in &plan.faults {
            let name = match f {
                Fault::BitFlip { file, .. }
                | Fault::Truncate { file, .. }
                | Fault::TornWrite { file, .. } => file,
                Fault::TransientRead { .. } => continue,
            };
            assert_ne!(name, "sums.bin");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_flips_exactly_one_bit() {
        let dir = temp_dir("flip");
        fixture(&dir);
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault::BitFlip {
                file: "a.bin".into(),
                byte: 10,
                bit: 3,
            }],
        };
        let before = std::fs::read(dir.join("a.bin")).expect("read before");
        let applied = plan.apply_to_dir(&dir).expect("apply");
        assert_eq!(applied.len(), 1);
        let after = std::fs::read(dir.join("a.bin")).expect("read after");
        let diff: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert_eq!(diff, vec![10]);
        assert_eq!(before[10] ^ after[10], 1 << 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_truncates_and_tears() {
        let dir = temp_dir("trunc");
        fixture(&dir);
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault::Truncate {
                    file: "a.bin".into(),
                    len: 40,
                },
                Fault::TornWrite {
                    file: "b.bin".into(),
                    torn_bytes: 8,
                },
            ],
        };
        plan.apply_to_dir(&dir).expect("apply");
        assert_eq!(
            std::fs::metadata(dir.join("a.bin")).expect("stat a").len(),
            40
        );
        let b = std::fs::read(dir.join("b.bin")).expect("read b");
        assert_eq!(b.len(), 50, "torn write keeps the length");
        assert!(b[42..].iter().all(|&x| x == 0));
        assert!(b[..42].iter().all(|&x| x == 0x55));
        std::fs::remove_dir_all(&dir).ok();
    }
}
