//! Per-list-class codec selection.
//!
//! The S-Node paper fixes one list codec (γ-coded gaps, RLE copy-masks);
//! the WebGraph line of work showed the remaining bits/edge live in the
//! codec choices: ζ_k gap residuals, interval runs for consecutive-id
//! blocks, and copy blocks instead of copy bit-vectors. This module is
//! the configuration surface for those choices.
//!
//! A [`ListCodec`] describes how one *class* of adjacency lists is
//! coded; a [`CodecConfig`] holds one per class (intranode vs superedge).
//! The config is chosen at build time ([`crate::build::SNodeConfig`]),
//! recorded in the `meta.bin` header (since format v2), and every decode
//! path reads it back from there — a directory always decodes with the
//! codec it was built with. Version-1 directories carry no codec field
//! and decode as [`CodecConfig::GAMMA`] (γ everywhere), which is
//! bit-compatible because ζ₁ *is* γ.
//!
//! [`CodecConfig::default`] is the one definition of what a build writes
//! when nobody says otherwise — `g+st`: γ gaps, and every positive
//! superedge graph in the cheapest of its three layouts
//! ([`SuperedgeLayouts::Priced`]). `g` still writes the paper's plain
//! format.
//!
//! Cells of the ablation grid are named `<gaps>[+iv][+cb][+st]` per
//! class: `g` (γ = ζ₁) or `z<k>` for the gap code, `+iv` for interval
//! runs, `+cb` for copy blocks, `+st` for the dictionary layouts of
//! superedge graphs — e.g. `z3+iv+cb` or `g+st`.

use crate::{Result, SNodeError};

/// Largest accepted ζ shrinking parameter. The useful range for Web-gap
/// distributions is 2..=5; 8 leaves headroom without letting a damaged
/// header smuggle in absurd values.
pub const MAX_ZETA_K: u8 = 8;

/// The layouts a positive superedge graph may be stored in. A graph's
/// layout is chosen by exact encoded size when it is built and named by a
/// marker after its kind bit; which markers exist is a property of the
/// directory, recorded here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SuperedgeLayouts {
    /// The paper's format (cell `g`): always one reference-encoded list
    /// per source, no marker.
    #[default]
    Standard,
    /// What `+st` meant in format v2: one marker bit, `0` the list stream,
    /// `1` the single-target dictionary. No cell name writes it any more;
    /// v2 directories built with `+st` decode through it.
    SingleTarget,
    /// `+st` since format v3: the list stream (`00`), the single-target
    /// dictionary (`1`) or the list dictionary (`01`), whichever is
    /// smallest for the graph at hand.
    Priced,
}

/// How one class of adjacency lists is coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListCodec {
    /// ζ shrinking parameter for gap residuals, `1..=MAX_ZETA_K`.
    /// `1` is exactly the Elias γ code the seed format used.
    pub zeta_k: u8,
    /// Extract maximal runs of consecutive ids from plain lists and
    /// store them as (left extreme, length) pairs before gap-coding the
    /// residuals (BV interval runs).
    pub intervals: bool,
    /// Store reference-encoding copy-masks as BV copy blocks instead of
    /// the literal-or-RLE bit vector.
    pub copy_blocks: bool,
    /// Superedge graphs that repeat list material (site-template links
    /// dominate real crawls) may store each distinct target, or each
    /// distinct list, once, plus one minimal-binary index per source,
    /// instead of per-source lists. Inert for intranode lists.
    pub layouts: SuperedgeLayouts,
}

impl ListCodec {
    /// γ gaps, no intervals, no copy blocks, no dictionaries — the seed
    /// (v1) format, cell `g`.
    pub const GAMMA: ListCodec = ListCodec {
        zeta_k: 1,
        intervals: false,
        copy_blocks: false,
        layouts: SuperedgeLayouts::Standard,
    };

    /// True when this codec produces bit-identical output to the seed
    /// (v1) γ format.
    pub fn is_gamma_baseline(&self) -> bool {
        *self == Self::GAMMA
    }

    /// Packs into one byte: low nibble ζ_k, bit 4 intervals, bit 5 copy
    /// blocks, bit 6 the single-target dictionary, bit 7 (format v3) the
    /// list dictionary beside it.
    fn to_byte(self) -> u8 {
        let layouts = match self.layouts {
            SuperedgeLayouts::Standard => 0x00,
            SuperedgeLayouts::SingleTarget => 0x40,
            SuperedgeLayouts::Priced => 0xC0,
        };
        self.zeta_k | (u8::from(self.intervals) << 4) | (u8::from(self.copy_blocks) << 5) | layouts
    }

    /// Rejects out-of-range fields; used on every header read so a
    /// damaged codec byte surfaces as `Corrupt`, never a panic deeper in
    /// a ζ call (SN211).
    fn from_byte(b: u8) -> Result<ListCodec> {
        let zeta_k = b & 0x0F;
        let layouts = match b & 0xC0 {
            0x00 => Some(SuperedgeLayouts::Standard),
            0x40 => Some(SuperedgeLayouts::SingleTarget),
            0xC0 => Some(SuperedgeLayouts::Priced),
            // A list dictionary without the single-target one: no version
            // writes it.
            _ => None,
        };
        let (Some(layouts), 1..=MAX_ZETA_K) = (layouts, zeta_k) else {
            return Err(SNodeError::Corrupt("invalid list codec id in header"));
        };
        Ok(ListCodec {
            zeta_k,
            intervals: b & 0x10 != 0,
            copy_blocks: b & 0x20 != 0,
            layouts,
        })
    }

    /// Parses a cell name like `g`, `z3`, `z3+iv+cb`, or `g+st`.
    pub fn parse_cell(s: &str) -> Result<ListCodec> {
        let mut parts = s.split('+');
        let gaps = parts.next().unwrap_or_default();
        let zeta_k = match gaps {
            "g" => 1u8,
            _ => gaps
                .strip_prefix('z')
                .and_then(|k| k.parse::<u8>().ok())
                .filter(|&k| (1..=MAX_ZETA_K).contains(&k))
                .ok_or(SNodeError::Corrupt(
                    "codec cell must start with 'g' or 'z<1..=8>'",
                ))?,
        };
        let mut codec = ListCodec {
            zeta_k,
            ..ListCodec::GAMMA
        };
        for part in parts {
            match part {
                "iv" => codec.intervals = true,
                "cb" => codec.copy_blocks = true,
                "st" => codec.layouts = SuperedgeLayouts::Priced,
                _ => {
                    return Err(SNodeError::Corrupt(
                        "unknown codec cell flag (expected 'iv', 'cb', or 'st')",
                    ))
                }
            }
        }
        Ok(codec)
    }
}

impl std::fmt::Display for ListCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.zeta_k == 1 {
            write!(f, "g")?;
        } else {
            write!(f, "z{}", self.zeta_k)?;
        }
        if self.intervals {
            write!(f, "+iv")?;
        }
        if self.copy_blocks {
            write!(f, "+cb")?;
        }
        if self.layouts != SuperedgeLayouts::Standard {
            write!(f, "+st")?;
        }
        Ok(())
    }
}

/// The codec choice for each list class of an S-Node directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodecConfig {
    /// Codec for intranode adjacency lists.
    pub intra: ListCodec,
    /// Codec for superedge (bipartite) adjacency lists and the positive
    /// form's source list.
    pub superedge: ListCodec,
}

/// What `wgr build`, [`crate::build::SNodeConfig::default`] and every
/// figure and table write: cell `g+st`, as [`CodecConfig::parse`] reads it.
impl Default for CodecConfig {
    fn default() -> Self {
        let st = ListCodec {
            layouts: SuperedgeLayouts::Priced,
            ..ListCodec::GAMMA
        };
        CodecConfig {
            intra: st,
            superedge: st,
        }
    }
}

impl CodecConfig {
    /// The seed (v1) format and the paper's: γ everywhere, cell `g`.
    pub const GAMMA: CodecConfig = CodecConfig {
        intra: ListCodec::GAMMA,
        superedge: ListCodec::GAMMA,
    };

    /// True when every class uses the seed γ format, whose output is
    /// bit-identical to version-1 directories.
    pub fn is_gamma_baseline(&self) -> bool {
        self.intra.is_gamma_baseline() && self.superedge.is_gamma_baseline()
    }

    /// Header form: `[intra, superedge, 0, 0]` packed little-endian.
    /// The two reserved bytes must be zero (checked on read).
    pub fn to_header(self) -> u32 {
        u32::from(self.intra.to_byte()) | (u32::from(self.superedge.to_byte()) << 8)
    }

    /// Parses and validates the header form.
    pub fn from_header(v: u32) -> Result<CodecConfig> {
        if v >> 16 != 0 {
            return Err(SNodeError::Corrupt(
                "reserved codec header bytes are non-zero",
            ));
        }
        Ok(CodecConfig {
            intra: ListCodec::from_byte((v & 0xFF) as u8)?,
            superedge: ListCodec::from_byte(((v >> 8) & 0xFF) as u8)?,
        })
    }

    /// Parses `"<intra>/<superedge>"`, or one cell applied to both
    /// classes (e.g. `z3` ≡ `z3/z3`).
    pub fn parse(s: &str) -> Result<CodecConfig> {
        match s.split_once('/') {
            Some((i, e)) => Ok(CodecConfig {
                intra: ListCodec::parse_cell(i)?,
                superedge: ListCodec::parse_cell(e)?,
            }),
            None => {
                let c = ListCodec::parse_cell(s)?;
                Ok(CodecConfig {
                    intra: c,
                    superedge: c,
                })
            }
        }
    }
}

impl std::fmt::Display for CodecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.intra, self.superedge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell with a name. (`SingleTarget` has none: see below.)
    fn all_cells() -> Vec<ListCodec> {
        let mut v = Vec::new();
        for k in 1..=MAX_ZETA_K {
            for iv in [false, true] {
                for cb in [false, true] {
                    for layouts in [SuperedgeLayouts::Standard, SuperedgeLayouts::Priced] {
                        v.push(ListCodec {
                            zeta_k: k,
                            intervals: iv,
                            copy_blocks: cb,
                            layouts,
                        });
                    }
                }
            }
        }
        v
    }

    #[test]
    fn header_round_trips_every_cell_pair() {
        for &a in &all_cells() {
            for &b in &all_cells() {
                let cfg = CodecConfig {
                    intra: a,
                    superedge: b,
                };
                let back = CodecConfig::from_header(cfg.to_header()).unwrap();
                assert_eq!(back, cfg);
            }
        }
    }

    /// A v2 directory built with `+st`: the byte round-trips, so its
    /// graphs keep their one-bit marker; it prints as the flag it was
    /// built with, and that name now means the v3 layouts.
    #[test]
    fn the_v2_single_target_codec_has_a_byte_but_no_name() {
        let v2 = CodecConfig::from_header(0x0000_4141).unwrap();
        assert_eq!(v2.superedge.layouts, SuperedgeLayouts::SingleTarget);
        assert_eq!(v2.to_header(), 0x0000_4141);
        assert_eq!(v2.to_string(), "g+st/g+st");
        let named = CodecConfig::parse("g+st").unwrap();
        assert_eq!(named.superedge.layouts, SuperedgeLayouts::Priced);
        assert_eq!(named.to_header(), 0x0000_C1C1);
    }

    #[test]
    fn invalid_headers_are_rejected() {
        for bad in [
            0u32,        // zeta_k = 0 in both classes
            0x0000_0009, // zeta_k = 9 > MAX_ZETA_K
            0x0000_0081, // list dictionary without the single-target one
            0x0000_8101, // the same in the superedge byte
            0x0001_0101, // reserved high bytes non-zero
            0xFFFF_FFFF, //
            0x0000_0001, // superedge byte zero
            0x0000_0100, // intra byte zero
        ] {
            assert!(CodecConfig::from_header(bad).is_err(), "header {bad:#x}");
        }
    }

    #[test]
    fn cell_names_round_trip() {
        for &c in &all_cells() {
            let name = c.to_string();
            assert_eq!(ListCodec::parse_cell(&name).unwrap(), c, "{name}");
        }
        assert_eq!(ListCodec::parse_cell("g").unwrap(), ListCodec::GAMMA);
        assert_eq!(ListCodec::parse_cell("z1").unwrap(), ListCodec::GAMMA);
        assert!(ListCodec::parse_cell("z0").is_err());
        assert!(ListCodec::parse_cell("z9").is_err());
        assert!(ListCodec::parse_cell("g+xx").is_err());
        assert!(ListCodec::parse_cell("").is_err());
    }

    #[test]
    fn config_parse_single_and_pair() {
        let c = CodecConfig::parse("z3").unwrap();
        assert_eq!(c.intra.zeta_k, 3);
        assert_eq!(c.superedge.zeta_k, 3);
        let c = CodecConfig::parse("z3+iv/g").unwrap();
        assert!(c.intra.intervals);
        assert!(c.superedge.is_gamma_baseline());
        assert_eq!(c.to_string(), "z3+iv/g");
        assert_eq!(CodecConfig::parse(&c.to_string()).unwrap(), c);
    }

    #[test]
    fn default_is_the_priced_layouts_cell() {
        let default = CodecConfig::default();
        assert_eq!(default, CodecConfig::parse("g+st").unwrap());
        assert_eq!(default.to_string(), "g+st/g+st");
        assert_eq!(default.superedge.layouts, SuperedgeLayouts::Priced);
        assert!(!default.is_gamma_baseline());
        assert_eq!(CodecConfig::GAMMA, CodecConfig::parse("g").unwrap());
        assert_eq!(CodecConfig::GAMMA.to_string(), "g/g");
    }
}
