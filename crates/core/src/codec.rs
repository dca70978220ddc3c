//! The format choice a directory records.
//!
//! The S-Node paper fixes one list codec (§3.3: γ-coded gaps, RLE
//! copy-masks) and [`crate::refenc`] codes every list that one way. What
//! is left to choose is how a positive superedge graph lays out its
//! target lists ([`SuperedgeLayouts`]); a [`ListCodec`] records that
//! choice for one *class* of adjacency lists, a [`CodecConfig`] holds one
//! per class (intranode vs superedge). The config is chosen at build time
//! ([`crate::build::SNodeConfig`]), recorded in the `meta.bin` header
//! (since format v2), and every decode path reads it back from there — a
//! directory always decodes the way it was built. Version-1 directories
//! carry no codec word and decode as [`CodecConfig::GAMMA`].
//!
//! Two configurations have a name: `g`, the paper's plain format, and
//! `g+st`, which [`CodecConfig::default`] is — the one definition of what
//! a build writes when nobody says otherwise: every positive superedge
//! graph in the cheapest of its three layouts
//! ([`SuperedgeLayouts::Priced`]). Formats v2 and v3 also had an ablation
//! grid beside these (ζ_k gap codes, interval runs, copy blocks); each of
//! its cells was larger and slower to decode than its γ counterpart
//! (DESIGN §5h) and it is retired: a header that names one is `Corrupt`.

use crate::{Result, SNodeError};

/// The layouts a positive superedge graph may be stored in. A graph's
/// layout is chosen by exact encoded size when it is built and named by a
/// marker after its kind bit; which markers exist is a property of the
/// directory, recorded here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SuperedgeLayouts {
    /// The paper's format (`g`): always one reference-encoded list per
    /// source, no marker.
    #[default]
    Standard,
    /// What `+st` meant in format v2: one marker bit, `0` the list stream,
    /// `1` the single-target dictionary. No name writes it any more; v2
    /// directories built with `+st` decode through it.
    SingleTarget,
    /// `+st` since format v3: the list stream (`00`), the single-target
    /// dictionary (`1`) or the list dictionary (`01`), whichever is
    /// smallest for the graph at hand.
    Priced,
}

/// How one class of adjacency lists is coded: γ gaps and RLE copy-masks
/// always, so the one field is the one choice.
///
/// `benchmark/src/layers.rs` (frozen) passes `meta.codec.intra` and
/// `meta.codec.superedge` to [`crate::refenc::encode_lists`],
/// [`crate::refenc::ListsIndex::parse`] and
/// [`crate::subgraphs::SuperedgeIndex::parse`]: this type, its per-class
/// pair in [`CodecConfig`] and the codec argument of those three keep
/// their shapes until ROADMAP item 1(a) unfreezes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListCodec {
    /// Superedge graphs that repeat list material (site-template links
    /// dominate real crawls) may store each distinct target, or each
    /// distinct list, once, plus one minimal-binary index per source,
    /// instead of per-source lists. Inert for intranode lists.
    pub layouts: SuperedgeLayouts,
}

impl ListCodec {
    /// No dictionaries — the seed (v1) format, `g`.
    pub const GAMMA: ListCodec = ListCodec {
        layouts: SuperedgeLayouts::Standard,
    };

    /// Packs into one byte: low nibble 1 (the γ gap code — the nibble held
    /// ζ's shrinking parameter when there was a grid), bit 6 the
    /// single-target dictionary, bit 7 (format v3) the list dictionary
    /// beside it.
    fn to_byte(self) -> u8 {
        0x01 | match self.layouts {
            SuperedgeLayouts::Standard => 0x00,
            SuperedgeLayouts::SingleTarget => 0x40,
            SuperedgeLayouts::Priced => 0xC0,
        }
    }

    /// Used on every header read, so a damaged codec byte — or one of the
    /// retired grid, whose bits 4 and 5 were interval runs and copy
    /// blocks — surfaces as `Corrupt` here and not as a misread list.
    fn from_byte(b: u8) -> Result<ListCodec> {
        if b & 0x3F != 0x01 {
            return Err(SNodeError::Corrupt(
                "header names a list codec this version does not read (a retired \
                 ablation cell: z<k>, +iv or +cb): rebuild the directory",
            ));
        }
        let layouts = match b & 0xC0 {
            0x00 => SuperedgeLayouts::Standard,
            0x40 => SuperedgeLayouts::SingleTarget,
            0xC0 => SuperedgeLayouts::Priced,
            // A list dictionary without the single-target one: no version
            // writes it.
            _ => return Err(SNodeError::Corrupt("invalid list codec id in header")),
        };
        Ok(ListCodec { layouts })
    }
}

impl std::fmt::Display for ListCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.layouts {
            SuperedgeLayouts::Standard => "g",
            _ => "g+st",
        })
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
/// figure and table write: `g+st`, as [`CodecConfig::parse`] reads it.
impl Default for CodecConfig {
    fn default() -> Self {
        let st = ListCodec {
            layouts: SuperedgeLayouts::Priced,
        };
        CodecConfig {
            intra: st,
            superedge: st,
        }
    }
}

impl CodecConfig {
    /// The seed (v1) format and the paper's, `g`.
    pub const GAMMA: CodecConfig = CodecConfig {
        intra: ListCodec::GAMMA,
        superedge: ListCodec::GAMMA,
    };

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

    /// Parses one of the two names a format has: `g` or `g+st`.
    pub fn parse(s: &str) -> Result<CodecConfig> {
        match s {
            "g" => Ok(CodecConfig::GAMMA),
            "g+st" => Ok(CodecConfig::default()),
            _ => Err(SNodeError::Corrupt("codec must be 'g' or 'g+st'")),
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

    #[test]
    fn header_round_trips_every_layouts_pair() {
        let all = [
            SuperedgeLayouts::Standard,
            SuperedgeLayouts::SingleTarget,
            SuperedgeLayouts::Priced,
        ];
        for intra in all.map(|layouts| ListCodec { layouts }) {
            for superedge in all.map(|layouts| ListCodec { layouts }) {
                let cfg = CodecConfig { intra, superedge };
                assert_eq!(cfg.to_header() & 0x3F3F, 0x0101, "{cfg}");
                assert_eq!(CodecConfig::from_header(cfg.to_header()).unwrap(), cfg);
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
            0u32,        // no gap code in either class
            0x0000_0102, // ζ₂: a retired cell
            0x0000_1101, // +iv in the superedge byte
            0x0000_0121, // +cb
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
    fn exactly_two_configurations_have_a_name() {
        let default = CodecConfig::default();
        assert_eq!(CodecConfig::parse("g+st").unwrap(), default);
        assert_eq!(default.to_string(), "g+st/g+st");
        assert_eq!(default.superedge.layouts, SuperedgeLayouts::Priced);
        assert_eq!(CodecConfig::parse("g").unwrap(), CodecConfig::GAMMA);
        assert_eq!(CodecConfig::GAMMA.to_string(), "g/g");
        assert_eq!(CodecConfig::GAMMA.to_header(), 0x0000_0101);
        for retired in ["z1", "z3", "g+iv", "g+cb", "g/g+st", "g+st+st", ""] {
            assert!(CodecConfig::parse(retired).is_err(), "{retired:?}");
        }
    }
}
