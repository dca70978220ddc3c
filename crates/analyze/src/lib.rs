//! `wg-analyze` — the one checker of on-disk S-Node representations
//! (`wgr check`). [`check()`] first holds every byte of a directory to its
//! integrity manifest (SN1xx), then decodes what verified and audits the
//! format's logical invariants (SN0xx).
//!
//! The paper's S-Node format (§2, §4) is a tower of invariants: the PageID
//! index must tile `0..num_pages`, a superedge graph exists iff at least one
//! cross link does, reference chains must be acyclic and shallow, and
//! every bitstream must end where its directory says it does. This crate walks the whole
//! representation, **collects every finding** rather than stopping at the
//! first, and reports each one as a
//! [`Diagnostic`] with a stable code — machine-readable via
//! [`Report::to_json`], human-readable via [`std::fmt::Display`].
//!
//! See `DESIGN.md` (appendix "Diagnostic codes") for the full code table,
//! the invariant each code enforces, and the paper section it comes from.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::expect_used, clippy::panic)]

mod check;

pub use check::{check, Summary};

/// How bad a finding is.
///
/// `Error` means the representation violates a structural invariant and
/// readers may fail or return wrong data. `Warning` means the data decodes
/// correctly but breaks a convention the builder always upholds (wasted
/// bytes, non-canonical tables, suboptimal encodings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. The numeric part groups by layer: `SN00x`
/// resident metadata, `SN01x` graph structure, `SN02x` reference chains,
/// `SN03x`/`SN04x` encoding choices, `SN05x` bitstream hygiene, `SN06x`
/// index files, `SN07x` cross-layer consistency, `SN1xx` physical
/// integrity (checksums, truncation — the pass that runs first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// SN001: a supernode's page range is empty (gap in the PageID tiling).
    PageidGap,
    /// SN002: the domain index does not map each supernode to exactly one
    /// domain.
    DomainIndexInvalid,
    /// SN010: a superedge graph encodes zero edges (§2: a superedge exists
    /// iff at least one page-level cross link does).
    EmptySuperedge,
    /// SN011: an intranode graph's list count differs from its supernode's
    /// page count.
    IntranodeSizeMismatch,
    /// SN012: a decoded entry (target page, source id, or reference parent)
    /// lies outside its declared universe.
    EntryOutOfRange,
    /// SN013: a graph's bitstream failed to decode at all.
    DecodeError,
    /// SN014: a decoded adjacency list is not strictly ascending.
    ListNotMonotone,
    /// SN020: a list of an encoded collection references one that does
    /// not precede it — what every cyclic chain holds. A list stream that
    /// parses only refers backward, so this is a second line behind SN013.
    RefChainCycle,
    /// SN021: a reference chain exceeds the depth cap selection keeps to
    /// ([`wg_snode::refenc::MAX_REF_CHAIN`]).
    RefChainTooDeep,
    // SN030 is retired with the complement form of superedge graphs, which
    // no reader takes (a graph in it is SN013); the number is not reused.
    /// SN040: the stored supernode-graph Huffman table differs from the
    /// canonical table implied by the decoded in-degrees.
    HuffmanNonCanonical,
    /// SN050: a bitstream's decode ends before its declared bit length.
    TrailingBits,
    /// SN060: an index file breaks the size discipline (over the rotation
    /// cap with multiple graphs, unreferenced trailing bytes, or no
    /// referenced graphs at all).
    IndexFileOversize,
    /// SN070: the supernode graph names a superedge whose encoded graph is
    /// missing from or out of bounds in the index files.
    MissingSuperedgeGraph,
    /// SN100: the directory carries no `sums.bin` integrity manifest, so
    /// nothing can be verified and every strict reader refuses it.
    MissingManifest,
    /// SN101: the integrity manifest itself is unreadable (bad magic,
    /// unsupported version, truncation, or failed self-checksum) or
    /// inconsistent with the directory it describes.
    ManifestCorrupt,
    /// SN102: a `meta.bin` section's CRC-32C differs from the manifest.
    MetaSectionChecksum,
    /// SN103: a whole file's CRC-32C differs from the manifest.
    FileChecksum,
    /// SN104: an encoded graph blob's CRC-32C differs from the manifest.
    BlobChecksum,
    /// SN105: a manifest-listed file is missing, unreadable, or has a
    /// different length than recorded.
    TruncatedFile,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PageidGap => "SN001",
            Code::DomainIndexInvalid => "SN002",
            Code::EmptySuperedge => "SN010",
            Code::IntranodeSizeMismatch => "SN011",
            Code::EntryOutOfRange => "SN012",
            Code::DecodeError => "SN013",
            Code::ListNotMonotone => "SN014",
            Code::RefChainCycle => "SN020",
            Code::RefChainTooDeep => "SN021",
            Code::HuffmanNonCanonical => "SN040",
            Code::TrailingBits => "SN050",
            Code::IndexFileOversize => "SN060",
            Code::MissingSuperedgeGraph => "SN070",
            Code::MissingManifest => "SN100",
            Code::ManifestCorrupt => "SN101",
            Code::MetaSectionChecksum => "SN102",
            Code::FileChecksum => "SN103",
            Code::BlobChecksum => "SN104",
            Code::TruncatedFile => "SN105",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Code::PageidGap => "pageid-gap",
            Code::DomainIndexInvalid => "domain-index-invalid",
            Code::EmptySuperedge => "empty-superedge",
            Code::IntranodeSizeMismatch => "intranode-size-mismatch",
            Code::EntryOutOfRange => "entry-out-of-range",
            Code::DecodeError => "decode-error",
            Code::ListNotMonotone => "list-not-monotone",
            Code::RefChainCycle => "ref-chain-cycle",
            Code::RefChainTooDeep => "ref-chain-too-deep",
            Code::HuffmanNonCanonical => "huffman-table-non-canonical",
            Code::TrailingBits => "trailing-bits",
            Code::IndexFileOversize => "index-file-oversize",
            Code::MissingSuperedgeGraph => "supernode-edge-without-superedge-graph",
            Code::MissingManifest => "missing-integrity-manifest",
            Code::ManifestCorrupt => "integrity-manifest-corrupt",
            Code::MetaSectionChecksum => "meta-section-checksum-mismatch",
            Code::FileChecksum => "file-checksum-mismatch",
            Code::BlobChecksum => "graph-blob-checksum-mismatch",
            Code::TruncatedFile => "file-truncated",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            Code::PageidGap
            | Code::DomainIndexInvalid
            | Code::EmptySuperedge
            | Code::IntranodeSizeMismatch
            | Code::EntryOutOfRange
            | Code::DecodeError
            | Code::ListNotMonotone
            | Code::RefChainCycle
            | Code::MissingSuperedgeGraph
            | Code::MissingManifest
            | Code::ManifestCorrupt
            | Code::MetaSectionChecksum
            | Code::FileChecksum
            | Code::BlobChecksum
            | Code::TruncatedFile => Severity::Error,
            Code::RefChainTooDeep
            | Code::HuffmanNonCanonical
            | Code::TrailingBits
            | Code::IndexFileOversize => Severity::Warning,
        }
    }
}

/// Where in the representation a finding is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// The resident metadata (`meta.bin`) as a whole.
    Meta,
    /// The domain → supernodes index inside `meta.bin`.
    DomainIndex,
    /// The encoded supernode graph inside `meta.bin`.
    Supergraph,
    /// The per-supernode size table inside `meta.bin`.
    SizeTable,
    /// The checkpoints into the supernode graph and the size table inside
    /// `meta.bin`.
    Checkpoints,
    /// The page renumbering file (`pagemap.bin`).
    Pagemap,
    /// The integrity manifest (`sums.bin`).
    Manifest,
    /// An index file (`index_NNN.bin`).
    IndexFile(u32),
    /// The intranode graph of one supernode.
    Intranode(u32),
    /// The superedge graph between two supernodes.
    Superedge(u32, u32),
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Location::Meta => write!(f, "meta"),
            Location::DomainIndex => write!(f, "domain-index"),
            Location::Supergraph => write!(f, "supergraph"),
            Location::SizeTable => write!(f, "size-table"),
            Location::Checkpoints => write!(f, "checkpoints"),
            Location::Pagemap => write!(f, "pagemap.bin"),
            Location::Manifest => write!(f, "sums.bin"),
            Location::IndexFile(no) => write!(f, "index_{no:03}.bin"),
            Location::Intranode(s) => write!(f, "intranode {s}"),
            Location::Superedge(i, j) => write!(f, "superedge {i}->{j}"),
        }
    }
}

/// One finding: a stable code, its severity, where, and a human message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub location: Location,
    pub message: String,
}

impl Diagnostic {
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} {}] {}: {}",
            self.severity.as_str(),
            self.code.as_str(),
            self.code.name(),
            self.location,
            self.message
        )
    }
}

/// Everything one `check` run found.
#[derive(Debug, Clone)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub summary: Summary,
}

impl Report {
    /// Number of error-severity findings.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable form, one stable JSON object (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"errors\":{},\"warnings\":{},\"summary\":",
            self.num_errors(),
            self.num_warnings()
        );
        self.summary.write_json(&mut out);
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"name\":\"");
            out.push_str(d.code.name());
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.as_str());
            out.push_str("\",\"location\":\"");
            json_escape_into(&mut out, &d.location.to_string());
            out.push_str("\",\"message\":\"");
            json_escape_into(&mut out, &d.message);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s); {}",
            self.num_errors(),
            self.num_warnings(),
            self.summary
        )
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}
