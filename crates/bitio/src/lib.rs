//! Bit-level coding primitives shared by every Web-graph representation in
//! this workspace.
//!
//! The ICDE'03 S-Node paper compresses its intranode and superedge graphs with
//! "easy to decode bit level compression techniques" (§3.3): reference-encoded
//! adjacency lists, gap-coded lists, run-length-encoded bit vectors, and
//! Huffman codes keyed by in-degree. This crate provides those primitives:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit streams over byte buffers.
//!   The writer accumulates in a 64-bit word and flushes whole words (its
//!   invariants are on the type); the reader decodes from 64-bit windows,
//!   and a [`Window`] keeps one in a register across a run of codes.
//!   Each is held to a bit-at-a-time model by a proptest
//!   (`tests/prop_codecs.rs`, `tests/reader_model.rs`).
//! * [`codes`] — unary, Elias γ/δ, and minimal-binary codes.
//! * [`huffman`] — canonical Huffman codes with table-driven decoding.
//! * [`rle`] — run-length coding of bit vectors.
//!
//! All codecs are exact: every `write_*` has a matching `read_*` that
//! round-trips, and malformed input yields [`BitError`] rather than a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::expect_used, clippy::panic)]

pub mod bitstream;
pub mod codes;
pub mod huffman;
pub mod rle;

pub use bitstream::{BitReader, BitWriter, Window};
pub use huffman::{HuffmanCode, HuffmanDecoder};

/// Errors produced while decoding bit streams.
///
/// Encoding is infallible (it appends to an in-memory buffer); decoding can
/// fail on truncated or corrupted input, and every decoder in this crate
/// reports such input as an error instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitError {
    /// The reader ran out of bits mid-codeword.
    UnexpectedEof {
        /// Bit position at which more input was required.
        position: u64,
    },
    /// A decoded value is impossible for the code in use (e.g. a γ-code
    /// length prefix of more than 64 bits).
    Corrupt {
        /// Human-readable description of the inconsistency.
        what: &'static str,
    },
    /// A Huffman code table was structurally invalid.
    BadCodeTable {
        /// Human-readable description of the inconsistency.
        what: &'static str,
    },
}

impl std::fmt::Display for BitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitError::UnexpectedEof { position } => {
                write!(f, "unexpected end of bit stream at bit {position}")
            }
            BitError::Corrupt { what } => write!(f, "corrupt bit stream: {what}"),
            BitError::BadCodeTable { what } => write!(f, "invalid code table: {what}"),
        }
    }
}

impl std::error::Error for BitError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, BitError>;
