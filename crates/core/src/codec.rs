//! What is left of a per-directory codec choice: nothing to choose.
//!
//! Every directory is `meta.bin` version 4 with the `g+st` codec word
//! ([`crate::disk`]): γ-coded gaps and RLE copy-masks for every list
//! (§3.3), and every positive superedge graph in the cheapest of three
//! layouts ([`crate::subgraphs::Layout`]). These two types carry nothing.
//! They stay only because `benchmark/src/layers.rs` (frozen) reads
//! `meta.codec.intra` and `meta.codec.superedge` and passes them to
//! [`crate::refenc::encode_lists`], [`crate::refenc::ListsIndex::parse`]
//! and [`crate::subgraphs::SuperedgeIndex::parse`], which ignore them.
//! ROADMAP item 1(a), which unfreezes that file, deletes this module and
//! those three parameters.

/// The one list codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ListCodec;

/// The codec of each list class, as [`crate::disk::SNodeMeta::codec`]
/// holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CodecConfig {
    /// Intranode lists.
    pub intra: ListCodec,
    /// Superedge lists.
    pub superedge: ListCodec,
}
