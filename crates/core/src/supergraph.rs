//! The supernode graph and its Huffman encoding (§3.3).
//!
//! One vertex per partition element; a superedge `i → j` iff some page of
//! `Ni` points into `Nj`. Supernode in-degrees are highly skewed (elements
//! holding popular domains are pointed at from everywhere), so adjacency
//! targets are coded with a canonical Huffman code keyed by in-degree —
//! short codes for popular supernodes.

use crate::partition::Partition;
use crate::{Result, SNodeError};
use wg_bitio::{codes, BitReader, BitWriter, HuffmanCode, HuffmanDecoder, Window};
use wg_graph::Graph;

/// The top-level graph of an S-Node representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodeGraph {
    /// Sorted superedge targets per supernode.
    pub adj: Vec<Vec<u32>>,
}

impl SupernodeGraph {
    /// Builds the supernode graph for `partition` over `graph`.
    ///
    /// Self-superedges are *not* materialised: links inside an element are
    /// the intranode graph's business.
    pub fn from_partition(partition: &Partition, graph: &Graph) -> Self {
        let n = partition.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, e) in partition.elements.iter().enumerate() {
            let mut targets: Vec<u32> = e
                .pages
                .iter()
                .flat_map(|&p| graph.neighbors(p).iter().copied())
                .map(|t| partition.elem_of[t as usize])
                .filter(|&t| t != i as u32)
                .collect();
            targets.sort_unstable();
            targets.dedup();
            adj[i] = targets;
        }
        Self { adj }
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Number of superedges.
    pub fn num_superedges(&self) -> u64 {
        self.adj.iter().map(|l| l.len() as u64).sum()
    }

    /// Superedge targets of supernode `i`.
    pub fn targets(&self, i: u32) -> &[u32] {
        &self.adj[i as usize]
    }

    /// In-degree per supernode (frequency of appearance in superedge lists).
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.adj.len()];
        for list in &self.adj {
            for &t in list {
                deg[t as usize] += 1;
            }
        }
        deg
    }

    /// The canonical Huffman code [`SupernodeGraph::encode`] writes: code
    /// lengths derived from in-degree frequencies, with a dummy count for
    /// symbol 0 when the graph has no superedges at all (so a valid, unused
    /// table still exists on disk).
    pub fn canonical_code(&self) -> HuffmanCode {
        let mut freqs = self.in_degrees();
        // Symbols that never occur still need no code; Huffman handles it.
        // Guard the all-zero case (no superedges at all).
        let any = freqs.iter().any(|&f| f > 0);
        if !any && !freqs.is_empty() {
            freqs[0] = 1; // dummy so a valid (unused) table exists
        }
        HuffmanCode::from_frequencies(&freqs)
    }

    /// Serialises the graph: header, Huffman length table, then per node a
    /// γ-coded degree and Huffman-coded targets.
    pub fn encode(&self) -> (Vec<u8>, u64) {
        let (bytes, bits, _) = self.encode_marked(usize::MAX);
        (bytes, bits)
    }

    /// [`SupernodeGraph::encode`], with the bit position every `every`-th
    /// row starts at (row 0, `every`, `2 · every`, …) and, last, the
    /// position the rows end at: where `meta.bin`'s checkpoints point.
    pub(crate) fn encode_marked(&self, every: usize) -> (Vec<u8>, u64, Vec<u64>) {
        let code = self.canonical_code();
        let mut w = BitWriter::new();
        codes::write_gamma(&mut w, self.adj.len() as u64);
        code.write_lengths(&mut w);
        let mut marks = Vec::with_capacity(self.adj.len() / every.max(1) + 2);
        for (s, list) in self.adj.iter().enumerate() {
            if s % every == 0 {
                marks.push(w.bit_len());
            }
            codes::write_gamma(&mut w, list.len() as u64);
            for &t in list {
                code.encode(&mut w, t);
            }
        }
        marks.push(w.bit_len());
        let (bytes, bits) = w.finish();
        (bytes, bits, marks)
    }

    /// Deserialises a graph written by [`SupernodeGraph::encode`].
    pub fn decode(bytes: &[u8], bit_len: u64) -> Result<Self> {
        Ok(Self::decode_full(bytes, bit_len)?.0)
    }

    /// Like [`SupernodeGraph::decode`], additionally returning the stored
    /// Huffman length table and the bit position where decoding ended, so
    /// audits can check table canonicality and trailing garbage. The rows
    /// are read by the one row decoder, which an open runs a group at a
    /// time.
    pub fn decode_full(bytes: &[u8], bit_len: u64) -> Result<(Self, Vec<u32>, u64)> {
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        let code = read_code(&mut r)?;
        let n = code.num_symbols();
        // Each target takes at least the shortest codeword.
        let shortest = code.lengths().iter().filter(|&&l| l > 0).min();
        let most = r.remaining() / u64::from(shortest.copied().unwrap_or(1));
        let mut targets = Vec::with_capacity(most.min(1 << 24) as usize);
        let mut row_start = Vec::with_capacity((n + 1).min(1 << 20));
        row_start.push(0);
        let mut w = r.window();
        read_rows(
            &mut w,
            &code.decoder(),
            n,
            n,
            most,
            &mut targets,
            &mut row_start,
        )?;
        let end = w.position();
        let adj = (row_start.windows(2))
            .map(|w| targets[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        Ok((Self { adj }, code.lengths().to_vec(), end))
    }

    /// Size in bits of the Huffman-coded adjacency structure alone.
    pub fn encoded_bits(&self) -> u64 {
        self.encode().1
    }

    /// Figure 10 accounting: encoded adjacency structure plus a 4-byte
    /// pointer per vertex (→ intranode graph) and per edge (→ superedge
    /// graph).
    pub fn encoded_bytes_with_pointers(&self) -> u64 {
        let adj_bytes = self.encoded_bits().div_ceil(8);
        adj_bytes + 4 * u64::from(self.num_supernodes()) + 4 * self.num_superedges()
    }
}

/// Reads what a stream [`SupernodeGraph::encode`] wrote opens with: the
/// supernode count and the Huffman code, whose symbols are the
/// supernodes.
pub(crate) fn read_code(r: &mut BitReader<'_>) -> Result<HuffmanCode> {
    let n = codes::read_gamma(r)?;
    if n > u64::from(u32::MAX) {
        return Err(SNodeError::Corrupt("supernode count overflows u32"));
    }
    let code = HuffmanCode::read_lengths(r)?;
    if code.num_symbols() != n as usize {
        return Err(SNodeError::Corrupt("huffman table size mismatch"));
    }
    Ok(code)
}

/// Decodes the next `rows` rows of a supernode graph of `n` supernodes
/// (the symbols of `dec`) from `w`: pushes their targets onto `targets`,
/// at most `most` of them in all (one more is `Corrupt`, so the vector
/// never outgrows a reservation of `most`), and after each row the end of
/// its targets onto `row_end`, counted on from `row_end`'s last entry. The
/// one decoder of the supernode graph's rows: a whole stream
/// ([`SupernodeGraph::decode_full`]) and a group of `meta.bin`
/// ([`crate::disk::ResidentIndex`]) both read them here.
pub(crate) fn read_rows(
    w: &mut Window<'_, '_>,
    dec: &HuffmanDecoder,
    n: usize,
    rows: usize,
    most: u64,
    targets: &mut Vec<u32>,
    row_end: &mut Vec<u32>,
) -> Result<()> {
    let (start, mut end) = (targets.len(), row_end.last().copied().unwrap_or(0));
    for _ in 0..rows {
        let deg = w.read_gamma()?;
        if deg > most - (targets.len() - start) as u64 {
            return Err(SNodeError::Corrupt(
                "a supernode's row holds more superedges than its bits can",
            ));
        }
        for _ in 0..deg {
            let t = w.read_huffman(dec)?;
            if t as usize >= n {
                return Err(SNodeError::Corrupt("superedge target out of range"));
            }
            targets.push(t);
        }
        end = u32::try_from(u64::from(end) + deg)
            .map_err(|_| SNodeError::Corrupt("superedge count overflows u32"))?;
        row_end.push(end);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    fn sample() -> (Partition, Graph) {
        // Domains: {0,1} -> elem 0, {2,3} -> elem 1, {4} -> elem 2.
        let domains = vec![0, 0, 1, 1, 2];
        let partition = Partition::initial(&domains);
        // Links: elem0 -> elem1 (0->2), elem0 internal (0->1),
        // elem1 -> elem2 (3->4), elem2 -> elem0 (4->1).
        let graph = Graph::from_edges(5, [(0, 2), (0, 1), (3, 4), (4, 1)]);
        (partition, graph)
    }

    #[test]
    fn superedges_follow_the_rule() {
        let (p, g) = sample();
        let sg = SupernodeGraph::from_partition(&p, &g);
        assert_eq!(sg.num_supernodes(), 3);
        assert_eq!(sg.targets(0), &[1]); // 0->2 crosses elem0->elem1
        assert_eq!(sg.targets(1), &[2]);
        assert_eq!(sg.targets(2), &[0]);
        assert_eq!(sg.num_superedges(), 3);
    }

    #[test]
    fn self_superedges_are_excluded() {
        let domains = vec![0, 0];
        let p = Partition::initial(&domains);
        let g = Graph::from_edges(2, [(0, 1), (1, 0)]);
        let sg = SupernodeGraph::from_partition(&p, &g);
        assert_eq!(sg.num_superedges(), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (p, g) = sample();
        let sg = SupernodeGraph::from_partition(&p, &g);
        let (bytes, bits) = sg.encode();
        let back = SupernodeGraph::decode(&bytes, bits).unwrap();
        assert_eq!(back, sg);
    }

    #[test]
    fn empty_graph_round_trips() {
        let sg = SupernodeGraph { adj: vec![] };
        let (bytes, bits) = sg.encode();
        let back = SupernodeGraph::decode(&bytes, bits).unwrap();
        assert_eq!(back, sg);
    }

    #[test]
    fn no_superedges_round_trips() {
        let sg = SupernodeGraph {
            adj: vec![vec![], vec![], vec![]],
        };
        let (bytes, bits) = sg.encode();
        let back = SupernodeGraph::decode(&bytes, bits).unwrap();
        assert_eq!(back, sg);
    }

    #[test]
    fn skewed_in_degrees_give_popular_nodes_short_codes() {
        // Supernode 0 is pointed at by everyone.
        let n = 40u32;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut l = vec![0u32];
                if i % 7 == 0 && i != 1 {
                    l.push(1);
                }
                l.retain(|&t| t != i);
                l.sort_unstable();
                l
            })
            .collect();
        let sg = SupernodeGraph { adj };
        let (bytes, bits) = sg.encode();
        let back = SupernodeGraph::decode(&bytes, bits).unwrap();
        assert_eq!(back, sg);
        // Size sanity: with ~46 edges mostly hitting node 0, the adjacency
        // payload should be far below fixed-width (46 * 6 bits).
        assert!(bits < 1500, "encoded bits {bits} unexpectedly large");
    }

    #[test]
    fn pointer_accounting_matches_formula() {
        let (p, g) = sample();
        let sg = SupernodeGraph::from_partition(&p, &g);
        let expect = sg.encoded_bits().div_ceil(8) + 4 * 3 + 4 * 3;
        assert_eq!(sg.encoded_bytes_with_pointers(), expect);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let (p, g) = sample();
        let sg = SupernodeGraph::from_partition(&p, &g);
        let (bytes, bits) = sg.encode();
        assert!(SupernodeGraph::decode(&bytes, bits / 2).is_err());
    }
}
