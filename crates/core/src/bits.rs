//! Where the bits of a directory go (`wgr stats --bits`).
//!
//! Table 1's metric is `(meta.bin + index files) × 8 / edges`. This module
//! takes that numerator apart, one row per class of stored material, so
//! that a class which grows with the corpus — or one a format change was
//! supposed to shrink — has a name and a number. The rows tile the files:
//! they sum to the numerator exactly.

use crate::codec::ListCodec;
use crate::disk::{index_file_path, GraphLocator, IndexFileReader, SNodeMeta};
use crate::integrity::meta_section_bounds;
use crate::refenc::{ListsIndex, Universe};
use crate::subgraphs::{Layout, SuperedgeIndex};
use crate::Result;
use std::path::Path;

/// One class of stored material, or one part of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitsRow {
    /// What the bits belong to: a kind of graph, or a file.
    pub class: &'static str,
    /// Which section of it (empty for a class stored as one piece).
    pub part: &'static str,
    /// Graphs of this class (0 for rows that are not graphs).
    pub graphs: u64,
    /// Links those graphs represent; every part of a class repeats it.
    pub edges: u64,
    /// Bits this row accounts for.
    pub bits: u64,
}

/// Every bit of `meta.bin` and the index files of one directory, by row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLedger {
    /// The rows; their `bits` sum to [`BitLedger::total_bits`].
    pub rows: Vec<BitsRow>,
    /// Links the directory represents.
    pub edges: u64,
    /// `(meta.bin + index files) × 8`, from the files' lengths.
    pub total_bits: u64,
}

const INTRANODE: &str = "intranode lists";
// Every superedge graph is stored positive; the class names keep the word
// for the `--bits --json` readers that match on them.
const POSITIVE_LISTS: &str = "superedge positive, list stream";
const POSITIVE_ONE_TARGET: &str = "superedge positive, one-target dictionary";
const POSITIVE_TARGETS: &str = "superedge positive, single-target dictionary";
const POSITIVE_DICTIONARY: &str = "superedge positive, list dictionary";

/// One class of superedge graphs, summed.
#[derive(Default)]
struct SuperedgeClass {
    graphs: u64,
    edges: u64,
    header: u64,
    sources: u64,
    dictionary: u64,
    index: u64,
    stream: u64,
}

impl SuperedgeClass {
    /// The class's rows: the parts its graphs can have, in stored order.
    fn rows(&self, class: &'static str, parts: &[&'static str]) -> Vec<BitsRow> {
        let all = [
            ("header", self.header),
            ("sources", self.sources),
            ("dictionary", self.dictionary),
            ("index", self.index),
            ("list stream", self.stream),
        ];
        (all.into_iter())
            .filter(|(part, _)| parts.contains(part))
            .map(|(part, bits)| BitsRow {
                class,
                part,
                graphs: self.graphs,
                edges: self.edges,
                bits,
            })
            .collect()
    }
}

impl BitLedger {
    /// Reads every graph of the directory at `dir` and accounts for every
    /// bit of its `meta.bin` and index files.
    pub fn of(dir: &Path) -> Result<Self> {
        let meta_buf = crate::disk::read_whole_file(&dir.join("meta.bin"))?;
        let meta = SNodeMeta::parse(&meta_buf)?;
        let files = IndexFileReader::open_resident(dir)?;
        let padding = |loc: &GraphLocator, used: u64| loc.byte_len * 8 - used;

        let (mut intranode_bits, mut intranode_edges) = (0u64, 0u64);
        let [mut streams, mut one_target, mut targets, mut dictionary] =
            <[SuperedgeClass; 4]>::default();
        let (mut padding_bits, mut referenced_bytes) = (0u64, 0u64);
        for s in 0..meta.num_supernodes() {
            let loc = meta.intranode_loc[s as usize];
            let bytes = files.read_blob(&loc)?;
            let universe = Universe::SameAsCount;
            let (index, lists) = ListsIndex::load(&bytes, loc.bit_len, universe)?;
            intranode_bits += index.end_bit();
            intranode_edges += lists.iter().map(|l| l.len() as u64).sum::<u64>();
            padding_bits += padding(&loc, index.end_bit());
            referenced_bytes += loc.byte_len;

            let ni = u64::from(meta.supernode_size(s));
            let row = meta.supergraph.adj[s as usize].iter();
            for (&j, loc) in row.zip(&meta.superedge_loc[s as usize]) {
                let nj = u64::from(meta.supernode_size(j));
                let bytes = files.read_blob(loc)?;
                let index = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec)?;
                let bits = index.bit_breakdown();
                let edges = index.count_edges(&bytes, loc.bit_len)?;
                let class = match bits.layout {
                    Layout::Lists => &mut streams,
                    // A fanout answers these: template links.
                    _ if index.one_target().is_some() => &mut one_target,
                    Layout::SingleTargets => &mut targets,
                    Layout::ListDictionary => &mut dictionary,
                };
                class.graphs += 1;
                class.edges += edges;
                class.header += bits.header;
                class.sources += bits.sources;
                class.dictionary += bits.dictionary;
                class.index += bits.index;
                class.stream += bits.stream;
                let used = bits.header + bits.sources + bits.dictionary + bits.index + bits.stream;
                padding_bits += padding(loc, used);
                referenced_bytes += loc.byte_len;
            }
        }

        let mut rows = vec![BitsRow {
            class: INTRANODE,
            part: "",
            graphs: u64::from(meta.num_supernodes()),
            edges: intranode_edges,
            bits: intranode_bits,
        }];
        rows.extend(streams.rows(POSITIVE_LISTS, &["header", "sources", "list stream"]));
        let dictionary_parts = ["header", "sources", "dictionary", "index"];
        // One entry takes no index bits.
        rows.extend(one_target.rows(POSITIVE_ONE_TARGET, &dictionary_parts[..3]));
        rows.extend(targets.rows(POSITIVE_TARGETS, &dictionary_parts));
        rows.extend(dictionary.rows(POSITIVE_DICTIONARY, &dictionary_parts));
        let file_row = |class, part, bits| BitsRow {
            class,
            part,
            graphs: 0,
            edges: 0,
            bits,
        };
        rows.push(file_row(
            "index files",
            "padding to whole bytes",
            padding_bits,
        ));

        let mut index_bytes = 0u64;
        let mut file = 0u32;
        while let Ok(stat) = std::fs::metadata(index_file_path(dir, file)) {
            index_bytes += stat.len();
            file += 1;
        }
        rows.push(file_row(
            "index files",
            "bytes no graph owns",
            index_bytes.saturating_sub(referenced_bytes) * 8,
        ));

        // `meta.bin`, by the five sections its checksums tile it into; the
        // first holds the fixed header words and the PageID index.
        let [header, supergraph, sizes, checkpoints, domains] = meta_section_bounds(&meta_buf)?;
        let page_ranges = (u64::from(meta.num_supernodes()) + 1) * 4;
        for (part, bytes) in [
            ("header", header.1 - page_ranges),
            ("page ranges", page_ranges),
            ("supernode graph (Huffman)", supergraph.1),
            ("graph size table", sizes.1),
            ("checkpoints", checkpoints.1),
            ("domain index", domains.1),
        ] {
            rows.push(file_row("meta.bin", part, bytes * 8));
        }

        Ok(Self {
            rows,
            edges: intranode_edges
                + streams.edges
                + one_target.edges
                + targets.edges
                + dictionary.edges,
            total_bits: (meta_buf.len() as u64 + index_bytes) * 8,
        })
    }

    /// Table 1's metric for the directory.
    pub fn bits_per_edge(&self) -> f64 {
        self.per_edge(self.total_bits)
    }

    /// `bits` over the directory's edges: every row divided by the same
    /// number, so that the column sums to [`BitLedger::bits_per_edge`].
    fn per_edge(&self, bits: u64) -> f64 {
        bits as f64 / self.edges.max(1) as f64
    }

    /// Machine-readable form: the totals and one object per row.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"edges\": {},\n  \"total_bits\": {},\n  \"bits_per_edge\": {:.4},\n  \"rows\": [\n",
            self.edges,
            self.total_bits,
            self.bits_per_edge()
        );
        for (k, row) in self.rows.iter().enumerate() {
            let sep = if k + 1 == self.rows.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{\"class\": \"{}\", \"part\": \"{}\", \"graphs\": {}, \"edges\": {}, \
                 \"bits\": {}, \"bits_per_edge\": {:.4}}}{sep}\n",
                row.class,
                row.part,
                row.graphs,
                row.edges,
                row.bits,
                self.per_edge(row.bits)
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// The table `wgr stats --bits` prints: a line per class with its graphs,
/// edges and bits, and under it a line per part.
impl std::fmt::Display for BitLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<46} {:>8} {:>10} {:>12} {:>9}",
            "class / part", "graphs", "edges", "bits", "bits/edge"
        )?;
        for class in self.rows.chunk_by(|a, b| a.class == b.class) {
            let bits: u64 = class.iter().map(|row| row.bits).sum();
            let first = &class[0];
            // Files are not graphs: their counts stay blank.
            let count = |n: u64| match first.class {
                "index files" | "meta.bin" => String::new(),
                _ => n.to_string(),
            };
            writeln!(
                f,
                "{:<46} {:>8} {:>10} {bits:>12} {:>9.3}",
                first.class,
                count(first.graphs),
                count(first.edges),
                self.per_edge(bits)
            )?;
            for row in class.iter().filter(|row| !row.part.is_empty()) {
                writeln!(
                    f,
                    "  {:<44} {:>8} {:>10} {:>12} {:>9.3}",
                    row.part,
                    "",
                    "",
                    row.bits,
                    self.per_edge(row.bits)
                )?;
            }
        }
        writeln!(
            f,
            "{:<46} {:>8} {:>10} {:>12} {:>9.3}",
            "total",
            "",
            self.edges,
            self.total_bits,
            self.bits_per_edge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_snode, RepoInput, SNodeConfig};

    /// The rows add up to `(meta.bin + index_*.bin) × 8`, to the bit, over
    /// several index files; and what they add up to is what the build
    /// reported.
    #[test]
    fn rows_sum_to_the_files() {
        let corpus = wg_corpus::Corpus::generate(wg_corpus::CorpusConfig::scaled(2500, 3));
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        let dir = std::env::temp_dir().join(format!("wg_snode_bits_{}", std::process::id()));
        let config = SNodeConfig {
            max_file_bytes: 4096,
            ..SNodeConfig::default()
        };
        let (stats, _) = build_snode(input, &config, &dir).unwrap();
        let ledger = BitLedger::of(&dir).unwrap();
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| {
                let name = entry.file_name().into_string().unwrap();
                name == "meta.bin" || name.starts_with("index_")
            })
            .map(|entry| entry.metadata().unwrap().len())
            .sum();
        assert_eq!(ledger.total_bits, on_disk * 8);
        assert_eq!(ledger.total_bits, stats.total_bits());
        assert_eq!(ledger.edges, stats.num_edges);
        let sum: u64 = ledger.rows.iter().map(|row| row.bits).sum();
        assert_eq!(sum, ledger.total_bits, "{:#?}", ledger.rows);

        let bits_of = |class: &str| -> u64 {
            let rows = ledger.rows.iter().filter(|row| row.class == class);
            rows.map(|row| row.bits).sum()
        };
        assert_eq!(bits_of(INTRANODE), stats.intranode_bits);
        let superedge = [
            POSITIVE_LISTS,
            POSITIVE_ONE_TARGET,
            POSITIVE_TARGETS,
            POSITIVE_DICTIONARY,
        ];
        let superedge_bits: u64 = superedge.iter().map(|class| bits_of(class)).sum();
        assert_eq!(superedge_bits, stats.superedge_bits);
        assert!(bits_of(POSITIVE_TARGETS) + bits_of(POSITIVE_DICTIONARY) > 0);
        // The graphs a fanout answers, counted as a handle's scan finds them.
        let one_target = ledger
            .rows
            .iter()
            .find(|row| row.class == POSITIVE_ONE_TARGET);
        let snode = crate::repr::SNode::open_resident(&dir, 1 << 20).unwrap();
        let scanned = snode.one_target_superedges().unwrap();
        assert!(scanned > 0);
        assert_eq!(one_target.map(|row| row.graphs), Some(scanned));
        assert_eq!(
            bits_of("index files"),
            (stats.index_bytes * 8) - stats.intranode_bits - stats.superedge_bits
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
