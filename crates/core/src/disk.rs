//! Physical organisation of an S-Node representation (§3.3).
//!
//! The on-disk layout follows the paper:
//!
//! * the intranode and superedge graphs live in a sequence of **index
//!   files**, each capped at a configurable size (the paper used 500 MB),
//!   a graph never straddling a file boundary;
//! * graphs are laid out in the **linear ordering** that places every
//!   intranode graph immediately before the superedge graphs of its
//!   out-superedges, so a query touching `IntraNode_i` finds
//!   `SEdge_{i,*}` adjacent with minimal seeking;
//! * `meta.bin` holds the Huffman-encoded supernode graph, the per-graph
//!   pointers (file, offset, length — the "4-byte pointers" of Figure 10,
//!   widened here for file offsets), the **PageID index** (each supernode
//!   owns a contiguous page-id range, so the index is just the range
//!   starts), and the **domain index** (domain → supernodes);
//! * `pagemap.bin` records the renumbering from build-input page ids to
//!   S-Node page ids (old-of-new), kept separate because it is shared
//!   repository metadata, not part of the graph representation proper.

use crate::codec::CodecConfig;
use crate::supergraph::SupernodeGraph;
use crate::{Result, SNodeError};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const META_MAGIC: u32 = 0x534E_4F44; // "SNOD"
/// The one format: version 3, whose header carries a codec word after the
/// version, and in it the one word this version writes and reads, `g+st`:
/// in each list class's byte, `0x01` (the γ gap code) and bits 6 and 7 (the
/// two dictionary layouts a positive superedge graph may take beside its
/// list stream). Versions 1 and 2, and a version-3 word without the
/// dictionaries (`0x0101`, the paper's plain format), are refused.
const META_VERSION: u32 = 3;
const CODEC_WORD: u32 = 0xC1C1;
const PAGEMAP_MAGIC: u32 = 0x534E_504D; // "SNPM"

/// Reads the magic, the version and the codec word; shared by every reader
/// of `meta.bin` so all accept the one format.
fn read_header(c: &mut Cursor<'_>) -> Result<()> {
    if c.u32()? != META_MAGIC {
        return Err(SNodeError::Corrupt("bad meta magic"));
    }
    if c.u32()? != META_VERSION || c.u32()? != CODEC_WORD {
        return Err(SNodeError::Corrupt(
            "meta.bin is of an older or retired format than version 3 `g+st`: \
             rebuild the directory",
        ));
    }
    Ok(())
}

/// Location of one encoded graph inside the index files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphLocator {
    /// Index file number (`index_NNN.bin`).
    pub file: u32,
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes.
    pub byte_len: u64,
    /// Exact bit length of the encoded graph.
    pub bit_len: u64,
}

/// Everything resident about an S-Node representation: the supernode graph
/// and both paper indexes.
#[derive(Debug, Clone)]
pub struct SNodeMeta {
    /// Total pages represented.
    pub num_pages: u32,
    /// PageID index: supernode `s` owns page ids
    /// `range_start[s] .. range_start[s + 1]`.
    pub range_start: Vec<u32>,
    /// The decoded supernode graph.
    pub supergraph: SupernodeGraph,
    /// Encoded size of the supernode graph in bits (for accounting).
    pub supergraph_bits: u64,
    /// Locator of each intranode graph.
    pub intranode_loc: Vec<GraphLocator>,
    /// Locators of each supernode's superedge graphs, parallel to
    /// `supergraph.adj[s]`.
    pub superedge_loc: Vec<Vec<GraphLocator>>,
    /// Domain index: `domain_supernodes[d]` = supernodes holding pages of
    /// domain `d` (ascending).
    pub domain_supernodes: Vec<Vec<u32>>,
    /// Carries nothing: see [`crate::codec`] for why it is still here.
    pub codec: CodecConfig,
    /// Index-file size cap the representation was written with. Locators
    /// are not stored explicitly: the linear ordering plus the per-graph
    /// sizes fully determine file numbers and offsets, so `meta.bin` only
    /// stores γ-coded graph sizes (the in-memory locator tables are
    /// reconstructed by replaying the writer's rotation rule at open).
    pub max_file_bytes: u64,
}

impl SNodeMeta {
    /// Number of supernodes.
    pub fn num_supernodes(&self) -> u32 {
        self.supergraph.num_supernodes()
    }

    /// Supernode owning page `p`.
    pub fn supernode_of(&self, p: u32) -> u32 {
        debug_assert!(p < self.num_pages);
        // partition_point returns the first start > p; its predecessor owns p.
        (self.range_start.partition_point(|&s| s <= p) - 1) as u32
    }

    /// Page-id range of supernode `s`.
    pub fn page_range(&self, s: u32) -> std::ops::Range<u32> {
        self.range_start[s as usize]..self.range_start[s as usize + 1]
    }

    /// Number of pages in supernode `s`.
    pub fn supernode_size(&self, s: u32) -> u32 {
        let r = self.page_range(s);
        r.end - r.start
    }

    /// Serialises to `dir/meta.bin`, returning the bytes written.
    pub fn write(&self, dir: &Path) -> Result<u64> {
        let mut out = Vec::new();
        put_u32(&mut out, META_MAGIC);
        put_u32(&mut out, META_VERSION);
        put_u32(&mut out, CODEC_WORD);
        put_u32(&mut out, self.num_pages);
        let n = self.num_supernodes();
        put_u32(&mut out, n);
        assert_eq!(self.range_start.len(), n as usize + 1);
        for &s in &self.range_start {
            put_u32(&mut out, s);
        }
        let (sg_bytes, sg_bits) = self.supergraph.encode();
        put_u64(&mut out, sg_bits);
        put_u64(&mut out, sg_bytes.len() as u64);
        out.extend_from_slice(&sg_bytes);
        put_u64(&mut out, self.max_file_bytes);
        // Per-graph sizes in linear order; everything else about a locator
        // is determined by the rotation rule.
        assert_eq!(self.intranode_loc.len(), n as usize);
        assert_eq!(self.superedge_loc.len(), n as usize);
        let mut sizes = wg_bitio::BitWriter::new();
        for s in 0..n as usize {
            assert_eq!(self.superedge_loc[s].len(), self.supergraph.adj[s].len());
            put_size(&mut sizes, &self.intranode_loc[s]);
            for loc in &self.superedge_loc[s] {
                put_size(&mut sizes, loc);
            }
        }
        let (size_bytes, size_bits) = sizes.finish();
        put_u64(&mut out, size_bits);
        put_u64(&mut out, size_bytes.len() as u64);
        out.extend_from_slice(&size_bytes);
        put_u32(&mut out, self.domain_supernodes.len() as u32);
        for list in &self.domain_supernodes {
            put_u32(&mut out, list.len() as u32);
            for &s in list {
                put_u32(&mut out, s);
            }
        }
        let path = dir.join("meta.bin");
        let mut f = File::create(path)?;
        f.write_all(&out)?;
        f.sync_data()?;
        Ok(out.len() as u64)
    }

    /// Deserialises from `dir/meta.bin`.
    pub fn read(dir: &Path) -> Result<Self> {
        let buf = read_whole_file(&dir.join("meta.bin"))?;
        Self::parse(&buf)
    }

    /// Deserialises from an in-memory `meta.bin` image (callers that
    /// checksum the raw bytes parse the same buffer they verified): the
    /// [`ResidentIndex`] decode, expanded into per-supernode vectors.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let index = ResidentIndex::parse(buf)?;
        let n = index.num_supernodes();
        let intranode_loc = (0..n).map(|s| index.locator(index.intra_blob(s))).collect();
        let superedge_loc = (0..n)
            .map(|s| {
                let first = index.intra_blob(s) + 1;
                let k = index.targets(s).len() as u64;
                (first..first + k).map(|b| index.locator(b)).collect()
            })
            .collect();
        let adj = (0..n).map(|s| index.targets(s).to_vec()).collect();
        let domain_supernodes = (0..index.num_domains())
            .map(|d| index.supernodes_of_domain(d).to_vec())
            .collect();
        Ok(Self {
            num_pages: index.num_pages,
            supergraph: SupernodeGraph { adj },
            supergraph_bits: index.supergraph_bits,
            intranode_loc,
            superedge_loc,
            domain_supernodes,
            codec: CodecConfig::default(),
            max_file_bytes: index.max_file_bytes,
            range_start: index.range_start,
        })
    }
}

/// `meta.bin` as an open handle holds it, in flat arrays: the PageID index,
/// the supernode graph's rows end to end, one packed word per graph for its
/// locator, and the domain index's lists end to end. [`SNodeMeta::parse`]
/// is this decode expanded, so both views share every check.
#[derive(Debug, Clone)]
pub struct ResidentIndex {
    num_pages: u32,
    /// Supernode `s` owns page ids `range_start[s] .. range_start[s + 1]`.
    range_start: Vec<u32>,
    /// The supernode graph: row `s` is `targets[row_start[s]..row_start[s + 1]]`.
    row_start: Vec<u32>,
    targets: Vec<u32>,
    supergraph_bits: u64,
    max_file_bytes: u64,
    /// Per graph in linear order (supernode `s`'s intranode graph is
    /// graph `s + row_start[s]`, its superedge graphs follow it in row
    /// order), one word: its bit padding, whether it opens its index file,
    /// the file's number, and the byte offset the graph ends at in it (see
    /// [`ResidentIndex::locator`]).
    blob_word: Vec<u64>,
    /// Domain `d` is held by supernodes
    /// `domain_members[domain_start[d]..domain_start[d + 1]]`.
    domain_start: Vec<u32>,
    domain_members: Vec<u32>,
}

impl ResidentIndex {
    /// Decodes an in-memory `meta.bin` image.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(buf);
        read_header(&mut c)?;
        let num_pages = c.u32()?;
        let n = c.u32()? as usize;
        let range_start: Vec<u32> = c.u32s(n + 1)?.collect();
        if range_start.first() != Some(&0) || range_start.last() != Some(&num_pages) {
            return Err(SNodeError::Corrupt("page ranges do not tile 0..num_pages"));
        }
        if range_start.windows(2).any(|w| w[0] > w[1]) {
            return Err(SNodeError::Corrupt("page ranges not monotone"));
        }
        let sg_bits = c.u64()?;
        let sg_len = c.u64()? as usize;
        let sg_bytes = c.bytes(sg_len)?;
        if sg_bits > sg_bytes.len() as u64 * 8 {
            return Err(SNodeError::Corrupt("supergraph bit length exceeds payload"));
        }
        let rows = crate::supergraph::decode_rows(sg_bytes, sg_bits)?;
        if rows.row_start.len() != n + 1 {
            return Err(SNodeError::Corrupt("supergraph size mismatch"));
        }
        let max_file_bytes = c.u64()?;
        let size_bits = c.u64()?;
        let size_len = c.u64()? as usize;
        let size_bytes = c.bytes(size_len)?;
        if size_bits > size_bytes.len() as u64 * 8 {
            return Err(SNodeError::Corrupt("size table bit length exceeds payload"));
        }
        let mut table = wg_bitio::BitReader::with_bit_len(size_bytes, size_bits);
        // One window for the whole table: a γ size and 3 pad bits a graph.
        let mut sizes = table.window();
        // Replay the writer's rotation rule over the linear ordering.
        let mut layout = LocatorLayout::new(max_file_bytes);
        let blobs = n + rows.targets.len();
        let mut blob_word = Vec::with_capacity(blobs);
        let mut files = 0u64;
        for _ in 0..blobs {
            let (file, end, pad) = layout.next(&mut sizes)?;
            let opens = u64::from(file) == files;
            files += u64::from(opens);
            if files > 1 << FILE_BITS {
                return Err(SNodeError::Corrupt(
                    "more index files than a resident index numbers",
                ));
            }
            blob_word.push(
                end << END_SHIFT | u64::from(file) << FILE_SHIFT | u64::from(opens) << 3 | pad,
            );
        }
        let nd = c.u32()? as usize;
        let mut domain_start = Vec::with_capacity(nd.min(1 << 20) + 1);
        domain_start.push(0);
        let mut domain_members = Vec::new();
        for _ in 0..nd {
            let k = c.u32()? as usize;
            for s in c.u32s(k)? {
                if s as usize >= n {
                    return Err(SNodeError::Corrupt(
                        "domain index names a supernode beyond the graph",
                    ));
                }
                domain_members.push(s);
            }
            domain_start.push(domain_members.len() as u32);
        }
        Ok(Self {
            num_pages,
            range_start,
            row_start: rows.row_start,
            targets: rows.targets,
            supergraph_bits: sg_bits,
            max_file_bytes,
            blob_word,
            domain_start,
            domain_members,
        })
    }

    /// Total pages represented.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> u32 {
        (self.range_start.len() - 1) as u32
    }

    /// Number of superedges.
    pub fn num_superedges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Encoded size of the supernode graph in bits.
    pub fn supergraph_bits(&self) -> u64 {
        self.supergraph_bits
    }

    /// Figure 10 accounting, as [`SupernodeGraph::encoded_bytes_with_pointers`]
    /// counts it: the encoded supernode graph plus a 4-byte pointer per
    /// supernode and per superedge.
    pub fn supergraph_bytes_with_pointers(&self) -> u64 {
        self.supergraph_bits.div_ceil(8)
            + 4 * (u64::from(self.num_supernodes()) + self.num_superedges())
    }

    /// The PageID index: supernode `s` owns page ids
    /// `range_start[s] .. range_start[s + 1]`.
    pub fn range_start(&self) -> &[u32] {
        &self.range_start
    }

    /// Supernode owning page `p`.
    pub fn supernode_of(&self, p: u32) -> u32 {
        debug_assert!(p < self.num_pages);
        // partition_point returns the first start > p; its predecessor owns p.
        (self.range_start.partition_point(|&s| s <= p) - 1) as u32
    }

    /// Page-id range of supernode `s`.
    pub fn page_range(&self, s: u32) -> std::ops::Range<u32> {
        self.range_start[s as usize]..self.range_start[s as usize + 1]
    }

    /// Number of pages in supernode `s`.
    pub fn supernode_size(&self, s: u32) -> u32 {
        let r = self.page_range(s);
        r.end - r.start
    }

    /// Superedge targets of supernode `s`, ascending: its row of the
    /// supernode graph.
    pub fn targets(&self, s: u32) -> &[u32] {
        let s = s as usize;
        &self.targets[self.row_start[s] as usize..self.row_start[s + 1] as usize]
    }

    /// Number of domains in the domain index.
    pub fn num_domains(&self) -> u32 {
        (self.domain_start.len() - 1) as u32
    }

    /// Supernodes holding pages of `domain`, ascending (none for a domain
    /// beyond the index).
    pub fn supernodes_of_domain(&self, domain: u32) -> &[u32] {
        let d = domain as usize;
        match (self.domain_start.get(d), self.domain_start.get(d + 1)) {
            (Some(&a), Some(&b)) => &self.domain_members[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Number of graphs (intranode and superedge) in the index files.
    pub fn num_blobs(&self) -> u64 {
        self.blob_word.len() as u64
    }

    /// Linear index of supernode `s`'s intranode graph; its superedge
    /// graph `k` (in row order) is the one `1 + k` after it.
    pub fn intra_blob(&self, s: u32) -> u64 {
        u64::from(s) + u64::from(self.row_start[s as usize])
    }

    /// Where graph `blob` (a linear index below [`ResidentIndex::num_blobs`])
    /// lies in the index files: it starts where the graph before it ends,
    /// unless it opens its file.
    pub fn locator(&self, blob: u64) -> GraphLocator {
        let word = self.blob_word[blob as usize];
        let offset = match word & 1 << 3 != 0 {
            true => 0,
            false => self.blob_word[blob as usize - 1] >> END_SHIFT,
        };
        let byte_len = (word >> END_SHIFT) - offset;
        GraphLocator {
            file: (word >> FILE_SHIFT & ((1 << FILE_BITS) - 1)) as u32,
            offset,
            byte_len,
            bit_len: byte_len * 8 - (word & 7),
        }
    }
}

/// A [`ResidentIndex`] graph word: bits 0–2 the bit padding, bit 3 set
/// when the graph opens its index file, the file's number from
/// `FILE_SHIFT` (up to 2^20 files), the byte offset the graph ends at in
/// it from `END_SHIFT` (up to 1 TiB a file).
const FILE_SHIFT: u32 = 4;
const FILE_BITS: u32 = 20;
const END_SHIFT: u32 = FILE_SHIFT + FILE_BITS;

/// Writes one graph's size as γ(byte_len) plus 3 bits of bit padding.
fn put_size(w: &mut wg_bitio::BitWriter, loc: &GraphLocator) {
    wg_bitio::codes::write_gamma(w, loc.byte_len);
    let pad = loc.byte_len * 8 - loc.bit_len;
    debug_assert!(pad < 8);
    w.write_bits(pad, 3);
}

/// Replays [`IndexFileWriter`]'s rotation rule to rebuild locators from
/// sizes alone.
struct LocatorLayout {
    max_bytes: u64,
    file: u32,
    used: u64,
    first: bool,
}

impl LocatorLayout {
    fn new(max_bytes: u64) -> Self {
        Self {
            max_bytes: max_bytes.max(1),
            file: 0,
            used: 0,
            first: true,
        }
    }

    /// The next graph's index file, the byte offset it ends at there, and
    /// its bit padding.
    fn next(&mut self, sizes: &mut wg_bitio::Window<'_, '_>) -> Result<(u32, u64, u64)> {
        let byte_len = sizes.read_gamma()?;
        let pad = sizes.read_bits(3)?;
        if pad >= 8 || (byte_len == 0 && pad != 0) {
            return Err(SNodeError::Corrupt("invalid graph size entry"));
        }
        if !self.first && self.used > 0 && self.used.saturating_add(byte_len) > self.max_bytes {
            self.file += 1;
            self.used = 0;
        }
        self.first = false;
        // The end offset must fit its field of a resident index word.
        self.used = (self.used.checked_add(byte_len))
            .filter(|&end| end < 1 << (64 - END_SHIFT))
            .ok_or(SNodeError::Corrupt("graph sizes overflow their index file"))?;
        Ok((self.file, self.used, pad))
    }
}

/// The build-input → S-Node page-id renumbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Renumbering {
    /// `new_of_old[o]` = S-Node id of input page `o`.
    pub new_of_old: Vec<u32>,
    /// `old_of_new[n]` = input id of S-Node page `n`.
    pub old_of_new: Vec<u32>,
}

impl Renumbering {
    /// Builds the inverse map from `old_of_new`.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Self {
        let mut new_of_old = vec![0u32; old_of_new.len()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        Self {
            new_of_old,
            old_of_new,
        }
    }

    /// Whether every page keeps its id.
    pub fn is_identity(&self) -> bool {
        (self.old_of_new.iter().enumerate()).all(|(new, &old)| new == old as usize)
    }

    /// Writes `dir/pagemap.bin`.
    pub fn write(&self, dir: &Path) -> Result<()> {
        let mut out = Vec::with_capacity(8 + self.old_of_new.len() * 4);
        put_u32(&mut out, PAGEMAP_MAGIC);
        put_u32(&mut out, self.old_of_new.len() as u32);
        for &o in &self.old_of_new {
            put_u32(&mut out, o);
        }
        let mut f = File::create(dir.join("pagemap.bin"))?;
        f.write_all(&out)?;
        f.sync_data()?;
        Ok(())
    }

    /// Reads `dir/pagemap.bin`.
    pub fn read(dir: &Path) -> Result<Self> {
        let buf = read_whole_file(&dir.join("pagemap.bin"))?;
        let mut c = Cursor::new(&buf);
        if c.u32()? != PAGEMAP_MAGIC {
            return Err(SNodeError::Corrupt("bad pagemap magic"));
        }
        let n = c.u32()? as usize;
        let mut old_of_new = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let v = c.u32()?;
            if v as usize >= n {
                return Err(SNodeError::Corrupt("pagemap entry out of range"));
            }
            old_of_new.push(v);
        }
        Ok(Self::from_old_of_new(old_of_new))
    }
}

/// Append-side of the index files.
#[derive(Debug)]
pub struct IndexFileWriter {
    dir: PathBuf,
    max_bytes: u64,
    current: Option<BufWriter<File>>,
    current_no: u32,
    current_used: u64,
    total_bytes: u64,
}

impl IndexFileWriter {
    /// Creates a writer emitting `dir/index_NNN.bin` files capped at
    /// `max_bytes` each (graphs larger than the cap get a file to
    /// themselves).
    pub fn create(dir: &Path, max_bytes: u64) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1),
            current: None,
            current_no: 0,
            current_used: 0,
            total_bytes: 0,
        })
    }

    /// Appends one encoded graph, honouring the file-size cap, and returns
    /// where it landed.
    pub fn append(&mut self, bytes: &[u8], bit_len: u64) -> Result<GraphLocator> {
        let need = bytes.len() as u64;
        let must_rotate = match &self.current {
            None => true,
            Some(_) => self.current_used > 0 && self.current_used + need > self.max_bytes,
        };
        if must_rotate {
            if self.current.is_some() {
                self.close_current()?;
                self.current_no += 1;
            }
            let path = index_file_path(&self.dir, self.current_no);
            self.current = Some(BufWriter::new(File::create(path)?));
            self.current_used = 0;
        }
        let Some(f) = self.current.as_mut() else {
            // Rotation above guarantees an open file; fail cleanly if not.
            return Err(SNodeError::Corrupt("index file writer has no open file"));
        };
        f.write_all(bytes)?;
        let loc = GraphLocator {
            file: self.current_no,
            offset: self.current_used,
            byte_len: need,
            bit_len,
        };
        self.current_used += need;
        self.total_bytes += need;
        Ok(loc)
    }

    /// Total bytes written across all index files.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Flushes the open file's buffer and syncs its data, reporting either
    /// failure: a graph is not on disk until this has returned.
    fn close_current(&mut self) -> Result<()> {
        if let Some(f) = self.current.take() {
            let f = f
                .into_inner()
                .map_err(std::io::IntoInnerError::into_error)?;
            f.sync_data()?;
        }
        Ok(())
    }

    /// Flushes and closes the current file; returns `(total_bytes, files)`.
    pub fn finish(mut self) -> Result<(u64, u32)> {
        let files = if self.current.is_some() {
            self.current_no + 1
        } else {
            0
        };
        self.close_current()?;
        Ok((self.total_bytes, files))
    }
}

/// Registry counters for index-file I/O, created only when metrics were
/// enabled at open time (`core.disk.*`). `pages_fetched` counts 8 KiB
/// pages spanned by each graph read — the paper's disk-cost unit.
#[derive(Debug)]
struct DiskCounters {
    graph_reads: wg_obs::Counter,
    bytes_read: wg_obs::Counter,
    pages_fetched: wg_obs::Counter,
}

impl DiskCounters {
    fn auto() -> Option<Self> {
        if !wg_obs::metrics_enabled() {
            return None;
        }
        let reg = wg_obs::global();
        Some(Self {
            graph_reads: reg.counter("core.disk.graph_reads"),
            bytes_read: reg.counter("core.disk.bytes_read"),
            pages_fetched: reg.counter("core.disk.pages_fetched"),
        })
    }
}

/// 8 KiB pages spanned by the byte range `offset .. offset + len`.
fn pages_spanned(offset: u64, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let page = wg_store::PAGE_SIZE as u64;
    (offset + len - 1) / page - offset / page + 1
}

/// Bytes of one encoded graph: a borrow of the resident image of its index
/// file ([`IndexFileReader::read_blob`]). Holding the blob keeps the image
/// alive, copying nothing; it derefs to `[u8]`.
pub type Blob = wg_store::RegionSlice;

/// Read-side of the index files: each file read whole, through the retrying
/// shim, into a shared immutable [`wg_store::Region`] when the reader opens.
/// What a handle reads is what the directory held then — a later write to
/// the files never reaches it.
#[derive(Debug)]
pub struct IndexFileReader {
    /// Stream ids (one per index file) for simulated-disk seek accounting.
    streams: Vec<u64>,
    /// The resident images of the index files.
    resident: Vec<wg_store::Region>,
    /// Graph reads performed (physical I/O instrumentation).
    /// Atomic (not `Cell`) so the reader stays `Sync` for shared-handle
    /// concurrent navigation.
    #[allow(clippy::disallowed_types)] // A relaxed I/O counter.
    reads: std::sync::atomic::AtomicU64,
    counters: Option<DiskCounters>,
}

impl IndexFileReader {
    /// Reads every `index_NNN.bin` under `dir`, in order until the first
    /// number that is missing; a directory with none is an error. A fault
    /// injected into the shim surfaces here, retried, and never at a later
    /// [`IndexFileReader::read_blob`].
    pub fn open_resident(dir: &Path) -> Result<Self> {
        Self::open_holding(dir, 1)
    }

    /// [`IndexFileReader::open_resident`] for a directory whose `meta.bin`
    /// numbers `blobs` graphs: with none (an empty corpus), no index file
    /// need exist.
    #[allow(clippy::disallowed_types)] // Starts the I/O counter.
    pub(crate) fn open_holding(dir: &Path, blobs: u64) -> Result<Self> {
        let mut resident = Vec::new();
        loop {
            let path = index_file_path(dir, resident.len() as u32);
            match wg_store::Region::read(&path) {
                Ok(region) => resident.push(region),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(SNodeError::file_io(path, e)),
            }
        }
        if resident.is_empty() && blobs > 0 {
            return Err(SNodeError::Corrupt("no index files found"));
        }
        Ok(Self {
            streams: (resident.iter())
                .map(|_| wg_store::diskmodel::new_stream())
                .collect(),
            resident,
            reads: std::sync::atomic::AtomicU64::new(0),
            counters: DiskCounters::auto(),
        })
    }

    /// Bytes of the index files held resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.iter().map(|r| r.len() as u64).sum()
    }

    /// Reads one graph: a borrowed slice of its file's resident image,
    /// charged to every instrumentation layer — the read counter,
    /// `core.disk.*` and the simulated disk, which prices a read by its
    /// locator (Figure 11's cost unit).
    pub fn read_blob(&self, loc: &GraphLocator) -> Result<Blob> {
        let region = (self.resident.get(loc.file as usize))
            .ok_or(SNodeError::Corrupt("locator names a missing file"))?;
        let slice = region
            .slice(loc.offset as usize, loc.byte_len as usize)
            .ok_or(SNodeError::Corrupt("locator beyond resident index file"))?;
        wg_store::diskmodel::charge_read(
            self.streams[loc.file as usize],
            loc.offset,
            loc.byte_len as usize,
        );
        self.reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(c) = &self.counters {
            c.graph_reads.inc();
            c.bytes_read.add(loc.byte_len);
            c.pages_fetched.add(pages_spanned(loc.offset, loc.byte_len));
        }
        Ok(slice)
    }

    /// Physical graph reads performed.
    pub fn read_count(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Path of index file `no` under `dir` (`index_000.bin`, `index_001.bin`, …).
pub fn index_file_path(dir: &Path, no: u32) -> PathBuf {
    dir.join(format!("index_{no:03}.bin"))
}

/// Reads an entire file through the canonical shim (retried, injectable),
/// naming the path on failure so CLI diagnostics can report which file of
/// a half-written directory is missing or unreadable.
pub(crate) fn read_whole_file(path: &Path) -> Result<Vec<u8>> {
    wg_fault::read_file(path).map_err(|e| SNodeError::file_io(path, e))
}

// --- Little-endian scribbling ----------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(SNodeError::Corrupt("meta file truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// `n` little-endian words, bounds-checked at once.
    fn u32s(&mut self, n: usize) -> Result<impl Iterator<Item = u32> + 'a> {
        let n_bytes = n
            .checked_mul(4)
            .ok_or(SNodeError::Corrupt("meta word count overflows"))?;
        let b = self.bytes(n_bytes)?;
        Ok((b.chunks_exact(4)).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_snode_disk_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_meta() -> SNodeMeta {
        let supergraph = SupernodeGraph {
            adj: vec![vec![1], vec![0, 2], vec![]],
        };
        let loc = |f, o| GraphLocator {
            file: f,
            offset: o,
            byte_len: 10,
            bit_len: 77,
        };
        // Linear order: intra0, se(0,→1), intra1, se(1,→0), se(1,→2),
        // intra2 — six 10-byte graphs under a 30-byte cap = two files.
        SNodeMeta {
            num_pages: 9,
            range_start: vec![0, 4, 7, 9],
            supergraph_bits: 0, // recomputed on write
            supergraph,
            intranode_loc: vec![loc(0, 0), loc(0, 20), loc(1, 20)],
            superedge_loc: vec![vec![loc(0, 10)], vec![loc(1, 0), loc(1, 10)], vec![]],
            domain_supernodes: vec![vec![0, 2], vec![1]],
            max_file_bytes: 30,
            codec: CodecConfig::default(),
        }
    }

    #[test]
    fn meta_round_trips() {
        let dir = temp_dir("meta");
        let meta = sample_meta();
        meta.write(&dir).unwrap();
        let back = SNodeMeta::read(&dir).unwrap();
        assert_eq!(back.num_pages, 9);
        assert_eq!(back.range_start, meta.range_start);
        assert_eq!(back.supergraph, meta.supergraph);
        assert_eq!(back.intranode_loc, meta.intranode_loc);
        assert_eq!(back.superedge_loc, meta.superedge_loc);
        assert_eq!(back.domain_supernodes, meta.domain_supernodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supernode_of_uses_page_ranges() {
        let meta = sample_meta();
        assert_eq!(meta.supernode_of(0), 0);
        assert_eq!(meta.supernode_of(3), 0);
        assert_eq!(meta.supernode_of(4), 1);
        assert_eq!(meta.supernode_of(6), 1);
        assert_eq!(meta.supernode_of(7), 2);
        assert_eq!(meta.supernode_of(8), 2);
        assert_eq!(meta.page_range(1), 4..7);
        assert_eq!(meta.supernode_size(0), 4);
    }

    #[test]
    fn corrupt_meta_is_rejected() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("meta.bin"), [1, 2, 3, 4, 5]).unwrap();
        assert!(SNodeMeta::read(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_meta_is_rejected() {
        let dir = temp_dir("trunc");
        let meta = sample_meta();
        meta.write(&dir).unwrap();
        let full = std::fs::read(dir.join("meta.bin")).unwrap();
        std::fs::write(dir.join("meta.bin"), &full[..full.len() / 2]).unwrap();
        assert!(SNodeMeta::read(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_files_rotate_at_cap() {
        let dir = temp_dir("rotate");
        let mut w = IndexFileWriter::create(&dir, 100).unwrap();
        let a = w.append(&[1u8; 60], 480).unwrap();
        let b = w.append(&[2u8; 60], 480).unwrap(); // would exceed 100 → new file
        let c = w.append(&[3u8; 200], 1600).unwrap(); // oversized → own file
        let d = w.append(&[4u8; 10], 80).unwrap();
        assert_eq!(a.file, 0);
        assert_eq!(b.file, 1);
        assert_eq!(c.file, 2);
        assert_eq!(d.file, 3, "file 2 is already over cap");
        let (total, files) = w.finish().unwrap();
        assert_eq!(total, 330);
        assert_eq!(files, 4);

        let r = IndexFileReader::open_resident(&dir).unwrap();
        assert_eq!(r.resident_bytes(), 330);
        assert_eq!(&*r.read_blob(&a).unwrap(), [1u8; 60]);
        assert_eq!(&*r.read_blob(&b).unwrap(), [2u8; 60]);
        assert_eq!(&*r.read_blob(&c).unwrap(), [3u8; 200]);
        assert_eq!(&*r.read_blob(&d).unwrap(), [4u8; 10]);
        assert_eq!(r.read_count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graphs_pack_within_cap() {
        let dir = temp_dir("pack");
        let mut w = IndexFileWriter::create(&dir, 1000).unwrap();
        let mut locs = Vec::new();
        for i in 0..10u8 {
            locs.push(w.append(&[i; 50], 400).unwrap());
        }
        assert!(locs.iter().all(|l| l.file == 0), "500 bytes fit one file");
        // Offsets are consecutive — the linear ordering is physical.
        for (i, l) in locs.iter().enumerate() {
            assert_eq!(l.offset, i as u64 * 50);
        }
        w.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renumbering_round_trips() {
        let dir = temp_dir("renum");
        let r = Renumbering::from_old_of_new(vec![3, 0, 2, 1]);
        assert_eq!(r.new_of_old, vec![1, 3, 2, 0]);
        r.write(&dir).unwrap();
        let back = Renumbering::read(&dir).unwrap();
        assert_eq!(back, r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pages_spanned_counts_crossings() {
        let p = wg_store::PAGE_SIZE as u64;
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 1), 1);
        assert_eq!(pages_spanned(0, p), 1);
        assert_eq!(pages_spanned(0, p + 1), 2);
        assert_eq!(pages_spanned(p - 1, 2), 2);
        assert_eq!(pages_spanned(p, p), 1);
        assert_eq!(pages_spanned(3, 3 * p), 4);
    }

    #[test]
    fn reads_borrow_the_image_taken_at_open() {
        let dir = temp_dir("resident");
        let mut w = IndexFileWriter::create(&dir, 100).unwrap();
        let a = w.append(&[1u8; 60], 480).unwrap();
        let b = w.append(&[2u8; 60], 480).unwrap();
        w.finish().unwrap();
        let r = IndexFileReader::open_resident(&dir).unwrap();

        // What the directory holds after the open never reaches the handle.
        std::fs::write(index_file_path(&dir, 1), [9u8; 60]).unwrap();
        assert_eq!(&*r.read_blob(&b).unwrap(), [2u8; 60]);

        // Two reads of the same graph share backing memory, and each counts.
        let x = r.read_blob(&a).unwrap();
        let y = r.read_blob(&a).unwrap();
        assert!(std::ptr::eq(x.as_ptr(), y.as_ptr()), "no copy per read");
        assert_eq!(r.read_count(), 3);

        // A locator beyond a file, or naming none, is a structured error.
        let bogus = GraphLocator {
            file: 0,
            offset: 50,
            byte_len: 100,
            bit_len: 800,
        };
        assert!(r.read_blob(&bogus).is_err());
        assert!(r.read_blob(&GraphLocator { file: 2, ..a }).is_err());
        assert_eq!(r.read_count(), 3, "a failed read is not charged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_files_error() {
        let dir = temp_dir("missing");
        assert!(IndexFileReader::open_resident(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
