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
/// The one format: version 4, whose header carries a codec word after the
/// version, and in it the one word this version writes and reads, `g+st`:
/// in each list class's byte, `0x01` (the γ gap code) and bits 6 and 7 (the
/// two dictionary layouts a positive superedge graph may take beside its
/// list stream). Version 4 is version 3 with a checkpoint every [`GROUP`]
/// supernodes and the domain index as γ-coded gaps. Versions 1 to 3, and
/// a codec word without the dictionaries (`0x0101`, the paper's plain
/// format), are refused.
const META_VERSION: u32 = 4;
const CODEC_WORD: u32 = 0xC1C1;
const PAGEMAP_MAGIC: u32 = 0x534E_504D; // "SNPM"

/// Supernodes one checkpoint of `meta.bin` leads: an open decodes their
/// rows of the supernode graph and their entries of the size table
/// together, the first time one of them is asked for.
const GROUP: usize = 64;

/// One checkpoint on disk: the bit offsets into the row stream and the
/// size table and the superedges before the group (a `u32` each), and the
/// index file and byte offset the graph before it ends at (one `u64`, the
/// file above `PLACE_SHIFT`) — 160 bits.
const CHECKPOINT_BYTES: u64 = 20;
const PLACE_SHIFT: u32 = 40;

/// Bytes of `meta.bin`'s checkpoint section for `n` supernodes: one
/// checkpoint per group and one past the last.
pub(crate) fn checkpoint_section_len(n: u64) -> u64 {
    (n.div_ceil(GROUP as u64) + 1) * CHECKPOINT_BYTES
}

/// Reads the magic, the version and the codec word; shared by every reader
/// of `meta.bin` so all accept the one format.
fn read_header(c: &mut Cursor<'_>) -> Result<()> {
    if c.u32()? != META_MAGIC {
        return Err(SNodeError::Corrupt("bad meta magic"));
    }
    if c.u32()? != META_VERSION || c.u32()? != CODEC_WORD {
        return Err(SNodeError::Corrupt(
            "meta.bin is of an older or retired format than version 4 `g+st`: \
             rebuild the directory",
        ));
    }
    Ok(())
}

/// The format version of a `meta.bin` image an earlier version of this
/// format wrote (its magic, and a version word below this one's): what a
/// repair names when it replaces one.
pub fn earlier_meta_version(buf: &[u8]) -> Option<u32> {
    let word = |at: usize| Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?));
    let version = word(4)?;
    (word(0)? == META_MAGIC && version < META_VERSION).then_some(version)
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
    /// reconstructed by replaying the writer's rotation rule).
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

    /// Serialises to `dir/meta.bin`, returning the bytes written: the
    /// header and the PageID index, the supernode graph, the size table,
    /// the checkpoints and the domain index.
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
        let (sg_bytes, sg_bits, row_marks) = self.supergraph.encode_marked(GROUP);
        put_u64(&mut out, sg_bits);
        put_u64(&mut out, sg_bytes.len() as u64);
        out.extend_from_slice(&sg_bytes);
        put_u64(&mut out, self.max_file_bytes);
        // Per-graph sizes in linear order; everything else about a locator
        // is determined by the rotation rule.
        assert_eq!(self.intranode_loc.len(), n as usize);
        assert_eq!(self.superedge_loc.len(), n as usize);
        let mut sizes = wg_bitio::BitWriter::new();
        let mut marks = Vec::with_capacity(row_marks.len());
        // The file and the offset the last graph written ends at.
        let (mut superedges, mut place) = (0u64, (0u32, 0u64));
        for s in 0..n as usize {
            if s % GROUP == 0 {
                marks.push((sizes.bit_len(), superedges, place));
            }
            assert_eq!(self.superedge_loc[s].len(), self.supergraph.adj[s].len());
            for loc in std::iter::once(&self.intranode_loc[s]).chain(&self.superedge_loc[s]) {
                put_size(&mut sizes, loc);
                place = (loc.file, loc.offset + loc.byte_len);
            }
            superedges += self.superedge_loc[s].len() as u64;
        }
        marks.push((sizes.bit_len(), superedges, place));
        let (size_bytes, size_bits) = sizes.finish();
        put_u64(&mut out, size_bits);
        put_u64(&mut out, size_bytes.len() as u64);
        out.extend_from_slice(&size_bytes);
        for (&row_bit, &(size_bit, superedges, (file, used))) in row_marks.iter().zip(&marks) {
            let word = |v: u64| {
                u32::try_from(v).map_err(|_| {
                    SNodeError::Corrupt("meta.bin outgrows the 32-bit words of its checkpoints")
                })
            };
            put_u32(&mut out, word(row_bit)?);
            put_u32(&mut out, word(size_bit)?);
            put_u32(&mut out, word(superedges)?);
            if file >= 1 << FILE_BITS || used >= 1 << PLACE_SHIFT {
                return Err(SNodeError::Corrupt(
                    "index files outgrow what a checkpoint places",
                ));
            }
            put_u64(&mut out, u64::from(file) << PLACE_SHIFT | used);
        }
        // Each list as γ(length), then each member as the γ-coded zigzag of
        // its distance from the supernode after the member before it — for
        // a list's first member, after the previous list's first. A build
        // numbers each domain's first supernode in domain order, so a
        // first member takes one bit.
        let mut domains = wg_bitio::BitWriter::new();
        let mut first = 0i64;
        for list in &self.domain_supernodes {
            wg_bitio::codes::write_gamma(&mut domains, list.len() as u64);
            let mut next = first;
            for (k, &s) in list.iter().enumerate() {
                let gap = i64::from(s) - next;
                wg_bitio::codes::write_gamma(&mut domains, ((gap << 1) ^ (gap >> 63)) as u64);
                next = i64::from(s) + 1;
                if k == 0 {
                    first = next;
                }
            }
        }
        let (domain_bytes, domain_bits) = domains.finish();
        put_u32(&mut out, self.domain_supernodes.len() as u32);
        put_u64(&mut out, domain_bits);
        put_u64(&mut out, domain_bytes.len() as u64);
        out.extend_from_slice(&domain_bytes);
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
    /// [`ResidentIndex`] open with every group decoded, expanded into
    /// per-supernode vectors.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let index = ResidentIndex::parse(buf.to_vec())?;
        let n = index.num_supernodes();
        let mut adj = Vec::with_capacity(n as usize);
        let mut intranode_loc = Vec::with_capacity(n as usize);
        let mut superedge_loc = Vec::with_capacity(n as usize);
        for s in 0..n {
            let row = index.row(s)?;
            adj.push(row.targets().to_vec());
            intranode_loc.push(row.locator(0)?);
            let supers = (1..=row.targets().len()).map(|k| row.locator(k));
            superedge_loc.push(supers.collect::<Result<_>>()?);
        }
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

/// Where a group of [`GROUP`] supernodes starts in `meta.bin`'s sections:
/// the bit its first row starts at in the supernode graph's stream and
/// its first entry in the size table, the superedges (and so the graphs)
/// before it, and the index file and byte offset the graph before it
/// ends at — where the rotation rule stands when it places the group's
/// first graph.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    row_bit: u64,
    size_bit: u64,
    superedges: u32,
    file: u32,
    used: u64,
}

impl Checkpoint {
    fn read(c: &mut Cursor<'_>) -> Result<Self> {
        let (row_bit, size_bit, superedges) = (c.u32()?, c.u32()?, c.u32()?);
        let place = c.u64()?;
        Ok(Self {
            row_bit: row_bit.into(),
            size_bit: size_bit.into(),
            superedges,
            file: (place >> PLACE_SHIFT) as u32,
            used: place & ((1 << PLACE_SHIFT) - 1),
        })
    }
}

/// What a group's first touch decodes: its supernodes' rows of the
/// supernode graph and a locator word per graph.
#[derive(Debug)]
struct Group {
    /// The superedges before each supernode of the group, and before the
    /// next group: supernode `first + i`'s row is `targets[row_start[i] -
    /// row_start[0] .. row_start[i + 1] - row_start[0]]`.
    row_start: Box<[u32]>,
    targets: Box<[u32]>,
    /// Per graph in linear order (each supernode's intranode graph, then
    /// its superedge graphs in row order), one word: its bit padding,
    /// whether it opens its index file, the file's number, and the byte
    /// offset the graph ends at in it (see [`Row::locator`]).
    words: Box<[u64]>,
}

/// `meta.bin` as an open handle holds it: the PageID index and the domain
/// index decoded, the checkpoints read and checked, and the supernode
/// graph's rows and the size table left in the image until a group of
/// them is first asked for ([`ResidentIndex::row`]). Every group is
/// decoded by the one decoder of both; [`SNodeMeta::parse`] is this index
/// with every group decoded, expanded.
#[derive(Debug)]
#[allow(clippy::disallowed_types)] // A group is decoded once, on first touch, by any reader.
pub struct ResidentIndex {
    num_pages: u32,
    /// Supernode `s` owns page ids `range_start[s] .. range_start[s + 1]`.
    range_start: Vec<u32>,
    supergraph_bits: u64,
    max_file_bytes: u64,
    /// `meta.bin` whole, as read.
    image: Vec<u8>,
    /// The supernode graph's stream and the size table, in `image`.
    rows: std::ops::Range<usize>,
    sizes: std::ops::Range<usize>,
    /// One per group, and one past the last group.
    checkpoints: Vec<Checkpoint>,
    /// The supernode graph's code, read at the first group's decode.
    code: std::sync::OnceLock<Result<wg_bitio::HuffmanDecoder>>,
    groups: Box<[std::sync::OnceLock<Result<Group>>]>,
    /// Domain `d` is held by supernodes
    /// `domain_members[domain_start[d]..domain_start[d + 1]]`.
    domain_start: Vec<u32>,
    domain_members: Vec<u32>,
}

impl ResidentIndex {
    /// Opens an in-memory `meta.bin` image: reads the header, the page
    /// ranges, the checkpoints and the domain index, and checks that the
    /// checkpoints step forward through their sections, leave each group
    /// room for what it must hold, and end where the header's totals do.
    /// No row and no size is decoded.
    #[allow(clippy::disallowed_types)] // Starts the groups' cells, empty.
    pub fn parse(image: Vec<u8>) -> Result<Self> {
        let mut c = Cursor::new(&image);
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
        let rows = c.section()?;
        if sg_bits > rows.len() as u64 * 8 {
            return Err(SNodeError::Corrupt("supergraph bit length exceeds payload"));
        }
        let max_file_bytes = c.u64()?;
        let size_bits = c.u64()?;
        let sizes = c.section()?;
        if size_bits > sizes.len() as u64 * 8 {
            return Err(SNodeError::Corrupt("size table bit length exceeds payload"));
        }
        let groups = n.div_ceil(GROUP);
        let checkpoints = (0..=groups)
            .map(|_| Checkpoint::read(&mut c))
            .collect::<Result<Vec<_>>>()?;
        check_checkpoints(&checkpoints, n, sg_bits, size_bits)?;
        let (domain_start, domain_members) = read_domains(&mut c, n)?;
        Ok(Self {
            num_pages,
            range_start,
            supergraph_bits: sg_bits,
            max_file_bytes,
            rows,
            sizes,
            checkpoints,
            code: std::sync::OnceLock::new(),
            groups: (0..groups).map(|_| std::sync::OnceLock::new()).collect(),
            domain_start,
            domain_members,
            image,
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

    /// Number of superedges (the last checkpoint's count).
    pub fn num_superedges(&self) -> u64 {
        self.checkpoints
            .last()
            .map_or(0, |c| u64::from(c.superedges))
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

    /// Page-id range of supernode `s` (empty for one beyond the index).
    pub fn page_range(&self, s: u32) -> std::ops::Range<u32> {
        let s = s as usize;
        match (self.range_start.get(s), self.range_start.get(s + 1)) {
            (Some(&a), Some(&b)) => a..b,
            _ => 0..0,
        }
    }

    /// Number of pages in supernode `s`.
    pub fn supernode_size(&self, s: u32) -> u32 {
        self.page_range(s).len() as u32
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
        u64::from(self.num_supernodes()) + self.num_superedges()
    }

    /// Groups of supernodes decoded so far (an open decodes none).
    pub fn groups_decoded(&self) -> usize {
        self.groups.iter().filter(|g| g.get().is_some()).count()
    }

    /// Supernode `s`'s row of the supernode graph and the locators of its
    /// graphs, its group decoded first if no one has asked for one of
    /// its supernodes yet. `Corrupt` for a supernode beyond the index, or
    /// in a group that does not decode.
    pub fn row(&self, s: u32) -> Result<Row<'_>> {
        let (g, local) = (s as usize / GROUP, s as usize % GROUP);
        let cell = (self.groups.get(g))
            .ok_or(SNodeError::Corrupt("supernode beyond the resident index"))?;
        let group = match cell.get_or_init(|| self.decode_group(g)) {
            Ok(group) => group,
            Err(e) => return Err(again(e)),
        };
        let beyond = || SNodeError::Corrupt("supernode beyond its group");
        let base = group.row_start.first().ok_or_else(beyond)?;
        let (a, b) = match (group.row_start.get(local), group.row_start.get(local + 1)) {
            (Some(&a), Some(&b)) => ((a - base) as usize, (b - base) as usize),
            _ => return Err(beyond()),
        };
        // The graphs before `s` in the group: an intranode graph a
        // supernode, and the superedge graphs before its row.
        let first = local + a;
        let before = match first.checked_sub(1) {
            None => self.checkpoints[g].used,
            Some(k) => group.words.get(k).ok_or_else(beyond)? >> END_SHIFT,
        };
        Ok(Row {
            targets: group.targets.get(a..b).ok_or_else(beyond)?,
            words: group
                .words
                .get(first..first + 1 + b - a)
                .ok_or_else(beyond)?,
            first_blob: u64::from(s) + u64::from(*base) + a as u64,
            before,
        })
    }

    /// The supernode graph's code, read once.
    fn code(&self) -> Result<&wg_bitio::HuffmanDecoder> {
        match self.code.get_or_init(|| self.read_code()) {
            Ok(code) => Ok(code),
            Err(e) => Err(again(e)),
        }
    }

    fn read_code(&self) -> Result<wg_bitio::HuffmanDecoder> {
        let stream = &self.image[self.rows.clone()];
        let mut r = wg_bitio::BitReader::with_bit_len(stream, self.supergraph_bits);
        let code = crate::supergraph::read_code(&mut r)?;
        if code.num_symbols() != self.range_start.len() - 1 {
            return Err(SNodeError::Corrupt("supergraph size mismatch"));
        }
        if Some(r.position()) != self.checkpoints.first().map(|c| c.row_bit) {
            return Err(SNodeError::Corrupt(
                "the supernode graph's rows do not start at the first checkpoint",
            ));
        }
        Ok(code.decoder())
    }

    /// Group `g`'s decode: the one decoder of the supernode graph's rows
    /// and the size table a reader of this format runs.
    fn decode_group(&self, g: usize) -> Result<Group> {
        let code = self.code()?;
        if wg_obs::metrics_enabled() {
            wg_obs::global().counter("core.open.groups_decoded").inc();
        }
        let n = self.range_start.len() - 1;
        let (at, next) = (self.checkpoints[g], self.checkpoints[g + 1]);
        let members = (n - g * GROUP).min(GROUP);
        // The open checked that the checkpoints step forward, and that each
        // step has a bit at least for every target and four for every size:
        // the reservations are bounded by the group's bits.
        let edges = (next.superedges - at.superedges) as usize;
        let stream = &self.image[self.rows.clone()];
        let mut r = wg_bitio::BitReader::with_bit_len(stream, next.row_bit);
        r.seek(at.row_bit)?;
        let mut targets = Vec::with_capacity(edges);
        let mut row_start = Vec::with_capacity(members + 1);
        row_start.push(at.superedges);
        let mut w = r.window();
        crate::supergraph::read_rows(
            &mut w,
            code,
            n,
            members,
            edges as u64,
            &mut targets,
            &mut row_start,
        )?;
        let rows_end = w.position();

        let table = &self.image[self.sizes.clone()];
        let mut r = wg_bitio::BitReader::with_bit_len(table, next.size_bit);
        r.seek(at.size_bit)?;
        let mut sizes = r.window();
        let mut layout = LocatorLayout {
            max_bytes: self.max_file_bytes.max(1),
            file: at.file,
            used: at.used,
        };
        let mut words = Vec::with_capacity(members + edges);
        for k in 0..members + edges {
            // The directory's first graph opens file 0.
            words.push(layout.next(&mut sizes, g == 0 && k == 0)?);
        }
        if rows_end != next.row_bit
            || targets.len() != edges
            || sizes.position() != next.size_bit
            || (layout.file, layout.used) != (next.file, next.used)
        {
            return Err(SNodeError::Corrupt(
                "a group of supernodes does not end at the next checkpoint",
            ));
        }
        Ok(Group {
            row_start: row_start.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            words: words.into_boxed_slice(),
        })
    }
}

/// The error a group's decode stored, for another reader of the group.
fn again(e: &SNodeError) -> SNodeError {
    match e {
        SNodeError::Bits(e) => SNodeError::Bits(e.clone()),
        SNodeError::Corrupt(why) => SNodeError::Corrupt(why),
        _ => SNodeError::Corrupt("a group of supernodes failed to decode"),
    }
}

/// The checkpoints an open holds its groups to: the first at the start of
/// every section but the rows' (whose start the code's end fixes), each
/// after its predecessor by at least a bit per row, a bit per target, four
/// bits per size entry (a γ size and 3 pad bits) and the place its graphs
/// take, and the last inside the sections.
fn check_checkpoints(
    checkpoints: &[Checkpoint],
    n: usize,
    sg_bits: u64,
    size_bits: u64,
) -> Result<()> {
    let bad = || SNodeError::Corrupt("meta.bin checkpoints do not step through their sections");
    let first = checkpoints.first().ok_or_else(bad)?;
    if (first.size_bit, first.superedges, first.file, first.used) != (0, 0, 0, 0) {
        return Err(bad());
    }
    for (g, pair) in checkpoints.windows(2).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        let members = (n - g * GROUP).min(GROUP) as u64;
        let edges = u64::from(b.superedges.checked_sub(a.superedges).ok_or_else(bad)?);
        let rows = b.row_bit.checked_sub(a.row_bit).ok_or_else(bad)?;
        let sizes = b.size_bit.checked_sub(a.size_bit).ok_or_else(bad)?;
        if rows < members + edges
            || sizes < 4 * (members + edges)
            || (b.file, b.used) < (a.file, a.used)
            || b.file >= 1 << FILE_BITS
        {
            return Err(bad());
        }
    }
    let last = checkpoints.last().ok_or_else(bad)?;
    if last.row_bit > sg_bits || last.size_bit > size_bits {
        return Err(bad());
    }
    Ok(())
}

/// Reads the domain index: the domain count, the bit and byte lengths of
/// its stream, and the stream [`SNodeMeta::write`] describes.
fn read_domains(c: &mut Cursor<'_>, n: usize) -> Result<(Vec<u32>, Vec<u32>)> {
    let nd = c.u32()? as usize;
    let bits = c.u64()?;
    let len = c.u64()? as usize;
    let bytes = c.bytes(len)?;
    if bits > bytes.len() as u64 * 8 {
        return Err(SNodeError::Corrupt(
            "domain index bit length exceeds payload",
        ));
    }
    // Every list takes a bit at least, as does every member.
    if nd as u64 > bits {
        return Err(SNodeError::Corrupt(
            "domain index counts more lists than its bits hold",
        ));
    }
    let mut domain_start = Vec::with_capacity(nd + 1);
    domain_start.push(0);
    let mut domain_members = Vec::with_capacity(n.min(bits as usize));
    let mut r = wg_bitio::BitReader::with_bit_len(bytes, bits);
    let mut w = r.window();
    let beyond = || SNodeError::Corrupt("domain index names a supernode beyond the graph");
    let mut first = 0i64;
    for _ in 0..nd {
        let k = w.read_gamma()?;
        if k > w.remaining() {
            return Err(SNodeError::Corrupt(
                "a domain lists more supernodes than its bits hold",
            ));
        }
        let mut next = first;
        for member in 0..k {
            let z = w.read_gamma()?;
            let gap = (z >> 1) as i64 ^ -((z & 1) as i64);
            let s = next
                .checked_add(gap)
                .filter(|&s| (0..n as i64).contains(&s));
            let s = s.ok_or_else(beyond)?;
            domain_members.push(s as u32);
            next = s + 1;
            if member == 0 {
                first = next;
            }
        }
        domain_start.push(u32::try_from(domain_members.len()).map_err(|_| beyond())?);
    }
    Ok((domain_start, domain_members))
}

/// Supernode `s`'s part of a [`ResidentIndex`] ([`ResidentIndex::row`]).
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    targets: &'a [u32],
    /// The words of its intranode graph, then of its superedge graphs.
    words: &'a [u64],
    first_blob: u64,
    /// The byte offset the graph before its intranode graph ends at.
    before: u64,
}

impl<'a> Row<'a> {
    /// Superedge targets of the supernode, ascending.
    pub fn targets(&self) -> &'a [u32] {
        self.targets
    }

    /// Linear index of the supernode's intranode graph; its superedge
    /// graph `k` (in row order) is the one `1 + k` after it.
    pub fn intra_blob(&self) -> u64 {
        self.first_blob
    }

    /// Where the supernode's graph `k` lies in the index files: its
    /// intranode graph for 0, superedge graph `k - 1` after that. A graph
    /// starts where the graph before it ends, unless it opens its file.
    pub fn locator(&self, k: usize) -> Result<GraphLocator> {
        let word =
            *(self.words.get(k)).ok_or(SNodeError::Corrupt("graph beyond its supernode's row"))?;
        let offset = match (word & 1 << 3 != 0, k.checked_sub(1)) {
            (true, _) => 0,
            (false, None) => self.before,
            (false, Some(k)) => self.words[k] >> END_SHIFT,
        };
        let byte_len = (word >> END_SHIFT) - offset;
        Ok(GraphLocator {
            file: (word >> FILE_SHIFT & ((1 << FILE_BITS) - 1)) as u32,
            offset,
            byte_len,
            bit_len: byte_len * 8 - (word & 7),
        })
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
/// sizes alone: the index file it is writing, and the bytes in it.
struct LocatorLayout {
    max_bytes: u64,
    file: u32,
    used: u64,
}

impl LocatorLayout {
    /// The next graph's [`ResidentIndex`] word, from its size entry; it
    /// opens its file if it is the directory's `first` or the rule
    /// rotates to a new one for it.
    fn next(&mut self, sizes: &mut wg_bitio::Window<'_, '_>, first: bool) -> Result<u64> {
        let byte_len = sizes.read_gamma()?;
        let pad = sizes.read_bits(3)?;
        if pad >= 8 || (byte_len == 0 && pad != 0) {
            return Err(SNodeError::Corrupt("invalid graph size entry"));
        }
        let rotates = self.used > 0 && self.used.saturating_add(byte_len) > self.max_bytes;
        if rotates {
            self.file += 1;
            self.used = 0;
            if self.file >= 1 << FILE_BITS {
                return Err(SNodeError::Corrupt(
                    "more index files than a resident index numbers",
                ));
            }
        }
        // The end offset must fit its field of a resident index word.
        self.used = (self.used.checked_add(byte_len))
            .filter(|&end| end < 1 << (64 - END_SHIFT))
            .ok_or(SNodeError::Corrupt("graph sizes overflow their index file"))?;
        let opens = u64::from(first || rotates);
        Ok(self.used << END_SHIFT | u64::from(self.file) << FILE_SHIFT | opens << 3 | pad)
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
    /// A byte length, then that many bytes: where they lie in the buffer.
    fn section(&mut self) -> Result<std::ops::Range<usize>> {
        let len = self.u64()? as usize;
        let start = self.pos;
        self.bytes(len)?;
        Ok(start..self.pos)
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
    use wg_bitio::{codes, BitReader};

    /// A `meta.bin` image with every part decoded: what an index holds
    /// once every group has been asked for.
    #[derive(Debug, PartialEq, Eq)]
    struct Expanded {
        num_pages: u32,
        range_start: Vec<u32>,
        row_start: Vec<u32>,
        targets: Vec<u32>,
        supergraph_bits: u64,
        max_file_bytes: u64,
        blob_word: Vec<u64>,
        domain_start: Vec<u32>,
        domain_members: Vec<u32>,
    }

    /// The eager decode: every section in file order, a code at a time
    /// from the reader, the checkpoints skipped unread. The model the
    /// lazy open answers to.
    fn parse_model(buf: &[u8]) -> Result<Expanded> {
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
        let mut r = BitReader::with_bit_len(sg_bytes, sg_bits);
        let code = crate::supergraph::read_code(&mut r)?;
        if code.num_symbols() != n {
            return Err(SNodeError::Corrupt("supergraph size mismatch"));
        }
        let dec = code.decoder();
        let (mut row_start, mut targets) = (vec![0u32], Vec::new());
        for _ in 0..n {
            for _ in 0..codes::read_gamma(&mut r)? {
                targets.push(dec.decode(&mut r)?);
            }
            row_start.push(targets.len() as u32);
        }

        let max_file_bytes = c.u64()?;
        let size_bits = c.u64()?;
        let size_len = c.u64()? as usize;
        let size_bytes = c.bytes(size_len)?;
        if size_bits > size_bytes.len() as u64 * 8 {
            return Err(SNodeError::Corrupt("size table bit length exceeds payload"));
        }
        let mut r = BitReader::with_bit_len(size_bytes, size_bits);
        let (mut file, mut used, mut files) = (0u64, 0u64, 0u64);
        let mut blob_word = Vec::new();
        for _ in 0..n + targets.len() {
            let byte_len = codes::read_gamma(&mut r)?;
            let pad = r.read_bits(3)?;
            if byte_len == 0 && pad != 0 {
                return Err(SNodeError::Corrupt("invalid graph size entry"));
            }
            if used > 0 && used.saturating_add(byte_len) > max_file_bytes.max(1) {
                (file, used) = (file + 1, 0);
            }
            used = (used.checked_add(byte_len))
                .filter(|&end| end < 1 << 40)
                .ok_or(SNodeError::Corrupt("graph sizes overflow their index file"))?;
            let opens = file == files;
            files += u64::from(opens);
            if files > 1 << 20 {
                return Err(SNodeError::Corrupt(
                    "more index files than a resident index numbers",
                ));
            }
            blob_word.push(used << 24 | file << 4 | u64::from(opens) << 3 | pad);
        }

        c.bytes(checkpoint_section_len(n as u64) as usize)?;
        let nd = c.u32()?;
        let domain_bits = c.u64()?;
        let domain_len = c.u64()? as usize;
        let domain_bytes = c.bytes(domain_len)?;
        if domain_bits > domain_bytes.len() as u64 * 8 {
            return Err(SNodeError::Corrupt(
                "domain index bit length exceeds payload",
            ));
        }
        let mut r = BitReader::with_bit_len(domain_bytes, domain_bits);
        let (mut domain_start, mut domain_members, mut first) = (vec![0u32], Vec::new(), 0i128);
        for _ in 0..nd {
            let mut next = first;
            for member in 0..codes::read_gamma(&mut r)? {
                let z = i128::from(codes::read_gamma(&mut r)?);
                let s = next + if z % 2 == 0 { z / 2 } else { -(z + 1) / 2 };
                if !(0..n as i128).contains(&s) {
                    return Err(SNodeError::Corrupt(
                        "domain index names a supernode beyond the graph",
                    ));
                }
                domain_members.push(s as u32);
                next = s + 1;
                if member == 0 {
                    first = next;
                }
            }
            domain_start.push(domain_members.len() as u32);
        }
        Ok(Expanded {
            num_pages,
            range_start,
            row_start,
            targets,
            supergraph_bits: sg_bits,
            max_file_bytes,
            blob_word,
            domain_start,
            domain_members,
        })
    }

    /// The lazy open of `buf`, which decodes no group, with every group
    /// then asked for and every locator rebuilt; and, group by group, that
    /// what the decode reserved (a target and a word per graph) fits the
    /// group's bits (a bit a target, four a size entry).
    fn open_every_group(buf: &[u8]) -> Result<Expanded> {
        let index = ResidentIndex::parse(buf.to_vec())?;
        assert_eq!(index.groups_decoded(), 0, "an open decodes no group");
        let n = index.num_supernodes() as usize;
        for (g, pair) in index.checkpoints.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            let edges = u64::from(b.superedges - a.superedges);
            let members = (n - g * GROUP).min(GROUP) as u64;
            assert!(edges <= b.row_bit - a.row_bit);
            assert!(4 * (members + edges) <= b.size_bit - a.size_bit);
        }
        let (mut row_start, mut targets, mut blob_word) = (vec![0u32], Vec::new(), Vec::new());
        for s in 0..n as u32 {
            let row = index.row(s)?;
            targets.extend_from_slice(row.targets());
            row_start.push(targets.len() as u32);
            blob_word.extend_from_slice(row.words);
            for k in 0..=row.targets().len() {
                row.locator(k)?;
            }
        }
        assert_eq!(index.groups_decoded(), n.div_ceil(GROUP));
        Ok(Expanded {
            num_pages: index.num_pages,
            range_start: index.range_start.clone(),
            row_start,
            targets,
            supergraph_bits: index.supergraph_bits,
            max_file_bytes: index.max_file_bytes,
            blob_word,
            domain_start: index.domain_start.clone(),
            domain_members: index.domain_members.clone(),
        })
    }

    /// `meta.bin` of the 20 k-page seed-42 directory, built once a process.
    fn meta_20k() -> &'static [u8] {
        static META: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        META.get_or_init(|| {
            let corpus = wg_corpus::Corpus::generate(wg_corpus::CorpusConfig::scaled(20_000, 42));
            let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
            let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
            let input = crate::build::RepoInput {
                urls: &urls,
                domains: &domains,
                graph: &corpus.graph,
            };
            let dir = temp_dir("meta_20k");
            crate::build::build_snode(input, &crate::build::SNodeConfig::default(), &dir).unwrap();
            let meta = std::fs::read(dir.join("meta.bin")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            meta
        })
    }

    /// The lazy open with every group touched is the model's decode of
    /// `buf`, or an error; never an image the model refuses.
    fn assert_as_model(buf: &[u8], what: &dyn Fn() -> String) {
        let model = parse_model(buf);
        let got = open_every_group(buf);
        match (&model, &got) {
            (Ok(want), Ok(got)) => assert!(want == got, "{}", what()),
            (_, Err(_)) => {}
            (Err(_), Ok(_)) => panic!("{}: opens where the model refuses: {model:?}", what()),
        }
    }

    /// Every single-bit flip and every truncation of the 20 k `meta.bin`,
    /// and byte soup in each of its sections and alone: the lazy open with
    /// every group touched equals the eager model field for field, or is
    /// an error, and never panics. A debug build takes every 127th flip
    /// and truncation; a release build takes them all.
    #[test]
    fn every_group_of_a_damaged_image_decodes_as_the_eager_model() {
        let meta = meta_20k();
        let step = if cfg!(debug_assertions) { 127 } else { 1 };
        assert!(parse_model(meta).unwrap() == open_every_group(meta).unwrap());

        // In runs of 4 096 flips or truncations, spread over the machine.
        let threads = crate::par::resolve_threads(0);
        let bits = meta.len() * 8;
        crate::par::par_map(threads, bits.div_ceil(4096), |run| {
            let mut buf = meta.to_vec();
            for bit in (run * 4096..((run + 1) * 4096).min(bits)).step_by(step) {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_as_model(&buf, &|| format!("bit {bit} flipped"));
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        });
        crate::par::par_map(threads, meta.len().div_ceil(4096), |run| {
            for len in (run * 4096..((run + 1) * 4096).min(meta.len())).step_by(step) {
                assert_as_model(&meta[..len], &|| format!("truncated to {len} bytes"));
            }
        });

        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sections = crate::integrity::meta_section_bounds(meta).unwrap();
        for round in 0..500 {
            let mut buf = meta.to_vec();
            // A run of random bytes somewhere in one section, or the
            // section replaced whole.
            let (start, len) = sections[round % sections.len()];
            let (at, len) = match round % 2 {
                0 => {
                    let at = start as usize + (next() as usize) % len as usize;
                    (
                        at,
                        (1 + next() as usize % 64).min(start as usize + len as usize - at),
                    )
                }
                _ => (start as usize, len as usize),
            };
            buf[at..at + len].iter_mut().for_each(|b| *b = next() as u8);
            assert_as_model(&buf, &|| format!("soup round {round}: {len} bytes at {at}"));
        }
        for round in 0..100 {
            let len = next() as usize % 256;
            let soup: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_as_model(&soup, &|| format!("pure soup round {round}"));
        }
    }

    /// The checkpoints cost what they say: one per group of supernodes and
    /// one past the last, 160 bits each; and the domain index of a build,
    /// whose supernodes run consecutively, takes about a bit a supernode
    /// beside its list lengths.
    #[test]
    fn checkpoints_and_domain_lists_take_the_bits_they_should() {
        let meta = meta_20k();
        let n = u64::from(u32::from_le_bytes(meta[16..20].try_into().unwrap()));
        let [.., (_, checkpoints), (_, domains)] =
            crate::integrity::meta_section_bounds(meta).unwrap();
        assert_eq!(checkpoints, (n.div_ceil(64) + 1) * 20);
        let index = ResidentIndex::parse(meta.to_vec()).unwrap();
        let lists = u64::from(index.num_domains());
        // The count and two lengths, then γ(k) and a bit a member.
        assert!(domains * 8 <= 160 + 8 + lists * 13 + n, "{domains} bytes");
    }

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
