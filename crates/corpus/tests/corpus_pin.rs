//! Pins every field of `Corpus::generate` for three configurations: the
//! domain names, the host table (ids, names, domains, URL-sorted pages,
//! the hosts that got no page among them), each page's URL, host and
//! domain, the edges, the vocabulary and the phrase sets. The text files
//! show neither host ids nor empty hosts, so only this test holds the
//! in-memory corpus to what it was.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};

/// FNV-1a over a stream of fields, each length-prefixed so that adjacent
/// fields cannot trade bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[u32]) {
        self.u32(ids.len() as u32);
        for &id in ids {
            self.u32(id);
        }
    }
}

/// The hash of each field group of `c`, in the order of [`PINS`]' columns.
fn fingerprint(c: &Corpus) -> [u64; 6] {
    let mut domains = Fnv::new();
    for d in &c.domains {
        domains.bytes(d.as_bytes());
    }
    let mut hosts = Fnv::new();
    for h in &c.hosts {
        hosts.bytes(h.name.as_bytes());
        hosts.u32(h.domain);
        hosts.ids(&h.pages_by_url);
    }
    let mut pages = Fnv::new();
    for p in &c.pages {
        pages.bytes(p.url.as_bytes());
        pages.u32(p.host);
        pages.u32(p.domain);
    }
    let mut edges = Fnv::new();
    for (u, v) in c.graph.edges() {
        edges.u32(u);
        edges.u32(v);
    }
    let mut phrases = Fnv::new();
    for ph in &c.phrases {
        phrases.bytes(ph.as_bytes());
    }
    let mut sets = Fnv::new();
    for set in &c.page_phrases {
        sets.ids(set);
    }
    [domains.0, hosts.0, pages.0, edges.0, phrases.0, sets.0]
}

/// (pages, seed) → hosts, hosts without a page, edges, and the hashes of
/// the domains, hosts, pages, edges, vocabulary and phrase sets.
type Pin = ((u32, u64), usize, usize, u64, [u64; 6]);

const PINS: [Pin; 3] = [
    (
        (3_000, 42),
        297,
        37,
        31_973,
        [
            0xe466_3832_eebb_e37c,
            0x6a67_9a99_08c6_0859,
            0xc279_2d69_805f_c943,
            0x0a3b_4845_e2be_fc18,
            0x221e_3365_b781_e676,
            0x4827_4f78_0df0_2aac,
        ],
    ),
    (
        (777, 7),
        145,
        18,
        7_386,
        [
            0xd534_613d_bbc3_d11f,
            0xfbcd_5abc_8621_0795,
            0x0dd8_b09a_b226_80e7,
            0x1353_31c8_44ef_d241,
            0x34d2_1c6e_9683_4ced,
            0x1aaa_7ac5_f0f2_a3bd,
        ],
    ),
    (
        (0, 1),
        4,
        4,
        0,
        [
            0x851a_2622_36e9_3191,
            0xcd11_b197_1149_bfe7,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
            0x34d2_1c6e_9683_4ced,
            0xcbf2_9ce4_8422_2325,
        ],
    ),
];

#[test]
fn generated_corpora_are_pinned_field_by_field() {
    let got: Vec<Pin> = PINS
        .iter()
        .map(|&((pages, seed), ..)| {
            let c = Corpus::generate(CorpusConfig::scaled(pages, seed));
            let empty = c.hosts.iter().filter(|h| h.pages_by_url.is_empty());
            (
                (pages, seed),
                c.hosts.len(),
                empty.count(),
                c.graph.num_edges(),
                fingerprint(&c),
            )
        })
        .collect();
    assert_eq!(got, PINS, "{got:x?}");
}
