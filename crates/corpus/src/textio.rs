//! Plain-text corpus interchange format.
//!
//! Three files describe a repository, so that inputs can come from any
//! tool (or a real crawl) rather than only the synthetic generator:
//!
//! * `urls.txt` — one URL per line, line number = page id;
//! * `domains.txt` — domain names (one per line), a `--` separator, then
//!   one domain id per page;
//! * `edges.txt` — `src dst` pairs, whitespace-separated.
//!
//! The phrase assignments are optional (`phrases.txt`: the vocabulary,
//! `--`, then per page a space-separated phrase-id list, possibly empty).

use crate::{Corpus, CorpusConfig, DomainId, HostInfo, PageMeta, PhraseId};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use wg_graph::{GraphBuilder, PageId};

/// Errors from reading the text format.
#[derive(Debug)]
pub enum TextIoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structural problem in the input files.
    Malformed(String),
}

impl std::fmt::Display for TextIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextIoError::Io(e) => write!(f, "corpus I/O error: {e}"),
            TextIoError::Malformed(m) => write!(f, "malformed corpus: {m}"),
        }
    }
}

impl std::error::Error for TextIoError {}

impl From<std::io::Error> for TextIoError {
    fn from(e: std::io::Error) -> Self {
        TextIoError::Io(e)
    }
}

/// Writes `corpus` into `dir` in the text format (including phrases).
pub fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<(), TextIoError> {
    std::fs::create_dir_all(dir)?;
    let mut urls = BufWriter::new(std::fs::File::create(dir.join("urls.txt"))?);
    for p in &corpus.pages {
        writeln!(urls, "{}", p.url)?;
    }
    let mut doms = BufWriter::new(std::fs::File::create(dir.join("domains.txt"))?);
    for d in &corpus.domains {
        writeln!(doms, "{d}")?;
    }
    writeln!(doms, "--")?;
    for p in &corpus.pages {
        writeln!(doms, "{}", p.domain)?;
    }
    let mut edges = BufWriter::new(std::fs::File::create(dir.join("edges.txt"))?);
    for (u, v) in corpus.graph.edges() {
        writeln!(edges, "{u} {v}")?;
    }
    let mut phrases = BufWriter::new(std::fs::File::create(dir.join("phrases.txt"))?);
    for ph in &corpus.phrases {
        writeln!(phrases, "{ph}")?;
    }
    writeln!(phrases, "--")?;
    for set in &corpus.page_phrases {
        let line: Vec<String> = set.iter().map(|p| p.to_string()).collect();
        writeln!(phrases, "{}", line.join(" "))?;
    }
    Ok(())
}

/// Reads a corpus from `dir`. `phrases.txt` is optional; hosts are derived
/// from URL host names.
pub fn read_corpus(dir: &Path) -> Result<Corpus, TextIoError> {
    let urls: Vec<String> = BufReader::new(std::fs::File::open(dir.join("urls.txt"))?)
        .lines()
        .collect::<std::io::Result<_>>()?;
    let n = urls.len();

    // Domains.
    let dom_lines: Vec<String> = BufReader::new(std::fs::File::open(dir.join("domains.txt"))?)
        .lines()
        .collect::<std::io::Result<_>>()?;
    let sep = dom_lines
        .iter()
        .position(|l| l == "--")
        .ok_or_else(|| TextIoError::Malformed("domains.txt missing -- separator".into()))?;
    let domains: Vec<String> = dom_lines[..sep]
        .iter()
        .filter(|l| !l.starts_with('#'))
        .cloned()
        .collect();
    let page_domain: Vec<DomainId> = dom_lines[sep + 1..]
        .iter()
        .map(|l| {
            l.parse()
                .map_err(|_| TextIoError::Malformed(format!("bad domain id {l:?}")))
        })
        .collect::<Result<_, _>>()?;
    if page_domain.len() != n {
        return Err(TextIoError::Malformed(format!(
            "{} pages but {} page-domain lines",
            n,
            page_domain.len()
        )));
    }
    if let Some(&bad) = page_domain.iter().find(|&&d| d as usize >= domains.len()) {
        return Err(TextIoError::Malformed(format!(
            "page-domain id {bad} out of range"
        )));
    }

    // Hosts derived from URLs.
    fn host_name(url: &str) -> &str {
        let rest = url.strip_prefix("http://").unwrap_or(url);
        rest.split('/').next().unwrap_or(rest)
    }
    let mut host_ids: std::collections::HashMap<String, u32> = Default::default();
    let mut hosts: Vec<HostInfo> = Vec::new();
    let mut pages: Vec<PageMeta> = Vec::with_capacity(n);
    for (url, &domain) in urls.into_iter().zip(&page_domain) {
        let name = host_name(&url);
        let host = match host_ids.get(name) {
            Some(&id) => id,
            None => {
                let id = hosts.len() as u32;
                host_ids.insert(name.to_string(), id);
                hosts.push(HostInfo {
                    name: name.to_string(),
                    domain,
                    pages_by_url: Vec::new(),
                });
                id
            }
        };
        pages.push(PageMeta { url, host, domain });
    }
    for (pid, page) in pages.iter().enumerate() {
        hosts[page.host as usize].pages_by_url.push(pid as PageId);
    }
    for h in &mut hosts {
        h.pages_by_url
            .sort_by(|&a, &b| pages[a as usize].url.cmp(&pages[b as usize].url));
    }

    // Edges, streamed through one reused line buffer. A line is two ids
    // and two separators and most ids have as many digits as `n`, which
    // sizes the edge array from the file's length.
    let edges_file = std::fs::File::open(dir.join("edges.txt"))?;
    let line_len = 2 * n.to_string().len() as u64 + 2;
    let hint = edges_file.metadata()?.len() / line_len;
    let mut builder = GraphBuilder::with_edge_capacity(n as u32, hint as usize);
    let mut reader = BufReader::new(edges_file);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let Some((u, v)) = parse_edge_line(&line)? else {
            continue;
        };
        if u as usize >= n || v as usize >= n {
            return Err(TextIoError::Malformed(format!(
                "edge ({u}, {v}) out of range"
            )));
        }
        builder.add_edge(u, v);
    }
    let graph = builder.build();

    // Phrases (optional).
    let (phrases, page_phrases) = match std::fs::File::open(dir.join("phrases.txt")) {
        Err(_) => (Vec::new(), vec![Vec::new(); n]),
        Ok(f) => {
            let lines: Vec<String> = BufReader::new(f).lines().collect::<std::io::Result<_>>()?;
            let sep = lines
                .iter()
                .position(|l| l == "--")
                .ok_or_else(|| TextIoError::Malformed("phrases.txt missing --".into()))?;
            let phrases: Vec<String> = lines[..sep].to_vec();
            let mut page_phrases: Vec<Vec<PhraseId>> = Vec::with_capacity(n);
            for l in &lines[sep + 1..] {
                let mut set: Vec<PhraseId> = l
                    .split_whitespace()
                    .map(|t| {
                        t.parse()
                            .map_err(|_| TextIoError::Malformed(format!("bad phrase id {t:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                set.sort_unstable();
                set.dedup();
                page_phrases.push(set);
            }
            if page_phrases.len() != n {
                return Err(TextIoError::Malformed(
                    "phrases.txt page-line count mismatch".into(),
                ));
            }
            (phrases, page_phrases)
        }
    };

    Ok(Corpus {
        config: CorpusConfig::scaled(n.max(1) as u32, 0),
        domains,
        hosts,
        pages,
        graph,
        phrases,
        page_phrases,
    })
}

/// The two page ids of one `edges.txt` line, or `None` for a blank line.
///
/// The form every writer produces — decimal digits, ASCII whitespace — is
/// parsed from the bytes. Any other line goes to
/// [`parse_edge_line_general`], which decides what else is accepted and
/// words every rejection.
fn parse_edge_line(line: &[u8]) -> Result<Option<(u32, u32)>, TextIoError> {
    let mut pos = 0usize;
    if let (Some(u), Some(v)) = (ascii_id(line, &mut pos), ascii_id(line, &mut pos)) {
        // Whatever follows the two ids is ignored, but must be text.
        if line[pos..].is_ascii() {
            return Ok(Some((u, v)));
        }
    }
    parse_edge_line_general(line)
}

/// Skips ASCII whitespace from `*pos`, then reads one whitespace-delimited
/// run of decimal digits that fits a `u32`.
fn ascii_id(line: &[u8], pos: &mut usize) -> Option<u32> {
    let is_space = |b: u8| matches!(b, b' ' | b'\t'..=b'\r');
    while *pos < line.len() && is_space(line[*pos]) {
        *pos += 1;
    }
    let start = *pos;
    let mut id = 0u32;
    while *pos < line.len() && line[*pos].is_ascii_digit() {
        id = id
            .checked_mul(10)?
            .checked_add(u32::from(line[*pos] - b'0'))?;
        *pos += 1;
    }
    let delimited = *pos == line.len() || is_space(line[*pos]);
    (*pos > start && delimited).then_some(id)
}

/// [`parse_edge_line`] for any line at all: tokens split on Unicode
/// whitespace and parsed as `u32` (a leading `+` is accepted), with the
/// line quoted in the error when that fails.
fn parse_edge_line_general(line: &[u8]) -> Result<Option<(u32, u32)>, TextIoError> {
    let line = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let line = line.strip_suffix('\n').unwrap_or(line);
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.trim().is_empty() {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let parse = |tok: Option<&str>| -> Result<u32, TextIoError> {
        tok.ok_or_else(|| TextIoError::Malformed(format!("short edge line {line:?}")))?
            .parse()
            .map_err(|_| TextIoError::Malformed(format!("bad edge line {line:?}")))
    };
    let u = parse(it.next())?;
    let v = parse(it.next())?;
    Ok(Some((u, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Corpus;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_textio_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn round_trips_a_generated_corpus() {
        let dir = temp("rt");
        let corpus = Corpus::generate(CorpusConfig::scaled(800, 9));
        write_corpus(&dir, &corpus).unwrap();
        let back = read_corpus(&dir).unwrap();
        assert_eq!(back.domains, corpus.domains);
        assert_eq!(back.graph, corpus.graph);
        assert_eq!(back.phrases, corpus.phrases);
        assert_eq!(back.page_phrases, corpus.page_phrases);
        assert_eq!(
            back.pages.iter().map(|p| &p.url).collect::<Vec<_>>(),
            corpus.pages.iter().map(|p| &p.url).collect::<Vec<_>>()
        );
        // Hosts are reconstructed from URLs, so only hosts that actually
        // own pages exist after the round trip.
        let non_empty = corpus
            .hosts
            .iter()
            .filter(|h| !h.pages_by_url.is_empty())
            .count();
        assert_eq!(back.hosts.len(), non_empty);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_phrases_file_is_tolerated() {
        let dir = temp("nophrases");
        let corpus = Corpus::generate(CorpusConfig::scaled(100, 2));
        write_corpus(&dir, &corpus).unwrap();
        std::fs::remove_file(dir.join("phrases.txt")).unwrap();
        let back = read_corpus(&dir).unwrap();
        assert!(back.phrases.is_empty());
        assert_eq!(back.graph, corpus.graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        let dir = temp("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("urls.txt"),
            "http://a.x.com/p0\nhttp://a.x.com/p1\n",
        )
        .unwrap();
        // Missing separator.
        std::fs::write(dir.join("domains.txt"), "x.com\n0\n0\n").unwrap();
        std::fs::write(dir.join("edges.txt"), "0 1\n").unwrap();
        assert!(matches!(read_corpus(&dir), Err(TextIoError::Malformed(_))));
        // Fix separator, break an edge.
        std::fs::write(dir.join("domains.txt"), "x.com\n--\n0\n0\n").unwrap();
        std::fs::write(dir.join("edges.txt"), "0 7\n").unwrap();
        assert!(matches!(read_corpus(&dir), Err(TextIoError::Malformed(_))));
        // Domain id out of range.
        std::fs::write(dir.join("edges.txt"), "0 1\n").unwrap();
        std::fs::write(dir.join("domains.txt"), "x.com\n--\n0\n5\n").unwrap();
        assert!(matches!(read_corpus(&dir), Err(TextIoError::Malformed(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every shape of `edges.txt` line: what it parses to, or the message
    /// it is rejected with. The byte parser and the general parser must
    /// agree on all of them.
    #[test]
    fn edge_line_table() {
        type Edge = Option<(u32, u32)>;
        let ok: [(&[u8], Edge); 12] = [
            (b"0 1\n", Some((0, 1))),
            (b"0 1", Some((0, 1))),
            (b"  12\t 7  \r\n", Some((12, 7))),
            (b"007 4294967295\n", Some((7, u32::MAX))),
            (b"3 4 trailing tokens are ignored\n", Some((3, 4))),
            (b"+3 +4\n", Some((3, 4))),
            ("5\u{a0}6\n".as_bytes(), Some((5, 6))),
            (b"8 9 \xc3\xa9\n", Some((8, 9))),
            (b"", None),
            (b"\n", None),
            (b" \t \r\n", None),
            ("\u{2003}\n".as_bytes(), None),
        ];
        for (line, want) in ok {
            assert_eq!(parse_edge_line(line).unwrap(), want, "{line:?}");
            assert_eq!(parse_edge_line_general(line).unwrap(), want, "{line:?}");
        }
        let bad: [(&[u8], &str); 8] = [
            (b"7\n", "malformed corpus: short edge line \"7\""),
            (b"7 \r\n", "malformed corpus: short edge line \"7 \""),
            (b"7 x\n", "malformed corpus: bad edge line \"7 x\""),
            (b"1.5 2\n", "malformed corpus: bad edge line \"1.5 2\""),
            (b"-1 2\n", "malformed corpus: bad edge line \"-1 2\""),
            (b"12a 2\n", "malformed corpus: bad edge line \"12a 2\""),
            (
                b"4294967296 2\n",
                "malformed corpus: bad edge line \"4294967296 2\"",
            ),
            (
                b"0 1 \xff\n",
                "corpus I/O error: stream did not contain valid UTF-8",
            ),
        ];
        for (line, want) in bad {
            assert_eq!(parse_edge_line(line).unwrap_err().to_string(), want);
            assert_eq!(parse_edge_line_general(line).unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn edges_file_tolerates_blank_lines_and_rejects_out_of_range_ids() {
        let dir = temp("edgefile");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("urls.txt"),
            "http://a.x.com/p0\nhttp://a.x.com/p1\n",
        )
        .unwrap();
        std::fs::write(dir.join("domains.txt"), "x.com\n--\n0\n0\n").unwrap();
        // Blank lines, CRLF, trailing whitespace, a duplicate, no final newline.
        std::fs::write(dir.join("edges.txt"), "\n0 1 \r\n\n  \n1 0\n0 1").unwrap();
        let corpus = read_corpus(&dir).unwrap();
        assert_eq!(corpus.graph.edges().collect::<Vec<_>>(), [(0, 1), (1, 0)]);
        std::fs::write(dir.join("edges.txt"), "0 1\n1 2\n").unwrap();
        let err = read_corpus(&dir).unwrap_err().to_string();
        assert_eq!(err, "malformed corpus: edge (1, 2) out of range");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_corpus_builds_snode_ready_structures() {
        // A hand-written corpus (as an external tool would produce).
        let dir = temp("external");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("urls.txt"),
            "http://www.a.edu/x/p0.html\nhttp://www.a.edu/y/p1.html\nhttp://www.b.com/p2.html\n",
        )
        .unwrap();
        std::fs::write(dir.join("domains.txt"), "a.edu\nb.com\n--\n0\n0\n1\n").unwrap();
        std::fs::write(dir.join("edges.txt"), "0 1\n1 2\n2 0\n").unwrap();
        let corpus = read_corpus(&dir).unwrap();
        assert_eq!(corpus.num_pages(), 3);
        assert_eq!(corpus.graph.num_edges(), 3);
        assert_eq!(corpus.hosts.len(), 2);
        assert_eq!(corpus.pages_in_domain(0), vec![0, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
