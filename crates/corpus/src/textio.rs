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

use crate::{Corpus, DomainId, HostInfo, PageMeta, PhraseId};
use std::io::{BufRead, BufReader, Seek};
use std::path::Path;
use wg_graph::{Graph, GraphBuilder, PageId};

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

/// Writes `corpus` into `dir` in the text format (including phrases),
/// through the generator's text sink.
pub fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<(), TextIoError> {
    Ok(crate::stream::write_text(dir, corpus)?)
}

/// What a build reads of a corpus directory — URLs, page domains, links —
/// as three flat arrays, with nothing allocated per page: no phrases, no
/// host table, no domain names, which [`read_corpus`] has for the callers
/// that query a [`Corpus`].
#[derive(Debug)]
pub struct BuildInput {
    /// `urls.txt` as it was read: one URL per line, in page order.
    url_text: String,
    /// Domain id per page.
    pub domains: Vec<DomainId>,
    /// The Web graph.
    pub graph: Graph,
}

impl BuildInput {
    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.domains.len()
    }

    /// The URL of every page, borrowed from the one buffer that holds them.
    pub fn urls(&self) -> Vec<&str> {
        let mut urls = Vec::with_capacity(self.num_pages());
        urls.extend(self.url_text.lines());
        urls
    }
}

/// Reads what a build takes from the corpus at `dir`: every check of
/// [`read_corpus`], made by the same readers, in the same order and with
/// the same messages.
pub fn read_build_input(dir: &Path) -> Result<BuildInput, TextIoError> {
    let url_text = std::fs::read_to_string(dir.join("urls.txt"))?;
    let n = url_text.lines().count();
    let (_names, domains) = read_domains(dir, n)?;
    let graph = read_edges(dir, n)?.build();
    Ok(BuildInput {
        url_text,
        domains,
        graph,
    })
}

/// Reads a corpus from `dir`. `phrases.txt` is optional; hosts are derived
/// from URL host names.
pub fn read_corpus(dir: &Path) -> Result<Corpus, TextIoError> {
    let url_text = std::fs::read_to_string(dir.join("urls.txt"))?;
    let n = url_text.lines().count();
    let (domains, page_domain) = read_domains(dir, n)?;

    // Hosts derived from URLs.
    fn host_name(url: &str) -> &str {
        let rest = url.strip_prefix("http://").unwrap_or(url);
        rest.split('/').next().unwrap_or(rest)
    }
    let mut host_ids: std::collections::HashMap<String, u32> = Default::default();
    let mut hosts: Vec<HostInfo> = Vec::new();
    let mut pages: Vec<PageMeta> = Vec::with_capacity(n);
    for (url, &domain) in url_text.lines().zip(&page_domain) {
        let url = url.to_string();
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
    drop(url_text);
    for (pid, page) in pages.iter().enumerate() {
        hosts[page.host as usize].pages_by_url.push(pid as PageId);
    }
    for h in &mut hosts {
        h.pages_by_url
            .sort_by(|&a, &b| pages[a as usize].url.cmp(&pages[b as usize].url));
    }

    let graph = read_edges(dir, n)?.build();

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
                        let id: PhraseId = t
                            .parse()
                            .map_err(|_| TextIoError::Malformed(format!("bad phrase id {t:?}")))?;
                        if id as usize >= phrases.len() {
                            let msg = format!("phrase id {id} out of range");
                            return Err(TextIoError::Malformed(msg));
                        }
                        Ok(id)
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
        domains,
        hosts,
        pages,
        graph,
        phrases,
        page_phrases,
    })
}

/// `domains.txt`: the domain names (lines that start with `#` skipped)
/// and, after the `--` line, the domain id of each of the `n` pages.
fn read_domains(dir: &Path, n: usize) -> Result<(Vec<String>, Vec<DomainId>), TextIoError> {
    let text = std::fs::read_to_string(dir.join("domains.txt"))?;
    let mut lines = text.lines();
    let mut names: Vec<String> = Vec::new();
    let mut separated = false;
    for l in lines.by_ref() {
        if l == "--" {
            separated = true;
            break;
        }
        if !l.starts_with('#') {
            names.push(l.to_string());
        }
    }
    if !separated {
        return Err(TextIoError::Malformed(
            "domains.txt missing -- separator".into(),
        ));
    }
    let mut page_domain: Vec<DomainId> = Vec::with_capacity(n);
    for l in lines {
        let id = l
            .parse()
            .map_err(|_| TextIoError::Malformed(format!("bad domain id {l:?}")))?;
        page_domain.push(id);
    }
    if page_domain.len() != n {
        return Err(TextIoError::Malformed(format!(
            "{} pages but {} page-domain lines",
            n,
            page_domain.len()
        )));
    }
    if let Some(&bad) = page_domain.iter().find(|&&d| d as usize >= names.len()) {
        return Err(TextIoError::Malformed(format!(
            "page-domain id {bad} out of range"
        )));
    }
    Ok((names, page_domain))
}

/// `edges.txt` over `n` pages, as a builder that has every edge, streamed
/// through one reused line buffer. The builder's reservation is the
/// file's line count — the edge count, plus the blank lines and the
/// repeats — so it is never an under-estimate and the target array is
/// allocated once.
fn read_edges(dir: &Path, n: usize) -> Result<GraphBuilder, TextIoError> {
    let file = std::fs::File::open(dir.join("edges.txt"))?;
    let mut reader = BufReader::with_capacity(1 << 16, file);
    // Newlines, and a last line that has none.
    let (mut lines, mut last) = (0usize, b'\n');
    loop {
        let buf = match reader.fill_buf() {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            filled => filled?,
        };
        let Some(&end) = buf.last() else { break };
        lines += buf.iter().filter(|&&b| b == b'\n').count();
        last = end;
        let len = buf.len();
        reader.consume(len);
    }
    lines += usize::from(last != b'\n');
    let mut builder = GraphBuilder::with_edge_capacity(n as u32, lines);
    reader.rewind()?;
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
    Ok(builder)
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
    use crate::CorpusConfig;

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
        // Phrase id out of range: the vocabulary has one phrase.
        std::fs::write(dir.join("domains.txt"), "x.com\n--\n0\n0\n").unwrap();
        std::fs::write(dir.join("phrases.txt"), "mobile networking\n--\n0\n7\n").unwrap();
        let err = read_corpus(&dir).unwrap_err().to_string();
        assert_eq!(err, "malformed corpus: phrase id 7 out of range");
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

    /// What a build reads is what [`read_corpus`] reads, less what a build
    /// does not use.
    fn assert_same_input(dir: &Path) -> BuildInput {
        let corpus = read_corpus(dir).unwrap();
        let input = read_build_input(dir).unwrap();
        assert_eq!(input.num_pages(), corpus.pages.len());
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        assert_eq!(input.urls(), urls);
        let domains: Vec<DomainId> = corpus.pages.iter().map(|p| p.domain).collect();
        assert_eq!(input.domains, domains);
        assert_eq!(input.graph, corpus.graph);
        input
    }

    #[test]
    fn build_input_is_the_corpus_a_build_uses() {
        let dir = temp("buildinput");
        for (pages, seed) in [(0u32, 1u64), (1, 2), (700, 3), (2500, 4)] {
            let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
            write_corpus(&dir, &corpus).unwrap();
            let input = assert_same_input(&dir);
            assert_eq!(input.graph, corpus.graph);
        }

        // The same files with CRLF line ends.
        for name in ["urls.txt", "domains.txt", "edges.txt", "phrases.txt"] {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            std::fs::write(dir.join(name), text.replace('\n', "\r\n")).unwrap();
        }
        let crlf = assert_same_input(&dir);
        assert!(crlf.urls().iter().all(|u| !u.ends_with('\r')));

        // A hand-written corpus: `#` lines among the domain names, no
        // newline after the last URL, and edges out of order, repeated,
        // `+`-signed, between blank lines, with trailing tokens.
        std::fs::write(
            dir.join("urls.txt"),
            "http://a.x.com/é\r\nhttp://b.y.org/\n\nlast",
        )
        .unwrap();
        std::fs::write(
            dir.join("domains.txt"),
            "# names\nx.com\n#y.org\ny.org\n--\n0\n+1\n1\n1\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("edges.txt"),
            "\n3 0\n+1 +2 x\r\n \n0 1\n\n3 0\n0 1\n1\u{a0}3",
        )
        .unwrap();
        std::fs::remove_file(dir.join("phrases.txt")).unwrap();
        let input = assert_same_input(&dir);
        assert_eq!(
            input.urls(),
            ["http://a.x.com/é", "http://b.y.org/", "", "last"]
        );
        assert_eq!(input.domains, [0, 1, 1, 1]);
        assert!(input.graph.edges().eq([(0, 1), (1, 2), (1, 3), (3, 0)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every malformed file the tests of this module write, and what both
    /// readers say of it — the words are [`read_corpus`]' of old.
    #[test]
    fn both_readers_reject_malformed_files_in_the_same_words() {
        let dir = temp("badwords");
        std::fs::create_dir_all(&dir).unwrap();
        let good: [(&str, &[u8]); 3] = [
            ("urls.txt", b"http://a.x.com/p0\nhttp://a.x.com/p1\n"),
            ("domains.txt", b"x.com\n--\n0\n0\n"),
            ("edges.txt", b"0 1\n"),
        ];
        let utf8 = "corpus I/O error: stream did not contain valid UTF-8";
        let bad: [(&str, &[u8], &str); 13] = [
            ("urls.txt", b"http://a.x.com/p0\nhttp://\xff\n", utf8),
            (
                "domains.txt",
                b"x.com\n0\n0\n",
                "malformed corpus: domains.txt missing -- separator",
            ),
            (
                "domains.txt",
                b"x.com\n--\n0\nzero\n",
                "malformed corpus: bad domain id \"zero\"",
            ),
            (
                "domains.txt",
                b"x.com\n--\n0\n\n0\n",
                "malformed corpus: bad domain id \"\"",
            ),
            (
                "domains.txt",
                b"x.com\n--\n0\n",
                "malformed corpus: 2 pages but 1 page-domain lines",
            ),
            (
                "domains.txt",
                b"x.com\n--\n0\n0\n0\n",
                "malformed corpus: 2 pages but 3 page-domain lines",
            ),
            (
                "domains.txt",
                b"x.com\n--\n0\n5\n",
                "malformed corpus: page-domain id 5 out of range",
            ),
            (
                "domains.txt",
                b"#x.com\n--\n0\n0\n",
                "malformed corpus: page-domain id 0 out of range",
            ),
            ("domains.txt", b"x.com\n--\n0\n0\n\xc3\n", utf8),
            (
                "edges.txt",
                b"0 7\n",
                "malformed corpus: edge (0, 7) out of range",
            ),
            (
                "edges.txt",
                b"0 1\n1\n",
                "malformed corpus: short edge line \"1\"",
            ),
            (
                "edges.txt",
                b"0 1\n1 x\n",
                "malformed corpus: bad edge line \"1 x\"",
            ),
            ("edges.txt", b"0 1 \xff\n", utf8),
        ];
        for (name, bytes, want) in bad {
            for (name, bytes) in good {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            read_corpus(&dir).unwrap();
            std::fs::write(dir.join(name), bytes).unwrap();
            let corpus = read_corpus(&dir).unwrap_err().to_string();
            let input = read_build_input(&dir).unwrap_err().to_string();
            assert_eq!((corpus.as_str(), input.as_str()), (want, want), "{name}");
        }
        // A file that is not there.
        std::fs::remove_file(dir.join("edges.txt")).unwrap();
        let corpus = read_corpus(&dir).unwrap_err().to_string();
        assert_eq!(read_build_input(&dir).unwrap_err().to_string(), corpus);
        assert!(corpus.starts_with("corpus I/O error: "), "{corpus}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The edge array is allocated once, at a size that is not an
    /// under-estimate: the file's line count. (A file's length over its
    /// longest possible line, which this reader once reserved, is a floor:
    /// 3.35 M slots for the 3.63 M edges of a 300 k-page corpus, so the
    /// array doubled.)
    #[test]
    fn edge_array_never_outgrows_its_reservation() {
        let dir = temp("reserve");
        let corpus = Corpus::generate(CorpusConfig::scaled(6000, 8));
        write_corpus(&dir, &corpus).unwrap();
        let (n, edges) = (corpus.pages.len(), corpus.graph.num_edges() as usize);

        let text = std::fs::read_to_string(dir.join("edges.txt")).unwrap();
        let lines = text.lines().count();
        assert_eq!(lines, edges, "a generated file: one line per edge");
        let builder = read_edges(&dir, n).unwrap();
        assert_eq!(builder.edge_capacity(), lines, "reserved once, never grown");
        let graph = builder.build();
        assert_eq!(graph, corpus.graph);
        let slots = |bytes: usize| bytes / std::mem::size_of::<PageId>();
        assert!(slots(graph.heap_bytes() - 8 * (n + 1)) <= edges + 1);

        // Blank lines and repeats only add to the reservation; `build`
        // gives the slack back.
        let padded: String = text.lines().map(|l| format!("{l}\n\n{l}\n")).collect();
        std::fs::write(dir.join("edges.txt"), padded.trim_end()).unwrap();
        let builder = read_edges(&dir, n).unwrap();
        assert_eq!(builder.edge_capacity(), 3 * edges);
        let graph = builder.build();
        assert_eq!(graph, corpus.graph);
        assert!(slots(graph.heap_bytes() - 8 * (n + 1)) <= edges + 1);
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
