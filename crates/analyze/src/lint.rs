//! `wg-lint` — SN2xx source diagnostics over the [`crate::model`] source
//! model (`wgr lint`).
//!
//! Where the SN0xx/SN1xx codes audit the *on-disk representation*, the
//! SN2xx codes audit the *source tree* — specifically its readiness for
//! shared-state (`&self`) concurrent reads, the blocker in front of the
//! wg-serve query service:
//!
//! * **SN200** `mut-escape` — a `&mut self` method transitively reachable
//!   from the public query/navigation surface. The full set, ordered by
//!   call depth, is the wg-serve refactor worklist: it must shrink
//!   monotonically and never grow.
//! * **SN201** `sync-outside-allowlist` — a lock-acquisition or
//!   interior-mutability site outside the sanctioned sync module
//!   (`crates/obs`). Shared mutability must stay auditable in one place.
//! * **SN202** `alloc-in-zero-alloc-path` — an allocation call inside a
//!   declared zero-alloc function (`out_neighbors_into`,
//!   `out_neighbors_batch`, `decode_list_into`, the bitio decoders).
//! * **SN203** `mut-shadows-shared` — a public `&mut self` API whose name
//!   exists elsewhere as a `&self` twin: evidence the exclusivity is
//!   incidental, not inherent.
//!
//! SN210–SN214 re-host the five legacy `conventions` rules onto the token
//! model, with file/line spans instead of substring matches.
//!
//! All SN2xx findings are warnings: the committed `LINT_baseline.json`
//! pins today's set, and CI (`wgr lint --deny warn --baseline …`) fails on
//! any finding not in the baseline.

use crate::model::{self, FnModel, Receiver, SiteKind, SourceModel, Visibility};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::path::Path;

// ---------------------------------------------------------------------------
// Policy: where the rules apply
// ---------------------------------------------------------------------------

/// The public query surface: every `pub fn` in these trees is an SN200
/// entry point.
const ENTRY_FILE_PREFIXES: &[&str] = &["crates/query/src/", "crates/serve/src/"];

/// Navigation entry points by name in these files (the core read path;
/// `nav.rs` is listed ahead of the planned split out of `repr.rs`).
const ENTRY_NAV_FILES: &[&str] = &["crates/core/src/repr.rs", "crates/core/src/nav.rs"];
const ENTRY_NAV_NAMES: &[&str] = &["out_neighbors", "out_neighbors_into", "out_neighbors_batch"];

/// Construction barrier for the SN200 walk: functions with these names
/// build, open, or generate state *before* any request is served, so the
/// steady-state read path never runs them. They are neither entry points
/// nor traversed — a `&mut self` reachable only through construction is
/// setup, not a serving-time exclusivity hazard.
const CONSTRUCTION_NAMES: &[&str] = &[
    "build",
    "build_with_layout",
    "create",
    "create_files",
    "open",
    "open_existing",
    "open_with_budget",
    "open_transpose",
    "open_degraded",
    "open_mode",
    "discover",
    "generate",
    // Store population: `BTree::insert` / `HeapFile::insert` fill the
    // relational scheme before serving begins (write-once, read-many).
    // Barring the name also cuts the false edges every `HashMap::insert`
    // call would otherwise add to the name-resolved graph.
    "insert",
];

/// `&mut self` owners exempt from SN200 reporting: per-call local *value*
/// types (readers, cursors, builders) constructed inside a request and
/// never shared across threads. Exclusive access to a stack-local value is
/// not exclusive access to the representation.
const MUT_VALUE_OWNERS: &[&str] = &[
    "BitReader",
    "BitWriter",
    "Cursor",
    "Cur",
    "Nav",
    "LocatorLayout",
    "Rng",
    "GraphBuilder",
    "IndexFileWriter",
    // One wg-serve client owns one socket; connections are never shared.
    "Client",
    // One decode's view of a cached graph's memo: made on the decoder's
    // stack, it holds the memo's mutex from its first use to its drop.
    "LockedOnUse",
    // The state of one hash of one `GraphKey`, made and dropped by the
    // map lookup that asked for it.
    "KeyHasher",
    // The run-length size of one copy-mask, made and finished by the one
    // pricing of one reference candidate.
    "MaskRuns",
    // One list collection under construction: filled by the build that
    // made it (a supernode's links, a complement, a dictionary, k-means
    // vectors) and only read, through `FlatLists`, after that.
    "ListBuf",
];

/// `&mut self` owners that live *inside* a shared-state lock: `Pager` is a
/// field of `PoolInner`, which only exists behind `BufferPool`'s mutex, so
/// every serving-time call (flush/clear housekeeping) already holds the
/// pool lock; `Shard` (one `GraphCache` shard's graphs and eviction
/// order) only exists behind that shard's mutex. Exclusivity is provided
/// by the lock, not demanded of the caller.
const MUT_LOCKED_OWNERS: &[&str] = &["Pager", "Shard"];

/// Modules allowed to own locks and interior mutability (SN201): the
/// metrics registry plus the shared-read-path state (sharded caches,
/// scratch pools, buffer pool, degradation bookkeeping, the server).
const SYNC_ALLOW_PREFIXES: &[&str] = &[
    "crates/obs/src/",
    "crates/core/src/cache.rs",
    "crates/core/src/repr.rs",
    // The once-built list-stream directory of a superedge graph.
    "crates/core/src/subgraphs.rs",
    "crates/store/src/buffer.rs",
    "crates/query/src/reps.rs",
    "crates/serve/src/",
];

/// Declared zero-alloc functions by name (SN202), anywhere in the tree.
const ZERO_ALLOC_NAMES: &[&str] = &[
    "out_neighbors_into",
    "out_neighbors_batch",
    // The body of both: what it needs per group lives in `BatchScratch`.
    "batch_run",
    // The list decoders — `CachedGraph`'s, `ListsIndex`'s, a superedge
    // graph's — and what they decode with: everything is built in the
    // caller's `DecodeScratch` and output buffer.
    "decode_list_into",
    "targets_of_into",
    "stored_list_into",
    "apply_reference",
    "read_bounded_gap_list_into",
    "merge_sorted_u32",
    "complement_into",
    // The offsets-only scan behind `ListsIndex::parse`: per payload it
    // counts and checks, and must never build a list.
    "scan_payload",
    // Reference selection's cost probe, up to 32 per list: one merge of
    // the two lists that builds nothing. The writer's diff against the
    // parent chosen fills the caller's scratch (`clear`/`resize`/`push` on
    // a `&mut Vec` is reuse) and must never make a buffer of its own.
    "ref_cost_within",
    "diff_into",
];

/// In the bitio crate, every `read_*` decoder is a declared zero-alloc
/// path as well.
const ZERO_ALLOC_BITIO_PREFIX: &str = "crates/bitio/src/";

/// Crates whose sources parse untrusted bytes: every file under them is
/// on the decode path (SN210) unless explicitly excluded below.
const DECODE_CRATE_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/bitio/src/",
    "crates/store/src/",
    "crates/fault/src/",
    "crates/analyze/src/",
];

/// Explicit decode-path exclusions: build-side or tooling files that never
/// see untrusted bytes. Everything else under the decode crates is checked
/// by default, so a newly added file cannot silently escape SN210.
const DECODE_PATH_EXCLUDE: &[&str] = &[
    // Build side: consumes the in-memory corpus the generator produced.
    "crates/core/src/build.rs",
    "crates/core/src/kmeans.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/lib.rs",
    // Fault-injection planner: test tooling that fabricates damage.
    "crates/fault/src/plan.rs",
    "crates/fault/src/lib.rs",
    // Crate roots that only re-export (no decode logic).
    "crates/bitio/src/lib.rs",
    "crates/store/src/lib.rs",
    // Disk-model calculator: arithmetic over trusted stats, no parsing.
    "crates/store/src/diskmodel.rs",
];

/// Only `crates/obs` may touch `std::time::Instant` directly (SN211).
const INSTANT_ALLOW_PREFIXES: &[&str] = &["crates/obs/src/"];

/// Only `crates/fault` (the I/O shim) may issue raw *storage* reads
/// (SN212). `crates/serve` reads sockets, not files: wg-fault models disk
/// faults, while a broken peer is ordinary network failure handled by the
/// protocol layer, so the serve crate is exempt.
const RAW_READ_ALLOW_PREFIXES: &[&str] = &["crates/fault/src/", "crates/serve/src/"];

// ---------------------------------------------------------------------------
// Codes and findings
// ---------------------------------------------------------------------------

/// Stable source-diagnostic codes (`SN2xx`). See DESIGN.md appendix
/// "Diagnostic codes" for the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// SN200: `&mut self` method reachable from the query surface.
    MutEscape,
    /// SN201: lock/interior-mutability site outside the sync allowlist.
    SyncOutsideAllowlist,
    /// SN202: allocation inside a declared zero-alloc function.
    AllocInZeroAllocPath,
    /// SN203: public `&mut self` API shadowing a `&self` twin.
    MutShadowsShared,
    /// SN210: panic token on the decode path (legacy conventions rule 2).
    DecodePathPanic,
    /// SN211: raw `Instant` outside `crates/obs` (legacy rule 4).
    RawInstant,
    /// SN212: raw file read outside `crates/fault` (legacy rule 5).
    RawRead,
    /// SN213: crate root missing `#![forbid(unsafe_code)]` (legacy rule 1).
    MissingForbidUnsafe,
    /// SN214: duplicate `Corrupt` message (legacy rule 3).
    DuplicateCorruptMessage,
}

impl LintCode {
    /// Stable code string.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::MutEscape => "SN200",
            LintCode::SyncOutsideAllowlist => "SN201",
            LintCode::AllocInZeroAllocPath => "SN202",
            LintCode::MutShadowsShared => "SN203",
            LintCode::DecodePathPanic => "SN210",
            LintCode::RawInstant => "SN211",
            LintCode::RawRead => "SN212",
            LintCode::MissingForbidUnsafe => "SN213",
            LintCode::DuplicateCorruptMessage => "SN214",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::MutEscape => "mut-escape",
            LintCode::SyncOutsideAllowlist => "sync-outside-allowlist",
            LintCode::AllocInZeroAllocPath => "alloc-in-zero-alloc-path",
            LintCode::MutShadowsShared => "mut-shadows-shared",
            LintCode::DecodePathPanic => "decode-path-panic",
            LintCode::RawInstant => "raw-instant",
            LintCode::RawRead => "raw-read",
            LintCode::MissingForbidUnsafe => "missing-forbid-unsafe",
            LintCode::DuplicateCorruptMessage => "duplicate-corrupt-message",
        }
    }

    /// All codes, for table rendering and counting.
    pub const ALL: [LintCode; 9] = [
        LintCode::MutEscape,
        LintCode::SyncOutsideAllowlist,
        LintCode::AllocInZeroAllocPath,
        LintCode::MutShadowsShared,
        LintCode::DecodePathPanic,
        LintCode::RawInstant,
        LintCode::RawRead,
        LintCode::MissingForbidUnsafe,
        LintCode::DuplicateCorruptMessage,
    ];
}

/// One SN2xx finding, anchored to a file/line span.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Stable code.
    pub code: LintCode,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing (or offending) function symbol, `-` when none.
    pub symbol: String,
    /// The offending token or name, `-` when not applicable.
    pub what: String,
    /// Human message.
    pub message: String,
}

impl LintFinding {
    /// Stable identity for baseline comparison: deliberately excludes the
    /// line number so unrelated edits that shift lines do not churn the
    /// baseline. New files, new symbols, or new token kinds are new keys.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.code.as_str(),
            self.file,
            self.symbol,
            self.what
        )
    }
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warning [{} {}] {}:{}: {}",
            self.code.as_str(),
            self.code.name(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// One SN200 worklist entry: a `&mut self` method the wg-serve refactor
/// must convert to shared access, ordered by distance from the entry
/// points (shallowest first — the natural refactor order).
#[derive(Debug, Clone)]
pub struct WorklistEntry {
    /// `Type::method`.
    pub symbol: String,
    /// Defining file.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// BFS depth from the nearest entry point (0 = is an entry point).
    pub depth: u32,
    /// One witness caller (`-` for entry points themselves).
    pub via: String,
    /// True for `pub` items.
    pub public: bool,
}

/// Everything one `wgr lint` run produced.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (code, file, line).
    pub findings: Vec<LintFinding>,
    /// The SN200 refactor worklist, ordered by (depth, file, line).
    pub worklist: Vec<WorklistEntry>,
    /// Files parsed into the model.
    pub files_scanned: usize,
    /// Functions modeled (non-test).
    pub fns_modeled: usize,
}

impl LintReport {
    /// Per-code finding counts.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for c in LintCode::ALL {
            m.insert(c.as_str(), 0usize);
        }
        for f in &self.findings {
            if let Some(v) = m.get_mut(f.code.as_str()) {
                *v += 1;
            }
        }
        m
    }

    /// Total number of findings.
    pub fn num_findings(&self) -> usize {
        self.findings.len()
    }

    /// Machine-readable form (stable key order, no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\":{");
        out.push_str(&format!(
            "\"files\":{},\"functions\":{},\"findings\":{},\"worklist\":{},\"counts\":{{",
            self.files_scanned,
            self.fns_modeled,
            self.findings.len(),
            self.worklist.len()
        ));
        for (i, (code, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{code}\":{n}"));
        }
        out.push_str("}},\"worklist\":[");
        for (i, w) in self.worklist.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"symbol\":\"");
            crate::json_escape_into(&mut out, &w.symbol);
            out.push_str("\",\"file\":\"");
            crate::json_escape_into(&mut out, &w.file);
            out.push_str(&format!(
                "\",\"line\":{},\"depth\":{},\"via\":\"",
                w.line, w.depth
            ));
            crate::json_escape_into(&mut out, &w.via);
            out.push_str(&format!("\",\"public\":{}}}", w.public));
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(f.code.as_str());
            out.push_str("\",\"name\":\"");
            out.push_str(f.code.name());
            out.push_str("\",\"severity\":\"warning\",\"file\":\"");
            crate::json_escape_into(&mut out, &f.file);
            out.push_str(&format!("\",\"line\":{},\"symbol\":\"", f.line));
            crate::json_escape_into(&mut out, &f.symbol);
            out.push_str("\",\"what\":\"");
            crate::json_escape_into(&mut out, &f.what);
            out.push_str("\",\"key\":\"");
            crate::json_escape_into(&mut out, &f.key());
            out.push_str("\",\"message\":\"");
            crate::json_escape_into(&mut out, &f.message);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.findings {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} finding(s) over {} files, {} functions; SN200 worklist: {} method(s)",
            self.findings.len(),
            self.files_scanned,
            self.fns_modeled,
            self.worklist.len()
        )
    }
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// Runs every SN2xx rule over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let model = model::parse_workspace(root)?;
    Ok(lint_model(&model))
}

/// Runs every SN2xx rule over an already-parsed model (fixture tests call
/// this directly).
pub fn lint_model(model: &SourceModel) -> LintReport {
    let mut findings = Vec::new();
    let worklist = rule_mut_escape(model, &mut findings);
    rule_sync_allowlist(model, &mut findings);
    rule_zero_alloc(model, &mut findings);
    rule_mut_shadows_shared(model, &mut findings);
    rule_decode_panics(model, &mut findings);
    rule_raw_instant(model, &mut findings);
    rule_raw_reads(model, &mut findings);
    rule_forbid_unsafe(model, &mut findings);
    rule_corrupt_unique(model, &mut findings);
    findings.sort_by(|a, b| {
        (a.code, &a.file, a.line, &a.what).cmp(&(b.code, &b.file, b.line, &b.what))
    });
    LintReport {
        findings,
        worklist,
        files_scanned: model.files.len(),
        fns_modeled: model
            .files
            .iter()
            .filter(|f| !f.vendored)
            .map(|f| f.fns.iter().filter(|m| !m.in_test).count())
            .sum(),
    }
}

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// A node in the call graph: (file index, fn index).
type Node = (usize, usize);

fn fn_at(model: &SourceModel, n: Node) -> Option<&FnModel> {
    model.files.get(n.0).and_then(|f| f.fns.get(n.1))
}

/// SN200: BFS over the conservative name-based call graph from the public
/// query/navigation entry points; every reached `&mut self` method is a
/// worklist entry and a finding.
fn rule_mut_escape(model: &SourceModel, findings: &mut Vec<LintFinding>) -> Vec<WorklistEntry> {
    // Name indexes over non-test, non-vendored functions.
    let mut by_method: HashMap<&str, Vec<Node>> = HashMap::new();
    let mut by_free: HashMap<&str, Vec<Node>> = HashMap::new();
    let mut by_qual: HashMap<(&str, &str), Vec<Node>> = HashMap::new();
    let mut entries: Vec<Node> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        if file.vendored {
            continue;
        }
        for (mi, m) in file.fns.iter().enumerate() {
            if m.in_test {
                continue;
            }
            let node = (fi, mi);
            if m.receiver == Receiver::None {
                by_free.entry(&m.name).or_default().push(node);
            } else {
                by_method.entry(&m.name).or_default().push(node);
            }
            if let Some(owner) = &m.owner {
                by_qual.entry((owner, &m.name)).or_default().push(node);
            }
            let is_entry = (m.vis == Visibility::Pub
                && starts_with_any(&file.path, ENTRY_FILE_PREFIXES))
                || (ENTRY_NAV_FILES.contains(&file.path.as_str())
                    && ENTRY_NAV_NAMES.contains(&m.name.as_str()));
            if is_entry && !CONSTRUCTION_NAMES.contains(&m.name.as_str()) {
                entries.push(node);
            }
        }
    }

    // BFS with parent tracking for witness chains.
    let mut depth: HashMap<Node, u32> = HashMap::new();
    let mut parent: HashMap<Node, Node> = HashMap::new();
    let mut queue: VecDeque<Node> = VecDeque::new();
    for &e in &entries {
        depth.entry(e).or_insert(0);
        queue.push_back(e);
    }
    while let Some(u) = queue.pop_front() {
        let Some(m) = fn_at(model, u) else { continue };
        let d = depth.get(&u).copied().unwrap_or(0);
        for call in &m.calls {
            let targets: Vec<Node> = if call.is_method {
                by_method
                    .get(call.name.as_str())
                    .cloned()
                    .unwrap_or_default()
            } else if let Some(q) = &call.qualifier {
                match by_qual.get(&(q.as_str(), call.name.as_str())) {
                    Some(v) => v.clone(),
                    None => by_free.get(call.name.as_str()).cloned().unwrap_or_default(),
                }
            } else {
                by_free.get(call.name.as_str()).cloned().unwrap_or_default()
            };
            for v in targets {
                if v == u || depth.contains_key(&v) {
                    continue;
                }
                // Construction barrier: build/open/discover style calls run
                // before serving, so the walk stops at them.
                if fn_at(model, v).is_some_and(|t| CONSTRUCTION_NAMES.contains(&t.name.as_str())) {
                    continue;
                }
                depth.insert(v, d + 1);
                parent.insert(v, u);
                queue.push_back(v);
            }
        }
    }

    // Collect reached &mut self methods, minus per-call local value types:
    // exclusivity over a stack-local reader/cursor/builder never blocks a
    // concurrent request.
    let mut reached: Vec<(Node, u32)> = depth
        .iter()
        .filter(|(&n, _)| {
            fn_at(model, n).is_some_and(|m| {
                m.receiver == Receiver::Mut
                    && !m.owner.as_deref().is_some_and(|o| {
                        MUT_VALUE_OWNERS.contains(&o) || MUT_LOCKED_OWNERS.contains(&o)
                    })
            })
        })
        .map(|(&n, &d)| (n, d))
        .collect();
    reached.sort_by_key(|&((fi, mi), d)| {
        let (file, line) = model
            .files
            .get(fi)
            .map(|f| (f.path.clone(), f.fns.get(mi).map_or(0, |m| m.line)))
            .unwrap_or_default();
        (d, file, line)
    });
    let mut worklist = Vec::new();
    for (node, d) in reached {
        let Some(m) = fn_at(model, node) else {
            continue;
        };
        let Some(file) = model.files.get(node.0) else {
            continue;
        };
        let via = parent
            .get(&node)
            .and_then(|&p| fn_at(model, p))
            .map_or_else(|| "-".to_string(), FnModel::symbol);
        let symbol = m.symbol();
        findings.push(LintFinding {
            code: LintCode::MutEscape,
            file: file.path.clone(),
            line: m.line,
            symbol: symbol.clone(),
            what: "-".to_string(),
            message: format!(
                "`{symbol}` takes `&mut self` and is reachable from the query surface \
                 (depth {d}, via {via}) — exclusive access blocks wg-serve"
            ),
        });
        worklist.push(WorklistEntry {
            symbol,
            file: file.path.clone(),
            line: m.line,
            depth: d,
            via,
            public: m.vis == Visibility::Pub,
        });
    }
    worklist
}

/// SN201: sync sites outside the allowlisted module.
fn rule_sync_allowlist(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        if file.vendored || starts_with_any(&file.path, SYNC_ALLOW_PREFIXES) {
            continue;
        }
        for s in &file.sites {
            if s.kind != SiteKind::Sync || s.in_test {
                continue;
            }
            let symbol = s
                .fn_idx
                .and_then(|i| file.fns.get(i))
                .map_or_else(|| "-".to_string(), FnModel::symbol);
            findings.push(LintFinding {
                code: LintCode::SyncOutsideAllowlist,
                file: file.path.clone(),
                line: s.line,
                symbol,
                what: s.what.clone(),
                message: format!(
                    "`{}` acquires a lock or constructs interior mutability outside \
                     the sanctioned sync module (crates/obs)",
                    s.what
                ),
            });
        }
    }
}

/// SN202: allocation calls inside declared zero-alloc functions.
fn rule_zero_alloc(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        if file.vendored {
            continue;
        }
        for s in &file.sites {
            if s.kind != SiteKind::Alloc || s.in_test {
                continue;
            }
            let Some(m) = s.fn_idx.and_then(|i| file.fns.get(i)) else {
                continue;
            };
            let declared = ZERO_ALLOC_NAMES.contains(&m.name.as_str())
                || (file.path.starts_with(ZERO_ALLOC_BITIO_PREFIX) && m.name.starts_with("read_"));
            if !declared || m.in_test {
                continue;
            }
            findings.push(LintFinding {
                code: LintCode::AllocInZeroAllocPath,
                file: file.path.clone(),
                line: s.line,
                symbol: m.symbol(),
                what: s.what.clone(),
                message: format!(
                    "`{}` allocates inside declared zero-alloc path `{}`",
                    s.what,
                    m.symbol()
                ),
            });
        }
    }
}

/// SN203: public `&mut self` APIs with a `&self` twin elsewhere.
fn rule_mut_shadows_shared(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    let mut shared_by_name: HashMap<&str, Vec<String>> = HashMap::new();
    for file in &model.files {
        if file.vendored {
            continue;
        }
        for m in &file.fns {
            if !m.in_test && m.receiver == Receiver::Shared {
                shared_by_name.entry(&m.name).or_default().push(m.symbol());
            }
        }
    }
    for file in &model.files {
        if file.vendored {
            continue;
        }
        for m in &file.fns {
            if m.in_test || m.receiver != Receiver::Mut || m.vis != Visibility::Pub {
                continue;
            }
            // Intentional exclusivity is not a shadow: build-side writers
            // (construction names), per-call value types, and lock-guarded
            // interiors keep `&mut self` by design.
            if CONSTRUCTION_NAMES.contains(&m.name.as_str())
                || m.owner.as_deref().is_some_and(|o| {
                    MUT_VALUE_OWNERS.contains(&o) || MUT_LOCKED_OWNERS.contains(&o)
                })
            {
                continue;
            }
            let Some(twins) = shared_by_name.get(m.name.as_str()) else {
                continue;
            };
            let sym = m.symbol();
            let Some(twin) = twins.iter().find(|t| **t != sym) else {
                continue;
            };
            findings.push(LintFinding {
                code: LintCode::MutShadowsShared,
                file: file.path.clone(),
                line: m.line,
                symbol: sym.clone(),
                what: "-".to_string(),
                message: format!(
                    "`{sym}` takes `&mut self` but `{twin}` offers the same operation \
                     under `&self` — the exclusivity is probably incidental"
                ),
            });
        }
    }
}

/// True when `path` is on the decode path (SN210).
pub fn is_decode_path(path: &str) -> bool {
    starts_with_any(path, DECODE_CRATE_PREFIXES) && !DECODE_PATH_EXCLUDE.contains(&path)
}

/// SN210: panic tokens on the decode path.
fn rule_decode_panics(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        if file.vendored || !is_decode_path(&file.path) {
            continue;
        }
        for s in &file.sites {
            if s.kind != SiteKind::Panic || s.in_test {
                continue;
            }
            let symbol = s
                .fn_idx
                .and_then(|i| file.fns.get(i))
                .map_or_else(|| "-".to_string(), FnModel::symbol);
            findings.push(LintFinding {
                code: LintCode::DecodePathPanic,
                file: file.path.clone(),
                line: s.line,
                symbol,
                what: s.what.clone(),
                message: format!(
                    "`{}` in non-test decode-path code — corrupt input must surface as \
                     SNodeError::Corrupt, never a panic",
                    s.what
                ),
            });
        }
    }
}

/// SN211: raw `Instant` outside `crates/obs`.
fn rule_raw_instant(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        if file.vendored || starts_with_any(&file.path, INSTANT_ALLOW_PREFIXES) {
            continue;
        }
        for s in &file.sites {
            if s.kind != SiteKind::Instant || s.in_test {
                continue;
            }
            let symbol = s
                .fn_idx
                .and_then(|i| file.fns.get(i))
                .map_or_else(|| "-".to_string(), FnModel::symbol);
            findings.push(LintFinding {
                code: LintCode::RawInstant,
                file: file.path.clone(),
                line: s.line,
                symbol,
                what: "Instant".to_string(),
                message: "raw `Instant` outside crates/obs — time through wg_obs::Stopwatch \
                          so durations reach the metrics registry"
                    .to_string(),
            });
        }
    }
}

/// SN212: raw reads outside the fault shim.
fn rule_raw_reads(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        if file.vendored || starts_with_any(&file.path, RAW_READ_ALLOW_PREFIXES) {
            continue;
        }
        for s in &file.sites {
            if s.kind != SiteKind::RawRead || s.in_test {
                continue;
            }
            let symbol = s
                .fn_idx
                .and_then(|i| file.fns.get(i))
                .map_or_else(|| "-".to_string(), FnModel::symbol);
            findings.push(LintFinding {
                code: LintCode::RawRead,
                file: file.path.clone(),
                line: s.line,
                symbol,
                what: s.what.clone(),
                message: format!(
                    "raw `{}` outside crates/fault — read through wg_fault::read_exact_at / \
                     wg_fault::read_file so fault injection covers it",
                    s.what
                ),
            });
        }
    }
}

/// SN213: crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_forbid_unsafe(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    for file in &model.files {
        let is_root = file.path == "src/lib.rs"
            || (file.path.ends_with("/src/lib.rs")
                && (file.path.starts_with("crates/") || file.path.starts_with("vendor/")));
        if !is_root {
            continue;
        }
        if !file.has_forbid_unsafe {
            findings.push(LintFinding {
                code: LintCode::MissingForbidUnsafe,
                file: file.path.clone(),
                line: 1,
                symbol: "-".to_string(),
                what: "-".to_string(),
                message: "crate root missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
}

/// SN214: every `Corrupt("...")` message is unique workspace-wide, so a
/// reported corruption pins down its origin. Only `crates/*/src` files
/// participate (matching the legacy rule's scope).
fn rule_corrupt_unique(model: &SourceModel, findings: &mut Vec<LintFinding>) {
    let mut seen: HashMap<&str, (&str, u32)> = HashMap::new();
    for file in &model.files {
        if file.vendored || !file.path.starts_with("crates/") {
            continue;
        }
        for (msg, line, in_test) in &file.corrupt_msgs {
            if *in_test {
                continue;
            }
            match seen.get(msg.as_str()) {
                Some((first_file, first_line)) => {
                    findings.push(LintFinding {
                        code: LintCode::DuplicateCorruptMessage,
                        file: file.path.clone(),
                        line: *line,
                        symbol: "-".to_string(),
                        what: msg.clone(),
                        message: format!(
                            "duplicate Corrupt message {msg:?} (first at {first_file}:{first_line})"
                        ),
                    });
                }
                None => {
                    seen.insert(msg, (&file.path, *line));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// Extracts the set of finding keys from a baseline JSON file previously
/// written by [`LintReport::to_json`] (or `wgr lint --json`). A minimal
/// scanner, not a JSON parser: it collects every `"key":"..."` value,
/// which is exactly what the writer emits and all the gate needs.
pub fn baseline_keys(json: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let needle = "\"key\":\"";
    let mut pos = 0usize;
    while let Some(found) = json.get(pos..).and_then(|s| s.find(needle)) {
        let start = pos + found + needle.len();
        let mut out = String::new();
        let mut chars = json.get(start..).map(str::chars);
        let mut consumed = 0usize;
        if let Some(ref mut it) = chars {
            let mut escaped = false;
            for c in it.by_ref() {
                consumed += c.len_utf8();
                if escaped {
                    out.push(c);
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    break;
                } else {
                    out.push(c);
                }
            }
        }
        keys.insert(out);
        pos = start + consumed.max(1);
    }
    keys
}

/// Splits a report against a baseline: findings whose [`LintFinding::key`]
/// is not in the baseline. An empty result means the gate passes.
pub fn new_findings<'r>(
    report: &'r LintReport,
    baseline: &BTreeSet<String>,
) -> Vec<&'r LintFinding> {
    let mut seen_dup: HashSet<String> = HashSet::new();
    report
        .findings
        .iter()
        .filter(|f| {
            let k = f.key();
            !baseline.contains(&k) && seen_dup.insert(k)
        })
        .collect()
}

/// The other side of [`new_findings`]: baseline keys that no finding of
/// the report matches any more. They are to be deleted from the baseline
/// file, so that it tolerates what exists and nothing that may come back.
pub fn stale_keys<'b>(report: &LintReport, baseline: &'b BTreeSet<String>) -> Vec<&'b String> {
    let live: HashSet<String> = report.findings.iter().map(LintFinding::key).collect();
    baseline.iter().filter(|k| !live.contains(*k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    fn model_of(files: &[(&str, &str)]) -> SourceModel {
        SourceModel {
            files: files.iter().map(|(p, s)| parse_file(p, s)).collect(),
        }
    }

    #[test]
    fn mut_escape_reaches_through_chain() {
        let m = model_of(&[
            (
                "crates/query/src/reps.rs",
                "impl Rep { pub fn out_neighbors(&mut self, p: u32) { self.inner.navigate(p); } }",
            ),
            (
                "crates/core/src/repr.rs",
                "impl SNode { pub fn navigate(&mut self, p: u32) { self.cache.get(p); } }\n\
                 impl GraphCache { pub fn get(&mut self, k: u32) {} }",
            ),
        ]);
        let r = lint_model(&m);
        let syms: Vec<&str> = r.worklist.iter().map(|w| w.symbol.as_str()).collect();
        assert!(syms.contains(&"Rep::out_neighbors"));
        assert!(syms.contains(&"SNode::navigate"));
        assert!(syms.contains(&"GraphCache::get"));
        // Depth ordering: the entry point first.
        assert_eq!(r.worklist[0].symbol, "Rep::out_neighbors");
        assert_eq!(r.worklist[0].depth, 0);
    }

    #[test]
    fn unreachable_mut_method_not_in_worklist() {
        let m = model_of(&[
            ("crates/query/src/lib.rs", "impl Q { pub fn run(&self) {} }"),
            (
                "crates/core/src/cache.rs",
                "impl GraphCache { pub fn insert(&mut self, k: u32) {} }",
            ),
        ]);
        let r = lint_model(&m);
        assert!(r.worklist.is_empty());
    }

    #[test]
    fn baseline_round_trip() {
        // disk.rs: not in SYNC_ALLOW_PREFIXES (cache.rs now is — it holds
        // the sharded shared-read caches).
        let m = model_of(&[(
            "crates/core/src/disk.rs",
            "impl C { fn f(&mut self) { let m = Mutex::new(0); m.lock(); } }",
        )]);
        let r = lint_model(&m);
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == LintCode::SyncOutsideAllowlist));
        let keys = baseline_keys(&r.to_json());
        assert_eq!(keys.len(), r.findings.len());
        assert!(
            new_findings(&r, &keys).is_empty(),
            "own report baselines itself"
        );
        // A fresh finding not in the baseline is caught.
        let m2 = model_of(&[(
            "crates/core/src/other.rs",
            "impl D { fn g(&mut self) { let m = Mutex::new(0); } }",
        )]);
        let r2 = lint_model(&m2);
        assert_eq!(new_findings(&r2, &keys).len(), 1);
        // And the baseline's keys are stale for a report without them.
        assert!(stale_keys(&r, &keys).is_empty());
        assert_eq!(stale_keys(&r2, &keys).len(), keys.len());
    }
}
