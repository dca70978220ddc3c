//! The server: shared context, bounded admission queue, worker pool.

use crate::proto::{self, Status};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wg_obs::{record_span_args, Stopwatch};
use wg_query::queries::{
    query1, query2, query3, query4, query5, query6, QueryEnv, QueryOutput, Workload,
};
use wg_query::{obsrun, DomainTable, GraphRep, PageRankIndex, TextIndex};

/// Everything a request needs, shared (immutably) by every worker. The
/// two `GraphRep` handles are the refactor's product: `&self` navigation
/// over one decoded representation, safe to hit from any thread.
pub struct ServeContext {
    /// The inverted phrase index.
    pub text: TextIndex,
    /// The PageRank index.
    pub pagerank: PageRankIndex,
    /// The domain table.
    pub domains: DomainTable,
    /// The discovered workload whose parameters opcodes 1–6 execute.
    pub workload: Workload,
    /// Forward-graph representation.
    pub fwd: Box<dyn GraphRep>,
    /// Transpose (backlink) representation.
    pub back: Box<dyn GraphRep>,
    /// Number of pages (bounds-checks raw navigation requests).
    pub num_pages: u32,
}

impl ServeContext {
    /// The borrowed query environment over this context's indexes.
    pub fn env(&self) -> QueryEnv<'_> {
        QueryEnv {
            text: &self.text,
            pagerank: &self.pagerank,
            domains: &self.domains,
        }
    }

    /// Runs workload query `n` (1–6) against the shared representations.
    pub fn run_query(&self, n: u8) -> wg_query::Result<QueryOutput> {
        let env = self.env();
        let w = &self.workload;
        match n {
            1 => query1(env, self.fwd.as_ref(), &w.q1),
            2 => query2(env, self.fwd.as_ref(), &w.q2),
            3 => query3(env, self.fwd.as_ref(), self.back.as_ref(), &w.q3),
            4 => query4(env, self.back.as_ref(), &w.q4),
            5 => query5(env, self.fwd.as_ref(), &w.q5),
            6 => query6(env, self.fwd.as_ref(), &w.q6),
            _ => Err(wg_query::QueryError::BadQuery("opcode out of range")),
        }
    }

    /// Merged degradation report across both representations; `None` when
    /// neither scheme supports graceful degradation.
    pub fn degraded(&self) -> Option<wg_snode::DegradedReport> {
        match (self.fwd.degraded(), self.back.degraded()) {
            (Some(f), Some(b)) => Some(wg_snode::DegradedReport {
                quarantined_supernodes: f.quarantined_supernodes + b.quarantined_supernodes,
                skipped_edges: f.skipped_edges + b.skipped_edges,
                retries: f.retries + b.retries,
            }),
            (one, other) => one.or(other),
        }
    }

    /// `Degraded` when any supernode is quarantined, else `Ok` — the
    /// per-response analogue of the wg-fault exit contract.
    fn answer_status(&self) -> Status {
        match self.degraded() {
            Some(d) if !d.is_clean() => Status::Degraded,
            _ => Status::Ok,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (connection owners). Default: one per core.
    pub workers: usize,
    /// Admission-queue bound: connections accepted but not yet claimed by
    /// a worker. Beyond it, new connections get `Overloaded` and close.
    pub queue_cap: usize,
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; read it back from
    /// [`Server::port`]).
    pub port: u16,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            // Floor of 2: a worker owns its connection until EOF, so a
            // single-worker server can never serve two held-open
            // connections — a foot-gun on one-core machines.
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().max(2)),
            queue_cap: 256,
            port: 0,
        }
    }
}

/// Cumulative request accounting, shared by all workers.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted into the admission queue.
    pub connections: AtomicU64,
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// Responses carrying `Status::Degraded`.
    pub degraded: AtomicU64,
    /// Responses carrying `Status::Error`.
    pub errors: AtomicU64,
    /// Connections refused with `Status::Overloaded`.
    pub overloaded: AtomicU64,
}

/// Bounded blocking MPMC queue of accepted connections.
struct Admission {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    cap: usize,
    closed: AtomicBool,
}

impl Admission {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap: cap.max(1),
            closed: AtomicBool::new(false),
        }
    }

    /// Non-blocking enqueue; a full queue hands the stream back so the
    /// acceptor can refuse it explicitly.
    fn push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut q = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if q.len() >= self.cap {
            return Err(s);
        }
        q.push_back(s);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking dequeue; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            q = match self.ready.wait(q) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// A running server. Dropping it without [`Server::shutdown`] detaches the
/// threads (the process usually exits right after); call `shutdown` for a
/// clean join.
pub struct Server {
    port: u16,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Admission>,
    stats: Arc<ServerStats>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Everything a worker thread needs per request: the immutable context
/// and the cumulative stats.
struct Shared {
    ctx: Arc<ServeContext>,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the acceptor and worker threads.
    pub fn start(ctx: Arc<ServeContext>, cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(Admission::new(cfg.queue_cap));
        let stats = Arc::new(ServerStats::default());

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let queue = Arc::clone(&queue);
            let shared = Shared {
                ctx: Arc::clone(&ctx),
                stats: Arc::clone(&stats),
            };
            workers.push(std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    serve_connection(&shared, stream);
                }
            }));
        }

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    match queue.push(stream) {
                        Ok(()) => {
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(refused) => {
                            stats.overloaded.fetch_add(1, Ordering::Relaxed);
                            refuse_overloaded(refused);
                        }
                    }
                }
            })
        };
        Ok(Server {
            port,
            shutdown,
            queue,
            stats,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) -> Arc<ServerStats> {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        drop(TcpStream::connect(("127.0.0.1", self.port)));
        if let Some(a) = self.acceptor.take() {
            drop(a.join());
        }
        self.queue.close();
        for w in self.workers.drain(..) {
            drop(w.join());
        }
        Arc::clone(&self.stats)
    }
}

/// Serves every request of one connection, then returns the worker to the
/// admission queue.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    drop(stream.set_nodelay(true));
    loop {
        let body = match proto::read_frame(&mut stream, proto::MAX_REQUEST) {
            Ok(Some(b)) => b,
            Ok(None) | Err(_) => return, // clean close or broken peer
        };
        let sw = Stopwatch::start();
        let (status, payload, span) = dispatch(shared.ctx.as_ref(), &body);
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            Status::Degraded => {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            Status::Error => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let mut frame = Vec::with_capacity(1 + payload.len());
        frame.push(status.as_u8());
        frame.extend_from_slice(&payload);
        let write_ok = proto::write_frame(&mut stream, &frame).is_ok();
        let op = span.strip_prefix("serve.").unwrap_or(span);
        record_span_args(span, "serve", &sw, &[("op", op)]);
        if !write_ok {
            return;
        }
    }
}

/// Executes one request body; returns `(status, payload, span name)`.
fn dispatch(ctx: &ServeContext, body: &[u8]) -> (Status, Vec<u8>, &'static str) {
    const Q_SPANS: [&str; 6] = [
        "serve.q1", "serve.q2", "serve.q3", "serve.q4", "serve.q5", "serve.q6",
    ];
    let Some(&op) = body.first() else {
        return (Status::Error, b"empty request".to_vec(), "serve.bad");
    };
    match op {
        proto::OP_PING => (Status::Ok, Vec::new(), "serve.ping"),
        n @ 1..=6 => {
            let span = Q_SPANS[usize::from(n) - 1];
            match ctx.run_query(n) {
                Ok(out) => {
                    let fp = obsrun::fingerprint_rows(&out.rows);
                    let rows = proto::encode_rows(fp, &out.rows);
                    (ctx.answer_status(), rows, span)
                }
                Err(e) => (Status::Error, e.to_string().into_bytes(), span),
            }
        }
        proto::OP_OUT_NEIGHBORS => {
            let Some(raw) = body.get(1..5).and_then(|b| <[u8; 4]>::try_from(b).ok()) else {
                let msg = b"out_neighbors payload must be a u32 page id";
                return (Status::Error, msg.to_vec(), "serve.nav");
            };
            let p = u32::from_le_bytes(raw);
            if p >= ctx.num_pages {
                return (Status::Error, b"page id out of range".to_vec(), "serve.nav");
            }
            match ctx.fwd.out_neighbors(p) {
                Ok(list) => (ctx.answer_status(), proto::encode_pages(&list), "serve.nav"),
                Err(e) => (Status::Error, e.to_string().into_bytes(), "serve.nav"),
            }
        }
        _ => (Status::Error, b"unknown opcode".to_vec(), "serve.bad"),
    }
}

/// Writes an `Overloaded` response on a connection the admission queue
/// refused, then drops it.
pub fn refuse_overloaded(mut stream: TcpStream) {
    let frame = [Status::Overloaded.as_u8()];
    drop(stream.set_nodelay(true));
    drop(proto::write_frame(&mut stream, &frame));
    drop(stream.flush());
}
