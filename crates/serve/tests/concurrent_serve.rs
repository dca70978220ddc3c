//! End-to-end wg-serve tests: one shared S-Node representation serving
//! concurrent clients, with byte-identical answers to a single-threaded
//! run, plus admission-queue overload behaviour.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use wg_corpus::{Corpus, CorpusConfig};
use wg_query::obsrun::fingerprint_rows;
use wg_query::queries::Workload;
use wg_query::reps::{Scheme, SchemeSet};
use wg_query::{DomainTable, PageRankIndex, TextIndex};
use wg_serve::{Client, ServeConfig, ServeContext, Server, Status};
use wg_snode::SNodeConfig;

struct Fx {
    root: std::path::PathBuf,
    graph: wg_graph::Graph,
    ctx: Arc<ServeContext>,
    /// Single-threaded reference fingerprints for q1..q6.
    reference: [u64; 6],
}

impl Drop for Fx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn setup(pages: u32, seed: u64, name: &str) -> Fx {
    let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut root = std::env::temp_dir();
    root.push(format!("wg_serve_{name}_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        // The least budget whose cache is cut into all eight shards, so
        // concurrent clients meet on every shard lock.
        8 << 20,
    )
    .unwrap();
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domain_table = DomainTable::build(&corpus, &set.renumbering);
    let workload = Workload::discover(&text, &domain_table);
    let ctx = Arc::new(ServeContext {
        text,
        pagerank,
        domains: domain_table,
        workload,
        fwd: set.open(Scheme::SNode).unwrap(),
        back: set.open_transpose(Scheme::SNode).unwrap(),
        num_pages: set.graph.num_nodes(),
    });
    let mut reference = [0u64; 6];
    for (i, r) in reference.iter_mut().enumerate() {
        *r = fingerprint_rows(&ctx.run_query(i as u8 + 1).unwrap().rows);
    }
    let graph = set.graph.clone();
    Fx {
        root,
        graph,
        ctx,
        reference,
    }
}

#[test]
fn concurrent_clients_get_single_threaded_answers() {
    let f = setup(1_500, 11, "conc");
    // Explicit worker count: a worker owns a connection until EOF, so we
    // need real concurrency regardless of the host's core count.
    let cfg = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&f.ctx), &cfg).unwrap();
    let port = server.port();

    let clients = 16;
    std::thread::scope(|s| {
        for c in 0..clients {
            let reference = f.reference;
            let graph = &f.graph;
            s.spawn(move || {
                let mut cl = Client::connect(port).unwrap();
                assert_eq!(cl.ping().unwrap(), Status::Ok);
                for n in 1..=6u8 {
                    let reply = cl.query(n).unwrap();
                    assert_eq!(reply.status, Status::Ok, "client {c} q{n}");
                    assert_eq!(
                        reply.fingerprint,
                        reference[usize::from(n) - 1],
                        "client {c} q{n} fingerprint drifted under concurrency"
                    );
                    assert_eq!(reply.fingerprint, fingerprint_rows(&reply.rows));
                }
                // Raw navigation answers must equal ground truth.
                for p in (0..graph.num_nodes()).step_by(211 + c) {
                    let (status, list) = cl.out_neighbors(p).unwrap();
                    assert_eq!(status, Status::Ok);
                    assert_eq!(list, graph.neighbors(p), "client {c} page {p}");
                }
            });
        }
    });

    let stats = server.shutdown();
    let served = stats.requests.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        served >= clients as u64 * 7,
        "expected at least {} requests, served {served}",
        clients * 7
    );
    assert_eq!(stats.errors.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert_eq!(stats.degraded.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn admission_queue_refuses_when_full() {
    let f = setup(400, 3, "overload");
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&f.ctx), &cfg).unwrap();
    let port = server.port();

    // Occupy the only worker: a served connection held open.
    let mut busy = Client::connect(port).unwrap();
    assert_eq!(busy.ping().unwrap(), Status::Ok);

    // One connection fits the queue; the ones after it must be refused
    // with an explicit Overloaded frame, not a silent reset.
    let queued = Client::connect(port).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut refused = 0;
    for _ in 0..3 {
        let mut extra = Client::connect(port).unwrap();
        if extra.read_refusal().unwrap() == Some(Status::Overloaded) {
            refused += 1;
        }
    }
    assert!(refused >= 2, "expected refusals beyond the queue bound");

    // Close our connections before shutdown: workers drain in-flight
    // connections to EOF, so a held-open client would block the join.
    drop(busy);
    drop(queued);
    let stats = server.shutdown();
    assert!(
        stats.overloaded.load(std::sync::atomic::Ordering::Relaxed) >= 2,
        "overload counter must record the refusals"
    );
}

#[test]
fn malformed_requests_get_error_status_not_a_crash() {
    let f = setup(400, 5, "badreq");
    // Two held-open connections (cl + the raw stream) need two workers.
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&f.ctx), &cfg).unwrap();
    let port = server.port();

    let mut cl = Client::connect(port).unwrap();
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut ask = |body: &[u8]| {
        wg_serve::proto::write_frame(&mut stream, body).unwrap();
        let resp = wg_serve::proto::read_frame(&mut stream, 1 << 20)
            .unwrap()
            .unwrap();
        Status::from_u8(resp[0])
    };
    // An unknown opcode, and 8 (the retired telemetry snapshot) → Error;
    // the same connection keeps serving after each.
    for op in [99u8, 8] {
        assert_eq!(ask(&[op]), Some(Status::Error), "opcode {op}");
        assert_eq!(
            ask(&[wg_serve::proto::OP_PING]),
            Some(Status::Ok),
            "after {op}"
        );
    }
    // Out-of-range page → Error, connection stays usable for the peer.
    let mut out_of_range = vec![wg_serve::proto::OP_OUT_NEIGHBORS];
    out_of_range.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(ask(&out_of_range), Some(Status::Error));
    drop(stream);

    // The server is still healthy afterwards.
    assert_eq!(cl.ping().unwrap(), Status::Ok);
    assert_eq!(cl.query(1).unwrap().fingerprint, f.reference[0]);
    drop(cl); // workers drain open connections before shutdown joins
    server.shutdown();
}
