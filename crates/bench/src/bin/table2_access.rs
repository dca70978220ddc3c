//! Regenerates **Table 2**: sequential and random in-memory access times
//! (ns/edge) for the Plain Huffman, Link3, and S-Node schemes, on the
//! 25 M-page (scaled) data set, assuming the representation is resident in
//! memory. 5000 trials per mode, as in the paper. S-Node is priced on the
//! path every query runs: [`SNode`] opened with a cache budget the whole
//! directory fits, warmed by one pass, so an access pays the cache
//! lookups and the decode but no load.
//!
//! Usage: `cargo run -p wg-bench --release --bin table2_access
//! [--scale pages-per-million] [--trials N]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use wg_baselines::{HuffmanGraph, Link3Graph};
use wg_bench::{corpus_for, ns_per_edge, repo_columns, row, BenchArgs};
use wg_graph::Graph;
use wg_obs::Stopwatch;
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    let trials = 5_000u32.max(args.trials);
    println!("== Table 2: in-memory access times (ns/edge), {trials} trials ==\n");

    let corpus = corpus_for(&args, 25);
    let (urls, domains) = repo_columns(&corpus);
    let dir = args.work_dir.join("t2_snode");
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (_stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    let graph = Graph::from_edges(
        corpus.graph.num_nodes(),
        corpus
            .graph
            .edges()
            .map(|(u, v)| (renum.new_of_old[u as usize], renum.new_of_old[v as usize])),
    );
    let n = graph.num_nodes();

    let huff = HuffmanGraph::build(&graph);
    let link3 = Link3Graph::build(&graph);
    let budget = 1usize << 30;
    let snode = SNode::open_resident(&dir, budget).expect("open");
    for p in 0..n {
        snode.out_neighbors(p).expect("warm");
    }
    let warmed = snode.cache_stats();
    assert_eq!(
        (warmed.evictions, warmed.refused),
        (0, 0),
        "the directory must fit the cache budget"
    );
    println!(
        "S-Node: SNode, {} MiB cache budget, every graph cached by one warming pass\n",
        budget >> 20
    );

    // Pseudo-random page sequence shared by all schemes.
    let mut seq = Vec::with_capacity(trials as usize);
    let mut s = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..trials {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seq.push(((s >> 33) as u32) % n);
    }

    let run = |name: &str, f: &mut dyn FnMut(u32) -> usize| -> (f64, f64) {
        // Sequential: pages in id order.
        let t0 = Stopwatch::start();
        let mut edges = 0usize;
        for p in 0..n.min(trials) {
            edges += f(p);
        }
        let seq_ns = ns_per_edge(t0.elapsed(), edges as u64);
        // Random: the shared random sequence.
        let t0 = Stopwatch::start();
        let mut edges = 0usize;
        for &p in &seq {
            edges += f(p);
        }
        let rnd_ns = ns_per_edge(t0.elapsed(), edges as u64);
        let _ = name;
        (seq_ns, rnd_ns)
    };

    let widths = [28usize, 18, 18];
    println!(
        "{}",
        row(
            &[
                "scheme".into(),
                "sequential ns/e".into(),
                "random ns/e".into()
            ],
            &widths
        )
    );
    let (hs, hr) = run("huffman", &mut |p| {
        huff.out_neighbors(p).expect("huff").len()
    });
    let (ls, lr) = run("link3", &mut |p| {
        link3.out_neighbors(p).expect("link3").len()
    });
    let (ss, sr) = run("snode", &mut |p| {
        snode.out_neighbors(p).expect("snode").len()
    });

    let rows: [(&str, f64, f64, [f64; 2]); 3] = [
        ("Plain Huffman", hs, hr, [112.0, 198.0]),
        ("Connectivity Server (Link3)", ls, lr, [309.0, 689.0]),
        ("S-Node", ss, sr, [298.0, 702.0]),
    ];
    for (name, s, r, paper) in rows {
        println!(
            "{}",
            row(
                &[name.into(), format!("{s:.0}"), format!("{r:.0}")],
                &widths
            )
        );
        println!(
            "{}",
            row(
                &[
                    "  (paper)".into(),
                    format!("{:.0}", paper[0]),
                    format!("{:.0}", paper[1]),
                ],
                &widths
            )
        );
    }
    println!(
        "\npaper shape: plain Huffman decodes fastest (simplest code); Link3 and S-Node pay\n\
         2-4x for reference-chain resolution — the price of their 3x better compression."
    );
    std::fs::remove_dir_all(&dir).ok();
}
