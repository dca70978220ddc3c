//! Regenerates **Figure 12**: S-Node navigation time for Queries 1, 5 and
//! 6 as the memory buffer grows. The curves drop while the buffer is too
//! small to hold the query's working set of intranode/superedge graphs,
//! then flatten once everything relevant fits.
//!
//! Usage: `cargo run -p wg-bench --release --bin fig12_buffer
//! [--scale pages-per-million] [--trials N]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use std::time::Duration;
use wg_bench::{corpus_for, mean_ms, repo_columns, row, BenchArgs};
use wg_query::queries::{query1, query5, query6, QueryEnv, Workload};
use wg_query::reps::{Scheme, SchemeSet};
use wg_query::{DomainTable, PageRankIndex, TextIndex};
use wg_snode::SNodeConfig;

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    let corpus = corpus_for(&args, 100);
    wg_store::diskmodel::set_disk_model(500, 40);
    println!(
        "== Figure 12: S-Node navigation time vs memory buffer ({} pages, {} trials) ==",
        corpus.num_pages(),
        args.trials
    );
    println!("simulated disk: 500us seek + 40MB/s transfer per physical read\n");

    let (urls, domains) = repo_columns(&corpus);
    let root = args.work_dir.join("fig12");
    // Build once with a generous default; each sweep point reopens with its
    // own budget.
    let set = SchemeSet::build(
        &root,
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .expect("scheme set");
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let dt = DomainTable::build(&corpus, &set.renumbering);
    let workload = Workload::discover(&text, &dt);
    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &dt,
    };

    // Buffer sweep in bytes-per-page so the knee lands at the same
    // relative position at any --scale: 1 B/page .. 64 B/page.
    let budgets: Vec<usize> = (0..7).map(|i| (corpus.num_pages() as usize) << i).collect();
    let widths = [16usize, 12, 12, 12];
    println!(
        "{}",
        row(
            &["buffer".into(), "Q1".into(), "Q5".into(), "Q6".into()],
            &widths
        )
    );
    for &budget in &budgets {
        let mut rep = set
            .open_with_budget(Scheme::SNode, budget, false)
            .expect("open");
        let mut cells = vec![format!(
            "{}KB({}B/pg)",
            budget / 1024,
            budget / corpus.num_pages() as usize
        )];
        for q in 0..3 {
            let mut times: Vec<Duration> = Vec::new();
            for _ in 0..args.trials {
                rep.reset().expect("reset");
                let out = match q {
                    0 => query1(env, rep.as_mut(), &workload.q1),
                    1 => query5(env, rep.as_mut(), &workload.q5),
                    _ => query6(env, rep.as_mut(), &workload.q6),
                }
                .expect("query");
                times.push(out.nav.nav_time);
            }
            cells.push(format!("{:.2}ms", mean_ms(&times)));
        }
        println!("{}", row(&cells, &widths));
    }
    println!(
        "\npaper shape: an initial drop while the buffer cannot hold the query's graphs,\n\
         then an essentially flat curve — more memory beyond the working set buys nothing."
    );
    std::fs::remove_dir_all(&root).ok();
}
