//! K-means clustering over supernode-adjacency bit vectors (§3.2).
//!
//! Clustered split associates with every page `p` of the element being
//! split a bit vector `adj(p)` whose dimensions are the supernodes the
//! element points to; bit `d` is set iff `p` links to some page of
//! supernode `d`. Lloyd's algorithm over these binary vectors (Euclidean
//! objective, mean centroids) groups pages that "point to pages in other
//! supernodes" the same way.
//!
//! Following the paper: the initial `k` equals the element's supernode
//! out-degree, the run is bounded, and a non-converged run is an *abort*
//! that the caller retries with `k + 2`.
//!
//! Vectors are sparse (pages link to a handful of supernodes); distances
//! are computed as `‖c‖² − 2·Σ_{d∈p} c_d + |p|`, so each page costs
//! `O(|p|)` per centroid rather than `O(D)`.

use crate::flat::FlatLists;
use rand::rngs::SmallRng;
use rand::Rng;

/// Outcome of one bounded k-means run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KMeansOutcome {
    /// Assignments stabilised within the iteration bound.
    Converged {
        /// Cluster index per input vector.
        assignment: Vec<u32>,
        /// Number of non-empty clusters.
        non_empty: u32,
    },
    /// The iteration bound was hit first (the paper's "abort" signal).
    Aborted,
}

/// Parameters for a bounded k-means run.
#[derive(Debug, Clone, Copy)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: u32,
    /// Iteration bound standing in for the paper's wall-clock bound
    /// (which it determined experimentally; an iteration cap is the
    /// deterministic equivalent).
    pub max_iterations: u32,
    /// Operation budget — the deterministic stand-in for the paper's
    /// wall-clock execution bound ("a suitable upper bound was
    /// experimentally determined", §3.2 footnote 7). Counted in
    /// distance-evaluation units; a run whose cumulative cost would exceed
    /// the budget aborts, exactly like an over-time run in the paper. This
    /// is what makes clustered split abort on large elements with large
    /// supernode out-degrees, keeping the partition from shattering.
    ///
    /// The budget is charged per Lloyd iteration from the input *shape*
    /// (vector count, set bits, k, dims), so it is independent of thread
    /// count: a run aborts at the same iteration whether it executes on
    /// one worker or eight.
    pub max_ops: u64,
    /// Worker threads for the distance/assignment loop (1 = serial). The
    /// parallel loop partitions vectors into fixed chunks and computes each
    /// vector's nearest centroid independently, so assignments — and
    /// therefore every refinement decision downstream — are identical to
    /// the serial run.
    pub threads: u32,
}

/// Runs bounded Lloyd k-means over the sparse binary vectors `rows` — row
/// `i` lists the set dimensions of vector `i`, ascending and without
/// repeats — of dimensionality `dims`.
///
/// Centroids are kept dimension-major — `cent[dim · k + c]` is centroid
/// `c` along `dim` — so a vector's dot products with all `k` centroids
/// are the sum of one contiguous row of `k` per set dimension. Each
/// centroid's terms are still added in the order of the vector's
/// dimensions: every distance is the `f32` a centroid-by-centroid loop
/// computes, and so is every assignment.
pub fn kmeans_binary(
    rows: FlatLists<'_>,
    dims: u32,
    params: KMeansParams,
    rng: &mut SmallRng,
) -> KMeansOutcome {
    let n = rows.len();
    if n == 0 {
        return KMeansOutcome::Converged {
            assignment: Vec::new(),
            non_empty: 0,
        };
    }
    // k-means with more clusters than points is degenerate: the run fails,
    // which surfaces as an abort — the caller's `k += 2` retry then fails
    // too and clustered split gives up. The paper seeds k with the
    // supernode's out-degree and never clamps it, so this failure mode is
    // precisely what makes clustered split abort on the (very common)
    // elements whose out-degree exceeds their size, keeping the partition
    // coarse. Clamping k here instead would shatter the partition into
    // singletons.
    if params.k as usize > n {
        return KMeansOutcome::Aborted;
    }
    let k = (params.k as usize).max(1);
    let d = dims as usize;

    // Cost model per Lloyd iteration: one dot product per (vector, centroid)
    // pair plus the centroid-norm refresh.
    let ops_per_iter = (rows.total() as u64 + n as u64) * k as u64 + (k * d) as u64;
    // A run with no iteration its bounds allow is an abort whatever the
    // seeds: it draws them, because the generator's position afterwards
    // is part of every later decision of the refinement, and builds nothing.
    if params.max_iterations == 0 || ops_per_iter > params.max_ops {
        for c in 0..k {
            rng.gen_range(c..n);
        }
        return KMeansOutcome::Aborted;
    }

    // Forgy initialisation: k distinct random *points* seed the centroids,
    // exactly as classic Lloyd k-means does. When many pages share the
    // same adjacency vector the seeds coincide and their clusters collapse
    // into one — so a cohesive element converges with far fewer non-empty
    // clusters than k. That collapse is load-bearing: it is how clustered
    // split produces a handful of meaningful groups (or just one,
    // aborting the split) instead of shattering an element into k shards.
    let mut cent = vec![0f32; d * k];
    let mut picks: Vec<usize> = (0..n).collect();
    for c in 0..k {
        let j = rng.gen_range(c..n);
        picks.swap(c, j);
        for &dim in rows.get(picks[c]) {
            cent[dim as usize * k + c] = 1.0;
        }
    }

    let mut assignment = vec![0u32; n];
    let mut norms = vec![0f32; k];
    let mut counts = vec![0u32; k];
    let mut scale = vec![0f32; k];
    let mut converged = false;
    let mut ops_used = 0u64;
    for _iter in 0..params.max_iterations {
        ops_used = ops_used.saturating_add(ops_per_iter);
        if ops_used > params.max_ops {
            return KMeansOutcome::Aborted;
        }
        // ‖c‖² per centroid.
        norms.fill(0.0);
        for along in cent.chunks_exact(k) {
            for (norm, x) in norms.iter_mut().zip(along) {
                *norm += x * x;
            }
        }
        // Assign. Each vector's nearest centroid is an independent
        // computation (the per-vector dot products run serially inside one
        // task), so chunking over vectors changes nothing about the result.
        let mut changed = 0usize;
        let chunk_results = crate::par::par_chunks(params.threads, n, 256, |range| {
            let mut local = Vec::with_capacity(range.len());
            let mut local_changed = 0usize;
            let mut dots = vec![0f32; k];
            for i in range {
                let row = rows.get(i);
                dots.fill(0.0);
                for &dim in row {
                    let along = &cent[dim as usize * k..][..k];
                    for (dot, x) in dots.iter_mut().zip(along) {
                        *dot += x;
                    }
                }
                let mut best = 0u32;
                let mut best_dist = f32::INFINITY;
                for (ci, (norm, dot)) in norms.iter().zip(&dots).enumerate() {
                    let dist = norm - 2.0 * dot + row.len() as f32;
                    if dist < best_dist {
                        best_dist = dist;
                        best = ci as u32;
                    }
                }
                if assignment[i] != best {
                    local_changed += 1;
                }
                local.push(best);
            }
            (local, local_changed)
        });
        let mut write = 0usize;
        for (local, local_changed) in chunk_results {
            changed += local_changed;
            assignment[write..write + local.len()].copy_from_slice(&local);
            write += local.len();
        }
        if changed == 0 {
            converged = true;
            break;
        }
        // Update centroids to cluster means: member counts along every
        // dimension, times one over the cluster's size (an empty
        // cluster's are all zero and stay so).
        cent.fill(0.0);
        counts.fill(0);
        for (i, &c) in assignment.iter().enumerate() {
            counts[c as usize] += 1;
            for &dim in rows.get(i) {
                cent[dim as usize * k + c as usize] += 1.0;
            }
        }
        for (inv, &count) in scale.iter_mut().zip(&counts) {
            *inv = if count > 0 { 1.0 / count as f32 } else { 1.0 };
        }
        for along in cent.chunks_exact_mut(k) {
            for (x, inv) in along.iter_mut().zip(&scale) {
                *x *= inv;
            }
        }
    }

    if !converged {
        return KMeansOutcome::Aborted;
    }
    let mut seen = vec![false; k];
    for &a in &assignment {
        seen[a as usize] = true;
    }
    KMeansOutcome::Converged {
        assignment,
        non_empty: seen.iter().filter(|&&s| s).count() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::ListBuf;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    fn rows_of(vectors: &[Vec<u32>]) -> ListBuf {
        let mut rows = ListBuf::default();
        for v in vectors {
            rows.push_set(v.iter().copied());
        }
        rows
    }

    /// Reference model for [`kmeans_binary`]: the loop it replaced, over one
    /// `Vec` per vector and one per centroid, each distance a walk along a
    /// centroid of its own — and whatever a run's bounds, seeded and built
    /// in full before its first iteration is priced.
    fn kmeans_row_major(
        vectors: &[Vec<u32>],
        dims: u32,
        params: KMeansParams,
        rng: &mut SmallRng,
    ) -> KMeansOutcome {
        let n = vectors.len();
        if n == 0 {
            return KMeansOutcome::Converged {
                assignment: Vec::new(),
                non_empty: 0,
            };
        }
        if params.k as usize > n {
            return KMeansOutcome::Aborted;
        }
        let k = (params.k as usize).max(1);
        let d = dims as usize;

        let mut centroids = vec![vec![0f32; d]; k];
        let mut picks: Vec<usize> = (0..n).collect();
        for c in 0..k {
            let j = rng.gen_range(c..n);
            picks.swap(c, j);
            for &dim in &vectors[picks[c]] {
                centroids[c][dim as usize] = 1.0;
            }
        }

        let mut assignment = vec![0u32; n];
        let mut converged = false;
        let total_set_bits: u64 = vectors.iter().map(|v| v.len() as u64).sum();
        // Cost model per Lloyd iteration: one dot product per (vector, centroid)
        // pair plus the centroid-norm refresh.
        let ops_per_iter = (total_set_bits + n as u64) * k as u64 + (k * d) as u64;
        let mut ops_used = 0u64;
        for _iter in 0..params.max_iterations {
            ops_used = ops_used.saturating_add(ops_per_iter);
            if ops_used > params.max_ops {
                return KMeansOutcome::Aborted;
            }
            // Precompute ‖c‖² per centroid.
            let norms: Vec<f32> = centroids
                .iter()
                .map(|c| c.iter().map(|x| x * x).sum())
                .collect();
            // Assign. Each vector's nearest centroid is an independent
            // computation (the per-vector dot products run serially inside one
            // task), so chunking over vectors changes nothing about the result.
            let mut changed = 0usize;
            let chunk_results = crate::par::par_chunks(params.threads, n, 256, |range| {
                let mut local = Vec::with_capacity(range.len());
                let mut local_changed = 0usize;
                for i in range {
                    let vec = &vectors[i];
                    let mut best = 0u32;
                    let mut best_dist = f32::INFINITY;
                    for (ci, c) in centroids.iter().enumerate() {
                        let dot: f32 = vec.iter().map(|&dim| c[dim as usize]).sum();
                        let dist = norms[ci] - 2.0 * dot + vec.len() as f32;
                        if dist < best_dist {
                            best_dist = dist;
                            best = ci as u32;
                        }
                    }
                    if assignment[i] != best {
                        local_changed += 1;
                    }
                    local.push(best);
                }
                (local, local_changed)
            });
            let mut write = 0usize;
            for (local, local_changed) in chunk_results {
                changed += local_changed;
                assignment[write..write + local.len()].copy_from_slice(&local);
                write += local.len();
            }
            if changed == 0 {
                converged = true;
                break;
            }
            // Update centroids to cluster means.
            let mut counts = vec![0u32; k];
            for c in &mut centroids {
                c.iter_mut().for_each(|x| *x = 0.0);
            }
            for (i, vec) in vectors.iter().enumerate() {
                let c = assignment[i] as usize;
                counts[c] += 1;
                for &dim in vec {
                    centroids[c][dim as usize] += 1.0;
                }
            }
            for (c, &count) in centroids.iter_mut().zip(&counts) {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    c.iter_mut().for_each(|x| *x *= inv);
                }
            }
        }

        if !converged {
            return KMeansOutcome::Aborted;
        }
        let mut seen = vec![false; k];
        for &a in &assignment {
            seen[a as usize] = true;
        }
        KMeansOutcome::Converged {
            assignment,
            non_empty: seen.iter().filter(|&&s| s).count() as u32,
        }
    }

    #[test]
    fn two_obvious_clusters_separate() {
        // Vectors over 8 dims: half set {0,1,2}, half set {5,6,7}. Forgy
        // init may seed both centroids inside one group (collapsing to a
        // single cluster), which is exactly the retry case the paper's
        // clustered split handles by re-running — so try a few seeds and
        // require that some run separates the groups perfectly.
        let mut vectors = Vec::new();
        for _ in 0..10 {
            vectors.push(vec![0, 1, 2]);
        }
        for _ in 0..10 {
            vectors.push(vec![5, 6, 7]);
        }
        let separated = (0..8u64).any(|seed| {
            let out = kmeans_binary(
                rows_of(&vectors).view(),
                8,
                KMeansParams {
                    k: 2,
                    max_iterations: 50,
                    max_ops: u64::MAX,
                    threads: 1,
                },
                &mut SmallRng::seed_from_u64(seed),
            );
            match out {
                KMeansOutcome::Converged {
                    assignment,
                    non_empty: 2,
                } => {
                    let first = assignment[0];
                    assignment[..10].iter().all(|&a| a == first)
                        && assignment[10..].iter().all(|&a| a != first)
                }
                _ => false,
            }
        });
        assert!(separated, "no seed separated two obvious clusters");
    }

    #[test]
    fn identical_vectors_form_one_cluster() {
        let vectors = vec![vec![1u32, 3]; 12];
        let out = kmeans_binary(
            rows_of(&vectors).view(),
            5,
            KMeansParams {
                k: 3,
                max_iterations: 20,
                max_ops: u64::MAX,
                threads: 1,
            },
            &mut rng(),
        );
        let KMeansOutcome::Converged { non_empty, .. } = out else {
            panic!("identical vectors converge immediately");
        };
        // All identical vectors land in the same (single) cluster.
        assert_eq!(non_empty, 1);
    }

    #[test]
    fn k_larger_than_n_aborts() {
        // The paper seeds k with the supernode out-degree and never clamps
        // it; k > n is a degenerate clustering problem and must abort (this
        // failure mode is what keeps clustered split from shattering the
        // partition — see module docs).
        let vectors = vec![vec![0u32], vec![1], vec![2]];
        let out = kmeans_binary(
            rows_of(&vectors).view(),
            3,
            KMeansParams {
                k: 10,
                max_iterations: 20,
                max_ops: u64::MAX,
                threads: 1,
            },
            &mut rng(),
        );
        assert_eq!(out, KMeansOutcome::Aborted);
    }

    #[test]
    fn empty_input() {
        let out = kmeans_binary(
            FlatLists::default(),
            4,
            KMeansParams {
                k: 2,
                max_iterations: 5,
                max_ops: u64::MAX,
                threads: 1,
            },
            &mut rng(),
        );
        assert_eq!(
            out,
            KMeansOutcome::Converged {
                assignment: Vec::new(),
                non_empty: 0
            }
        );
    }

    #[test]
    fn zero_iteration_bound_aborts() {
        let vectors = vec![vec![0u32], vec![1]];
        let out = kmeans_binary(
            rows_of(&vectors).view(),
            2,
            KMeansParams {
                k: 2,
                max_iterations: 0,
                max_ops: u64::MAX,
                threads: 1,
            },
            &mut rng(),
        );
        assert_eq!(out, KMeansOutcome::Aborted);
    }

    #[test]
    fn empty_vectors_are_allowed() {
        // Pages that link to no other supernode have empty adj vectors.
        let vectors = vec![vec![], vec![0u32, 1], vec![], vec![0, 1]];
        let out = kmeans_binary(
            rows_of(&vectors).view(),
            2,
            KMeansParams {
                k: 2,
                max_iterations: 30,
                max_ops: u64::MAX,
                threads: 1,
            },
            &mut rng(),
        );
        let KMeansOutcome::Converged { assignment, .. } = out else {
            panic!("should converge");
        };
        assert_eq!(assignment[0], assignment[2]);
        assert_eq!(assignment[1], assignment[3]);
        assert_ne!(assignment[0], assignment[1]);
    }

    #[test]
    fn ops_budget_aborts_expensive_runs() {
        let vectors: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i % 50]).collect();
        let out = kmeans_binary(
            rows_of(&vectors).view(),
            50,
            KMeansParams {
                k: 50,
                max_iterations: 100,
                max_ops: 10, // absurdly small: first iteration already over
                threads: 1,
            },
            &mut rng(),
        );
        assert_eq!(out, KMeansOutcome::Aborted);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let vectors: Vec<Vec<u32>> = (0..40u32).map(|i| vec![i % 7, (i * 3) % 7]).collect();
        let p = KMeansParams {
            k: 4,
            max_iterations: 40,
            max_ops: u64::MAX,
            threads: 1,
        };
        let a = kmeans_binary(
            rows_of(&vectors).view(),
            7,
            p,
            &mut SmallRng::seed_from_u64(9),
        );
        let b = kmeans_binary(
            rows_of(&vectors).view(),
            7,
            p,
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    /// Random sparse inputs × `k` below, at and above the vector count ×
    /// bounds that abort at the first iteration, at the third and never:
    /// the outcome is the reference loop's, and so is the next draw from
    /// the generator afterwards.
    #[test]
    fn outcomes_and_generator_match_the_row_major_reference() {
        let mut shape = SmallRng::seed_from_u64(0xC1A5);
        let (mut converged, mut aborted_late) = (0, 0);
        for case in 0..300u64 {
            let n = shape.gen_range(1usize..60);
            let dims = shape.gen_range(1u32..24);
            let groups = shape.gen_range(1u32..5);
            let vectors: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    // Clustered, with noise: a group's dimensions plus a few.
                    let g = shape.gen_range(0..groups);
                    let mut v: Vec<u32> = (0..dims).filter(|d| d % groups == g).collect();
                    v.retain(|_| shape.gen_range(0u32..10) < 8);
                    for _ in 0..shape.gen_range(0u32..3) {
                        v.push(shape.gen_range(0..dims));
                    }
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let rows = rows_of(&vectors);
            let bits: u64 = vectors.iter().map(|v| v.len() as u64).sum();
            for k in [
                1,
                2,
                (n as u32 / 2).max(1),
                n as u32,
                n as u32 + 1,
                n as u32 + 3,
            ] {
                let per_iter = (bits + n as u64) * u64::from(k) + u64::from(k * dims);
                for max_ops in [0, per_iter - 1, per_iter, 3 * per_iter - 1, u64::MAX] {
                    for max_iterations in [0, 2, 30] {
                        for threads in [1, 3] {
                            let params = KMeansParams {
                                k,
                                max_iterations,
                                max_ops,
                                threads,
                            };
                            let seed = case * 31 + u64::from(k);
                            let mut model_rng = SmallRng::seed_from_u64(seed);
                            let want = kmeans_row_major(&vectors, dims, params, &mut model_rng);
                            let mut rng = SmallRng::seed_from_u64(seed);
                            let got = kmeans_binary(rows.view(), dims, params, &mut rng);
                            assert_eq!(got, want, "case {case}: {params:?}");
                            assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>(), "case {case}");
                            match got {
                                KMeansOutcome::Converged { .. } => converged += 1,
                                KMeansOutcome::Aborted
                                    if max_ops >= per_iter && k as usize <= n =>
                                {
                                    aborted_late += usize::from(max_iterations > 0);
                                }
                                KMeansOutcome::Aborted => {}
                            }
                        }
                    }
                }
            }
        }
        assert!(
            converged > 1000 && aborted_late > 100,
            "{converged} {aborted_late}"
        );
    }
}
