//! Reproducible baseline snapshot of the parallel kernel layer.
//!
//! ```text
//! cargo run -p cc-bench --release --bin bench_snapshot              # writes BENCH_baseline.json
//! cargo run -p cc-bench --release --bin bench_snapshot -- out.json  # custom path
//! ```
//!
//! Times the hot kernels (CSR mat-vec, dense mat-mul, preconditioned
//! Chebyshev) serial vs. parallel on the current host and writes one JSON
//! document. Every parallel result is checked bitwise against the serial
//! run before it is reported — a snapshot with `"bitwise_equal": false`
//! anywhere means the determinism contract is broken and the numbers
//! should not be trusted.
//!
//! Wall-clock is the only nondeterministic output; the snapshot keeps the
//! median of an odd number of repetitions to damp scheduler noise.
//!
//! The snapshot also embeds three fully deterministic sections that diff
//! cleanly across commits:
//!
//! - `"congestion"`: per-phase message, word, and link-congestion
//!   statistics of representative solver runs captured through
//!   `TracingComm`.
//! - `"ipm"`: golden end-to-end runs of both interior-point stacks
//!   (value/cost, round totals, an FNV-1a hash of the integral flow
//!   bits, and the barrier engine's per-stage solver stats).
//! - `"service"`: a seeded 1000-request soak through the `cc-service`
//!   engine over the conformance corpus — round totals, template-cache
//!   hits, oracle-mismatch count (must be 0), and an FNV-1a fingerprint
//!   of every response, plus per-host wall-clock throughput fields that
//!   are excluded from `--check`.
//! - `"threaded"` (schema v5): the concurrent sharded runtime
//!   (`ThreadedComm`) replaying a deterministic unicast workload at
//!   `n` up to 2048 and worker counts 1/2/8 — rounds and inbox hashes
//!   are asserted identical to the sequential `Clique` and gated by
//!   `--check`; the per-worker-count `wall_ns` scaling curve is
//!   per-host and excluded.
//! - `"adversary"` (schema v6): the chaos matrix and the retry path.
//!   `"chaos"` replays the full (pipeline × adversary-strategy)
//!   conformance matrix — detected/tolerated/corrupted counts plus a
//!   hash of the rendered matrix — asserting the detectability
//!   invariant (omission adversaries never corrupt silently) before
//!   reporting. `"recovery"` pins the service layer's retry/backoff
//!   path: a crash–recover node fails attempt 1, the engine charges
//!   backoff and degrades to a fresh build, and attempt 2's response
//!   is asserted bitwise identical to a fault-free run — attempts,
//!   observed faults, retry-phase rounds, and the response
//!   fingerprint are all `--check`-gated.
//! - `"broadcast"` (schema v7): the sparsifier → solver → IPM pipeline
//!   over the measured Broadcast Congested Clique (`BroadcastComm`),
//!   asserted bitwise identical to the unicast clique before reporting
//!   per-pipeline unicast/broadcast round totals and their ratio, a
//!   strict-mode replay of the Laplacian surface, and a hash of the
//!   broadcast-attributed congestion trace.
//!
//! A third tier scales the solver itself: `"large"` times batched
//! multi-RHS kernels (`matvec_multi_into`, `solve_multi_into`, the full
//! batched Chebyshev solve) against `k` repeated single-RHS runs on wide
//! banded Laplacians up to `n = 2048` (millions of edges), verifying the
//! batch is bitwise identical column-for-column, and
//! `"large_determinism"` pins an FNV-1a hash of the batched solution
//! bits per size.
//!
//! `bench_snapshot -- --check [path]` recomputes only the deterministic
//! sections and exits nonzero if any drift-sensitive field (round
//! totals, flow hashes, solve counts, cache hits, the service response
//! fingerprint) differs from the committed baseline — CI runs this to catch silent round-complexity or
//! determinism regressions. `--check --large [path]` instead recomputes
//! the time-boxed subset (`n ∈ {512, 1024}`) of the large-tier solution
//! hashes and compares them against `"large_determinism"`.

use std::time::Instant;

use cc_core::{solve_laplacian, SolverOptions};
use cc_graph::generators;
use cc_linalg::{
    chebyshev_solve_fixed_into, chebyshev_solve_multi_into, laplacian_from_edges, par,
    vec_ops::remove_mean, BatchWorkspace, ChebyshevWorkspace, CsrMatrix, DenseMatrix,
    GroundedCholesky, SolveScratch,
};
use cc_maxflow::{max_flow_ipm, IpmOptions};
use cc_mcf::{min_cost_flow_ipm, McfOptions};
use cc_model::util::{fnv1a_bytes, fnv1a_words, Fnv1a};
use cc_model::{
    AdversaryComm, AdversarySchedule, AdversaryStrategy, BroadcastComm, Clique, Communicator,
    ThreadedComm, TracingComm,
};
use cc_service::{EngineConfig, FlowEngine, GraphSpec, Request, Response, RetryPolicy};
use cc_sparsify::{build_sparsifier, SparsifyParams};

/// Median wall-clock nanoseconds of `reps` runs of `f` (after one warm-up).
fn time_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Banded Laplacian-like test matrix: path plus two skip-level bands, so
/// rows have a handful of off-diagonals like real graph Laplacians do.
fn banded_laplacian(n: usize) -> CsrMatrix {
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(3 * n);
    for i in 0..n - 1 {
        edges.push((i, i + 1, 1.0 + (i % 7) as f64));
    }
    for i in 0..n.saturating_sub(16) {
        edges.push((i, i + 16, 0.5 + (i % 3) as f64));
    }
    for i in 0..n.saturating_sub(64) {
        edges.push((i, i + 64, 0.25));
    }
    laplacian_from_edges(n, &edges)
}

fn test_vector(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| ((i * 2_654_435_761) % 1_000) as f64 - 500.0)
        .collect();
    remove_mean(&mut b);
    b
}

struct Record {
    bench: String,
    n: usize,
    work: usize,
    serial_ns: u64,
    parallel_ns: u64,
    bitwise_equal: bool,
}

impl Record {
    fn json(&self) -> String {
        let speedup = self.serial_ns as f64 / self.parallel_ns.max(1) as f64;
        format!(
            "    {{\"bench\": \"{}\", \"n\": {}, \"work\": {}, \"serial_ns\": {}, \"parallel_ns\": {}, \"speedup\": {:.3}, \"bitwise_equal\": {}}}",
            self.bench, self.n, self.work, self.serial_ns, self.parallel_ns, speedup, self.bitwise_equal
        )
    }
}

fn snapshot_matvec(n: usize, reps: usize) -> Record {
    let a = banded_laplacian(n);
    let x = test_vector(n);
    let mut y_serial = vec![0.0; n];
    let mut y_par = vec![0.0; n];
    let serial_ns = par::with_threads(1, || time_ns(reps, || a.matvec_into(&x, &mut y_serial)));
    let parallel_ns = time_ns(reps, || a.matvec_into(&x, &mut y_par));
    let bitwise_equal = y_serial
        .iter()
        .zip(&y_par)
        .all(|(s, p)| s.to_bits() == p.to_bits());
    Record {
        bench: "csr_matvec".into(),
        n,
        work: a.nnz(),
        serial_ns,
        parallel_ns,
        bitwise_equal,
    }
}

fn snapshot_matmul(n: usize, reps: usize) -> Record {
    let dense = |salt: usize| {
        let data: Vec<f64> = (0..n * n)
            .map(|k| ((k * 31 + salt * 17) % 23) as f64 - 11.0)
            .collect();
        DenseMatrix::from_row_major(n, n, data)
    };
    let a = dense(1);
    let b = dense(2);
    let serial = par::with_threads(1, || a.matmul(&b)).expect("conforming shapes");
    let serial_ns = par::with_threads(1, || {
        time_ns(reps, || {
            let _ = a.matmul(&b);
        })
    });
    let parallel = a.matmul(&b).expect("conforming shapes");
    let parallel_ns = time_ns(reps, || {
        let _ = a.matmul(&b);
    });
    let bitwise_equal = serial
        .as_slice()
        .iter()
        .zip(parallel.as_slice())
        .all(|(s, p)| s.to_bits() == p.to_bits());
    Record {
        bench: "dense_matmul".into(),
        n,
        work: n * n * n,
        serial_ns,
        parallel_ns,
        bitwise_equal,
    }
}

fn snapshot_chebyshev(n: usize, iterations: usize, reps: usize) -> Record {
    let a = banded_laplacian(n);
    let b = test_vector(n);
    let mut ws = ChebyshevWorkspace::new(n);
    let mut run = |x: &mut Vec<f64>| {
        chebyshev_solve_fixed_into(
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            &b,
            16.0,
            iterations,
            x,
            &mut ws,
        );
    };
    let mut x_serial = vec![0.0; n];
    let serial_ns = par::with_threads(1, || time_ns(reps, || run(&mut x_serial)));
    let mut x_par = vec![0.0; n];
    let parallel_ns = time_ns(reps, || run(&mut x_par));
    let bitwise_equal = x_serial
        .iter()
        .zip(&x_par)
        .all(|(s, p)| s.to_bits() == p.to_bits());
    Record {
        bench: "chebyshev_fixed".into(),
        n,
        work: iterations * a.nnz(),
        serial_ns,
        parallel_ns,
        bitwise_equal,
    }
}

/// Wide banded Laplacian for the large tier: bands `(i, i+d)` for
/// `d = 1..=bw` with `bw = n/2`, so `m ≈ 3n²/8` — millions of edges at
/// `n = 2048` — and the grounded factor is effectively dense. Returns the
/// Laplacian and the edge count.
fn wide_banded_laplacian(n: usize) -> (CsrMatrix, usize) {
    let bw = n / 2;
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for d in 1..=bw {
        for i in 0..n - d {
            edges.push((i, i + d, 1.0 + ((i + 3 * d) % 5) as f64 * 0.25));
        }
    }
    let m = edges.len();
    (laplacian_from_edges(n, &edges), m)
}

/// Width of the large tier's right-hand-side batches.
const LARGE_BATCH_K: usize = 16;
/// Fixed Chebyshev iteration count of the large tier (deterministic,
/// data-independent — see `chebyshev_solve_multi_into`).
const LARGE_CHEB_ITERS: usize = 12;
/// Spectrum bound handed to Chebyshev in the large tier (`B = κ·L`, so
/// `B†A` has spectrum `{1/κ} ⊂ [1/κ, 1]`).
const LARGE_KAPPA: f64 = 16.0;

/// Interleaved batch of `k` deterministic zero-mean right-hand sides.
fn large_batch_rhs(n: usize, k: usize) -> Vec<f64> {
    let mut bs = vec![0.0f64; n * k];
    for j in 0..k {
        for v in 0..n {
            bs[v * k + j] = ((v * 2_654_435_761 + j * 40_503) % 1_000) as f64 - 500.0;
        }
        let mean: f64 = (0..n).map(|v| bs[v * k + j]).sum::<f64>() / n as f64;
        for v in 0..n {
            bs[v * k + j] -= mean;
        }
    }
    bs
}

/// FNV-1a over the IEEE-754 bits of a float slice.
fn hash_f64(xs: &[f64]) -> u64 {
    fnv1a_words(xs.iter().map(|x| x.to_bits()))
}

/// One large-tier timing row: batched kernel vs `k` repeated single-RHS
/// runs of the same work, with a column-for-column bitwise check.
struct LargeRecord {
    bench: &'static str,
    n: usize,
    edges: usize,
    work: usize,
    single_ns: u64,
    batched_ns: u64,
    bitwise_equal: bool,
}

impl LargeRecord {
    fn json(&self) -> String {
        let speedup = self.single_ns as f64 / self.batched_ns.max(1) as f64;
        format!(
            "    {{\"bench\": \"{}\", \"n\": {}, \"edges\": {}, \"work\": {}, \"batch_k\": {}, \"single_ns\": {}, \"batched_ns\": {}, \"batch_speedup\": {:.3}, \"bitwise_equal\": {}}}",
            self.bench, self.n, self.edges, self.work, LARGE_BATCH_K, self.single_ns, self.batched_ns, speedup, self.bitwise_equal
        )
    }
}

/// Batched vs repeated-single runs of the full preconditioned Chebyshev
/// solve plus its two component kernels on one wide banded instance.
/// Returns the timing rows and the FNV hash of the batched solution bits
/// (the determinism pin). All results are checked bitwise: column `j` of
/// every batched kernel must equal the corresponding single-RHS run.
fn large_tier_instance(n: usize, reps: usize) -> (Vec<LargeRecord>, u64) {
    let k = LARGE_BATCH_K;
    let (lap, m) = wide_banded_laplacian(n);
    let chol = GroundedCholesky::new(&lap).expect("connected instance");
    let bs = large_batch_rhs(n, k);
    // Contiguous per-column copies for the single-RHS path (what a caller
    // without the batched API would hold).
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..n).map(|v| bs[v * k + j]).collect())
        .collect();

    let mut records = Vec::new();

    // Kernel 1: CSR matvec, k singles vs one interleaved batch.
    let mut y_single = vec![vec![0.0f64; n]; k];
    let mut ys = vec![0.0f64; n * k];
    let single_ns = time_ns(reps, || {
        for j in 0..k {
            lap.matvec_into(&cols[j], &mut y_single[j]);
        }
    });
    let batched_ns = time_ns(reps, || lap.matvec_multi_into(&bs, k, &mut ys));
    let bitwise_equal =
        (0..k).all(|j| (0..n).all(|v| ys[v * k + j].to_bits() == y_single[j][v].to_bits()));
    records.push(LargeRecord {
        bench: "large_csr_matvec_multi",
        n,
        edges: m,
        work: lap.nnz() * k,
        single_ns,
        batched_ns,
        bitwise_equal,
    });

    // Kernel 2: grounded-factor solve, k singles vs one batched sweep
    // (the factor streams through the cache once for the whole batch).
    let mut x_single = vec![vec![0.0f64; n]; k];
    let mut xs = vec![0.0f64; n * k];
    let mut scratch = SolveScratch::default();
    let single_ns = time_ns(reps, || {
        for j in 0..k {
            chol.solve_into(&cols[j], &mut x_single[j], &mut scratch);
        }
    });
    let batched_ns = time_ns(reps, || {
        chol.solve_multi_into(&bs, k, &mut xs, &mut scratch)
    });
    let bitwise_equal =
        (0..k).all(|j| (0..n).all(|v| xs[v * k + j].to_bits() == x_single[j][v].to_bits()));
    records.push(LargeRecord {
        bench: "large_cholesky_solve_multi",
        n,
        edges: m,
        work: n * n * k,
        single_ns,
        batched_ns,
        bitwise_equal,
    });

    // Kernel 3: the full preconditioned Chebyshev solve, k singles vs the
    // batched multi-RHS path — the ISSUE's headline amortization.
    let mut ws_single = ChebyshevWorkspace::new(n);
    let single_ns = time_ns(reps, || {
        for j in 0..k {
            chebyshev_solve_fixed_into(
                |p, out| lap.matvec_into(p, out),
                |r, out| {
                    chol.solve_into(r, out, &mut scratch);
                    for zi in out.iter_mut() {
                        *zi /= LARGE_KAPPA;
                    }
                },
                &cols[j],
                LARGE_KAPPA,
                LARGE_CHEB_ITERS,
                &mut x_single[j],
                &mut ws_single,
            );
        }
    });
    let mut ws_batch = BatchWorkspace::new(n, k);
    let batched_ns = time_ns(reps, || {
        chebyshev_solve_multi_into(
            |p, out| lap.matvec_multi_into(p, k, out),
            |r, out| {
                chol.solve_multi_into(r, k, out, &mut scratch);
                for zi in out.iter_mut() {
                    *zi /= LARGE_KAPPA;
                }
            },
            &bs,
            k,
            LARGE_KAPPA,
            LARGE_CHEB_ITERS,
            &mut xs,
            &mut ws_batch,
        );
    });
    let bitwise_equal =
        (0..k).all(|j| (0..n).all(|v| xs[v * k + j].to_bits() == x_single[j][v].to_bits()));
    records.push(LargeRecord {
        bench: "large_chebyshev_multi",
        n,
        edges: m,
        work: LARGE_CHEB_ITERS * (lap.nnz() + n * n) * k,
        single_ns,
        batched_ns,
        bitwise_equal,
    });

    (records, hash_f64(&xs))
}

/// One `"large_determinism"` row: the hash is a pure function of `n`
/// (fixed `k`, κ and iteration count), bitwise identical on every host
/// and at every thread count.
fn large_det_row(n: usize, hash: u64) -> String {
    format!(
        "    {{\"det\": \"batched_cheby\", \"n\": {}, \"batch_k\": {}, \"cheb_iters\": {}, \"solution_hash\": \"{:#018x}\"}}",
        n, LARGE_BATCH_K, LARGE_CHEB_ITERS, hash
    )
}

/// Sizes whose solution hashes `--check --large` recomputes (time-boxed:
/// the `n = 2048` factorization is minutes of work, the point of the
/// check — bitwise batching determinism — is size-independent).
const LARGE_CHECK_SIZES: [usize; 2] = [512, 1024];

/// Extracts `(n, solution_hash)` pairs from `"large_determinism"` rows.
fn parse_large_hashes(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let marker = "\"det\": \"batched_cheby\", \"n\": ";
    for (pos, _) in doc.match_indices(marker) {
        let rest = &doc[pos + marker.len()..];
        let n: usize = rest
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("malformed large_determinism row");
        let hpat = "\"solution_hash\": \"";
        let hstart = rest.find(hpat).expect("row has a solution_hash") + hpat.len();
        let hash: String = rest[hstart..].chars().take_while(|&c| c != '"').collect();
        out.push((n, hash));
    }
    out
}

/// Recomputes the time-boxed subset of large-tier solution hashes and
/// compares them against the committed `"large_determinism"` section.
/// Exits nonzero on any mismatch.
fn check_large(path: &str) {
    let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_snapshot --check --large: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let Some(section) = baseline.find("\"large_determinism\":") else {
        eprintln!(
            "bench_snapshot --check --large: {path} has no \"large_determinism\" section (regenerate the baseline)"
        );
        std::process::exit(1);
    };
    let want = parse_large_hashes(&baseline[section..]);
    let mut failed = false;
    for n in LARGE_CHECK_SIZES {
        let Some((_, want_hash)) = want.iter().find(|(wn, _)| *wn == n) else {
            eprintln!("bench_snapshot --check --large: baseline has no row for n={n}");
            failed = true;
            continue;
        };
        eprintln!("bench_snapshot --check --large: recomputing n={n}…");
        let (records, hash) = large_tier_instance(n, 1);
        let got_hash = format!("{hash:#018x}");
        if !records.iter().all(|r| r.bitwise_equal) {
            eprintln!(
                "bench_snapshot --check --large: n={n}: batched kernels are not bitwise equal to single-RHS runs"
            );
            failed = true;
        }
        if got_hash != *want_hash {
            eprintln!(
                "bench_snapshot --check --large: n={n}: solution hash drifted: baseline {want_hash} != current {got_hash}"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "bench_snapshot --check --large: OK — solution hashes match {path} for n ∈ {LARGE_CHECK_SIZES:?}"
    );
}

/// Per-phase congestion of representative solver runs, captured through
/// `TracingComm`. Unlike the wall-clock records these are deterministic —
/// the same JSON on every host — so diffs against a committed
/// `BENCH_*.json` flag real communication-pattern regressions.
fn congestion_section() -> String {
    type GraphBuilder = Box<dyn Fn() -> cc_graph::Graph>;
    let workloads: [(&str, GraphBuilder); 2] = [
        (
            "laplacian_solve/random_connected_32",
            Box::new(|| generators::random_connected(32, 96, 8, 1)),
        ),
        (
            "laplacian_solve/expander_32",
            Box::new(|| generators::expander(32)),
        ),
    ];
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, build)| {
            let g = build();
            let n = g.n();
            let mut b = vec![0.0; n];
            b[0] = 1.0;
            b[n - 1] = -1.0;
            let mut comm = TracingComm::new(Clique::new(n));
            solve_laplacian(&mut comm, &g, &b, 1e-6, &SolverOptions::default())
                .expect("representative solve succeeds");
            let stats: String = comm
                .congestion_json()
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if i == 0 {
                        l.to_string()
                    } else {
                        format!("    {l}")
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            format!(
                "    {{\"workload\": \"{}\", \"total_rounds\": {}, \"stats\": {}}}",
                name,
                comm.ledger().total_rounds(),
                stats
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// FNV-1a over the flow values' two's-complement bits — one word per
/// edge, so any single-edge change flips the digest.
fn hash_i64(xs: &[i64]) -> u64 {
    fnv1a_words(xs.iter().map(|&x| x as u64))
}

/// Golden end-to-end IPM runs: fixed instances through both
/// interior-point stacks, reporting exact values, ledger round totals,
/// flow-bit hashes and the barrier engine's per-stage stats. Everything
/// here is bitwise deterministic across hosts and thread counts.
fn ipm_section() -> String {
    let mut rows = Vec::new();
    for (n, extra, cap, seed, s, t) in [
        (8usize, 14usize, 3i64, 5u64, 0usize, 7usize),
        (12, 26, 4, 13, 0, 11),
    ] {
        let g = generators::random_flow_network(n, extra, cap, seed);
        let mut clique = Clique::new(n);
        let out =
            max_flow_ipm(&mut clique, &g, s, t, &IpmOptions::default()).expect("honest clique");
        rows.push(format!(
            "    {{\"instance\": \"maxflow/random_flow_network_{}_seed{}\", \"value\": {}, \"total_rounds\": {}, \"charged_rounds\": {}, \"implemented_rounds\": {}, \"flow_hash\": \"{:#018x}\", \"progress_steps\": {}, \"engine\": {}}}",
            n,
            seed,
            out.value,
            clique.ledger().total_rounds(),
            clique.ledger().charged_rounds(),
            clique.ledger().implemented_rounds(),
            hash_i64(&out.flow),
            out.stats.progress_steps,
            out.stats.engine.to_json(),
        ));
    }
    for (k, extra, cost, seed) in [(4usize, 2usize, 8i64, 7u64), (5, 3, 6, 11)] {
        let (g, sigma) = generators::bipartite_assignment(k, extra, cost, seed);
        let mut clique = Clique::new(g.n() + 2);
        let out =
            min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).expect("feasible");
        rows.push(format!(
            "    {{\"instance\": \"mcf/bipartite_assignment_{}_seed{}\", \"cost\": {}, \"total_rounds\": {}, \"charged_rounds\": {}, \"implemented_rounds\": {}, \"flow_hash\": \"{:#018x}\", \"progress_steps\": {}, \"engine\": {}}}",
            k,
            seed,
            out.cost,
            clique.ledger().total_rounds(),
            clique.ledger().charged_rounds(),
            clique.ledger().implemented_rounds(),
            hash_i64(&out.flow),
            out.stats.progress_steps,
            out.stats.engine.to_json(),
        ));
    }
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Deterministic replay of the service-layer soak: the whole conformance
/// corpus registered in one `FlowEngine`, a seeded randomized request
/// stream with randomized batch widths, every 10th response differenced
/// against the sequential oracles. Everything except the wall-clock
/// fields (`wall_ms`, `requests_per_sec`) is bitwise reproducible across
/// hosts and thread counts — `--check` recomputes the section and
/// compares rounds, cache hits, and the response fingerprint.
fn service_section() -> String {
    let config = cc_conform::SoakConfig {
        requests: 1000,
        oracle_every: 10,
        ..cc_conform::SoakConfig::default()
    };
    let t0 = Instant::now();
    let report = cc_conform::run_service_soak(&config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        report.mismatches.is_empty(),
        "service soak disagreed with the sequential oracles: {:?}",
        report.mismatches
    );
    format!(
        "{{\"seed\": {}, \"requests\": {}, \"batches\": {}, \"batched_requests\": {}, \"oracle_checks\": {}, \"mismatches\": {}, \"template_cache_hits\": {}, \"builds\": {}, \"total_rounds\": {}, \"charged_rounds\": {}, \"fingerprint\": \"{:#018x}\", \"counts_by_kind\": [{}], \"wall_ms\": {:.1}, \"requests_per_sec\": {:.0}}}",
        config.seed,
        report.requests,
        report.batches,
        report.batched_requests,
        report.oracle_checks,
        report.mismatches.len(),
        report.template_cache_hits,
        report.builds,
        report.total_rounds,
        report.charged_rounds,
        report.fingerprint,
        report
            .counts_by_kind
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        wall_ms,
        report.requests as f64 / (wall_ms / 1e3).max(1e-9),
    )
}

/// Sizes of the threaded-scaling tier: virtual cliques sharded over the
/// persistent worker pool, up to `n = 2048` nodes.
const THREADED_SIZES: [usize; 3] = [256, 1024, 2048];
/// Worker counts of the threaded-scaling tier (the same matrix the CI
/// determinism job pins).
const THREADED_WORKERS: [usize; 3] = [1, 2, 8];
/// Synchronous rounds each threaded workload replays.
const THREADED_ROUNDS: usize = 4;

/// One deterministic round of unicast traffic: node `u` sends a 3-word
/// message to each of 8 strided neighbors, with the stride varying per
/// round so shards see different destination mixes.
fn threaded_outboxes(n: usize, round: usize) -> Vec<Vec<(usize, Vec<u64>)>> {
    (0..n)
        .map(|u| {
            (1..=8usize)
                .map(|d| {
                    let dst = (u + d * (round + 1) * 37) % n;
                    let w = (u as u64) << 32 | (round as u64) << 8 | d as u64;
                    (dst, vec![w, w.wrapping_mul(0x9e3779b97f4a7c15), !w])
                })
                .collect()
        })
        .collect()
}

/// Replays the threaded workload — alternating `route` and `exchange`
/// rounds — and folds every delivered envelope into an FNV-1a digest.
fn threaded_workload<C: Communicator>(comm: &mut C, n: usize) -> u64 {
    let mut h = Fnv1a::default();
    for round in 0..THREADED_ROUNDS {
        let routed = comm
            .route(threaded_outboxes(n, 2 * round))
            .expect("well-formed workload");
        let exchanged = comm
            .exchange(threaded_outboxes(n, 2 * round + 1))
            .expect("well-formed workload");
        for inbox in routed.iter().chain(exchanged.iter()) {
            for env in inbox {
                h.word(env.src as u64);
                env.payload.iter().for_each(|&w| h.word(w));
            }
        }
    }
    h.finish()
}

/// The threaded-scaling section (schema v5): the same deterministic
/// unicast workload through the sequential `Clique` and through
/// `ThreadedComm` at each worker count. Rounds and inbox hashes are
/// asserted identical across all transports before being reported —
/// they are the `--check`-gated fields — while `wall_ns` records the
/// per-host scaling curve and is excluded from drift checks.
fn threaded_section() -> String {
    let mut rows = Vec::new();
    for n in THREADED_SIZES {
        let mut seq = Clique::new(n);
        let want_hash = threaded_workload(&mut seq, n);
        let want_rounds = seq.ledger().total_rounds();
        for workers in THREADED_WORKERS {
            let t0 = Instant::now();
            let mut par = ThreadedComm::with_workers(n, workers);
            let hash = threaded_workload(&mut par, n);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let rounds = par.ledger().total_rounds();
            assert_eq!(
                (hash, rounds),
                (want_hash, want_rounds),
                "ThreadedComm diverged from Clique at n={n}, workers={workers}"
            );
            assert_eq!(
                seq.ledger().report(),
                par.ledger().report(),
                "ledger report diverged at n={n}, workers={workers}"
            );
            rows.push(format!(
                "    {{\"bench\": \"threaded_route_exchange\", \"n\": {}, \"workers\": {}, \"rounds\": {}, \"inbox_hash\": \"{:#018x}\", \"wall_ns\": {}}}",
                n, workers, rounds, hash, wall_ns
            ));
        }
    }
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// FNV-1a over a service response's bits: a variant tag, then every
/// field (floats by IEEE-754 bits, integers by two's complement).
fn hash_response(r: &Response) -> u64 {
    let mut h = Fnv1a::default();
    let mut fold = |w: u64| h.word(w);
    match r {
        Response::Potentials { x, iterations } => {
            fold(1);
            fold(*iterations as u64);
            x.iter().for_each(|v| fold(v.to_bits()));
        }
        Response::MaxFlow { flow, value } => {
            fold(3);
            fold(*value as u64);
            flow.iter().for_each(|&f| fold(f as u64));
        }
        other => unreachable!("recovery scenarios return potentials or flows, got {other:?}"),
    }
    h.finish()
}

/// Node count of the recovery scenarios (matches the service-layer
/// recovery suite).
const ADV_N: usize = 14;
/// The crash window: node 1 is dead for the first `ADV_CRASH_UNTIL`
/// ledger rounds, long enough that every scenario's opening
/// communication hits it.
const ADV_CRASH_UNTIL: u64 = 50;
/// Backoff charged before the retry; `≥ ADV_CRASH_UNTIL` guarantees
/// attempt 2 starts after the node recovered.
const ADV_BACKOFF: u64 = 200;

/// The adversary section (schema v6): chaos-matrix counts over the full
/// conformance corpus plus the pinned retry/backoff recovery scenarios.
/// Everything here is bitwise deterministic — the adversary streams are
/// pure functions of (schedule, call sequence, payload shapes) — so all
/// fields are `--check`-gated.
fn adversary_section() -> String {
    // A Corrupted cell panics inside the suite's catch_unwind; keep the
    // snapshot log readable by silencing the hook while the matrix runs.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = cc_conform::run_adversary_suite();
    std::panic::set_hook(hook);
    report.assert_detectable_strategies_never_corrupt();
    let chaos = format!(
        "{{\"cells\": {}, \"detected\": {}, \"tolerated\": {}, \"corrupted\": {}, \"matrix_hash\": \"{:#018x}\"}}",
        report.cells.len(),
        report.count(cc_conform::CellOutcome::Detected),
        report.count(cc_conform::CellOutcome::Tolerated),
        report.count(cc_conform::CellOutcome::Corrupted),
        fnv1a_bytes(report.matrix_markdown().as_bytes()),
    );

    fn register<C: Communicator>(engine: &mut FlowEngine<C>) {
        engine.register(
            "lap",
            GraphSpec::Undirected(generators::random_connected(ADV_N, 34, 4, 3)),
        );
        engine.register(
            "net",
            GraphSpec::Directed(generators::random_flow_network(10, 18, 4, 2)),
        );
    }
    let mut b = vec![0.0; ADV_N];
    b[0] = 1.0;
    b[ADV_N - 1] = -1.0;
    let scenarios: [(&str, Request); 2] = [
        (
            "laplacian_solve/crash_recover",
            Request::LaplacianSolve {
                graph: "lap".into(),
                b,
                eps: 1e-8,
            },
        ),
        (
            "maxflow/crash_recover",
            Request::MaxFlow {
                graph: "net".into(),
                s: 0,
                t: 9,
            },
        ),
    ];
    let rows: Vec<String> = scenarios
        .into_iter()
        .map(|(label, request)| {
            // Fault-free baseline: what the recovered attempt must
            // reproduce bit for bit.
            let mut baseline = FlowEngine::new(Clique::new(ADV_N));
            register(&mut baseline);
            let want = baseline.submit(request.clone()).expect("honest clique");

            let schedule = AdversarySchedule::new(17).with(
                1,
                AdversaryStrategy::CrashRecover {
                    from_round: 0,
                    until_round: ADV_CRASH_UNTIL,
                },
            );
            let mut engine = FlowEngine::with_config(
                AdversaryComm::new(Clique::new(ADV_N), schedule),
                EngineConfig {
                    retry: RetryPolicy::retries(3, ADV_BACKOFF),
                    ..EngineConfig::default()
                },
            );
            register(&mut engine);
            let got = engine.submit(request).expect("retry must recover");
            let degraded = got.stats.degraded.expect("recovered request is degraded");
            assert_eq!(
                hash_response(&got.response),
                hash_response(&want.response),
                "{label}: recovered response diverged from the fault-free run"
            );
            format!(
                "    {{\"scenario\": \"{}\", \"attempts\": {}, \"faults_observed\": {}, \"retry_rounds\": {}, \"request_rounds\": {}, \"response_fingerprint\": \"{:#018x}\"}}",
                label,
                got.stats.attempts,
                degraded.faults_observed,
                engine.ledger().phase("service_retry").implemented,
                got.stats.rounds,
                hash_response(&got.response),
            )
        })
        .collect();
    format!(
        "{{\"chaos\": {}, \"recovery\": [\n{}\n  ]}}",
        chaos,
        rows.join(",\n")
    )
}

/// The broadcast section (schema v7): the sparsifier → solver → IPM
/// pipeline replayed over the measured Broadcast Congested Clique
/// (`BroadcastComm`) and differenced against the unicast clique.
/// Results are asserted bitwise identical across the two cost models
/// before being reported — measured mode simulates unicast primitives
/// at true broadcast cost, so only the ledgers may differ — and each
/// row pins both round totals plus their ratio. The solver row
/// additionally replays under *strict* mode (the Laplacian surface
/// never touches a unicast primitive) and a tracing row pins the
/// one-sender-to-all congestion attribution. All fields are
/// `--check`-gated.
fn broadcast_section() -> String {
    let mut rows = Vec::new();

    // Laplacian solve: unicast vs measured vs strict broadcast.
    let g = generators::random_connected(32, 96, 8, 1);
    let n = g.n();
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    let opts = SolverOptions::default();
    let mut uni = Clique::new(n);
    let want = solve_laplacian(&mut uni, &g, &b, 1e-6, &opts).expect("unicast solve");
    let mut bc = BroadcastComm::measured(Clique::new(n));
    let got = solve_laplacian(&mut bc, &g, &b, 1e-6, &opts).expect("broadcast solve");
    assert_eq!(
        (hash_f64(&want.x), want.iterations),
        (hash_f64(&got.x), got.iterations),
        "measured BroadcastComm must reproduce the unicast solution bitwise"
    );
    let mut strict = BroadcastComm::strict(Clique::new(n));
    let strict_out = solve_laplacian(&mut strict, &g, &b, 1e-6, &opts)
        .expect("the Laplacian surface is strictly broadcast-expressible");
    assert_eq!(
        (hash_f64(&strict_out.x), strict.ledger().report()),
        (hash_f64(&got.x), bc.ledger().report()),
        "strict and measured broadcast runs must agree on the broadcast surface"
    );
    rows.push(format!(
        "    {{\"pipeline\": \"laplacian_solve/random_connected_32\", \"result_hash\": \"{:#018x}\", \"unicast_rounds\": {}, \"broadcast_rounds\": {}, \"round_ratio\": {:.4}}}",
        hash_f64(&got.x),
        uni.ledger().total_rounds(),
        bc.ledger().total_rounds(),
        bc.ledger().total_rounds() as f64 / uni.ledger().total_rounds() as f64,
    ));

    // Sparsifier: the same template over both cost models.
    let mut uni = Clique::new(n);
    let want = build_sparsifier(&mut uni, &g, &SparsifyParams::default()).expect("unicast");
    let mut bc = BroadcastComm::measured(Clique::new(n));
    let got = build_sparsifier(&mut bc, &g, &SparsifyParams::default()).expect("broadcast");
    let edge_hash = |s: &cc_sparsify::SpectralSparsifier| {
        fnv1a_words(
            s.edges()
                .iter()
                .flat_map(|&(u, v, w)| [u as u64, v as u64, w.to_bits()]),
        )
    };
    assert_eq!(
        (edge_hash(&want), want.alpha().to_bits()),
        (edge_hash(&got), got.alpha().to_bits()),
        "measured BroadcastComm must reproduce the sparsifier bitwise"
    );
    rows.push(format!(
        "    {{\"pipeline\": \"sparsifier/random_connected_32\", \"result_hash\": \"{:#018x}\", \"unicast_rounds\": {}, \"broadcast_rounds\": {}, \"round_ratio\": {:.4}}}",
        edge_hash(&got),
        uni.ledger().total_rounds(),
        bc.ledger().total_rounds(),
        bc.ledger().total_rounds() as f64 / uni.ledger().total_rounds() as f64,
    ));

    // Max-flow IPM: the unicast-shaped primitives (routing, Eulerian
    // orientation) simulated at broadcast cost.
    let gf = generators::random_flow_network(12, 26, 4, 13);
    let mut uni = Clique::new(12);
    let want = max_flow_ipm(&mut uni, &gf, 0, 11, &IpmOptions::default()).expect("unicast");
    let mut bc = BroadcastComm::measured(Clique::new(12));
    let got = max_flow_ipm(&mut bc, &gf, 0, 11, &IpmOptions::default()).expect("broadcast");
    assert_eq!(
        (want.value, hash_i64(&want.flow)),
        (got.value, hash_i64(&got.flow)),
        "measured BroadcastComm must reproduce the max flow bitwise"
    );
    rows.push(format!(
        "    {{\"pipeline\": \"maxflow_ipm/random_flow_network_12_seed13\", \"result_hash\": \"{:#018x}\", \"unicast_rounds\": {}, \"broadcast_rounds\": {}, \"round_ratio\": {:.4}}}",
        hash_i64(&got.flow),
        uni.ledger().total_rounds(),
        bc.ledger().total_rounds(),
        bc.ledger().total_rounds() as f64 / uni.ledger().total_rounds() as f64,
    ));

    // Congestion attribution under broadcast: one sender reaches all
    // n−1 receivers, so the per-pair congestion seam reports the
    // per-node send load instead of the max pair load.
    let mut trace = TracingComm::new(BroadcastComm::measured(Clique::new(n)));
    solve_laplacian(&mut trace, &g, &b, 1e-6, &opts).expect("traced broadcast solve");
    let trace_json = trace.congestion_json();
    format!(
        "{{\"pipelines\": [\n{}\n  ], \"trace_hash\": \"{:#018x}\", \"trace\": {}}}",
        rows.join(",\n"),
        fnv1a_bytes(trace_json.as_bytes()),
        trace_json
            .lines()
            .enumerate()
            .map(|(i, l)| if i == 0 {
                l.to_string()
            } else {
                format!("  {l}")
            })
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

/// Drift-sensitive fields of a snapshot document, in document order:
/// every round total, flow hash, exact value and solver count, plus the
/// service soak's cache-hit totals and response fingerprint. Wall-clock
/// fields are deliberately absent — they vary per host.
fn drift_fields(doc: &str) -> Vec<(usize, String, String)> {
    const KEYS: [&str; 29] = [
        "inbox_hash",
        "total_rounds",
        "charged_rounds",
        "implemented_rounds",
        "rounds",
        "flow_hash",
        "value",
        "cost",
        "solves",
        "chebyshev_iterations",
        "template_reuses",
        "template_cache_hits",
        "mismatches",
        "fingerprint",
        "detected",
        "tolerated",
        "corrupted",
        "cells",
        "matrix_hash",
        "attempts",
        "faults_observed",
        "retry_rounds",
        "request_rounds",
        "response_fingerprint",
        "result_hash",
        "unicast_rounds",
        "broadcast_rounds",
        "round_ratio",
        "trace_hash",
    ];
    let mut found = Vec::new();
    for key in KEYS {
        let pat = format!("\"{key}\":");
        for (pos, _) in doc.match_indices(&pat) {
            let rest = doc[pos + pat.len()..].trim_start();
            let val: String = rest
                .chars()
                .take_while(|c| !",}\n".contains(*c))
                .collect::<String>()
                .trim()
                .to_string();
            found.push((pos, key.to_string(), val));
        }
    }
    found.sort();
    found
}

/// Recomputes the deterministic sections and compares every
/// drift-sensitive field against the committed baseline. Exits nonzero
/// on any mismatch.
fn check_baseline(path: &str) {
    let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_snapshot --check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    if !baseline.contains("\"ipm\":") {
        eprintln!(
            "bench_snapshot --check: {path} has no \"ipm\" section (regenerate the baseline)"
        );
        std::process::exit(1);
    }
    if !baseline.contains("\"service\":") {
        eprintln!(
            "bench_snapshot --check: {path} has no \"service\" section (regenerate the baseline)"
        );
        std::process::exit(1);
    }
    if !baseline.contains("\"threaded\":") {
        eprintln!(
            "bench_snapshot --check: {path} has no \"threaded\" section (schema v5 — regenerate the baseline)"
        );
        std::process::exit(1);
    }
    if !baseline.contains("\"adversary\":") {
        eprintln!(
            "bench_snapshot --check: {path} has no \"adversary\" section (schema v6 — regenerate the baseline)"
        );
        std::process::exit(1);
    }
    if !baseline.contains("\"broadcast\":") {
        eprintln!(
            "bench_snapshot --check: {path} has no \"broadcast\" section (schema v7 — regenerate the baseline)"
        );
        std::process::exit(1);
    }
    eprintln!("bench_snapshot --check: recomputing deterministic sections…");
    let fresh = format!(
        "{{\n  \"ipm\": {},\n  \"congestion\": {},\n  \"service\": {},\n  \"threaded\": {},\n  \"adversary\": {},\n  \"broadcast\": {}\n}}\n",
        ipm_section(),
        congestion_section(),
        service_section(),
        threaded_section(),
        adversary_section(),
        broadcast_section(),
    );
    let want: Vec<(String, String)> = drift_fields(&baseline)
        .into_iter()
        .map(|(_, k, v)| (k, v))
        .collect();
    let got: Vec<(String, String)> = drift_fields(&fresh)
        .into_iter()
        .map(|(_, k, v)| (k, v))
        .collect();
    if want == got {
        eprintln!(
            "bench_snapshot --check: OK — {} drift-sensitive fields match {path}",
            want.len()
        );
        return;
    }
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            eprintln!(
                "bench_snapshot --check: field #{i} \"{}\" drifted: baseline {} != current {}",
                w.0, w.1, g.1
            );
        }
    }
    if want.len() != got.len() {
        eprintln!(
            "bench_snapshot --check: field count changed: baseline {} != current {}",
            want.len(),
            got.len()
        );
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let large = args.get(1).map(String::as_str) == Some("--large");
        let path = args
            .get(if large { 2 } else { 1 })
            .map(String::as_str)
            .unwrap_or("BENCH_baseline.json");
        if large {
            check_large(path);
        } else {
            check_baseline(path);
        }
        return;
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_baseline.json".into());
    let threads = par::max_threads();
    eprintln!("bench_snapshot: {threads} thread(s) available");

    let mut records = Vec::new();
    for &n in &[1024usize, 4096, 16384, 65536] {
        let reps = if n >= 16384 { 11 } else { 31 };
        eprintln!("  csr_matvec n={n}…");
        records.push(snapshot_matvec(n, reps));
    }
    for &n in &[96usize, 192, 384] {
        eprintln!("  dense_matmul n={n}…");
        records.push(snapshot_matmul(n, 7));
    }
    eprintln!("  chebyshev n=16384…");
    records.push(snapshot_chebyshev(16384, 40, 7));

    let mut large_records = Vec::new();
    let mut large_det_rows = Vec::new();
    for &n in &[256usize, 512, 1024, 2048] {
        let reps = if n >= 2048 { 3 } else { 5 };
        eprintln!("  large tier n={n} (k={LARGE_BATCH_K})…");
        let (rows, hash) = large_tier_instance(n, reps);
        large_det_rows.push(large_det_row(n, hash));
        large_records.extend(rows);
    }

    eprintln!("  ipm goldens…");
    let ipm = ipm_section();

    eprintln!("  congestion traces…");
    let congestion = congestion_section();

    eprintln!("  service soak…");
    let service = service_section();

    eprintln!("  threaded scaling…");
    let threaded = threaded_section();

    eprintln!("  adversary chaos + recovery…");
    let adversary = adversary_section();

    eprintln!("  broadcast clique…");
    let broadcast = broadcast_section();

    let all_equal =
        records.iter().all(|r| r.bitwise_equal) && large_records.iter().all(|r| r.bitwise_equal);
    let body: Vec<String> = records.iter().map(Record::json).collect();
    let large_body: Vec<String> = large_records.iter().map(LargeRecord::json).collect();
    // `"large_determinism"` stays the LAST section: `--check --large`
    // locates it by marker and reads to the end of the document.
    let json = format!(
        "{{\n  \"schema\": \"cc-bench/snapshot-v7\",\n  \"threads\": {},\n  \"parallel_feature\": {},\n  \"all_bitwise_equal\": {},\n  \"records\": [\n{}\n  ],\n  \"large\": [\n{}\n  ],\n  \"ipm\": {},\n  \"congestion\": {},\n  \"service\": {},\n  \"threaded\": {},\n  \"adversary\": {},\n  \"broadcast\": {},\n  \"large_determinism\": [\n{}\n  ]\n}}\n",
        threads,
        par::PARALLEL_ENABLED,
        all_equal,
        body.join(",\n"),
        large_body.join(",\n"),
        ipm,
        congestion,
        service,
        threaded,
        adversary,
        broadcast,
        large_det_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
    for r in &records {
        let speedup = r.serial_ns as f64 / r.parallel_ns.max(1) as f64;
        eprintln!(
            "  {:>14} n={:<6} serial {:>12}ns parallel {:>12}ns speedup {:.2}x bitwise_equal={}",
            r.bench, r.n, r.serial_ns, r.parallel_ns, speedup, r.bitwise_equal
        );
    }
    for r in &large_records {
        let speedup = r.single_ns as f64 / r.batched_ns.max(1) as f64;
        eprintln!(
            "  {:>26} n={:<5} single {:>12}ns batched {:>12}ns speedup {:.2}x bitwise_equal={}",
            r.bench, r.n, r.single_ns, r.batched_ns, speedup, r.bitwise_equal
        );
    }
    assert!(
        all_equal,
        "parallel/batched results must be bitwise identical to their serial/single twins"
    );
}
