//! Reproducible snapshot of the simulator: kernel timings, round totals
//! and result hashes, written as one JSON document of named sections.
//!
//! ```text
//! cargo run -p cc-bench --release --bin bench_snapshot -- [out]  # default BENCH_baseline.json
//! cargo run -p cc-bench --release --bin bench_snapshot -- --check [path]
//! cargo run -p cc-bench --release --bin bench_snapshot -- --check --large [path]
//! ```
//!
//! Every section is a list of [`Row`]s, or one row whose fields hold rows:
//!
//! - `records`: CSR mat-vec, dense mat-mul and Chebyshev, serial vs
//!   parallel, each parallel result checked bitwise against serial;
//! - `large`: batched multi-RHS kernels vs `k` single-RHS runs on wide
//!   banded Laplacians up to `n = 2048`, checked column for column;
//! - `ipm`: golden max-flow and min-cost-flow IPM runs;
//! - `congestion`: per-phase congestion of two traced Laplacian solves;
//! - `service`: a seeded 1000-request `FlowEngine` soak, oracle-checked;
//! - `threaded`: `ThreadedComm` at workers 1/2/8, asserted equal to `Clique`;
//! - `adversary`: the chaos matrix and two crash–recover retry scenarios;
//! - `broadcast`: the pipeline over the measured `BroadcastComm`, asserted
//!   bitwise equal to unicast, and its congestion trace;
//! - `large_determinism`: a hash of the batched solution bits per size.
//!
//! Timings are the median of an odd number of runs after one warm-up.
//! Fields named `*_ns`, `*speedup`, `wall_ms`, `requests_per_sec` and
//! `threads` measure the host; all others are deterministic. `--check`
//! recomputes `ipm` through `broadcast` and compares every deterministic
//! field of every row with the baseline, rows matched by section and row
//! key ([`drift`]); `--check --large` does the same for the `large` and
//! `large_determinism` rows at `n ∈ {512, 1024}`. Each difference, and
//! each section or row missing on either side, is printed with its
//! section, row key and field, and the process exits nonzero.

use std::time::Instant;

use cc_bench::json::{drift, Json, Row};
use cc_conform::CellOutcome;
use cc_core::{solve_laplacian, SolverOptions};
use cc_graph::generators::{bipartite_assignment, expander, random_connected, random_flow_network};
use cc_linalg::{
    chebyshev_solve_fixed_into as cheby_fixed, laplacian_from_edges, par, vec_ops::remove_mean,
    ChebyshevWorkspace, CsrMatrix, DenseMatrix, GroundedCholesky, SolveScratch,
};
use cc_maxflow::{max_flow_ipm, IpmOptions};
use cc_mcf::{min_cost_flow_ipm, McfOptions};
use cc_model::util::{fnv1a_bytes, fnv1a_words, Fnv1a};
use cc_model::{BroadcastComm, FaultComm, FaultPlan, FaultRule};
use cc_model::{Clique, Communicator, ThreadedComm, TracingComm};
use cc_service::{EngineConfig, FlowEngine, GraphSpec, Request, Response, RetryPolicy};
use cc_sparsify::{build_sparsifier, SparsifyParams};

/// Computes one section of the snapshot.
type Section = fn() -> Json;

/// The sections `--check` recomputes, in document order.
const CHECKED: [(&str, Section); 6] = [
    ("ipm", ipm),
    ("congestion", congestion),
    ("service", service),
    ("threaded", threaded),
    ("adversary", adversary),
    ("broadcast", broadcast),
];

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

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over the IEEE-754 bits of a float slice.
fn hash_f64(xs: &[f64]) -> u64 {
    fnv1a_words(xs.iter().map(|x| x.to_bits()))
}

/// FNV-1a over two's-complement bits, one word per value.
fn hash_i64(xs: &[i64]) -> u64 {
    fnv1a_words(xs.iter().map(|&x| x as u64))
}

/// The Laplacian with a band `(i, i + d)` of weights `weight(i, d)` for
/// each `d` in `offsets`, and its edge count.
fn banded(n: usize, offsets: &[usize], weight: impl Fn(usize, usize) -> f64) -> (CsrMatrix, usize) {
    let mut edges = Vec::new();
    for &d in offsets {
        edges.extend((0..n.saturating_sub(d)).map(|i| (i, i + d, weight(i, d))));
    }
    (laplacian_from_edges(n, &edges), edges.len())
}

/// A deterministic zero-mean right-hand side; `salt` picks the column.
fn rhs(n: usize, salt: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|v| ((v * 2_654_435_761 + salt * 40_503) % 1_000) as f64 - 500.0)
        .collect();
    remove_mean(&mut b);
    b
}

/// A `records` row: `run` timed on one thread and on the default pool,
/// each into its own copy of `out`, and the two results compared bitwise.
fn record<T: Clone>(
    (bench, n, work, reps): (&str, usize, usize, usize),
    out: T,
    mut run: impl FnMut(&mut T),
    bits: fn(&T) -> &[f64],
) -> Row {
    let (mut serial, mut parallel) = (out.clone(), out);
    let serial_ns = par::with_threads(1, || time_ns(reps, || run(&mut serial)));
    let parallel_ns = time_ns(reps, || run(&mut parallel));
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    Row::default()
        .key("bench", bench)
        .key("n", n)
        .det("work", work)
        .host("serial_ns", serial_ns)
        .host("parallel_ns", parallel_ns)
        .host("speedup", Json::fixed(speedup, 3))
        .det("bitwise_equal", bits_equal(bits(&serial), bits(&parallel)))
}

fn records() -> Vec<Row> {
    // Path plus two skip-level bands: a handful of off-diagonals per row,
    // like real graph Laplacians.
    let laplacian = |n| {
        let weight = |i: usize, d| match d {
            1 => 1.0 + (i % 7) as f64,
            16 => 0.5 + (i % 3) as f64,
            _ => 0.25,
        };
        banded(n, &[1, 16, 64], weight).0
    };
    let mut rows = Vec::new();
    for n in [1024, 4096, 16384, 65536] {
        eprintln!("  csr_matvec n={n}…");
        let (a, x) = (laplacian(n), rhs(n, 0));
        let id = ("csr_matvec", n, a.nnz(), if n >= 16384 { 11 } else { 31 });
        rows.push(record(
            id,
            vec![0.0; n],
            |y| a.matvec_into(&x, y),
            Vec::as_slice,
        ));
    }
    for n in [96, 192, 384] {
        eprintln!("  dense_matmul n={n}…");
        let dense = |salt: usize| {
            let data = (0..n * n).map(|k| ((k * 31 + salt * 17) % 23) as f64 - 11.0);
            DenseMatrix::from_row_major(n, n, data.collect())
        };
        let (a, b) = (dense(1), dense(2));
        let matmul = |c: &mut DenseMatrix| *c = a.matmul(&b).expect("conforming shapes");
        let id = ("dense_matmul", n, n * n * n, 7);
        rows.push(record(
            id,
            DenseMatrix::zeros(n, n),
            matmul,
            DenseMatrix::as_slice,
        ));
    }
    eprintln!("  chebyshev n=16384…");
    let (n, iters) = (16384, 40);
    let (a, b, mut ws) = (laplacian(n), rhs(n, 0), ChebyshevWorkspace::new(n));
    let solve = |x: &mut Vec<f64>| {
        let matvec = |p: &[f64], ap: &mut [f64]| a.matvec_into(p, ap);
        cheby_fixed(
            matvec,
            |r, z| z.copy_from_slice(r),
            &b,
            16.0,
            iters,
            x,
            &mut ws,
        );
    };
    let id = ("chebyshev_fixed", n, iters * a.nnz(), 7);
    rows.push(record(id, vec![0.0; n], solve, Vec::as_slice));
    rows
}

/// Width of the large tier's right-hand-side batches.
const LARGE_BATCH_K: usize = 16;
/// Fixed, data-independent Chebyshev iteration count of the large tier.
const LARGE_CHEB_ITERS: usize = 12;
/// Spectrum bound handed to Chebyshev in the large tier (`B = κ·L`, so
/// `B†A` has spectrum `{1/κ} ⊂ [1/κ, 1]`).
const LARGE_KAPPA: f64 = 16.0;
/// Sizes `--check --large` recomputes: the `n = 2048` factorization is
/// minutes of work, and bitwise batching determinism is size-independent.
const LARGE_CHECK_SIZES: [usize; 2] = [512, 1024];

type Kernel<'a> = &'a mut dyn FnMut(&[f64], &mut [f64]);

/// The `large` rows and the `large_determinism` row of one instance: a
/// wide banded Laplacian (bands `d = 1..=n/2`, so `m ≈ 3n²/8` and the
/// grounded factor is effectively dense) and `k` right-hand sides. The
/// preconditioned Chebyshev solve and its two kernels each run batched
/// (column `j` interleaved at `v·k + j`) and as `k` single-RHS runs, and
/// column `j` of the batch must equal single run `j` bitwise. The
/// determinism row pins a hash of the batched solution.
fn large_tier(n: usize, reps: usize) -> (Vec<Row>, Row) {
    let (k, kappa, iters) = (LARGE_BATCH_K, LARGE_KAPPA, LARGE_CHEB_ITERS);
    let (lap, m) = banded(n, &(1..=n / 2).collect::<Vec<_>>(), |i, d| {
        1.0 + ((i + 3 * d) % 5) as f64 * 0.25
    });
    let chol = GroundedCholesky::new(&lap).expect("connected instance");
    let cols: Vec<Vec<f64>> = (0..k).map(|j| rhs(n, j)).collect();
    let bs: Vec<f64> = (0..n * k).map(|i| cols[i % k][i / k]).collect();
    let (mut singles, mut batch) = (vec![vec![0.0; n]; k], vec![0.0; n * k]);
    let mut rows = Vec::new();
    let mut kernel = |bench: &str, work: usize, single: Kernel, batched: Kernel| {
        let single_ns = time_ns(reps, || {
            (0..k).for_each(|j| single(&cols[j], &mut singles[j]));
        });
        let batched_ns = time_ns(reps, || batched(&bs, &mut batch));
        let equal = (0..n * k).all(|i| batch[i].to_bits() == singles[i % k][i / k].to_bits());
        let speedup = single_ns as f64 / batched_ns.max(1) as f64;
        rows.push(
            Row::default()
                .key("bench", bench)
                .key("n", n)
                .det("edges", m)
                .det("work", work)
                .det("batch_k", k)
                .host("single_ns", single_ns)
                .host("batched_ns", batched_ns)
                .host("batch_speedup", Json::fixed(speedup, 3))
                .det("bitwise_equal", equal),
        );
    };
    let matvec = |p: &[f64], out: &mut [f64]| lap.matvec_into(p, out);
    let matvec_k = |p: &[f64], out: &mut [f64]| lap.matvec_multi_into(p, k, out);
    let work = lap.nnz() * k;
    kernel(
        "large_csr_matvec_multi",
        work,
        &mut matvec.clone(),
        &mut matvec_k.clone(),
    );
    // The batched sweep streams the factor through the cache once.
    let (mut s, mut s_k) = (SolveScratch::default(), SolveScratch::default());
    let mut solve = |r: &[f64], out: &mut [f64]| chol.solve_into(r, out, &mut s);
    let mut solve_k = |r: &[f64], out: &mut [f64]| chol.solve_multi_into(r, k, out, &mut s_k);
    kernel(
        "large_cholesky_solve_multi",
        n * n * k,
        &mut solve,
        &mut solve_k,
    );
    let precond = |solve: Kernel, r: &[f64], out: &mut [f64]| {
        solve(r, out);
        out.iter_mut().for_each(|z| *z /= kappa);
    };
    let (mut ws, mut ws_k) = (ChebyshevWorkspace::new(n), ChebyshevWorkspace::new(n * k));
    let mut cheby = |b: &[f64], x: &mut [f64]| {
        let precond = |r: &[f64], z: &mut [f64]| precond(&mut solve, r, z);
        cheby_fixed(matvec, precond, b, kappa, iters, x, &mut ws);
    };
    let mut cheby_k = |b: &[f64], x: &mut [f64]| {
        let precond = |r: &[f64], z: &mut [f64]| precond(&mut solve_k, r, z);
        cheby_fixed(matvec_k, precond, b, kappa, iters, x, &mut ws_k);
    };
    let work = iters * (lap.nnz() + n * n) * k;
    kernel("large_chebyshev_multi", work, &mut cheby, &mut cheby_k);
    let det = Row::default()
        .key("det", "batched_cheby")
        .key("n", n)
        .det("batch_k", k)
        .det("cheb_iters", iters)
        .det("solution_hash", Json::hex(hash_f64(&batch)));
    (rows, det)
}

/// The `large` and `large_determinism` sections over `sizes`.
fn large_sections(sizes: &[usize], reps: impl Fn(usize) -> usize) -> (Json, Json) {
    let (mut rows, mut det) = (Vec::new(), Vec::new());
    for &n in sizes {
        eprintln!("  large tier n={n} (k={LARGE_BATCH_K})…");
        let (tier, hash) = large_tier(n, reps(n));
        rows.extend(tier);
        det.push(hash);
    }
    (rows.into(), det.into())
}

/// A unit-demand right-hand side: `+1` at node 0, `−1` at node `n − 1`.
fn unit_demand(n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    (b[0], b[n - 1]) = (1.0, -1.0);
    b
}

/// Embeds a library JSON export (`congestion_json`, `EngineStats::to_json`).
fn embed(text: &str) -> Json {
    Json::parse(text).expect("library JSON exports parse")
}

fn congestion() -> Json {
    let workloads = [
        (
            "laplacian_solve/random_connected_32",
            random_connected(32, 96, 8, 1),
        ),
        ("laplacian_solve/expander_32", expander(32)),
    ];
    let rows = workloads.map(|(name, g)| {
        let mut comm = TracingComm::new(Clique::new(g.n()));
        solve_laplacian(
            &mut comm,
            &g,
            &unit_demand(g.n()),
            1e-6,
            &Default::default(),
        )
        .expect("representative solve succeeds");
        Row::default()
            .key("workload", name)
            .det("total_rounds", comm.ledger().total_rounds())
            .det("stats", embed(&comm.congestion_json()))
    });
    Vec::from(rows).into()
}

/// An `ipm` row; `objective` is the max-flow value or the min-cost-flow
/// cost.
fn ipm_row(
    instance: &str,
    objective: (&str, i64),
    clique: &Clique,
    flow: &[i64],
    steps: usize,
    engine: &str,
) -> Row {
    let ledger = clique.ledger();
    Row::default()
        .key("instance", instance)
        .det(objective.0, objective.1)
        .det("total_rounds", ledger.total_rounds())
        .det("charged_rounds", ledger.charged_rounds())
        .det("implemented_rounds", ledger.implemented_rounds())
        .det("flow_hash", Json::hex(hash_i64(flow)))
        .det("progress_steps", steps)
        .det("engine", embed(engine))
}

fn ipm() -> Json {
    let mut rows = Vec::new();
    for (n, extra, cap, seed, t) in [(8, 14, 3, 5, 7), (12, 26, 4, 13, 11)] {
        let (g, mut clique) = (random_flow_network(n, extra, cap, seed), Clique::new(n));
        let out = max_flow_ipm(&mut clique, &g, 0, t, &IpmOptions::default()).expect("honest");
        let name = format!("maxflow/random_flow_network_{n}_seed{seed}");
        let (steps, engine) = (out.stats.progress_steps, out.stats.engine.to_json());
        let value = ("value", out.value);
        rows.push(ipm_row(&name, value, &clique, &out.flow, steps, &engine));
    }
    for (k, extra, cost, seed) in [(4, 2, 8, 7), (5, 3, 6, 11)] {
        let (g, sigma) = bipartite_assignment(k, extra, cost, seed);
        let mut clique = Clique::new(g.n() + 2);
        let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).expect("ok");
        let name = format!("mcf/bipartite_assignment_{k}_seed{seed}");
        let (steps, engine) = (out.stats.progress_steps, out.stats.engine.to_json());
        let cost = ("cost", out.cost);
        rows.push(ipm_row(&name, cost, &clique, &out.flow, steps, &engine));
    }
    rows.into()
}

fn service() -> Json {
    let config = cc_conform::SoakConfig {
        requests: 1000,
        oracle_every: 10,
        ..Default::default()
    };
    let t0 = Instant::now();
    let r = cc_conform::run_service_soak(&config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        r.mismatches.is_empty(),
        "oracle mismatches: {:?}",
        r.mismatches
    );
    let rate = r.requests as f64 / (wall_ms / 1e3).max(1e-9);
    Row::default()
        .det("seed", config.seed)
        .det("requests", r.requests)
        .det("batches", r.batches)
        .det("batched_requests", r.batched_requests)
        .det("oracle_checks", r.oracle_checks)
        .det("mismatches", r.mismatches.len())
        .det("template_cache_hits", r.template_cache_hits)
        .det("builds", r.builds)
        .det("total_rounds", r.total_rounds)
        .det("charged_rounds", r.charged_rounds)
        .det("fingerprint", Json::hex(r.fingerprint))
        .det("counts_by_kind", r.counts_by_kind.to_vec())
        .host("wall_ms", Json::fixed(wall_ms, 1))
        .host("requests_per_sec", Json::fixed(rate, 0))
        .into()
}

/// 4 × (`route`, `exchange`) rounds in which node `u` sends 3 words to
/// each of 8 strided neighbours, the stride varying per round so shards
/// see different destination mixes; returns the FNV-1a digest of every
/// delivered envelope.
fn threaded_workload<C: Communicator>(comm: &mut C, n: usize) -> u64 {
    let outboxes = |round: usize| -> Vec<Vec<(usize, Vec<u64>)>> {
        let message = |u: usize, d: usize| {
            let w = (u as u64) << 32 | (round as u64) << 8 | d as u64;
            let dst = (u + d * (round + 1) * 37) % n;
            (dst, vec![w, w.wrapping_mul(0x9e3779b97f4a7c15), !w])
        };
        (0..n)
            .map(|u| (1..=8).map(|d| message(u, d)).collect())
            .collect()
    };
    let mut h = Fnv1a::default();
    for round in 0..4 {
        let routed = comm.route(outboxes(2 * round)).expect("well-formed");
        let exchanged = comm.exchange(outboxes(2 * round + 1)).expect("well-formed");
        for env in routed.iter().chain(&exchanged).flatten() {
            h.word(env.src as u64);
            env.payload.iter().for_each(|&w| h.word(w));
        }
    }
    h.finish()
}

/// The threaded workload through `ThreadedComm` at workers 1/2/8, its
/// digest and ledger asserted equal to `Clique`'s; `wall_ns` times it on
/// the already-constructed transport.
fn threaded() -> Json {
    let mut rows = Vec::new();
    for n in [256, 1024, 2048] {
        let mut clique = Clique::new(n);
        let want = (threaded_workload(&mut clique, n), clique.ledger().report());
        for workers in [1, 2, 8] {
            let mut comm = ThreadedComm::with_workers(n, workers);
            let hash = threaded_workload(&mut comm, n);
            assert_eq!(
                (hash, comm.ledger().report()),
                want,
                "n={n} workers={workers}"
            );
            let rounds = comm.ledger().total_rounds();
            let wall_ns = time_ns(5, || {
                threaded_workload(&mut comm, n);
            });
            rows.push(
                Row::default()
                    .key("bench", "threaded_route_exchange")
                    .key("n", n)
                    .key("workers", workers)
                    .det("rounds", rounds)
                    .det("inbox_hash", Json::hex(hash))
                    .host("wall_ns", wall_ns),
            );
        }
    }
    rows.into()
}

/// FNV-1a over a response's bits: a variant tag, then every field.
fn hash_response(r: &Response) -> u64 {
    match r {
        Response::Potentials { x, iterations } => fnv1a_words(
            [1, *iterations as u64]
                .into_iter()
                .chain(x.iter().map(|v| v.to_bits())),
        ),
        Response::MaxFlow { flow, value } => fnv1a_words(
            [3, *value as u64]
                .into_iter()
                .chain(flow.iter().map(|&f| f as u64)),
        ),
        other => unreachable!("recovery scenarios return potentials or flows, got {other:?}"),
    }
}

/// A 14-node engine with the recovery scenarios' two graphs registered.
fn recovery_engine<C: Communicator>(comm: C, retry: RetryPolicy) -> FlowEngine<C> {
    let mut engine = FlowEngine::with_config(
        comm,
        EngineConfig {
            retry,
            ..Default::default()
        },
    );
    engine.register("lap", GraphSpec::Undirected(random_connected(14, 34, 4, 3)));
    engine.register(
        "net",
        GraphSpec::Directed(random_flow_network(10, 18, 4, 2)),
    );
    engine
}

fn adversary() -> Json {
    // A Corrupted cell panics inside the suite's catch_unwind; keep the
    // log readable by silencing the hook while the matrix runs.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = cc_conform::run_adversary_suite();
    std::panic::set_hook(hook);
    report.assert_detectable_strategies_never_corrupt();
    let chaos = Row::default()
        .det("cells", report.cells.len())
        .det("detected", report.count(CellOutcome::Detected))
        .det("tolerated", report.count(CellOutcome::Tolerated))
        .det("corrupted", report.count(CellOutcome::Corrupted))
        .det(
            "matrix_hash",
            Json::hex(fnv1a_bytes(report.matrix_markdown().as_bytes())),
        );

    let (lap, b) = ("lap".to_string(), unit_demand(14));
    let scenarios = [
        (
            "laplacian_solve/crash_recover",
            Request::LaplacianSolve {
                graph: lap,
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
    let recovery = scenarios.map(|(scenario, request)| {
        let mut honest = recovery_engine(Clique::new(14), RetryPolicy::default());
        let want = honest.submit(request.clone()).expect("honest clique");
        // Node 1 is down for the first 50 ledger rounds, so every
        // scenario's first attempt hits it; the 200-round backoff starts
        // attempt 2 after it recovered.
        let crash = FaultRule::CrashRecover {
            node: 1,
            from_round: 0,
            until_round: 50,
        };
        let comm = FaultComm::new(Clique::new(14), FaultPlan::new(17).with(crash));
        let mut engine = recovery_engine(comm, RetryPolicy::retries(3, 200));
        let got = engine.submit(request).expect("retry must recover");
        let degraded = got.stats.degraded.expect("recovered request is degraded");
        let fingerprint = hash_response(&got.response);
        assert_eq!(
            fingerprint,
            hash_response(&want.response),
            "{scenario} diverged"
        );
        Row::default()
            .key("scenario", scenario)
            .det("attempts", got.stats.attempts)
            .det("faults_observed", degraded.faults_observed)
            .det(
                "retry_rounds",
                engine.ledger().phase("service_retry").implemented,
            )
            .det("request_rounds", got.stats.rounds)
            .det("response_fingerprint", Json::hex(fingerprint))
    });
    Row::default()
        .det("chaos", chaos)
        .det("recovery", Vec::from(recovery))
        .into()
}

/// A `broadcast` pipeline row: the result hash and both models' rounds.
fn pipeline(name: &str, hash: u64, uni: &Clique, bc: &BroadcastComm<Clique>) -> Row {
    let (u, b) = (uni.ledger().total_rounds(), bc.ledger().total_rounds());
    Row::default()
        .key("pipeline", name)
        .det("result_hash", Json::hex(hash))
        .det("unicast_rounds", u)
        .det("broadcast_rounds", b)
        .det("round_ratio", Json::fixed(b as f64 / u as f64, 4))
}

/// The measured Broadcast Congested Clique simulates unicast primitives
/// at broadcast cost, so every result must equal the unicast clique's
/// bitwise and only the ledgers differ.
fn broadcast() -> Json {
    let g = random_connected(32, 96, 8, 1);
    let (n, opts, b) = (g.n(), SolverOptions::default(), unit_demand(g.n()));
    let measured = || BroadcastComm::measured(Clique::new(n));
    let (mut uni, mut bc, mut strict) = (
        Clique::new(n),
        measured(),
        BroadcastComm::strict(Clique::new(n)),
    );
    let want = solve_laplacian(&mut uni, &g, &b, 1e-6, &opts).expect("unicast");
    let got = solve_laplacian(&mut bc, &g, &b, 1e-6, &opts).expect("broadcast");
    // The Laplacian surface never needs a unicast primitive.
    let strict_got = solve_laplacian(&mut strict, &g, &b, 1e-6, &opts).expect("strict");
    let x = hash_f64(&got.x);
    assert_eq!((hash_f64(&want.x), want.iterations), (x, got.iterations));
    assert_eq!(
        (hash_f64(&strict_got.x), strict.ledger().report()),
        (x, bc.ledger().report())
    );
    let mut rows = vec![pipeline(
        "laplacian_solve/random_connected_32",
        x,
        &uni,
        &bc,
    )];

    let (mut uni, mut bc) = (Clique::new(n), measured());
    let want = build_sparsifier(&mut uni, &g, &SparsifyParams::default()).expect("unicast");
    let got = build_sparsifier(&mut bc, &g, &SparsifyParams::default()).expect("broadcast");
    let hash = |s: &cc_sparsify::SpectralSparsifier| {
        let edges = s
            .edges()
            .iter()
            .flat_map(|&(u, v, w)| [u as u64, v as u64, w.to_bits()]);
        (fnv1a_words(edges), s.alpha().to_bits())
    };
    assert_eq!(hash(&want), hash(&got));
    rows.push(pipeline(
        "sparsifier/random_connected_32",
        hash(&got).0,
        &uni,
        &bc,
    ));

    // Max-flow IPM: routing and Eulerian orientation at broadcast cost.
    let net = random_flow_network(12, 26, 4, 13);
    let (mut uni, mut bc) = (Clique::new(12), BroadcastComm::measured(Clique::new(12)));
    let want = max_flow_ipm(&mut uni, &net, 0, 11, &IpmOptions::default()).expect("unicast");
    let got = max_flow_ipm(&mut bc, &net, 0, 11, &IpmOptions::default()).expect("broadcast");
    let flow = hash_i64(&got.flow);
    assert_eq!((want.value, hash_i64(&want.flow)), (got.value, flow));
    rows.push(pipeline(
        "maxflow_ipm/random_flow_network_12_seed13",
        flow,
        &uni,
        &bc,
    ));

    // One sender reaches all n − 1 receivers, so the per-pair congestion
    // seam reports the per-node send load instead of the max pair load.
    let mut trace = TracingComm::new(measured());
    solve_laplacian(&mut trace, &g, &b, 1e-6, &opts).expect("traced broadcast solve");
    let trace = trace.congestion_json();
    Row::default()
        .det("pipelines", rows)
        .det("trace_hash", Json::hex(fnv1a_bytes(trace.as_bytes())))
        .det("trace", embed(&trace))
        .into()
}

/// Recomputes the gated sections and compares them with the baseline at
/// `path`, exiting nonzero on any difference.
fn check(path: &str, large_tier: bool) {
    let fail = |msg: String| -> ! {
        eprintln!("bench_snapshot --check: {msg}");
        std::process::exit(1)
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let mut baseline = Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let current = if large_tier {
        let checked = |row: &Json| {
            LARGE_CHECK_SIZES
                .iter()
                .any(|&n| row.get("n") == Some(&n.into()))
        };
        for name in ["large", "large_determinism"] {
            if let Some(Json::Arr(rows)) = baseline.get_mut(name) {
                rows.retain(checked);
            }
        }
        let (rows, det) = large_sections(&LARGE_CHECK_SIZES, |_| 1);
        Row::default()
            .det("large", rows)
            .det("large_determinism", det)
    } else {
        CHECKED
            .iter()
            .fold(Row::default(), |doc, &(name, section)| {
                eprintln!("  {name}…");
                doc.det(name, section())
            })
    };
    let drifted = drift(&baseline, &current.into());
    drifted.iter().for_each(|d| eprintln!("  drift: {d}"));
    if !drifted.is_empty() {
        fail(format!("{} difference(s) from {path}", drifted.len()));
    }
    eprintln!("bench_snapshot --check: OK — every deterministic field matches {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str);
    if arg(0) == Some("--check") {
        let large_tier = arg(1) == Some("--large");
        let path = arg(1 + usize::from(large_tier)).unwrap_or("BENCH_baseline.json");
        return check(path, large_tier);
    }
    let out_path = arg(0).unwrap_or("BENCH_baseline.json");
    let threads = par::max_threads();
    eprintln!("bench_snapshot: {threads} thread(s) available");
    let records = Json::from(records());
    let (large, large_det) =
        large_sections(&[256, 512, 1024, 2048], |n| if n >= 2048 { 3 } else { 5 });
    let equal = |row: &Json| row.get("bitwise_equal") == Some(&Json::Bool(true));
    let all_equal = [&records, &large]
        .into_iter()
        .all(|s| matches!(s, Json::Arr(rows) if rows.iter().all(equal)));
    let doc = Row::default()
        .det("schema", "cc-bench/snapshot-v7")
        .host("threads", threads)
        .det("all_bitwise_equal", all_equal)
        .det("records", records)
        .det("large", large);
    let doc = CHECKED.iter().fold(doc, |doc, &(name, section)| {
        eprintln!("  {name}…");
        doc.det(name, section())
    });
    let doc = Json::from(doc.det("large_determinism", large_det));
    std::fs::write(out_path, doc.pretty() + "\n").expect("write snapshot");
    eprintln!("wrote {out_path}");
    assert!(
        all_equal,
        "parallel and batched results must equal their serial twins bitwise"
    );
}
