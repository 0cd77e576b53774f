//! The two kinds of run: end to end with tracing off, and the traced
//! per-layer split.

use std::time::Instant;

use cc_model::{Clique, Communicator, ThreadedComm};
use cc_service::{FlowEngine, Request, Response, ServiceOutcome};

use crate::replay::Direct;
use crate::stats::{self, push, quantile, Fingerprint, Metric};
use crate::timed::{Prim, PrimStat, Span, SpanStat, TimedComm, ALL_PRIMS, PRIMS, SPANS};
use crate::workload::{self, Batch, Rng, Slate, Workload};
use crate::SETUP_REPEATS;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload.
    pub workload: Workload,
    /// Seed of the request stream.
    pub seed: u64,
    /// Requests in the timed stream (the traced run replays a third).
    pub requests: usize,
}

/// A finished run: the result line's fields plus the host record.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Typed errors, oracle mismatches and broken equalities.
    pub failed: u64,
    /// Metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Descriptions of every failure.
    pub failures: Vec<String>,
    /// Extra `(key, JSON value)` pairs of the record line.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// The value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Oracle checks per run: a seeded sample of this many responses.
fn oracle_target(workload: Workload) -> usize {
    match workload {
        // Each check is an O(n³) dense factorization of the n = 256 graph.
        Workload::LaplacianN256 => 50,
        _ => 200,
    }
}

/// Runs `config`, with tracing (`trace`) or without. The `cc-par`
/// thread budget is pinned to the host's cores and `ThreadedComm` runs
/// `min(2, nproc)` workers, so threads never outnumber the cores.
pub fn run(config: &Config, trace: bool) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = 2.min(nproc);
    let threaded = config.workload.threaded();
    cc_par::with_threads(nproc, || {
        let slate = Slate::new(config.workload);
        let mut out = match (threaded, trace) {
            (false, false) => end_to_end(config, &slate, Clique::new),
            (true, false) => end_to_end(config, &slate, |n| ThreadedComm::with_workers(n, workers)),
            (false, true) => traced(config, &slate, Clique::new),
            (true, true) => traced(config, &slate, |n| ThreadedComm::with_workers(n, workers)),
        };
        out.failed += out.failures.len() as u64;
        let workers = if threaded { workers } else { 0 };
        out.record.splice(
            0..0,
            [
                ("nproc".to_string(), nproc.to_string()),
                (
                    "cc_par_threads".into(),
                    cc_par::current_threads().to_string(),
                ),
                ("threaded_workers".into(), workers.to_string()),
            ],
        );
        out
    })
}

/// A fresh engine with the slate registered and warmed up: one request
/// per graph pays every per-graph build.
fn set_up<C: Communicator>(slate: &Slate, comm: C, failures: &mut Vec<String>) -> FlowEngine<C> {
    let mut engine = FlowEngine::new(comm);
    for g in &slate.graphs {
        engine.register(&g.name, g.spec.clone());
    }
    for r in slate.warmup() {
        if let Err(e) = engine.submit(r) {
            failures.push(format!("warm-up: {e}"));
        }
    }
    engine
}

/// Which of `total` requests the oracle rechecks: a seeded sample of
/// about `target`.
fn oracle_sample(seed: u64, total: usize, target: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed ^ 0x0_5ac1e);
    (0..total).map(|_| rng.below(total) < target).collect()
}

fn check_sample(slate: &Slate, checked: &[(Request, Response)], failures: &mut Vec<String>) {
    for (req, resp) in checked {
        if let Some(m) = workload::oracle_check(slate, req, resp) {
            failures.push(m);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the closed-loop client saw of a stream.
#[derive(Default)]
struct Pass {
    fingerprint: Fingerprint,
    rounds: u64,
    /// Summed `submit_batch` wall, in s.
    busy_s: f64,
    /// The requests `keep` selects, with their responses.
    kept: Vec<(Request, Response)>,
    /// Requests submitted so far.
    submitted: usize,
}

impl Pass {
    /// Submits batches of `stream` to `engine`, one after another, until
    /// at least `limit` requests went or the stream ran out. Returns each
    /// batch's `submit_batch` wall in s and its width.
    fn drive<C: Communicator>(
        &mut self,
        engine: &mut FlowEngine<C>,
        slate: &Slate,
        stream: &mut impl Iterator<Item = Batch>,
        limit: usize,
        keep: &[bool],
        failures: &mut Vec<String>,
    ) -> Vec<(f64, usize)> {
        let rounds0 = engine.ledger().total_rounds();
        let mut batch_s = Vec::new();
        let mut sent = 0;
        while sent < limit {
            let Some(batch) = stream.next() else { break };
            if let Some(g) = batch.reregister {
                engine.register(&slate.graphs[g].name, slate.graphs[g].spec.clone());
            }
            let first = self.submitted;
            let mut kept: Vec<Option<Request>> = batch
                .requests
                .iter()
                .enumerate()
                .map(|(j, r)| keep[first + j].then(|| r.clone()))
                .collect();
            let t = Instant::now();
            let results = engine.submit_batch(batch.requests);
            let s = t.elapsed().as_secs_f64();
            self.busy_s += s;
            batch_s.push((s, results.len()));
            sent += results.len();
            for (result, request) in results.into_iter().zip(&mut kept) {
                match result {
                    Ok(o) => {
                        self.fingerprint.add(&o.response);
                        if let Some(request) = request.take() {
                            self.kept.push((request, o.response));
                        }
                    }
                    Err(e) => failures.push(e.to_string()),
                }
                self.submitted += 1;
            }
        }
        self.rounds += engine.ledger().total_rounds() - rounds0;
        batch_s
    }
}

/// Requests per window of the timed stream. A window this long has ten
/// latency samples beyond its p99.
const WINDOW_REQUESTS: usize = 1000;

/// Throughput and latency of one window of consecutive batches.
#[derive(Debug, Clone, Copy)]
struct Window {
    requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Window {
    /// A request's latency is its whole `submit_batch` call; throughput
    /// is requests over the summed `submit_batch` wall.
    fn of(batch_s: &[(f64, usize)]) -> Window {
        let mut latencies: Vec<f64> = batch_s
            .iter()
            .flat_map(|&(s, width)| std::iter::repeat_n(s * 1e3, width))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let busy: f64 = batch_s.iter().map(|b| b.0).sum();
        Window {
            requests: latencies.len(),
            rps: latencies.len() as f64 / busy,
            p50_ms: quantile(&latencies, 0.50),
            p99_ms: quantile(&latencies, 0.99),
        }
    }
}

/// The workload's stream for the run's seed, window by window. Each
/// window runs on an engine set up just before it, after the previous
/// one was dropped: the set-ups sample the host over the whole run
/// rather than over its first seconds, and no two engines are ever alive
/// at once, so the peak resident set is one engine's.
fn windowed<C: Communicator>(
    config: &Config,
    slate: &Slate,
    make: impl Fn(usize) -> C,
    keep: &[bool],
    failures: &mut Vec<String>,
) -> (Pass, Vec<Window>, Vec<f64>) {
    let mut stream = workload::stream(config.workload, slate, config.seed, config.requests);
    let mut pass = Pass::default();
    let (mut windows, mut setup_s) = (Vec::new(), Vec::new());
    while pass.submitted < config.requests {
        let t = Instant::now();
        let mut engine = set_up(slate, make(slate.clique_n), failures);
        setup_s.push(t.elapsed().as_secs_f64());
        let batch_s = pass.drive(
            &mut engine,
            slate,
            &mut stream,
            WINDOW_REQUESTS,
            keep,
            failures,
        );
        windows.push(Window::of(&batch_s));
    }
    (pass, windows, setup_s)
}

fn end_to_end<C: Communicator>(
    config: &Config,
    slate: &Slate,
    make: impl Fn(usize) -> C,
) -> Outcome {
    let mut failures = Vec::new();
    let n = config.requests;
    let keep = oracle_sample(config.seed, n, oracle_target(config.workload));
    let (pass, windows, mut setup_s) = windowed(config, slate, &make, &keep, &mut failures);
    while setup_s.len() < SETUP_REPEATS {
        let t = Instant::now();
        drop(set_up(slate, make(slate.clique_n), &mut failures));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb();
    check_sample(slate, &pass.kept, &mut failures);

    if config.workload.threaded() {
        // The same stream over the sequential Clique must answer bit for
        // bit the same, at the same round cost.
        let no_checks = vec![false; n];
        let (seq, ..) = windowed(config, slate, Clique::new, &no_checks, &mut failures);
        if (seq.fingerprint, seq.rounds) != (pass.fingerprint, pass.rounds) {
            failures.push(format!(
                "ThreadedComm stream differs from Clique: fingerprint {:016x} vs {:016x}, rounds {} vs {}",
                pass.fingerprint.0, seq.fingerprint.0, pass.rounds, seq.rounds
            ));
        }
    }

    let failed_requests = failures.len();
    // Every window but a short last one holds the same mix (the stream is
    // dealt from decks) and enough samples for its p99.
    let full: Vec<&Window> = windows
        .iter()
        .filter(|w| w.requests >= WINDOW_REQUESTS)
        .collect();
    let full = if full.is_empty() {
        windows.iter().collect()
    } else {
        full
    };
    let best = |f: fn(&Window) -> f64, pick: fn(f64, f64) -> f64| {
        full.iter()
            .map(|w| f(w))
            .reduce(pick)
            .expect("at least one window")
    };
    // The host is shared and its disturbances come and go within a run;
    // they only ever add time. So each timing is that of the least
    // disturbed window, the closest estimate of what the code itself
    // costs.
    let mut metrics = Vec::new();
    push(&mut metrics, "setup_s", stats::median(&setup_s), "s");
    push(
        &mut metrics,
        "throughput_rps",
        best(|w| w.rps, f64::max),
        "1/s",
    );
    push(
        &mut metrics,
        "latency_p50_ms",
        best(|w| w.p50_ms, f64::min),
        "ms",
    );
    push(
        &mut metrics,
        "latency_p99_ms",
        best(|w| w.p99_ms, f64::min),
        "ms",
    );
    push(
        &mut metrics,
        "rounds_per_request",
        pass.rounds as f64 / n as f64,
        "rounds",
    );
    push(
        &mut metrics,
        "success_ratio",
        n.saturating_sub(failed_requests) as f64 / n as f64,
        "ratio",
    );
    push(&mut metrics, "peak_rss_mb", rss, "MiB");

    let list = |v: &mut dyn Iterator<Item = f64>| {
        let v: Vec<String> = v.map(stats::json_num).collect();
        format!("[{}]", v.join(", "))
    };
    let record = vec![
        ("requests".into(), n.to_string()),
        (
            "window_requests".into(),
            list(&mut windows.iter().map(|w| w.requests as f64)),
        ),
        (
            "window_rps".into(),
            list(&mut windows.iter().map(|w| w.rps)),
        ),
        (
            "window_p50_ms".into(),
            list(&mut windows.iter().map(|w| w.p50_ms)),
        ),
        (
            "window_p99_ms".into(),
            list(&mut windows.iter().map(|w| w.p99_ms)),
        ),
        ("stream_rps".into(), stats::json_num(n as f64 / pass.busy_s)),
        ("setup_runs_s".into(), list(&mut setup_s.iter().copied())),
        ("oracle_checks".into(), pass.kept.len().to_string()),
        (
            "fingerprint".into(),
            stats::json_str(&format!("{:016x}", pass.fingerprint.0)),
        ),
        ("total_rounds".into(), pass.rounds.to_string()),
    ];
    Outcome {
        attempted: n as u64,
        failed: 0,
        metrics,
        failures,
        record,
    }
}

/// Aggregate of the engine's per-request accounting over a pass.
#[derive(Debug, Default)]
struct ServiceCounts {
    batched: u64,
    builds: u64,
    /// Requests of the kinds that use a per-graph build (solves,
    /// resistances, APSP).
    buildable: u64,
    flows: u64,
    ipm_solves: u64,
    ipm_iterations: u64,
    ipm_builds: u64,
    ipm_reuses: u64,
}

impl ServiceCounts {
    fn add(&mut self, request: &Request, o: &ServiceOutcome) {
        self.batched += u64::from(o.stats.batched_with > 1);
        self.builds += u64::from(o.stats.built);
        self.buildable += u64::from(matches!(
            request,
            Request::LaplacianSolve { .. }
                | Request::EffectiveResistance { .. }
                | Request::Apsp { .. }
        ));
        if let Some(engine) = &o.stats.engine {
            self.flows += 1;
            self.ipm_solves += engine.total_solves() as u64;
            self.ipm_iterations += engine.total_chebyshev_iterations() as u64;
            self.ipm_reuses += engine.total_template_reuses() as u64;
            self.ipm_builds += engine.stages().map(|(_, s)| s.builds as u64).sum::<u64>();
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters of a direct replay, read back after the pass.
struct Counters {
    prims: [[PrimStat; PRIMS]; SPANS],
    spans: [SpanStat; SPANS],
}

impl Counters {
    fn of<C: Communicator>(comm: &TimedComm<C>) -> Self {
        Counters {
            prims: *comm.prims(),
            spans: *comm.spans(),
        }
    }

    fn span(&self, span: Span) -> SpanStat {
        self.spans[span as usize]
    }

    /// Primitive nanoseconds issued under `spans`.
    fn comm_nanos(&self, spans: &[Span]) -> u64 {
        spans
            .iter()
            .map(|s| self.prims[*s as usize].iter().map(|p| p.nanos).sum::<u64>())
            .sum()
    }

    /// One primitive summed over all spans.
    fn prim(&self, prim: Prim) -> PrimStat {
        self.prims.iter().fold(PrimStat::default(), |acc, row| {
            let p = row[prim as usize];
            PrimStat {
                calls: acc.calls + p.calls,
                nanos: acc.nanos + p.nanos,
                words: acc.words + p.words,
            }
        })
    }

    /// Mean wall per call of `span` in `unit` seconds; 0 if the workload
    /// made no such call.
    fn per_call(&self, span: Span, unit: f64) -> f64 {
        let s = self.span(span);
        ratio(s.nanos as f64 * 1e-9, s.calls as f64) / unit
    }

    /// Mean wall per call of `prim` in µs; 0 if the workload made no
    /// such call.
    fn prim_per_call_us(&self, prim: Prim) -> f64 {
        let p = self.prim(prim);
        ratio(p.nanos as f64 * 1e-3, p.calls as f64)
    }
}

const CORE_SPANS: [Span; 3] = [Span::CoreBuild, Span::CoreSolve, Span::CoreSolveMulti];
const IPM_SPANS: [Span; 2] = [Span::IpmMaxFlow, Span::IpmMcf];
const APSP_SPANS: [Span; 2] = [Span::ApspSssp, Span::ApspApsp];

/// The primitives the per-layer metrics report one by one: every one
/// the workloads issue (the record line lists calls of all of them).
const REPORTED_PRIMS: [Prim; 2] = [Prim::BroadcastAll, Prim::Route];

/// Median per-call wall, in µs, of each `(reps, kernel)` over five
/// rounds. Every round times each kernel in turn, so that all of them see
/// the same host conditions.
fn time_interleaved(kernels: &mut [(usize, &mut dyn FnMut())]) -> Vec<f64> {
    let mut rounds = vec![Vec::new(); kernels.len()];
    for _ in 0..5 {
        for ((reps, kernel), times) in kernels.iter_mut().zip(&mut rounds) {
            let t = Instant::now();
            for _ in 0..*reps {
                kernel();
            }
            times.push(t.elapsed().as_secs_f64() * 1e6 / *reps as f64);
        }
    }
    rounds.iter().map(|r| stats::median(r)).collect()
}

/// Per-graph kernel and build figures of the Laplacian path.
#[derive(Debug, Default)]
struct Kernels {
    sparsify_build_s: f64,
    factor_s: f64,
    /// Σ over graphs of single-solve iterations × per-call time, in µs
    /// (the batched solves run the multi-column kernels instead).
    matvec_us_total: f64,
    precond_us_total: f64,
    /// Σ over graphs of single-solve iterations × the kernels' share of a
    /// solve of that graph.
    share_total: f64,
    solve_iterations: f64,
    bytes_total: f64,
    flops_total: f64,
}

fn kernels(slate: &Slate, direct: &Direct) -> Kernels {
    let mut k = Kernels::default();
    let options = cc_service::EngineConfig::default().solver;
    for (i, case) in slate.graphs.iter().enumerate() {
        let cc_service::GraphSpec::Undirected(g) = &case.spec else {
            continue;
        };
        let t = Instant::now();
        let sparsifier =
            cc_sparsify::build_sparsifier(&mut Clique::new(g.n()), g, &options.sparsify);
        k.sparsify_build_s += t.elapsed().as_secs_f64();
        let Ok(sparsifier) = sparsifier else { continue };
        let t = Instant::now();
        let precond = sparsifier.solver();
        k.factor_s += t.elapsed().as_secs_f64();
        let calls = direct.work[i].solve_iterations as f64;
        let solver = cc_core::LaplacianSolver::with_sparsifier(g, sparsifier, &options);
        let (Ok(precond), Ok(solver), true) = (precond, solver, calls > 0.0) else {
            continue;
        };
        // A whole solve of the graph, timed next to its two kernels.
        let mut session = cc_core::SolverSession::from_solver(solver);
        let mut clique = Clique::new(g.n());
        let n = g.n();
        let mean = (0..n).map(|v| (v as f64).sin()).sum::<f64>() / n as f64;
        let b: Vec<f64> = (0..n).map(|v| (v as f64).sin() - mean).collect();
        let mut x = Vec::new();
        let Ok(iterations) = session.solve_into(&mut clique, &b, 1e-8, &mut x) else {
            continue;
        };
        let lap = cc_linalg::laplacian_from_edges(n, &g.edge_triples());
        let (mut mv_out, mut pc_out) = (vec![0.0; n], vec![0.0; n]);
        let mut scratch = cc_sparsify::SparsifierSolveScratch::default();
        // Enough calls per timed round to dwarf the clock's resolution.
        let reps = (200_000 / lap.nnz().max(1)).max(4);
        let times = time_interleaved(&mut [
            (reps, &mut || {
                lap.matvec_into(std::hint::black_box(&b), &mut mv_out);
                std::hint::black_box(&mv_out);
            }),
            ((reps / 8).max(2), &mut || {
                precond.solve_into(std::hint::black_box(&b), &mut pc_out, &mut scratch);
                std::hint::black_box(&pc_out);
            }),
            ((reps / 128).max(1), &mut || {
                let _ = session.solve_into(&mut clique, std::hint::black_box(&b), 1e-8, &mut x);
                std::hint::black_box(&x);
            }),
        ]);
        let (matvec, precond_us, solve_us) = (times[0], times[1], times[2]);
        let (nnz, n) = (lap.nnz() as f64, n as f64);
        k.matvec_us_total += calls * matvec;
        k.precond_us_total += calls * precond_us;
        k.share_total += calls * iterations as f64 * (matvec + precond_us) / solve_us;
        k.solve_iterations += calls;
        // Computed bytes of one CSR mat-vec: values, column indices and the
        // gathered x per stored entry, row pointers, and the output.
        k.bytes_total += calls * (nnz * 24.0 + (n + 1.0) * 8.0 + n * 8.0);
        k.flops_total += calls * 2.0 * nnz;
    }
    k
}

/// The orders the traced run's three passes (0 bare engine, 1 engine
/// over `TimedComm`, 2 direct replay) take over a batch, in turn. A pass
/// that follows another over the same batch finds its data in cache, so
/// every order comes round equally often: no pass runs first, or before
/// another, more often than the rest.
const PASS_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn traced<C: Communicator>(config: &Config, slate: &Slate, make: impl Fn(usize) -> C) -> Outcome {
    let mut failures = Vec::new();
    let requests = (config.requests / 3).max(1);
    let stream = workload::stream(config.workload, slate, config.seed, requests);

    let mut plain = set_up(slate, make(slate.clique_n), &mut failures);
    let mut timed = set_up(slate, TimedComm::new(make(slate.clique_n)), &mut failures);
    let mut direct = Direct::new(slate);
    let mut dcomm = TimedComm::new(make(slate.clique_n));
    for r in slate.warmup() {
        if let Err(e) = direct.submit_batch(&mut dcomm, std::slice::from_ref(&r)) {
            failures.push(format!("direct warm-up: {e}"));
        }
    }
    let core_build_s = dcomm.spans()[Span::CoreBuild as usize].nanos as f64 * 1e-9;
    dcomm.reset();
    direct.work.iter_mut().for_each(|w| *w = Default::default());

    let keep = oracle_sample(config.seed, requests, oracle_target(config.workload));
    let mut kept = Vec::new();
    let (mut fp_plain, mut fp_timed, mut fp_direct) =
        <(Fingerprint, Fingerprint, Fingerprint)>::default();
    let (mut wall_plain, mut wall_timed, mut wall_direct) = (0.0, 0.0, 0.0);
    // Per batch: (pass 2 wall − pass 3 wall) ÷ width, in s.
    let mut service_s = Vec::new();
    let mut batches = 0;
    let rounds0 = (
        plain.ledger().total_rounds(),
        timed.ledger().total_rounds(),
        dcomm.ledger().total_rounds(),
    );
    let mut service = ServiceCounts::default();
    let mut index = 0;
    for (b, batch) in stream.enumerate() {
        batches += 1;
        let (mut timed_s, mut direct_s) = (0.0, 0.0);
        if let Some(g) = batch.reregister {
            let case = &slate.graphs[g];
            plain.register(&case.name, case.spec.clone());
            timed.register(&case.name, case.spec.clone());
            direct.reregister(g);
        }
        for pass in PASS_ORDERS[b % PASS_ORDERS.len()] {
            match pass {
                0 => {
                    let requests = batch.requests.clone();
                    let t = Instant::now();
                    let results = plain.submit_batch(requests);
                    wall_plain += t.elapsed().as_secs_f64();
                    for r in results.into_iter().flatten() {
                        fp_plain.add(&r.response);
                    }
                }
                1 => {
                    let requests = batch.requests.clone();
                    let t = Instant::now();
                    let results = timed.submit_batch(requests);
                    timed_s = t.elapsed().as_secs_f64();
                    for (j, result) in results.into_iter().enumerate() {
                        match result {
                            Ok(o) => {
                                fp_timed.add(&o.response);
                                service.add(&batch.requests[j], &o);
                                if keep[index + j] {
                                    kept.push((batch.requests[j].clone(), o.response));
                                }
                            }
                            Err(e) => failures.push(e.to_string()),
                        }
                    }
                }
                _ => {
                    let t = Instant::now();
                    let results = direct.submit_batch(&mut dcomm, &batch.requests);
                    direct_s = t.elapsed().as_secs_f64();
                    match results {
                        Ok(rs) => rs.iter().for_each(|r| fp_direct.add(r)),
                        Err(e) => failures.push(format!("direct replay: {e}")),
                    }
                }
            }
        }
        wall_timed += timed_s;
        wall_direct += direct_s;
        service_s.push((timed_s - direct_s) / batch.requests.len() as f64);
        index += batch.requests.len();
    }
    let rounds = (
        plain.ledger().total_rounds() - rounds0.0,
        timed.ledger().total_rounds() - rounds0.1,
        dcomm.ledger().total_rounds() - rounds0.2,
    );
    if fp_plain != fp_timed || rounds.0 != rounds.1 {
        failures.push(format!(
            "the timing wrapper changed the run: fingerprint {:016x} vs {:016x}, rounds {} vs {}",
            fp_plain.0, fp_timed.0, rounds.0, rounds.1
        ));
    }
    if fp_direct != fp_timed || rounds.2 != rounds.1 {
        failures.push(format!(
            "direct replay differs from the engine: fingerprint {:016x} vs {:016x}, rounds {} vs {}",
            fp_direct.0, fp_timed.0, rounds.2, rounds.1
        ));
    }
    check_sample(slate, &kept, &mut failures);
    drop((plain, timed));

    let d = Counters::of(&dcomm);
    let k = kernels(slate, &direct);

    let n = index as f64;
    let wall_ns = wall_timed * 1e9;
    let span_ns = |spans: &[Span]| spans.iter().map(|s| d.span(*s).nanos).sum::<u64>() as f64;
    let core_self = span_ns(&CORE_SPANS) - d.comm_nanos(&CORE_SPANS) as f64;
    let ipm_self = span_ns(&IPM_SPANS) - d.comm_nanos(&IPM_SPANS) as f64;
    let apsp_self = span_ns(&APSP_SPANS) - d.comm_nanos(&APSP_SPANS) as f64;
    let all_spans = crate::timed::ALL_SPANS;
    let comm_ns = d.comm_nanos(&all_spans) as f64;
    let sharded_ns: f64 = ALL_PRIMS
        .iter()
        .filter(|(p, _)| p.sharded())
        .map(|(p, _)| d.prim(*p).nanos as f64)
        .sum();
    // The passes run batch by batch in turn, so a per-batch difference
    // sees one host state; the median of those differences is the
    // service's own cost per request, free of the host's drift.
    let service_us_per_req = stats::median(&service_s) * 1e6;
    let service_ns = service_us_per_req * 1e3 * n;
    let unattributed = wall_ns - service_ns - span_ns(&all_spans);
    let solves = direct.work.iter().map(|w| w.solves).sum::<u64>();
    let columns = direct.work.iter().map(|w| w.multi_columns).sum::<u64>();
    let iterations = direct
        .work
        .iter()
        .map(|w| w.solve_iterations + w.multi_column_iterations)
        .sum::<u64>();
    let mut m = Vec::new();
    push(&mut m, "service.self_us_per_req", service_us_per_req, "us");
    push(&mut m, "service.share", service_ns / wall_ns, "ratio");
    push(
        &mut m,
        "service.batched_share",
        service.batched as f64 / n,
        "ratio",
    );
    push(&mut m, "service.builds", service.builds as f64, "count");
    push(
        &mut m,
        "service.cache_hit_ratio",
        ratio(
            (service.buildable - service.builds) as f64,
            service.buildable as f64,
        ),
        "ratio",
    );
    push(&mut m, "core.build_s", core_build_s, "s");
    push(&mut m, "core.share", core_self / wall_ns, "ratio");
    push(
        &mut m,
        "core.solve_ms",
        d.per_call(Span::CoreSolve, 1e-3),
        "ms",
    );
    let multi = d.span(Span::CoreSolveMulti);
    push(
        &mut m,
        "core.solve_multi_ms_per_col",
        ratio(multi.nanos as f64 * 1e-6, columns as f64),
        "ms",
    );
    push(
        &mut m,
        "core.cheby_iters_per_solve",
        ratio(iterations as f64, (solves + columns) as f64),
        "count",
    );
    push(&mut m, "sparsify.build_s", k.sparsify_build_s, "s");
    push(
        &mut m,
        "sparsify.precond_solve_us",
        ratio(k.precond_us_total, k.solve_iterations),
        "us",
    );
    push(&mut m, "linalg.factor_s", k.factor_s, "s");
    push(
        &mut m,
        "linalg.csr_matvec_us",
        ratio(k.matvec_us_total, k.solve_iterations),
        "us",
    );
    push(
        &mut m,
        "linalg.csr_matvec_bytes",
        ratio(k.bytes_total, k.solve_iterations),
        "bytes",
    );
    push(
        &mut m,
        "linalg.csr_matvec_flops",
        ratio(k.flops_total, k.solve_iterations),
        "count",
    );
    push(
        &mut m,
        "linalg.kernel_share",
        ratio(k.share_total, k.solve_iterations),
        "ratio",
    );
    push(&mut m, "ipm.share", ipm_self / wall_ns, "ratio");
    push(
        &mut m,
        "ipm.maxflow_ms",
        d.per_call(Span::IpmMaxFlow, 1e-3),
        "ms",
    );
    push(&mut m, "ipm.mcf_ms", d.per_call(Span::IpmMcf, 1e-3), "ms");
    push(
        &mut m,
        "ipm.solves_per_request",
        ratio(service.ipm_solves as f64, service.flows as f64),
        "count",
    );
    push(
        &mut m,
        "ipm.cheby_iters_per_request",
        ratio(service.ipm_iterations as f64, service.flows as f64),
        "count",
    );
    push(
        &mut m,
        "ipm.template_reuse_ratio",
        ratio(
            service.ipm_reuses as f64,
            (service.ipm_reuses + service.ipm_builds) as f64,
        ),
        "ratio",
    );
    push(&mut m, "apsp.share", apsp_self / wall_ns, "ratio");
    push(
        &mut m,
        "apsp.sssp_us",
        d.per_call(Span::ApspSssp, 1e-6),
        "us",
    );
    push(
        &mut m,
        "apsp.apsp_us",
        d.per_call(Span::ApspApsp, 1e-6),
        "us",
    );
    push(&mut m, "model.comm_share", comm_ns / wall_ns, "ratio");
    for prim in REPORTED_PRIMS {
        let name = format!("model.{}_us", prim_name(prim));
        push(&mut m, &name, d.prim_per_call_us(prim), "us");
    }
    let (calls, words) = ALL_PRIMS.iter().fold((0, 0), |(c, w), (p, _)| {
        let s = d.prim(*p);
        (c + s.calls, w + s.words)
    });
    push(&mut m, "model.calls_per_request", calls as f64 / n, "count");
    push(&mut m, "model.words_per_request", words as f64 / n, "count");
    // Only `ThreadedComm` shards primitives over the pool; a `Clique`
    // workload never reaches `par`.
    let threaded = config.workload.threaded();
    let par_share = if threaded { sharded_ns / wall_ns } else { 0.0 };
    push(&mut m, "par.comm_share", par_share, "ratio");
    for prim in REPORTED_PRIMS.into_iter().filter(|p| p.sharded()) {
        let name = format!("par.{}_us", prim_name(prim));
        let us = if threaded {
            d.prim_per_call_us(prim)
        } else {
            0.0
        };
        push(&mut m, &name, us, "us");
    }
    push(
        &mut m,
        "trace.unattributed_share",
        unattributed / wall_ns,
        "ratio",
    );
    push(
        &mut m,
        "trace.overhead",
        wall_timed / wall_plain - 1.0,
        "ratio",
    );

    let prim_calls: Vec<String> = ALL_PRIMS
        .iter()
        .map(|(p, name)| format!("{}: {}", stats::json_str(name), d.prim(*p).calls))
        .collect();
    let record = vec![
        ("requests".into(), index.to_string()),
        (
            "prim_calls".into(),
            format!("{{{}}}", prim_calls.join(", ")),
        ),
        ("batches".into(), batches.to_string()),
        ("oracle_checks".into(), kept.len().to_string()),
        (
            "fingerprint".into(),
            stats::json_str(&format!("{:016x}", fp_timed.0)),
        ),
        ("total_rounds".into(), rounds.1.to_string()),
        ("wall_untraced_s".into(), stats::json_num(wall_plain)),
        ("wall_traced_s".into(), stats::json_num(wall_timed)),
        ("wall_direct_s".into(), stats::json_num(wall_direct)),
    ];
    Outcome {
        attempted: index as u64,
        failed: 0,
        metrics: m,
        failures,
        record,
    }
}

/// The metric-name form of a primitive.
fn prim_name(prim: Prim) -> &'static str {
    ALL_PRIMS
        .iter()
        .find(|(p, _)| *p == prim)
        .map(|(_, name)| *name)
        .expect("every primitive is listed")
}
