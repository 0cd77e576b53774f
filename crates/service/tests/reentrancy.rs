//! Session reentrancy and cache correctness of the service layer.
//!
//! Pins three properties: an interleaved multi-graph request stream
//! through one [`FlowEngine`] is bitwise-identical to
//! fresh-engine-per-request execution; cache reuse is observable in
//! per-request stats; re-registration invalidates every cached artifact.

use cc_graph::generators;
use cc_model::Clique;
use cc_service::{FlowEngine, GraphSpec, Request, Response};

const N: usize = 14;

/// The undirected graph `fresh_engine` registers as `"lap"`.
fn lap_graph() -> cc_graph::Graph {
    generators::random_connected(N, 34, 4, 3)
}

fn fresh_engine() -> FlowEngine<Clique> {
    // MCF rounding needs two extra clique nodes beyond the digraph.
    let mut engine = FlowEngine::new(Clique::new(N));
    engine.register("lap", GraphSpec::Undirected(lap_graph()));
    engine.register(
        "net",
        GraphSpec::Directed(generators::random_flow_network(10, 18, 4, 2)),
    );
    engine
}

/// The interleaved two-graph stream all the tests replay.
fn stream() -> Vec<Request> {
    let mut b1 = vec![0.0; N];
    b1[0] = 1.0;
    b1[N - 1] = -1.0;
    let mut b2 = vec![0.0; N];
    b2[2] = 2.0;
    b2[7] = -2.0;
    let mut sigma = vec![0i64; 10];
    sigma[0] = 1;
    sigma[9] = -1;
    vec![
        Request::LaplacianSolve {
            graph: "lap".into(),
            b: b1,
            eps: 1e-8,
        },
        Request::MaxFlow {
            graph: "net".into(),
            s: 0,
            t: 9,
        },
        Request::EffectiveResistance {
            graph: "lap".into(),
            s: 1,
            t: 8,
            eps: 1e-8,
        },
        Request::Sssp {
            graph: "net".into(),
            source: 0,
        },
        Request::LaplacianSolve {
            graph: "lap".into(),
            b: b2,
            eps: 1e-8,
        },
        Request::MinCostFlow {
            graph: "net".into(),
            demands: sigma,
        },
        Request::Apsp {
            graph: "net".into(),
        },
        // Same support as request 1: must hit the template cache.
        Request::MaxFlow {
            graph: "net".into(),
            s: 0,
            t: 9,
        },
    ]
}

/// Strict bitwise equality of two responses (floats compared by bits).
fn assert_bits_eq(a: &Response, b: &Response, ctx: &str) {
    match (a, b) {
        (
            Response::Potentials { x, iterations },
            Response::Potentials {
                x: x2,
                iterations: i2,
            },
        ) => {
            assert_eq!(iterations, i2, "{ctx}: iterations");
            assert_eq!(x.len(), x2.len(), "{ctx}: length");
            for (v, (l, r)) in x.iter().zip(x2).enumerate() {
                assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: x[{v}]");
            }
        }
        (
            Response::Resistance { value, iterations },
            Response::Resistance {
                value: v2,
                iterations: i2,
            },
        ) => {
            assert_eq!(iterations, i2, "{ctx}: iterations");
            assert_eq!(value.to_bits(), v2.to_bits(), "{ctx}: resistance");
        }
        (l, r) => assert_eq!(l, r, "{ctx}: exact payloads"),
    }
}

#[test]
fn interleaved_stream_matches_fresh_engine_per_request_bitwise() {
    let mut shared = fresh_engine();
    let shared_out: Vec<Response> = stream()
        .into_iter()
        .map(|r| shared.submit(r).unwrap().response)
        .collect();

    for (i, req) in stream().into_iter().enumerate() {
        let fresh = fresh_engine().submit(req).unwrap().response;
        assert_bits_eq(&shared_out[i], &fresh, &format!("request {i}"));
    }
}

#[test]
fn second_same_support_flow_solve_hits_the_template_cache() {
    let mut engine = fresh_engine();
    let outs: Vec<_> = stream()
        .into_iter()
        .map(|r| engine.submit(r).unwrap())
        .collect();

    // Request 1: first max flow — cold cache, builds and publishes.
    assert_eq!(outs[1].stats.template_cache_hits, 0, "first flow is cold");
    // Request 7: same support — served from the cache.
    assert!(
        outs[7].stats.template_cache_hits > 0,
        "second same-support solve must hit the cache: {:?}",
        outs[7].stats
    );
    let engine_stats = outs[7].stats.engine.as_ref().expect("flow request");
    assert!(engine_stats.total_template_cache_hits() > 0);
    assert_eq!(
        engine_stats.stage("augmentation").builds,
        0,
        "cached template must replace the core's first build"
    );

    // Laplacian solver reuse: request 0 pays the build, 2 and 4 ride it.
    assert!(outs[0].stats.built);
    assert!(!outs[2].stats.built && !outs[4].stats.built);
    // APSP memoization: request 6 pays, and charges rounds.
    assert!(outs[6].stats.built && outs[6].stats.rounds > 0);
}

#[test]
fn reregistration_bumps_generation_and_invalidates_caches() {
    let mut engine = fresh_engine();
    let solve = |engine: &mut FlowEngine<Clique>| {
        let mut b = vec![0.0; N];
        b[0] = 1.0;
        b[5] = -1.0;
        engine
            .submit(Request::LaplacianSolve {
                graph: "lap".into(),
                b,
                eps: 1e-8,
            })
            .unwrap()
    };
    let first = solve(&mut engine);
    assert_eq!(first.stats.generation, 1);
    assert!(first.stats.built);
    let warm = solve(&mut engine);
    assert!(!warm.stats.built, "second solve reuses the factorization");

    // Same support, scaled weights: a new generation must NOT serve the
    // old factorization.
    let g1 = lap_graph();
    let mut g2 = cc_graph::Graph::new(g1.n());
    for e in g1.edges() {
        g2.add_edge(e.u, e.v, e.weight * 2.0);
    }
    assert_eq!(engine.register("lap", GraphSpec::Undirected(g2.clone())), 2);
    assert_eq!(engine.generation("lap"), Some(2));

    let fresh = solve(&mut engine);
    assert_eq!(fresh.stats.generation, 2);
    assert!(fresh.stats.built, "generation bump drops the solver");

    // The response matches a fresh engine on the new graph bitwise.
    let mut oracle = FlowEngine::new(Clique::new(N));
    oracle.register("lap", GraphSpec::Undirected(g2));
    let want = solve(&mut oracle);
    assert_bits_eq(&fresh.response, &want.response, "post-bump solve");

    // Scaling all weights by 2 halves the potentials; the stale
    // factorization would have reproduced `first` instead.
    let (Response::Potentials { x: x1, .. }, Response::Potentials { x: x2, .. }) =
        (&first.response, &fresh.response)
    else {
        unreachable!()
    };
    assert!(
        x1.iter()
            .zip(x2)
            .any(|(a, b)| (a - b).abs() > 1e-12 * a.abs().max(1.0)),
        "new weights must change the solution"
    );
}

#[test]
fn batched_solves_match_solo_solves_bitwise_and_in_rounds() {
    let reqs = || {
        let mut b1 = vec![0.0; N];
        b1[3] = 1.0;
        b1[11] = -1.0;
        let mut b2 = vec![0.0; N];
        b2[0] = 0.5;
        b2[9] = -0.5;
        let mut b3 = vec![0.0; N];
        b3[6] = -2.0;
        b3[13] = 2.0;
        vec![
            Request::LaplacianSolve {
                graph: "lap".into(),
                b: b1,
                eps: 1e-7,
            },
            Request::Sssp {
                graph: "net".into(),
                source: 0,
            },
            Request::LaplacianSolve {
                graph: "lap".into(),
                b: b2,
                eps: 1e-7,
            },
            Request::LaplacianSolve {
                graph: "lap".into(),
                b: b3,
                eps: 1e-7,
            },
        ]
    };

    let mut batched = fresh_engine();
    let batch_out: Vec<_> = batched
        .submit_batch(reqs())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let mut solo = fresh_engine();
    let solo_out: Vec<_> = reqs()
        .into_iter()
        .map(|r| solo.submit(r).unwrap())
        .collect();

    for (i, (b, s)) in batch_out.iter().zip(&solo_out).enumerate() {
        assert_bits_eq(&b.response, &s.response, &format!("request {i}"));
    }
    // The three same-eps solves were admitted as one width-3 batch…
    for i in [0, 2, 3] {
        assert_eq!(batch_out[i].stats.batched_with, 3, "request {i}");
    }
    assert_eq!(batch_out[1].stats.batched_with, 1);
    // …at exactly the rounds the solo solves cost in total.
    assert_eq!(
        batched.ledger().total_rounds(),
        solo.ledger().total_rounds(),
        "batch admission must not change total rounds"
    );
}

#[test]
fn errors_carry_request_id_and_graph_and_ids_advance() {
    let mut engine = fresh_engine();
    let e = engine
        .submit(Request::Apsp {
            graph: "nope".into(),
        })
        .unwrap_err();
    assert_eq!(e.request_id, 0);
    assert_eq!(e.graph, "nope");

    let ok = engine
        .submit(Request::Sssp {
            graph: "net".into(),
            source: 0,
        })
        .unwrap();
    assert_eq!(ok.stats.request_id, 1, "IDs advance across failures");

    // Kind mismatch is a typed BadRequest, not a panic.
    let e = engine
        .submit(Request::MaxFlow {
            graph: "lap".into(),
            s: 0,
            t: 1,
        })
        .unwrap_err();
    assert_eq!(e.request_id, 2);
    assert!(matches!(
        e.kind,
        cc_service::ServiceErrorKind::BadRequest { .. }
    ));
}
