//! Malformed requests that used to return a silently wrong `Ok` or panic
//! are typed `BadRequest`s: a non-finite Laplacian right-hand side (which
//! solved to all-NaN potentials), an effective resistance between
//! components (which reported a finite value instead of ∞), APSP on a
//! negative arc weight (which panicked inside the min-plus product),
//! shortest paths over an arc naming no vertex (which panicked) or over
//! a weight whose paths reach `INFINITY` (reported reachable vertices as
//! unreachable), and a Laplacian request on an infinite edge weight, or
//! on finite weights whose volume `2·Σw` overflows (both panicked in the
//! solver build). So are requests against a graph with more vertices than
//! the clique has nodes (registration panicked), and flow requests on
//! capacities or costs beyond `flow_bound` (integer overflow: a panic in
//! debug builds, a panic or a wrong cost in release builds); demands
//! whose sum overflows or that exceed the bound are `BadDemands`.

use cc_graph::{generators, DiGraph, Graph};
use cc_model::Clique;
use cc_service::{FlowEngine, GraphSpec, Request, Response, ServiceErrorKind};

fn is_bad_request<T: std::fmt::Debug>(
    result: &Result<T, cc_service::ServiceError>,
    why: &str,
) -> bool {
    matches!(
        result,
        Err(e) if matches!(e.kind, ServiceErrorKind::BadRequest { reason } if reason.contains(why))
    )
}

#[test]
fn non_finite_rhs_is_a_bad_request_solo_and_batched() {
    let mut engine = FlowEngine::new(Clique::new(12));
    engine.register(
        "g",
        GraphSpec::Undirected(generators::random_connected(12, 30, 4, 7)),
    );
    let rhs = |poison: f64| {
        let mut b = vec![0.0; 12];
        b[0] = 1.0;
        b[11] = -1.0;
        b[5] = poison;
        b
    };
    let solve = |b: Vec<f64>| Request::LaplacianSolve {
        graph: "g".into(),
        b,
        eps: 1e-8,
    };
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let before = engine.ledger().total_rounds();
        let solo = engine.submit(solve(rhs(poison)));
        assert!(is_bad_request(&solo, "finite"), "{poison}: {solo:?}");
        assert_eq!(
            engine.ledger().total_rounds(),
            before,
            "rejected before any communication"
        );

        // In a batch, the poisoned member fails alone; its finite
        // neighbours still solve.
        let out = engine.submit_batch(vec![solve(rhs(0.0)), solve(rhs(poison)), solve(rhs(0.5))]);
        assert!(is_bad_request(&out[1], "finite"), "{poison}: {:?}", out[1]);
        for ok in [&out[0], &out[2]] {
            let Ok(outcome) = ok else {
                panic!("finite member failed: {ok:?}")
            };
            let Response::Potentials { x, .. } = &outcome.response else {
                panic!("expected potentials")
            };
            assert!(x.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn resistance_across_components_is_a_bad_request() {
    // Two disjoint unit edges: 0–1 and 2–3.
    let mut g = Graph::new(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    let mut engine = FlowEngine::new(Clique::new(4));
    engine.register("split", GraphSpec::Undirected(g));
    let resistance = |s, t| Request::EffectiveResistance {
        graph: "split".into(),
        s,
        t,
        eps: 1e-10,
    };
    let across = engine.submit(resistance(0, 3));
    assert!(is_bad_request(&across, "components"), "{across:?}");
    // Within a component the answer is still the resistor's 1 Ω.
    let Ok(within) = engine.submit(resistance(2, 3)) else {
        panic!("same-component resistance failed")
    };
    let Response::Resistance { value, .. } = within.response else {
        panic!("expected a resistance")
    };
    assert!((value - 1.0).abs() < 1e-8, "got {value}");
}

#[test]
fn apsp_on_a_negative_weight_is_a_bad_request() {
    let mut directed = DiGraph::new(3);
    directed.add_edge(0, 1, 1, 2);
    directed.add_edge(1, 2, 1, -1);
    let mut engine = FlowEngine::new(Clique::new(3));
    engine.register(
        "arcs",
        GraphSpec::Arcs {
            n: 3,
            arcs: vec![(0, 1, 2), (1, 2, -1)],
        },
    );
    engine.register("directed", GraphSpec::Directed(directed));
    for graph in ["arcs", "directed"] {
        let apsp = engine.submit(Request::Apsp {
            graph: graph.into(),
        });
        assert!(is_bad_request(&apsp, "non-negative"), "{graph}: {apsp:?}");
        assert_eq!(
            engine.ledger().total_rounds(),
            0,
            "{graph}: rejected before any communication"
        );
    }
    // SSSP still accepts the negative arc.
    let Ok(sssp) = engine.submit(Request::Sssp {
        graph: "arcs".into(),
        source: 0,
    }) else {
        panic!("SSSP on a negative arc failed")
    };
    let Response::Sssp {
        dist,
        negative_cycle,
    } = sssp.response
    else {
        panic!("expected SSSP distances")
    };
    assert!(!negative_cycle);
    assert_eq!(dist, vec![Some(0), Some(2), Some(1)]);
}

#[test]
fn out_of_range_arc_is_a_bad_request() {
    let mut engine = FlowEngine::new(Clique::new(3));
    engine.register(
        "arcs",
        GraphSpec::Arcs {
            n: 3,
            arcs: vec![(0, 1, 1), (1, 3, 1)],
        },
    );
    let requests = [
        Request::Sssp {
            graph: "arcs".into(),
            source: 0,
        },
        Request::Apsp {
            graph: "arcs".into(),
        },
    ];
    for request in requests {
        let out = engine.submit(request.clone());
        assert!(is_bad_request(&out, "vertices"), "{request:?}: {out:?}");
        assert_eq!(engine.ledger().total_rounds(), 0, "{request:?}");
    }
}

#[test]
fn a_weight_whose_paths_reach_infinity_is_a_bad_request() {
    use cc_apsp::INFINITY;

    let sssp = |engine: &mut FlowEngine<Clique>, graph: &str| {
        engine.submit(Request::Sssp {
            graph: graph.into(),
            source: 0,
        })
    };
    let mut engine = FlowEngine::new(Clique::new(3));
    // 2^62 ≥ INFINITY / 2: the two-arc path 0 → 1 → 2 would reach it.
    let huge = 1i64 << 62;
    for (name, w) in [("huge", huge), ("negative", -huge)] {
        engine.register(
            name,
            GraphSpec::Arcs {
                n: 3,
                arcs: vec![(0, 1, w), (1, 2, 1)],
            },
        );
        let out = sssp(&mut engine, name);
        assert!(is_bad_request(&out, "INFINITY"), "{name}: {out:?}");
        let apsp = engine.submit(Request::Apsp { graph: name.into() });
        assert!(is_bad_request(&apsp, "INFINITY"), "{name}: {apsp:?}");
    }
    let mut directed = DiGraph::new(3);
    directed.add_edge(0, 1, 1, huge);
    engine.register("directed", GraphSpec::Directed(directed));
    assert!(is_bad_request(&sssp(&mut engine, "directed"), "INFINITY"));
    assert_eq!(engine.ledger().total_rounds(), 0);

    // At the bound, the longest path stays just below INFINITY and is
    // reported reachable.
    let w = (INFINITY - 1) / 2;
    engine.register(
        "bound",
        GraphSpec::Arcs {
            n: 3,
            arcs: vec![(0, 1, w), (1, 2, w)],
        },
    );
    let Ok(out) = sssp(&mut engine, "bound") else {
        panic!("SSSP at the weight bound failed")
    };
    let Response::Sssp { dist, .. } = out.response else {
        panic!("expected SSSP distances")
    };
    assert_eq!(dist, vec![Some(0), Some(w), Some(2 * w)]);
}

#[test]
fn infinite_edge_weight_is_a_bad_laplacian_request() {
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, f64::INFINITY);
    let mut engine = FlowEngine::new(Clique::new(3));
    engine.register("inf", GraphSpec::Undirected(g));
    let solve = || Request::LaplacianSolve {
        graph: "inf".into(),
        b: vec![1.0, 0.0, -1.0],
        eps: 1e-8,
    };
    let solo = engine.submit(solve());
    assert!(is_bad_request(&solo, "edge weights"), "{solo:?}");
    let resistance = engine.submit(Request::EffectiveResistance {
        graph: "inf".into(),
        s: 0,
        t: 2,
        eps: 1e-8,
    });
    assert!(
        is_bad_request(&resistance, "edge weights"),
        "{resistance:?}"
    );
    for out in engine.submit_batch(vec![solve(), solve()]) {
        assert!(is_bad_request(&out, "edge weights"), "{out:?}");
    }
    assert_eq!(engine.ledger().total_rounds(), 0);
}

#[test]
fn overflowing_weight_volume_is_a_bad_laplacian_request() {
    // Finite weights whose volume 2·Σw overflows to ∞ used to panic in
    // the sparsifier's conductance threshold (`phi must be in (0,1)`).
    for w in [f64::MAX, 1e308, 9e307] {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, w);
        let mut engine = FlowEngine::new(Clique::new(3));
        engine.register("huge", GraphSpec::Undirected(g));
        let solve = || Request::LaplacianSolve {
            graph: "huge".into(),
            b: vec![1.0, 0.0, -1.0],
            eps: 1e-8,
        };
        let solo = engine.submit(solve());
        assert!(is_bad_request(&solo, "finite volume"), "{w}: {solo:?}");
        let resistance = engine.submit(Request::EffectiveResistance {
            graph: "huge".into(),
            s: 0,
            t: 2,
            eps: 1e-8,
        });
        assert!(
            is_bad_request(&resistance, "finite volume"),
            "{w}: {resistance:?}"
        );
        for out in engine.submit_batch(vec![solve(), solve()]) {
            assert!(is_bad_request(&out, "finite volume"), "{w}: {out:?}");
        }
        assert_eq!(engine.ledger().total_rounds(), 0);
    }
}

#[test]
fn extreme_weights_with_a_finite_volume_fail_typed() {
    // 1e300 and 1e−300 keep a finite volume; the preconditioner then
    // fails to factor, which is a typed error, not a panic.
    for w in [1e300, 1e-300] {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, w);
        let mut engine = FlowEngine::new(Clique::new(3));
        engine.register("extreme", GraphSpec::Undirected(g));
        let solo = engine.submit(Request::LaplacianSolve {
            graph: "extreme".into(),
            b: vec![1.0, 0.0, -1.0],
            eps: 1e-8,
        });
        assert!(
            matches!(
                &solo,
                Err(e) if matches!(e.kind, ServiceErrorKind::Core(_))
            ),
            "{w}: {solo:?}"
        );
    }
}

#[test]
fn a_graph_larger_than_the_clique_is_a_bad_request_of_every_kind() {
    // Registering used to panic; now each request against the graph is
    // rejected before any communication.
    let mut engine = FlowEngine::new(Clique::new(3));
    engine.register("lap", GraphSpec::Undirected(generators::path(5)));
    engine.register(
        "net",
        GraphSpec::Directed(DiGraph::from_capacities(5, &[(0, 1, 1), (1, 4, 1)])),
    );
    engine.register(
        "arcs",
        GraphSpec::Arcs {
            n: 5,
            arcs: vec![(0, 1, 1)],
        },
    );
    let mut b = vec![0.0; 5];
    b[0] = 1.0;
    b[4] = -1.0;
    let solve = Request::LaplacianSolve {
        graph: "lap".into(),
        b,
        eps: 1e-8,
    };
    let requests = vec![
        solve.clone(),
        solve,
        Request::EffectiveResistance {
            graph: "lap".into(),
            s: 0,
            t: 4,
            eps: 1e-8,
        },
        Request::MaxFlow {
            graph: "net".into(),
            s: 0,
            t: 4,
        },
        Request::MinCostFlow {
            graph: "net".into(),
            demands: vec![1, 0, 0, 0, -1],
        },
        Request::Sssp {
            graph: "net".into(),
            source: 0,
        },
        Request::Apsp {
            graph: "net".into(),
        },
        Request::Sssp {
            graph: "arcs".into(),
            source: 0,
        },
        Request::Apsp {
            graph: "arcs".into(),
        },
    ];
    let out = engine.submit_batch(requests.clone());
    for (request, out) in requests.iter().zip(&out) {
        assert!(is_bad_request(out, "more vertices"), "{request:?}: {out:?}");
    }
    assert_eq!(engine.ledger().total_rounds(), 0);
}

/// A 3-vertex flow network (0→1, 1→2, 0→2) with one arc's capacity or
/// cost replaced.
fn triangle(capacity: i64, cost: i64) -> DiGraph {
    let mut g = DiGraph::new(3);
    g.add_edge(0, 1, capacity, cost);
    g.add_edge(1, 2, capacity, cost);
    g.add_edge(0, 2, capacity, cost);
    g
}

fn flow_requests(demands: Vec<i64>) -> [Request; 2] {
    [
        Request::MaxFlow {
            graph: "net".into(),
            s: 0,
            t: 2,
        },
        Request::MinCostFlow {
            graph: "net".into(),
            demands,
        },
    ]
}

#[test]
fn flow_inputs_beyond_the_flow_bound_are_typed_errors() {
    // Each of these used to overflow: a capacity times the rounding scale
    // in the snaps (2^61, 2^62, i64::MAX; the latter also in the sum of
    // capacities), a cost in cycle cancelling (i64::MAX) or its negation
    // (i64::MIN, which release builds answered with a wrong cost).
    let mut engine = FlowEngine::new(Clique::new(5));
    for (capacity, cost) in [
        (1 << 61, 1),
        (1 << 62, 1),
        (i64::MAX, 1),
        (2, i64::MAX),
        (2, i64::MIN),
    ] {
        engine.register("net", GraphSpec::Directed(triangle(capacity, cost)));
        let before = engine.ledger().total_rounds();
        for request in flow_requests(vec![2, 0, -2]) {
            let out = engine.submit(request.clone());
            assert!(
                is_bad_request(&out, "flow_bound"),
                "{capacity} {cost} {request:?}: {out:?}"
            );
        }
        assert_eq!(engine.ledger().total_rounds(), before);
        // Shortest paths read only the costs, under the arcs bound.
        let sssp = engine.submit(Request::Sssp {
            graph: "net".into(),
            source: 0,
        });
        if cost == 1 {
            assert!(sssp.is_ok(), "{capacity}: {sssp:?}");
        } else {
            assert!(is_bad_request(&sssp, "INFINITY"), "{cost}: {sssp:?}");
        }
    }

    // Demands whose sum overflows, or that exceed the bound, are the
    // min-cost-flow pipeline's typed `BadDemands`.
    engine.register("net", GraphSpec::Directed(triangle(2, 1)));
    for demands in [vec![i64::MAX, i64::MAX, 2], vec![i64::MAX, 0, -i64::MAX]] {
        let out = engine.submit(Request::MinCostFlow {
            graph: "net".into(),
            demands: demands.clone(),
        });
        assert!(
            matches!(
                &out,
                Err(e) if matches!(e.kind, ServiceErrorKind::Mcf(cc_mcf::McfError::BadDemands { .. }))
            ),
            "{demands:?}: {out:?}"
        );
    }
}

#[test]
fn the_largest_admitted_flow_values_match_the_oracles() {
    let bound = cc_graph::flow_util::flow_bound(3, 3);
    let mut engine = FlowEngine::new(Clique::new(5));
    let g = triangle(bound, bound);
    engine.register("net", GraphSpec::Directed(g.clone()));
    let [max_flow, min_cost_flow] = flow_requests(vec![bound, 0, -bound]);
    let Ok(out) = engine.submit(max_flow) else {
        panic!("max flow at the bound failed")
    };
    let Response::MaxFlow { value, .. } = out.response else {
        panic!("expected a max flow")
    };
    assert_eq!(value, cc_maxflow::dinic(&g, 0, 2).1);
    assert_eq!(value, 2 * bound);
    let Ok(out) = engine.submit(min_cost_flow) else {
        panic!("min-cost flow at the bound failed")
    };
    let Response::MinCostFlow { flow, cost } = out.response else {
        panic!("expected a min-cost flow")
    };
    let (_, want) = cc_mcf::ssp_min_cost_flow(&g, &[bound, 0, -bound]).unwrap();
    assert_eq!(cost, want);
    assert_eq!(g.flow_cost(&flow), cost);

    // One past the bound, as a capacity, a cost or a demand.
    for (capacity, cost) in [(bound + 1, bound), (bound, bound + 1), (bound, -bound - 1)] {
        engine.register("net", GraphSpec::Directed(triangle(capacity, cost)));
        for request in flow_requests(vec![1, 0, -1]) {
            let out = engine.submit(request.clone());
            assert!(is_bad_request(&out, "flow_bound"), "{request:?}: {out:?}");
        }
    }
    engine.register("net", GraphSpec::Directed(g));
    let [_, past] = flow_requests(vec![bound + 1, 0, -bound - 1]);
    let out = engine.submit(past);
    assert!(
        matches!(
            &out,
            Err(e) if matches!(e.kind, ServiceErrorKind::Mcf(cc_mcf::McfError::BadDemands { .. }))
        ),
        "{out:?}"
    );
}
