//! The Repairing phase (Algorithm 10): make the flow feasible for the
//! demands, then certify optimality by negative-cycle cancellation.

use std::error::Error;
use std::fmt;

use cc_apsp::{apsp_from_arcs, RoundModel};
use cc_euler::EulerError;
use cc_graph::DiGraph;
use cc_ipm::IpmError;
use cc_model::{Communicator, CostKind, ModelError};

/// Errors of the min cost flow pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum McfError {
    /// The demands cannot be routed in the network at all.
    Infeasible,
    /// The demand vector does not sum to zero or has the wrong length.
    BadDemands {
        /// Description of the violation.
        reason: &'static str,
    },
    /// The communication substrate rejected a primitive call.
    Comm(ModelError),
    /// An electrical solve inside the interior point method failed.
    Solver(IpmError),
    /// The flow-rounding stage (Lemma 4.2, `cc-euler`) failed.
    Rounding(EulerError),
    /// A capacity or `|cost|` exceeds
    /// [`cc_graph::flow_util::flow_bound`], beyond which the pipeline's
    /// integer flow arithmetic would overflow `i64`.
    BeyondFlowBound,
}

impl fmt::Display for McfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McfError::Infeasible => write!(f, "demands cannot be routed in the network"),
            McfError::BadDemands { reason } => write!(f, "bad demand vector: {reason}"),
            McfError::Comm(e) => write!(f, "communication failure during min cost flow: {e}"),
            McfError::Solver(e) => {
                write!(f, "electrical solve failed during min cost flow: {e}")
            }
            McfError::Rounding(e) => write!(f, "flow rounding failed during min cost flow: {e}"),
            McfError::BeyondFlowBound => {
                write!(f, "capacities and costs must be at most flow_bound(n, m)")
            }
        }
    }
}

impl Error for McfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            McfError::Comm(e) => Some(e),
            McfError::Solver(e) => Some(e),
            McfError::Rounding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for McfError {
    fn from(e: ModelError) -> Self {
        McfError::Comm(e)
    }
}

impl From<IpmError> for McfError {
    fn from(e: IpmError) -> Self {
        McfError::Solver(e)
    }
}

impl From<EulerError> for McfError {
    fn from(e: EulerError) -> Self {
        McfError::Rounding(e)
    }
}

/// True if `e`'s source chain bottoms out in a [`ModelError`] — a
/// communication fault rather than numerical degradation. The IPM
/// propagates comm-rooted build failures but degrades gracefully (hands
/// over to repair) on numerical ones.
pub(crate) fn comm_rooted(e: &(dyn Error + 'static)) -> bool {
    let mut cur: Option<&(dyn Error + 'static)> = Some(e);
    while let Some(s) = cur {
        if s.is::<ModelError>() {
            return true;
        }
        cur = s.source();
    }
    false
}

/// Routes the remaining deficits of `flow` with respect to `sigma` along
/// shortest (fewest-hop) residual paths until every demand is satisfied.
/// Each iteration is one algebraic APSP (`model` accounting) plus one
/// broadcast round.
///
/// Returns the number of augmenting paths, [`McfError::Infeasible`] if a
/// deficit cannot reach any sink, or [`McfError::Comm`] if the
/// communication substrate rejects an augmentation broadcast.
///
/// # Panics
///
/// Panics if lengths mismatch or the flow violates capacities.
pub fn route_deficits<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    flow: &mut [i64],
    sigma: &[i64],
    model: RoundModel,
) -> Result<usize, McfError> {
    assert_eq!(flow.len(), g.m(), "flow length mismatch");
    assert_eq!(sigma.len(), g.n(), "demand length mismatch");
    assert!(
        flow.iter()
            .zip(g.edges())
            .all(|(&f, e)| f >= 0 && f <= e.capacity),
        "flow violates capacities"
    );
    let n = g.n();
    let mut deficit = vec![0i64; n];
    for (v, &s) in sigma.iter().enumerate() {
        deficit[v] += s;
    }
    for (i, e) in g.edges().iter().enumerate() {
        deficit[e.from] -= flow[i];
        deficit[e.to] += flow[i];
    }

    clique.phase("mcf_repair_deficits", |clique| {
        let mut paths = 0usize;
        loop {
            let sources: Vec<usize> = (0..n).filter(|&v| deficit[v] > 0).collect();
            let sinks: Vec<usize> = (0..n).filter(|&v| deficit[v] < 0).collect();
            if sources.is_empty() && sinks.is_empty() {
                return Ok(paths);
            }
            if sources.is_empty() != sinks.is_empty() {
                return Err(McfError::BadDemands {
                    reason: "deficits do not balance",
                });
            }
            // Residual graph, unit lengths.
            let mut arcs = Vec::new();
            for (i, e) in g.edges().iter().enumerate() {
                if flow[i] < e.capacity {
                    arcs.push((e.from, e.to, 1));
                }
                if flow[i] > 0 {
                    arcs.push((e.to, e.from, 1));
                }
            }
            let apsp = apsp_from_arcs(clique, n, &arcs, model);
            // Deterministically pick the closest (source, sink) pair.
            let mut best: Option<(usize, usize, i64)> = None;
            for &s in &sources {
                if let Some((t, d)) = apsp.closest_target(s, &sinks) {
                    let better = match best {
                        None => true,
                        Some((bs, bt, bd)) => d < bd || (d == bd && (s, t) < (bs, bt)),
                    };
                    if better {
                        best = Some((s, t, d));
                    }
                }
            }
            let Some((s, t, _)) = best else {
                return Err(McfError::Infeasible);
            };
            let path = apsp.path(s, t).expect("distance implies path");
            let mut bottleneck = deficit[s].min(-deficit[t]);
            let mut steps: Vec<(usize, bool)> = Vec::new();
            for w in path.windows(2) {
                let (a, b) = (w[0], w[1]);
                let mut pick: Option<(usize, bool, i64)> = None;
                for (i, e) in g.edges().iter().enumerate() {
                    let cand = if e.from == a && e.to == b && flow[i] < e.capacity {
                        Some((i, true, e.capacity - flow[i]))
                    } else if e.to == a && e.from == b && flow[i] > 0 {
                        Some((i, false, flow[i]))
                    } else {
                        None
                    };
                    if let Some((i, fwd, res)) = cand {
                        let better = match pick {
                            None => true,
                            Some((pi, _, pres)) => res > pres || (res == pres && i < pi),
                        };
                        if better {
                            pick = Some((i, fwd, res));
                        }
                    }
                }
                let (i, fwd, res) = pick.expect("hop must be realizable");
                bottleneck = bottleneck.min(res);
                steps.push((i, fwd));
            }
            for (i, fwd) in steps {
                if fwd {
                    flow[i] += bottleneck;
                } else {
                    flow[i] -= bottleneck;
                }
            }
            deficit[s] -= bottleneck;
            deficit[t] += bottleneck;
            clique.broadcast_all(&vec![0u64; clique.n()])?;
            paths += 1;
        }
    })
}

/// Cancels negative-cost residual cycles until none remain, making `flow`
/// a **minimum**-cost flow for its demands (Klein's theorem). Detection is
/// Bellman–Ford; each detection is charged `n` implemented rounds (the
/// honest cost of distributed Bellman–Ford relaxations — the correctness
/// backstop runs once when the upstream pipeline already produced an
/// optimal flow; see crate docs).
///
/// Returns the number of cancelled cycles.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn cancel_negative_cycles<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    flow: &mut [i64],
) -> usize {
    assert_eq!(flow.len(), g.m(), "flow length mismatch");
    let n = g.n();
    clique.phase("mcf_cycle_cancelling", |clique| {
        let mut cancelled = 0usize;
        loop {
            clique.ledger_mut().charge(n as u64, CostKind::Implemented);
            // Residual arcs with signed costs.
            let mut arcs: Vec<(usize, usize, i64, usize, bool)> = Vec::new();
            for (i, e) in g.edges().iter().enumerate() {
                if flow[i] < e.capacity {
                    arcs.push((e.from, e.to, e.cost, i, true));
                }
                if flow[i] > 0 {
                    arcs.push((e.to, e.from, -e.cost, i, false));
                }
            }
            // Bellman–Ford from a virtual super-source (dist 0 everywhere).
            let mut dist = vec![0i64; n];
            let mut parent: Vec<Option<usize>> = vec![None; n]; // arc index
            let mut updated_vertex = None;
            for round in 0..n {
                updated_vertex = None;
                for (ai, &(a, b, c, _, _)) in arcs.iter().enumerate() {
                    if dist[a] + c < dist[b] {
                        dist[b] = dist[a] + c;
                        parent[b] = Some(ai);
                        updated_vertex = Some(b);
                    }
                }
                if updated_vertex.is_none() {
                    break;
                }
                let _ = round;
            }
            let Some(start) = updated_vertex else {
                return cancelled; // no negative cycle
            };
            // Walk parents n times to land on the cycle, then extract it.
            let mut v = start;
            for _ in 0..n {
                let ai = parent[v].expect("relaxed vertex has a parent");
                v = arcs[ai].0;
            }
            let cycle_start = v;
            let mut cycle_arcs = Vec::new();
            let mut cur = cycle_start;
            loop {
                let ai = parent[cur].expect("cycle vertex has a parent");
                cycle_arcs.push(ai);
                cur = arcs[ai].0;
                if cur == cycle_start {
                    break;
                }
            }
            // Bottleneck and apply.
            let mut bottleneck = i64::MAX;
            for &ai in &cycle_arcs {
                let (_, _, _, i, fwd) = arcs[ai];
                let res = if fwd {
                    g.edge(i).capacity - flow[i]
                } else {
                    flow[i]
                };
                bottleneck = bottleneck.min(res);
            }
            debug_assert!(bottleneck > 0);
            let cycle_cost: i64 = cycle_arcs.iter().map(|&ai| arcs[ai].2).sum();
            debug_assert!(cycle_cost < 0, "extracted cycle must be negative");
            for &ai in &cycle_arcs {
                let (_, _, _, i, fwd) = arcs[ai];
                if fwd {
                    flow[i] += bottleneck;
                } else {
                    flow[i] -= bottleneck;
                }
            }
            cancelled += 1;
        }
    })
}

/// True iff `flow` is a **minimum**-cost flow for its own demands: the
/// residual graph contains no negative-cost cycle (Klein's optimality
/// criterion). Pure local computation over global knowledge — used as an
/// end-to-end certificate in tests and experiments.
///
/// # Panics
///
/// Panics if `flow` has the wrong length or violates capacities.
pub fn is_min_cost(g: &DiGraph, flow: &[i64]) -> bool {
    assert_eq!(flow.len(), g.m(), "flow length mismatch");
    let n = g.n();
    let mut arcs: Vec<(usize, usize, i64)> = Vec::new();
    for (i, e) in g.edges().iter().enumerate() {
        assert!(flow[i] >= 0 && flow[i] <= e.capacity, "capacity violated");
        if flow[i] < e.capacity {
            arcs.push((e.from, e.to, e.cost));
        }
        if flow[i] > 0 {
            arcs.push((e.to, e.from, -e.cost));
        }
    }
    // Bellman–Ford from an implicit super-source: any relaxation in the
    // n-th pass certifies a negative cycle.
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for &(a, b, c) in &arcs {
            if dist[a] + c < dist[b] {
                dist[b] = dist[a] + c;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp_min_cost_flow;
    use cc_graph::generators;
    use cc_model::Clique;

    #[test]
    fn deficits_routed_from_zero_flow() {
        let (g, sigma) = generators::bipartite_assignment(5, 2, 7, 1);
        let mut flow = vec![0i64; g.m()];
        let mut clique = Clique::new(g.n());
        let paths =
            route_deficits(&mut clique, &g, &mut flow, &sigma, RoundModel::Semiring).unwrap();
        assert!(paths >= 1);
        assert!(g.is_feasible_flow(&flow, &sigma));
    }

    #[test]
    fn infeasible_demands_detected() {
        let g = DiGraph::from_capacities(3, &[(0, 1, 1)]);
        let sigma = vec![1i64, 0, -1];
        let mut flow = vec![0i64];
        let mut clique = Clique::new(3);
        assert_eq!(
            route_deficits(&mut clique, &g, &mut flow, &sigma, RoundModel::Semiring),
            Err(McfError::Infeasible)
        );
    }

    #[test]
    fn is_min_cost_detects_suboptimal_flows() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 2, 10);
        g.add_edge(0, 2, 2, 1);
        g.add_edge(2, 1, 2, 1);
        // Expensive route carries everything: suboptimal.
        assert!(!is_min_cost(&g, &[2, 0, 0]));
        // Cheap route: optimal.
        assert!(is_min_cost(&g, &[0, 2, 2]));
    }

    #[test]
    fn cycle_cancelling_reaches_ssp_optimum() {
        for seed in 0..5 {
            let (g, sigma) = generators::bipartite_assignment(5, 3, 9, seed);
            // Feasible but deliberately suboptimal start: route deficits by
            // hop count (ignores costs).
            let mut flow = vec![0i64; g.m()];
            let mut clique = Clique::new(g.n());
            route_deficits(&mut clique, &g, &mut flow, &sigma, RoundModel::Semiring).unwrap();
            let cancelled = cancel_negative_cycles(&mut clique, &g, &mut flow);
            let _ = cancelled;
            assert!(g.is_feasible_flow(&flow, &sigma));
            let (_, want) = ssp_min_cost_flow(&g, &sigma).unwrap();
            assert_eq!(g.flow_cost(&flow), want, "seed {seed}");
        }
    }

    #[test]
    fn already_optimal_flow_cancels_nothing() {
        let (g, sigma) = generators::bipartite_assignment(4, 2, 6, 3);
        let (mut flow, _) = ssp_min_cost_flow(&g, &sigma).unwrap();
        let mut clique = Clique::new(g.n());
        assert_eq!(cancel_negative_cycles(&mut clique, &g, &mut flow), 0);
    }

    #[test]
    fn cancelling_on_general_capacities() {
        // A 4-cycle with a costly route carrying flow that can be rerouted.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 2, 10); // expensive
        g.add_edge(0, 2, 2, 1);
        g.add_edge(2, 1, 2, 1); // cheap two-hop
        let sigma = vec![2i64, -2, 0];
        let mut flow = vec![2, 0, 0];
        assert!(g.is_feasible_flow(&flow, &sigma));
        let mut clique = Clique::new(3);
        let cancelled = cancel_negative_cycles(&mut clique, &g, &mut flow);
        assert!(cancelled >= 1);
        assert_eq!(g.flow_cost(&flow), 4);
        assert!(g.is_feasible_flow(&flow, &sigma));
    }
}
