//! Integral flow utilities shared by the flow pipelines: the rounding
//! unit `Δ`, the bound on capacities and costs that keeps integer flow
//! arithmetic at that unit in range, and fixing small demand deficits of a
//! unit-scaled flow by residual augmentation.

use crate::DiGraph;

/// `1/Δ` for the rounding unit `Δ = 2^{-⌈log₂ 2m⌉} ≤ 1/(2m)` of an
/// `m`-arc flow (capped at `2^40`): the precision the flow IPMs maintain,
/// and the scale at which the snaps count flow in integer units.
pub fn rounding_scale(m: usize) -> u64 {
    let k = ((2 * m.max(1)) as f64).log2().ceil() as u32;
    1u64 << k.min(40)
}

/// The flow bound `B` of an `n`-vertex, `m`-arc instance: the largest
/// capacity, `|cost|` and `|demand|` whose integer arithmetic stays inside
/// `i64`. With `S` = [`rounding_scale`]`(m)`, the pipelines' largest
/// intermediates are a vertex's deficit in `Δ` units (at most `m + 1`
/// terms of `B·S`), a flow's cost `Σ f_e·c_e ≤ m·B²`, a Bellman–Ford
/// distance in cycle cancelling (`≤ 2m·n·B`), and a min-cost-flow instance
/// grows by at most `n` super arcs of capacity `|σ_v|`. All of them are at
/// most `B²·S·(m + n + 2)`, so
///
/// `B = ⌊√(i64::MAX / (S·(m + n + 2)))⌋`.
///
/// `B·S` then stays below `2^53`, so a flow in `Δ` units is exact in `f64`.
pub fn flow_bound(n: usize, m: usize) -> i64 {
    let terms = rounding_scale(m).saturating_mul((m + n + 2) as u64);
    ((i64::MAX as u64) / terms).isqrt() as i64
}

/// Whether every capacity and `|cost|` of `g` is at most [`flow_bound`].
pub fn within_flow_bound(g: &DiGraph) -> bool {
    let bound = flow_bound(g.n(), g.m()).unsigned_abs();
    g.edges()
        .iter()
        .all(|e| e.capacity.unsigned_abs() <= bound && e.cost.unsigned_abs() <= bound)
}

/// Adjusts the integer flow `units` (in units of `1/cap_scale` of a flow
/// unit; edge `e`'s capacity is `capacity(e) · cap_scale` units) so its
/// net-out vector equals `target_units` exactly, by BFS augmentations in
/// the residual graph. Returns `true` on success; on `false` the flow is
/// left in a partially-fixed but still capacity-feasible state.
///
/// This is the float-artifact bridge of `DESIGN.md` §2.5/§2.6: the paper's
/// algorithms maintain flows as exact multiples of `Δ` natively, so this
/// routine performs no model communication — it exists solely because the
/// simulation's IPM iterates in `f64`.
///
/// # Panics
///
/// Panics if lengths mismatch, `cap_scale < 1`, a flow entry is outside
/// `[0, capacity·cap_scale]`, or `Σ target_units != 0`.
pub fn fix_unit_deficits(
    g: &DiGraph,
    units: &mut [i64],
    target_units: &[i64],
    cap_scale: i64,
) -> bool {
    assert_eq!(units.len(), g.m(), "flow length mismatch");
    assert_eq!(target_units.len(), g.n(), "target length mismatch");
    assert!(cap_scale >= 1, "cap_scale must be positive");
    assert_eq!(target_units.iter().sum::<i64>(), 0, "targets must balance");
    for (i, e) in g.edges().iter().enumerate() {
        assert!(
            units[i] >= 0 && units[i] <= e.capacity * cap_scale,
            "unit flow out of bounds on edge {i}"
        );
    }
    let n = g.n();
    let mut deficit = vec![0i64; n]; // positive: must send more
    for (v, &tv) in target_units.iter().enumerate() {
        deficit[v] += tv;
    }
    for (i, e) in g.edges().iter().enumerate() {
        deficit[e.from] -= units[i];
        deficit[e.to] += units[i];
    }
    loop {
        let Some(source) = (0..n).find(|&v| deficit[v] > 0) else {
            return deficit.iter().all(|&d| d == 0);
        };
        // BFS in the residual graph from `source` to any negative-deficit
        // vertex.
        let mut parent: Vec<Option<(usize, bool)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[source] = true;
        let mut queue = std::collections::VecDeque::from([source]);
        let mut reached = None;
        'bfs: while let Some(v) = queue.pop_front() {
            if deficit[v] < 0 {
                reached = Some(v);
                break 'bfs;
            }
            for (i, e) in g.edges().iter().enumerate() {
                if e.from == v && units[i] < e.capacity * cap_scale && !seen[e.to] {
                    seen[e.to] = true;
                    parent[e.to] = Some((i, true));
                    queue.push_back(e.to);
                }
                if e.to == v && units[i] > 0 && !seen[e.from] {
                    seen[e.from] = true;
                    parent[e.from] = Some((i, false));
                    queue.push_back(e.from);
                }
            }
        }
        let Some(sink) = reached else {
            return false;
        };
        // Bottleneck-augment source → sink.
        let mut path = Vec::new();
        let mut v = sink;
        while v != source {
            let (i, fwd) = parent[v].expect("bfs parent");
            path.push((i, fwd));
            v = if fwd { g.edge(i).from } else { g.edge(i).to };
        }
        let mut bottleneck = deficit[source].min(-deficit[sink]);
        for &(i, fwd) in &path {
            let e = g.edge(i);
            bottleneck = bottleneck.min(if fwd {
                e.capacity * cap_scale - units[i]
            } else {
                units[i]
            });
        }
        debug_assert!(bottleneck > 0);
        for &(i, fwd) in &path {
            if fwd {
                units[i] += bottleneck;
            } else {
                units[i] -= bottleneck;
            }
        }
        deficit[source] -= bottleneck;
        deficit[sink] += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn fixes_small_perturbations_of_an_exact_flow() {
        let g = generators::random_flow_network(10, 20, 4, 3);
        // A valid integral flow scaled by 8 units, perturbed on a few edges.
        let mut units: Vec<i64> = vec![0; g.m()];
        units[0] = 8.min(g.edge(0).capacity * 8);
        let target = {
            let mut t = vec![0i64; 10];
            t[g.edge(0).from] = units[0];
            t[g.edge(0).to] = -units[0];
            t
        };
        // Perturb a different edge by +1 unit (breaking conservation).
        if g.m() > 5 && g.edge(5).capacity > 0 {
            units[5] += 1;
        }
        let ok = fix_unit_deficits(&g, &mut units, &target, 8);
        assert!(ok);
        let mut net = vec![0i64; 10];
        for (i, e) in g.edges().iter().enumerate() {
            net[e.from] += units[i];
            net[e.to] -= units[i];
        }
        assert_eq!(net, target);
    }

    #[test]
    fn reports_failure_when_targets_unreachable() {
        let g = DiGraph::from_capacities(3, &[(0, 1, 1)]);
        let mut units = vec![0i64];
        let target = vec![1, 0, -1];
        assert!(!fix_unit_deficits(&g, &mut units, &target, 1));
        // Flow still capacity-feasible.
        assert!(units[0] >= 0 && units[0] <= 1);
    }

    #[test]
    fn noop_when_already_on_target() {
        let g = DiGraph::from_capacities(3, &[(0, 1, 2), (1, 2, 2)]);
        let mut units = vec![4, 4];
        let target = vec![4, 0, -4];
        assert!(fix_unit_deficits(&g, &mut units, &target, 2));
        assert_eq!(units, vec![4, 4]);
    }
}
