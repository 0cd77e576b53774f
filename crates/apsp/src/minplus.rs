//! Min-plus (tropical) matrix squaring with successor tracking.

use cc_model::{Communicator, CostKind};

/// Sentinel "no path" distance (safely addable without overflow).
pub const INFINITY: i64 = i64::MAX / 4;

/// `d + w` for a distance `d` and an arc weight or second distance `w`.
///
/// The sum stays in range only because every arc weight obeys the one
/// weight contract, `|w|·(n − 1) < INFINITY` (`INFINITY` is about
/// 2^61, so no weight of 2^62 or more is admitted): a distance then
/// stays within `±2·INFINITY`. The service checks the contract when it admits a
/// request (`arcs_problem` in `cc-service`, documented on
/// `GraphSpec::Arcs`); debug builds assert here that no addition
/// overflows.
#[inline]
pub(crate) fn add_distance(d: i64, w: i64) -> i64 {
    debug_assert!(
        d.checked_add(w).is_some(),
        "distance {d} + {w} overflows: arc weights must obey |w|·(n − 1) < INFINITY"
    );
    d + w
}

/// How APSP rounds are charged (see crate docs and `DESIGN.md` §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundModel {
    /// Implementable semiring matmul: `⌈n^{1/3}⌉` implemented rounds per
    /// distance product, `⌈log₂ n⌉` products.
    Semiring,
    /// The \[CKKL+19\] fast-matrix-multiplication accounting:
    /// `⌈n^{0.158}⌉` rounds charged once per APSP call (oracle cost).
    FastMatMul,
}

impl RoundModel {
    /// Rounds for one full APSP computation on `n` vertices.
    pub fn apsp_rounds(self, n: usize) -> u64 {
        let nf = n as f64;
        match self {
            RoundModel::Semiring => {
                let per_product = nf.cbrt().ceil() as u64;
                let products = (nf.log2().ceil() as u64).max(1);
                per_product * products
            }
            RoundModel::FastMatMul => nf.powf(0.158).ceil() as u64,
        }
    }
}

/// All-pairs shortest path distances and first-hop successors.
#[derive(Debug, Clone)]
pub struct Apsp {
    n: usize,
    dist: Vec<i64>,
    /// First hop on a shortest `u → v` path (`usize::MAX` = unreachable).
    next: Vec<usize>,
}

impl Apsp {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shortest-path distance from `u` to `v` (`None` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range vertices.
    pub fn dist(&self, u: usize, v: usize) -> Option<i64> {
        assert!(u < self.n && v < self.n, "vertex out of range");
        let d = self.dist[u * self.n + v];
        (d < INFINITY).then_some(d)
    }

    /// True if `v` is reachable from `u`.
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        self.dist(u, v).is_some()
    }

    /// A shortest `u → v` path as a vertex sequence (including both
    /// endpoints), or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range vertices.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if u == v {
            return Some(vec![u]);
        }
        self.dist(u, v)?;
        let mut path = vec![u];
        let mut cur = u;
        // A shortest path visits each vertex at most once (non-negative
        // weights, first-hop successors from shortest-path trees).
        for _ in 0..self.n {
            cur = self.next[cur * self.n + v];
            debug_assert_ne!(cur, usize::MAX);
            path.push(cur);
            if cur == v {
                return Some(path);
            }
        }
        panic!("successor chain failed to reach the target");
    }

    /// The closest vertex of `targets` from `source`
    /// (`None` if none is reachable); ties broken by smaller vertex id.
    pub fn closest_target(&self, source: usize, targets: &[usize]) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64)> = None;
        for &t in targets {
            if let Some(d) = self.dist(source, t) {
                let better = match best {
                    None => true,
                    Some((bt, bd)) => d < bd || (d == bd && t < bt),
                };
                if better {
                    best = Some((t, d));
                }
            }
        }
        best
    }
}

/// Computes exact APSP (distances + successors) of the directed graph
/// given by `arcs = (from, to, weight)` on `n` vertices, by `⌈log₂ n⌉`
/// min-plus squarings, charging rounds to `clique` per `model`.
///
/// Parallel arcs take the minimum weight; deterministic tie-breaking
/// (smaller intermediate vertex first).
///
/// # Panics
///
/// Panics if an arc is out of range, a weight is negative, or
/// `clique.n() < n`.
pub fn apsp_from_arcs<C: Communicator>(
    clique: &mut C,
    n: usize,
    arcs: &[(usize, usize, i64)],
    model: RoundModel,
) -> Apsp {
    assert!(clique.n() >= n, "clique too small");
    let mut dist = vec![INFINITY; n * n];
    let mut next = vec![usize::MAX; n * n];
    for v in 0..n {
        dist[v * n + v] = 0;
        next[v * n + v] = v;
    }
    for &(u, v, w) in arcs {
        assert!(u < n && v < n, "arc ({u},{v}) out of range");
        assert!(
            w >= 0,
            "min-plus APSP requires non-negative weights, got {w}"
        );
        if u == v {
            continue;
        }
        if w < dist[u * n + v] {
            dist[u * n + v] = w;
            next[u * n + v] = v;
        }
    }

    clique.phase("apsp", |clique| {
        let nf = n as f64;
        let squarings = (nf.log2().ceil() as usize).max(1);
        match model {
            RoundModel::Semiring => {
                let per_product = nf.cbrt().ceil() as u64;
                for _ in 0..squarings {
                    clique
                        .ledger_mut()
                        .charge(per_product, CostKind::Implemented);
                    square(n, &mut dist, &mut next);
                }
            }
            RoundModel::FastMatMul => {
                clique.charge_oracle(model.apsp_rounds(n));
                for _ in 0..squarings {
                    square(n, &mut dist, &mut next);
                }
            }
        }
    });
    Apsp { n, dist, next }
}

/// One min-plus squaring `D ← D ⊗ D` with successor updates.
fn square(n: usize, dist: &mut [i64], next: &mut [usize]) {
    let old_dist = dist.to_vec();
    let old_next = next.to_vec();
    for u in 0..n {
        for k in 0..n {
            let duk = old_dist[u * n + k];
            if duk >= INFINITY {
                continue;
            }
            for v in 0..n {
                let cand = add_distance(duk, old_dist[k * n + v]);
                if cand < dist[u * n + v] {
                    dist[u * n + v] = cand;
                    next[u * n + v] = old_next[u * n + k];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_model::Clique;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bellman_ford(n: usize, arcs: &[(usize, usize, i64)], s: usize) -> Vec<i64> {
        let mut d = vec![INFINITY; n];
        d[s] = 0;
        for _ in 0..n {
            for &(u, v, w) in arcs {
                if d[u] < INFINITY && d[u] + w < d[v] {
                    d[v] = d[u] + w;
                }
            }
        }
        d
    }

    #[test]
    fn simple_chain_distances_and_paths() {
        let mut clique = Clique::new(4);
        let apsp = apsp_from_arcs(
            &mut clique,
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)],
            RoundModel::Semiring,
        );
        assert_eq!(apsp.dist(0, 3), Some(3));
        assert_eq!(apsp.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(apsp.dist(3, 0), None);
        assert!(!apsp.reachable(3, 0));
        assert_eq!(apsp.path(2, 2), Some(vec![2]));
    }

    #[test]
    fn matches_bellman_ford_on_random_digraphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let n = 12;
            let arcs: Vec<(usize, usize, i64)> = (0..40)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(0..20),
                    )
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            let mut clique = Clique::new(n);
            let apsp = apsp_from_arcs(&mut clique, n, &arcs, RoundModel::Semiring);
            for s in 0..n {
                let bf = bellman_ford(n, &arcs, s);
                for (v, &want) in bf.iter().enumerate() {
                    let got = apsp.dist(s, v).unwrap_or(INFINITY);
                    assert_eq!(got, want, "s={s} v={v}");
                }
            }
        }
    }

    #[test]
    fn paths_are_consistent_with_distances() {
        let g = generators::random_unit_digraph(15, 30, 9, 3);
        let arcs: Vec<(usize, usize, i64)> =
            g.edges().iter().map(|e| (e.from, e.to, e.cost)).collect();
        let mut clique = Clique::new(15);
        let apsp = apsp_from_arcs(&mut clique, 15, &arcs, RoundModel::Semiring);
        for u in 0..15 {
            for v in 0..15 {
                if let Some(path) = apsp.path(u, v) {
                    assert_eq!(path[0], u);
                    assert_eq!(*path.last().unwrap(), v);
                    // Path cost equals claimed distance.
                    let mut cost = 0;
                    for w in path.windows(2) {
                        let arc_w = arcs
                            .iter()
                            .filter(|&&(a, b, _)| a == w[0] && b == w[1])
                            .map(|&(_, _, c)| c)
                            .min()
                            .expect("path uses existing arcs");
                        cost += arc_w;
                    }
                    assert_eq!(Some(cost), apsp.dist(u, v));
                    // Simple path.
                    let set: std::collections::BTreeSet<_> = path.iter().collect();
                    assert_eq!(set.len(), path.len());
                }
            }
        }
    }

    #[test]
    fn round_charges_by_model() {
        let arcs = vec![(0usize, 1usize, 1i64)];
        let mut c1 = Clique::new(64);
        let _ = apsp_from_arcs(&mut c1, 64, &arcs, RoundModel::Semiring);
        // ceil(64^(1/3)) = 4 per product, log2(64) = 6 products.
        assert_eq!(c1.ledger().implemented_rounds(), 24);
        assert_eq!(c1.ledger().charged_rounds(), 0);

        let mut c2 = Clique::new(64);
        let _ = apsp_from_arcs(&mut c2, 64, &arcs, RoundModel::FastMatMul);
        assert_eq!(c2.ledger().implemented_rounds(), 0);
        assert_eq!(
            c2.ledger().charged_rounds(),
            (64f64).powf(0.158).ceil() as u64
        );
    }

    #[test]
    fn fast_model_rounds_grow_slower_than_semiring() {
        for &n in &[64usize, 256, 1024] {
            assert!(
                RoundModel::FastMatMul.apsp_rounds(n) < RoundModel::Semiring.apsp_rounds(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn closest_target_prefers_distance_then_id() {
        let mut clique = Clique::new(4);
        let apsp = apsp_from_arcs(
            &mut clique,
            4,
            &[(0, 1, 5), (0, 2, 5), (0, 3, 2)],
            RoundModel::Semiring,
        );
        assert_eq!(apsp.closest_target(0, &[1, 2, 3]), Some((3, 2)));
        assert_eq!(apsp.closest_target(0, &[2, 1]), Some((1, 5)));
        assert_eq!(apsp.closest_target(1, &[2, 3]), None);
    }

    #[test]
    fn parallel_arcs_take_minimum() {
        let mut clique = Clique::new(2);
        let apsp = apsp_from_arcs(
            &mut clique,
            2,
            &[(0, 1, 9), (0, 1, 4), (0, 1, 7)],
            RoundModel::Semiring,
        );
        assert_eq!(apsp.dist(0, 1), Some(4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        let mut clique = Clique::new(2);
        let _ = apsp_from_arcs(&mut clique, 2, &[(0, 1, -3)], RoundModel::Semiring);
    }
}
