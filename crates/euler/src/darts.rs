//! Dart-cycle decomposition induced by local edge pairing.

use cc_graph::{EdgeId, Graph, VertexId};

/// A dart is a directed occurrence of an edge: dart `2e` points `u → v`
/// of edge `e = (u, v)` (head `v`), dart `2e + 1` points `v → u` (head `u`).
pub type DartId = usize;

/// The dart-level view of the trail decomposition of an even-degree graph.
///
/// Built by [`DartStructure::new`] with zero communication (step 1 of
/// Theorem 1.4 is a purely local pairing at every node).
#[derive(Debug, Clone)]
pub struct DartStructure {
    n: usize,
    /// For each dart, the edge it belongs to.
    edge_of: Vec<EdgeId>,
    /// For each dart, the vertex it points at (its host processor).
    head: Vec<VertexId>,
    /// For each dart, the vertex it leaves.
    tail: Vec<VertexId>,
    /// Successor dart: enter `head` via this dart's edge, leave via the
    /// partner edge.
    succ: Vec<DartId>,
    /// Predecessor dart (inverse of `succ`).
    pred: Vec<DartId>,
}

impl DartStructure {
    /// Builds the dart decomposition of `g`.
    ///
    /// Pairing rule (deterministic): every vertex pairs consecutive entries
    /// of its adjacency list — positions `(0,1), (2,3), …`.
    ///
    /// # Panics
    ///
    /// Panics if some vertex has odd degree (`g` must be Eulerian in the
    /// even-degree sense of Theorem 1.4).
    pub fn new(g: &Graph) -> Self {
        assert!(
            g.is_eulerian(),
            "dart decomposition needs even degrees at every vertex"
        );
        let m = g.m();
        let mut edge_of = vec![0; 2 * m];
        let mut head = vec![0; 2 * m];
        let mut tail = vec![0; 2 * m];
        for e in 0..m {
            let edge = g.edge(e);
            edge_of[2 * e] = e;
            edge_of[2 * e + 1] = e;
            head[2 * e] = edge.v;
            tail[2 * e] = edge.u;
            head[2 * e + 1] = edge.u;
            tail[2 * e + 1] = edge.v;
        }
        // partner_slot[v-local adjacency position] → partner position.
        let mut succ = vec![usize::MAX; 2 * m];
        for v in 0..g.n() {
            let adj = g.adj(v);
            for pair in adj.chunks(2) {
                let (e1, _) = pair[0];
                let (e2, _) = pair[1];
                // Dart entering v via e1 continues along e2 away from v,
                // and vice versa.
                let incoming1 = dart_pointing_at(e1, v, g);
                let incoming2 = dart_pointing_at(e2, v, g);
                let outgoing1 = other_dart(incoming1);
                let outgoing2 = other_dart(incoming2);
                succ[incoming1] = outgoing2;
                succ[incoming2] = outgoing1;
            }
        }
        let mut pred = vec![usize::MAX; 2 * m];
        for (d, &s) in succ.iter().enumerate() {
            pred[s] = d;
        }
        debug_assert!(succ.iter().all(|&s| s != usize::MAX));
        Self {
            n: g.n(),
            edge_of,
            head,
            tail,
            succ,
            pred,
        }
    }

    /// Number of vertices of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of darts (`2m`).
    pub fn dart_count(&self) -> usize {
        self.edge_of.len()
    }

    /// The vertex a dart points at — also the processor hosting the dart.
    pub fn head(&self, d: DartId) -> VertexId {
        self.head[d]
    }

    /// The vertex a dart leaves.
    pub fn tail(&self, d: DartId) -> VertexId {
        self.tail[d]
    }

    /// Successor dart along the trail.
    pub fn succ(&self, d: DartId) -> DartId {
        self.succ[d]
    }

    /// Predecessor dart along the trail.
    pub fn pred(&self, d: DartId) -> DartId {
        self.pred[d]
    }

    /// The canonical dart of an edge (`u → v` as stored, id `2e`).
    pub fn canonical(&self, e: EdgeId) -> DartId {
        2 * e
    }

    /// The opposite dart of `d` (same edge, reversed).
    pub fn reverse(&self, d: DartId) -> DartId {
        other_dart(d)
    }

    /// True if `d` is its edge's canonical (`u → v`) dart.
    pub fn is_canonical(&self, d: DartId) -> bool {
        d.is_multiple_of(2)
    }
}

fn dart_pointing_at(e: EdgeId, v: VertexId, g: &Graph) -> DartId {
    let edge = g.edge(e);
    if edge.v == v {
        2 * e
    } else {
        debug_assert_eq!(edge.u, v);
        2 * e + 1
    }
}

fn other_dart(d: DartId) -> DartId {
    d ^ 1
}

/// Mergeable summary of a contiguous dart segment, accumulated during
/// cycle contraction; a full-cycle summary is what the leader's verdict
/// rule reads (see [`crate::OrientationCriterion`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSummary {
    /// Largest edge id on the segment.
    pub max_edge: EdgeId,
    /// Whether the segment contains the canonical dart of `max_edge`.
    pub has_canonical_of_max: bool,
    /// Sum of signed integer costs of the segment's darts. Integer so the
    /// two opposite cycles of a trail accumulate exactly negated totals
    /// regardless of summation order.
    pub cost: i64,
    /// Whether the segment contains the special dart (e.g. the `(t, s)`
    /// return edge of flow rounding, in its mandated direction).
    pub has_special_forward: bool,
    /// Whether the segment contains the reverse of the special dart.
    pub has_special_backward: bool,
}

impl CycleSummary {
    /// Summary of the single dart `d`.
    pub fn for_dart(
        darts: &DartStructure,
        d: DartId,
        dart_cost: impl Fn(DartId) -> i64,
        special: Option<DartId>,
    ) -> Self {
        let e = darts.edge_of[d];
        Self {
            max_edge: e,
            has_canonical_of_max: darts.is_canonical(d),
            cost: dart_cost(d),
            has_special_forward: special == Some(d),
            has_special_backward: special == Some(darts.reverse(d)),
        }
    }

    /// Merges an adjacent segment's summary into this one.
    pub fn merge(&mut self, other: &CycleSummary) {
        use std::cmp::Ordering;
        match other.max_edge.cmp(&self.max_edge) {
            Ordering::Greater => {
                self.max_edge = other.max_edge;
                self.has_canonical_of_max = other.has_canonical_of_max;
            }
            Ordering::Equal => {
                self.has_canonical_of_max |= other.has_canonical_of_max;
            }
            Ordering::Less => {}
        }
        self.cost += other.cost;
        self.has_special_forward |= other.has_special_forward;
        self.has_special_backward |= other.has_special_backward;
    }

    /// Packs the summary into message words (5 words: the "constant number
    /// of designated messages" per token of the paper's contraction).
    pub fn to_words(&self) -> [u64; 5] {
        [
            self.max_edge as u64,
            self.has_canonical_of_max as u64,
            cc_model::encode_i64(self.cost),
            self.has_special_forward as u64,
            self.has_special_backward as u64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn darts_of_cycle_form_two_cycles() {
        let g = generators::cycle(5);
        let darts = DartStructure::new(&g);
        assert_eq!(darts.dart_count(), 10);
        // Follow successors from dart 0: must return after 5 steps.
        let mut d = 0;
        for _ in 0..5 {
            d = darts.succ(d);
        }
        assert_eq!(d, 0);
        // succ/pred are inverse.
        for d in 0..10 {
            assert_eq!(darts.pred(darts.succ(d)), d);
        }
    }

    #[test]
    fn successor_leaves_the_head_vertex() {
        let g = generators::random_eulerian(10, 3, 5);
        let darts = DartStructure::new(&g);
        for d in 0..darts.dart_count() {
            let s = darts.succ(d);
            assert_eq!(darts.head(d), darts.tail(s), "dart {d} succ {s}");
            assert_ne!(darts.edge_of[d], darts.edge_of[s]);
        }
    }

    #[test]
    fn dart_cycles_partition_all_darts() {
        let g = generators::random_eulerian(12, 4, 1);
        let darts = DartStructure::new(&g);
        let mut visited = vec![false; darts.dart_count()];
        let mut cycles = 0;
        for start in 0..darts.dart_count() {
            if visited[start] {
                continue;
            }
            cycles += 1;
            let mut d = start;
            loop {
                assert!(!visited[d]);
                visited[d] = true;
                d = darts.succ(d);
                if d == start {
                    break;
                }
            }
        }
        assert!(visited.iter().all(|&v| v));
        // Cycles come in direction pairs.
        assert_eq!(cycles % 2, 0);
    }

    #[test]
    #[should_panic(expected = "even degrees")]
    fn rejects_odd_degrees() {
        let g = generators::path(3);
        let _ = DartStructure::new(&g);
    }

    #[test]
    fn summary_merge_tracks_max_edge_and_cost() {
        let g = generators::cycle(4);
        let darts = DartStructure::new(&g);
        let cost = |d: DartId| if darts.is_canonical(d) { 1 } else { -1 };
        let mut acc = CycleSummary::for_dart(&darts, 0, cost, Some(6));
        acc.merge(&CycleSummary::for_dart(&darts, 3, cost, Some(6)));
        acc.merge(&CycleSummary::for_dart(&darts, 6, cost, Some(6)));
        assert_eq!(acc.max_edge, 3);
        assert!(acc.has_special_forward);
        assert!(!acc.has_special_backward);
        assert_eq!(acc.cost, 1);
    }
}
