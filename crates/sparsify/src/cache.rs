//! Cross-instance sparsifier-template reuse.
//!
//! PR 3's `BarrierEngine` reuses one captured [`SparsifierTemplate`]
//! *within* a single IPM run (one engine, one edge support). Workloads
//! that solve many instances on the **same support** — repeated max-flow
//! queries on one network with different demands, parameter sweeps,
//! conformance soaks — still pay a full expander decomposition per run.
//! A [`TemplateCache`] closes that gap: a cheaply-cloneable, shared,
//! keyed store of frozen templates. Engines consult it before their
//! first build and publish what they capture; a hit replaces the
//! `n^{o(1)}`-round decomposition with a 2-broadcast-per-level
//! instantiation whose per-cluster `α` is recertified exactly for the
//! new weights (see [`SparsifierTemplate::instantiate`]), so correctness
//! never depends on the cache.
//!
//! Keys are structural: vertex count, edge count, and an FNV-1a hash of
//! the edge endpoint list in order. Templates only transfer between
//! graphs with the same edge support *and edge list order* — exactly
//! what the key fingerprints. Weights are deliberately excluded:
//! reweighted instances are the whole point.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cc_model::util::fnv1a_words;

use crate::template::SparsifierTemplate;

/// Structural fingerprint of an edge support: `(n, m, h)` with `h` an
/// FNV-1a hash over the endpoint pairs in edge-list order. Weights do
/// not contribute — the template transfers across reweightings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TemplateKey {
    n: usize,
    m: usize,
    support_hash: u64,
}

impl TemplateKey {
    /// Fingerprints the support of a weighted edge list on `n` vertices.
    pub fn for_support(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        Self {
            n,
            m: edges.len(),
            support_hash: fnv1a_words(edges.iter().flat_map(|&(u, v, _)| [u as u64, v as u64])),
        }
    }

    /// Vertex count of the fingerprinted support.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge count of the fingerprinted support.
    pub fn m(&self) -> usize {
        self.m
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<TemplateKey, SparsifierTemplate>,
    hits: u64,
    misses: u64,
}

/// A shared, keyed store of frozen sparsifier templates. `Clone` is a
/// cheap handle clone (`Arc`): every clone sees and feeds the same
/// store, so one cache can serve many engines, adapters, or threads.
#[derive(Debug, Clone, Default)]
pub struct TemplateCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl TemplateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a template for `key`, counting a hit or miss.
    pub fn get(&self, key: &TemplateKey) -> Option<SparsifierTemplate> {
        let mut inner = self.inner.lock().expect("template cache poisoned");
        match inner.map.get(key).cloned() {
            Some(t) => {
                inner.hits += 1;
                Some(t)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Publishes a template for `key` (last writer wins — all templates
    /// for one key describe the same support, so any of them is valid).
    ///
    /// # Panics
    ///
    /// Panics if the template's vertex or edge count disagrees with the
    /// key — that would hand [`SparsifierTemplate::instantiate`] a graph
    /// it must reject.
    pub fn insert(&self, key: TemplateKey, template: SparsifierTemplate) {
        assert_eq!(template.n(), key.n, "template/key vertex count mismatch");
        assert_eq!(template.m(), key.m, "template/key edge count mismatch");
        let mut inner = self.inner.lock().expect("template cache poisoned");
        inner.map.insert(key, template);
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("template cache poisoned")
            .map
            .len()
    }

    /// True if no template has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a template.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("template cache poisoned").hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("template cache poisoned").misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsifier::SparsifyParams;
    use crate::template::build_sparsifier_with_template;
    use cc_graph::generators;
    use cc_model::Clique;

    fn edge_triples(g: &cc_graph::Graph) -> Vec<(usize, usize, f64)> {
        g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect()
    }

    #[test]
    fn key_ignores_weights_but_not_structure() {
        let a = TemplateKey::for_support(4, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let b = TemplateKey::for_support(4, &[(0, 1, 7.5), (1, 2, 0.1)]);
        assert_eq!(a, b);
        let c = TemplateKey::for_support(4, &[(0, 1, 1.0), (1, 3, 2.0)]);
        assert_ne!(a, c);
        let d = TemplateKey::for_support(5, &[(0, 1, 1.0), (1, 2, 2.0)]);
        assert_ne!(a, d);
        // Edge list order is part of the support contract.
        let e = TemplateKey::for_support(4, &[(1, 2, 2.0), (0, 1, 1.0)]);
        assert_ne!(a, e);
    }

    #[test]
    fn cache_round_trips_templates_and_counts() {
        let g = generators::random_connected(24, 80, 3, 9);
        let mut clique = Clique::new(24);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let cache = TemplateCache::new();
        let key = TemplateKey::for_support(g.n(), &edge_triples(&g));
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(key, template);
        assert_eq!(cache.len(), 1);
        let shared = cache.clone(); // handle clone: same store
        let got = shared.get(&key).expect("published template");
        assert_eq!(got.n(), g.n());
        assert_eq!(got.m(), g.m());
        assert_eq!(cache.hits(), 1);
        // The cached template instantiates on a reweighted instance.
        let mut g2 = cc_graph::Graph::new(g.n());
        for e in g.edges() {
            g2.add_edge(e.u, e.v, e.weight * 2.0);
        }
        let h = got.instantiate(&mut clique, &g2).unwrap();
        assert!(h.alpha() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "vertex count mismatch")]
    fn insert_rejects_mismatched_key() {
        let g = generators::cycle(8);
        let mut clique = Clique::new(8);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let cache = TemplateCache::new();
        let wrong = TemplateKey::for_support(9, &edge_triples(&g));
        cache.insert(wrong, template);
    }
}
