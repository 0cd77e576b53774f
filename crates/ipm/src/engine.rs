//! The central-path driver both flow IPMs plug into.

use std::marker::PhantomData;

use cc_core::{CoreError, ElectricalFlow, ElectricalNetwork, SolveWorkspace, SolverOptions};
use cc_model::Communicator;
use cc_sparsify::{SparsifierTemplate, TemplateCache, TemplateKey};

use crate::{EngineStats, IpmError};

/// How a build obtained its sparsifier (for the per-stage counters).
enum Reuse {
    /// A full construction (reuse disabled, or the capturing first build).
    None,
    /// The engine's own template.
    Template,
    /// A template from the shared cross-instance cache.
    CacheHit,
}

/// Solver-facing options of a [`BarrierEngine`] (the problem adapters
/// carry the step rule and budgets themselves).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Accuracy of every Laplacian solve (`Ω(1/poly m)` per the paper).
    pub solver_eps: f64,
    /// Laplacian solver (sparsifier) options.
    pub solver: SolverOptions,
    /// Reuse one expander decomposition across the engine's electrical
    /// builds (fixed edge support; per-cluster certificates recomputed
    /// exactly per build — see [`cc_sparsify::SparsifierTemplate`]).
    pub reuse_sparsifier: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            solver_eps: 1e-10,
            solver: SolverOptions {
                // The IPMs never read the exact reference solution; skip
                // its O(n³) factorization per electrical solve.
                skip_reference: true,
                ..SolverOptions::default()
            },
            reuse_sparsifier: true,
        }
    }
}

/// A reusable central-path driver: owns the electrical-network build
/// (with sparsifier-template capture/reuse), the solve workspace, and
/// the per-stage statistics. One engine serves one fixed edge support;
/// phases on a different support (e.g. the cleanup pass on the original
/// graph) use their own engine.
///
/// The adapter supplies the barrier gradient as a fill closure to
/// [`BarrierEngine::resistances_into`], then builds and solves through
/// the engine. The engine keeps one [`ElectricalNetwork`]: the first
/// build sizes it, and every later build on the template path reweights
/// it in place ([`ElectricalNetwork::reweight`]). In steady state (after
/// the first iterations have sized every buffer) the resistance refill,
/// [`BarrierEngine::build_network`], [`BarrierEngine::flow_into`] and
/// [`BarrierEngine::norm_roundtrip`] perform no heap allocation.
#[derive(Debug, Clone)]
pub struct BarrierEngine<C: Communicator> {
    n: usize,
    options: EngineOptions,
    template: Option<SparsifierTemplate>,
    cache: Option<TemplateCache>,
    /// The network of the last successful build (dropped on a failed
    /// one, so the next build starts afresh).
    net: Option<ElectricalNetwork>,
    ws: SolveWorkspace,
    resist: Vec<(usize, usize, f64)>,
    zeros: Vec<u64>,
    echo: Vec<u64>,
    stats: EngineStats,
    _comm: PhantomData<fn(&mut C)>,
}

impl<C: Communicator> BarrierEngine<C> {
    /// Creates an engine for networks on `n` vertices.
    pub fn new(n: usize, options: EngineOptions) -> Self {
        Self {
            n,
            options,
            template: None,
            cache: None,
            net: None,
            ws: SolveWorkspace::new(),
            resist: Vec::new(),
            zeros: Vec::new(),
            echo: Vec::new(),
            stats: EngineStats::default(),
            _comm: PhantomData,
        }
    }

    /// Number of vertices the engine builds networks on.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Consumes the engine, returning its statistics.
    pub fn into_stats(self) -> EngineStats {
        self.stats
    }

    /// Attaches a shared [`TemplateCache`] for **cross-instance**
    /// template reuse: before its first build the engine consults the
    /// cache (keyed by the resistance buffer's edge support), and any
    /// template it captures itself is published back. Within-run reuse
    /// ([`EngineOptions::reuse_sparsifier`]) is unchanged; the cache
    /// only replaces the *first* build of a run when another run on the
    /// same support already paid for the decomposition. Hits are counted
    /// per stage in [`crate::StageStats::template_cache_hits`].
    pub fn set_template_cache(&mut self, cache: TemplateCache) {
        self.cache = Some(cache);
    }

    /// Recomputes the engine's resistance buffer from the adapter's
    /// barrier gradient and returns the minimum barrier gap.
    ///
    /// `edge(i)` returns `(u, v, r)` for edge `i`, and `gap(i)` its
    /// unclamped barrier gap; both run over `0..m` in index order.
    ///
    /// The buffer is reused across calls — steady state allocates
    /// nothing.
    pub fn resistances_into(
        &mut self,
        m: usize,
        edge: impl FnMut(usize) -> (usize, usize, f64),
        gap: impl FnMut(usize) -> f64,
    ) -> f64 {
        self.resist.clear();
        self.resist.extend((0..m).map(edge));
        (0..m).map(gap).fold(f64::INFINITY, f64::min)
    }

    /// The resistance buffer the last [`BarrierEngine::resistances_into`]
    /// call produced.
    pub fn resistances(&self) -> &[(usize, usize, f64)] {
        &self.resist
    }

    /// Builds the engine's electrical network from the current resistance
    /// buffer, capturing a sparsifier template on the first build and
    /// instantiating it on later ones (when
    /// [`EngineOptions::reuse_sparsifier`] is set): the first such build
    /// sizes the network, every later one reweights it in place. Rounds
    /// and build counts are attributed to `stage`. Read the result with
    /// [`BarrierEngine::network`]; [`BarrierEngine::flow_into`] solves on
    /// it.
    ///
    /// # Errors
    ///
    /// [`IpmError::InvalidResistance`] / [`IpmError::EndpointOutOfRange`]
    /// if the barrier gradient produced a malformed edge (reported
    /// instead of panicking in the library path), and [`IpmError::Core`]
    /// if solver construction fails. On any error the engine holds no
    /// network until the next successful build.
    pub fn build_network(&mut self, clique: &mut C, stage: &'static str) -> Result<(), IpmError> {
        let checked = self.check_resistances();
        let before = clique.ledger().total_rounds();
        let built = checked.and_then(|()| self.build(clique));
        let reused = match built {
            Ok(reused) => reused,
            Err(e) => {
                self.net = None;
                return Err(e);
            }
        };
        let net = self
            .net
            .as_ref()
            .expect("a successful build leaves a network");
        self.stats.record_build(net.alpha(), net.kappa());
        let stage = self.stats.stage_mut(stage);
        match reused {
            Reuse::None => stage.builds += 1,
            Reuse::Template => stage.template_reuses += 1,
            Reuse::CacheHit => {
                stage.template_reuses += 1;
                stage.template_cache_hits += 1;
            }
        }
        stage.rounds += clique.ledger().total_rounds() - before;
        Ok(())
    }

    /// Rejects a malformed resistance buffer before any build work.
    fn check_resistances(&self) -> Result<(), IpmError> {
        for (index, &(a, b, r)) in self.resist.iter().enumerate() {
            if !(r.is_finite() && r > 0.0) {
                return Err(IpmError::InvalidResistance { index, value: r });
            }
            let worst = a.max(b);
            if worst >= self.n {
                return Err(IpmError::EndpointOutOfRange {
                    index,
                    endpoint: worst,
                    n: self.n,
                });
            }
        }
        Ok(())
    }

    /// Leaves the network for the current resistances in `self.net`,
    /// reporting how the sparsifier was obtained.
    fn build(&mut self, clique: &mut C) -> Result<Reuse, IpmError> {
        let (n, options) = (self.n, &self.options.solver);
        if !self.options.reuse_sparsifier {
            self.net = Some(ElectricalNetwork::build(clique, n, &self.resist, options)?);
            return Ok(Reuse::None);
        }
        if let Some(template) = &self.template {
            match &mut self.net {
                Some(net) => net.reweight(clique, &self.resist, template)?,
                None => {
                    self.net = Some(ElectricalNetwork::build_from_template(
                        clique,
                        n,
                        &self.resist,
                        template,
                        options,
                    )?);
                }
            }
            return Ok(Reuse::Template);
        }
        let key = TemplateKey::for_support(n, &self.resist);
        if let Some(template) = self.cache.as_ref().and_then(|c| c.get(&key)) {
            // Cross-instance hit: another run on the same support already
            // paid for the decomposition. Instantiation recertifies the
            // per-cluster bounds for the current weights, so correctness
            // never depends on what the cache holds.
            let net = ElectricalNetwork::build_from_template(
                clique,
                n,
                &self.resist,
                &template,
                options,
            )?;
            self.template = Some(template);
            self.net = Some(net);
            return Ok(Reuse::CacheHit);
        }
        let (net, template) = ElectricalNetwork::build_capturing(clique, n, &self.resist, options)?;
        if let Some(cache) = &self.cache {
            cache.insert(key, template.clone());
        }
        self.template = Some(template);
        self.net = Some(net);
        Ok(Reuse::None)
    }

    /// The network of the last successful [`BarrierEngine::build_network`]
    /// (`None` before the first build and after a failed one).
    pub fn network(&self) -> Option<&ElectricalNetwork> {
        self.net.as_ref()
    }

    /// Computes the electrical flow for demand `chi` on the engine's
    /// network into the reused buffer `out`, through the engine's
    /// [`SolveWorkspace`] — the allocation-free twin of
    /// [`ElectricalNetwork::flow`], with rounds, solve count and Chebyshev
    /// iterations attributed to `stage`.
    ///
    /// # Errors
    ///
    /// [`IpmError::Core`] if the communication substrate rejects a solve
    /// iteration's broadcast. Rounds spent before the failure are still
    /// attributed to `stage`.
    ///
    /// # Panics
    ///
    /// Panics if no network is built, `chi.len() != n` or the engine's
    /// `solver_eps` is not positive (same contract as
    /// [`ElectricalNetwork::flow`]).
    pub fn flow_into(
        &mut self,
        clique: &mut C,
        stage: &'static str,
        chi: &[f64],
        out: &mut ElectricalFlow,
    ) -> Result<(), IpmError> {
        let net = self
            .net
            .as_ref()
            .expect("flow_into needs a successful build_network first");
        let before = clique.ledger().total_rounds();
        let result = net.flow_into(clique, chi, self.options.solver_eps, out, &mut self.ws);
        if result.is_ok() {
            self.stats.record_flow(out);
        }
        let stage = self.stats.stage_mut(stage);
        stage.solves += 1;
        stage.chebyshev_iterations += out.iterations;
        stage.rounds += clique.ledger().total_rounds() - before;
        result?;
        Ok(())
    }

    /// One broadcast round aggregating the step's scalar norms — the
    /// communication the congestion accounting charges for computing
    /// `‖ρ‖` globally. Buffer-reusing twin of
    /// `clique.broadcast_all(&vec![0; n])`: identical round cost and
    /// tracing, zero steady-state allocations.
    ///
    /// # Errors
    ///
    /// [`IpmError::Core`] if the communication substrate rejects the
    /// broadcast.
    pub fn norm_roundtrip(&mut self, clique: &mut C) -> Result<(), IpmError> {
        self.zeros.clear();
        self.zeros.resize(clique.n(), 0);
        clique
            .broadcast_all_into(&self.zeros, &mut self.echo)
            .map_err(CoreError::from)?;
        Ok(())
    }

    /// Records the residual norm the adapter observed for `stage`
    /// (exported through [`EngineStats`]).
    pub fn record_residual(&mut self, stage: &'static str, norm: f64) {
        self.stats.stage_mut(stage).last_residual_norm = norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::Clique;

    /// A small connected resistor network on 6 vertices.
    fn ring_edge(i: usize) -> (usize, usize, f64) {
        (i % 6, (i + 1) % 6, 1.0 + i as f64)
    }

    #[test]
    fn template_captured_once_then_reused() {
        let mut clique = Clique::new(6);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        engine.resistances_into(6, ring_edge, |_| f64::INFINITY);
        assert!(engine.template.is_none());
        engine.build_network(&mut clique, "test").unwrap();
        assert!(engine.template.is_some());
        let first = engine.network().unwrap().resistances().to_vec();
        engine.build_network(&mut clique, "test").unwrap();
        assert_eq!(first, engine.network().unwrap().resistances());
        let stage = engine.stats().stage("test");
        assert_eq!(stage.builds, 1);
        assert_eq!(stage.template_reuses, 1);
        assert!(stage.rounds > 0);
    }

    /// Every in-place reweight equals a fresh template build on the same
    /// resistances: `α`, `κ`, rounds, and the solve's iterations and bits.
    #[test]
    fn in_place_reweights_equal_fresh_template_builds() {
        let support: Vec<(usize, usize)> = cc_graph::generators::expander(16)
            .edges()
            .iter()
            .map(|e| (e.u, e.v))
            .collect();
        let m = support.len();
        let mut clique = Clique::new(16);
        let mut fresh_clique = Clique::new(16);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(16, EngineOptions::default());
        let options = engine.options().solver;
        let mut template = None;
        let mut chi = vec![0.0; 16];
        chi[0] = 1.0;
        chi[9] = -1.0;
        let (mut got, mut gadgets) = (ElectricalFlow::default(), 0);
        for step in 0..6usize {
            engine.resistances_into(
                m,
                |i| {
                    let r = 1.0 + ((i * 7 + step * 3) % 11) as f64 * 0.37;
                    (support[i].0, support[i].1, r)
                },
                |_| f64::INFINITY,
            );
            let before = clique.ledger().total_rounds();
            engine.build_network(&mut clique, "step").unwrap();
            let spent = clique.ledger().total_rounds() - before;

            let resist = engine.resistances().to_vec();
            let fresh_before = fresh_clique.ledger().total_rounds();
            let fresh = match &template {
                None => {
                    let (net, t) = ElectricalNetwork::build_capturing(
                        &mut fresh_clique,
                        16,
                        &resist,
                        &options,
                    )
                    .unwrap();
                    template = Some(t);
                    net
                }
                Some(t) => ElectricalNetwork::build_from_template(
                    &mut fresh_clique,
                    16,
                    &resist,
                    t,
                    &options,
                )
                .unwrap(),
            };
            assert_eq!(spent, fresh_clique.ledger().total_rounds() - fresh_before);
            let net = engine.network().unwrap();
            assert_eq!(
                net.alpha().to_bits(),
                fresh.alpha().to_bits(),
                "step {step}"
            );
            assert_eq!(
                net.kappa().to_bits(),
                fresh.kappa().to_bits(),
                "step {step}"
            );
            gadgets += usize::from(net.alpha() > 1.0);

            engine
                .flow_into(&mut clique, "step", &chi, &mut got)
                .unwrap();
            let want = fresh
                .flow(&mut fresh_clique, &chi, engine.options().solver_eps)
                .unwrap();
            assert_eq!(got.iterations, want.iterations, "step {step}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.potentials), bits(&want.potentials), "step {step}");
            assert_eq!(bits(&got.flows), bits(&want.flows), "step {step}");
            assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "step {step}");
        }
        assert!(gadgets > 0, "no step certified a star gadget");
        let stage = engine.stats().stage("step");
        assert_eq!((stage.builds, stage.template_reuses), (1, 5));
    }

    #[test]
    fn shared_cache_skips_second_engines_build() {
        let cache = TemplateCache::new();
        // First engine: misses the cache, builds, publishes.
        let mut clique = Clique::new(6);
        let mut first: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        first.set_template_cache(cache.clone());
        first.resistances_into(6, ring_edge, |_| f64::INFINITY);
        first.build_network(&mut clique, "test").unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        let s = first.stats().stage("test");
        assert_eq!(
            (s.builds, s.template_reuses, s.template_cache_hits),
            (1, 0, 0)
        );

        // Second engine, same support (reweighted): instantiates from the
        // cache instead of re-decomposing.
        let mut second: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        second.set_template_cache(cache.clone());
        second.resistances_into(
            6,
            |i| {
                let (u, v, r) = ring_edge(i);
                (u, v, 3.0 * r)
            },
            |_| f64::INFINITY,
        );
        second.build_network(&mut clique, "test").unwrap();
        assert!(second.template.is_some());
        assert_eq!(cache.hits(), 1);
        let s = second.stats().stage("test");
        assert_eq!(
            (s.builds, s.template_reuses, s.template_cache_hits),
            (0, 1, 1)
        );
        assert_eq!(first.network().unwrap().n(), second.network().unwrap().n());

        // Subsequent builds reuse the now-local template: no more lookups.
        second.build_network(&mut clique, "test").unwrap();
        assert_eq!(cache.hits() + cache.misses(), 2);
        let s = second.stats().stage("test");
        assert_eq!((s.template_reuses, s.template_cache_hits), (2, 1));
    }

    #[test]
    fn reuse_disabled_always_rebuilds() {
        let mut clique = Clique::new(6);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(
            6,
            EngineOptions {
                reuse_sparsifier: false,
                ..EngineOptions::default()
            },
        );
        engine.resistances_into(6, ring_edge, |_| f64::INFINITY);
        engine.build_network(&mut clique, "test").unwrap();
        engine.build_network(&mut clique, "test").unwrap();
        assert!(engine.template.is_none());
        assert_eq!(engine.stats().stage("test").builds, 2);
    }

    #[test]
    fn malformed_resistances_are_typed_errors() {
        let mut clique = Clique::new(6);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        engine.resistances_into(
            6,
            |i| {
                let (u, v, r) = ring_edge(i);
                (u, v, if i == 2 { f64::NAN } else { r })
            },
            |_| f64::INFINITY,
        );
        match engine.build_network(&mut clique, "test") {
            Err(IpmError::InvalidResistance { index: 2, .. }) => {}
            other => panic!("expected InvalidResistance, got {other:?}"),
        }
        // A failed build leaves no network behind.
        assert!(engine.network().is_none());
        engine.resistances_into(
            6,
            |i| {
                let (u, v, r) = ring_edge(i);
                (if i == 4 { 99 } else { u }, v, r)
            },
            |_| f64::INFINITY,
        );
        match engine.build_network(&mut clique, "test") {
            Err(IpmError::EndpointOutOfRange {
                index: 4,
                endpoint: 99,
                n: 6,
            }) => {}
            other => panic!("expected EndpointOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn min_gap_fold_matches_serial_min() {
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        let gaps: Vec<f64> = (0..5000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let got = engine.resistances_into(gaps.len(), |i| (i % 6, (i + 1) % 6, 1.0), |i| gaps[i]);
        let want = gaps.iter().fold(f64::INFINITY, |m, &g| m.min(g));
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn flow_into_accounts_rounds_and_iterations() {
        let mut clique = Clique::new(6);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        engine.resistances_into(6, ring_edge, |_| f64::INFINITY);
        engine.build_network(&mut clique, "build").unwrap();
        let mut chi = vec![0.0; 6];
        chi[0] = 1.0;
        chi[3] = -1.0;
        let mut out = ElectricalFlow::default();
        let before = clique.ledger().total_rounds();
        engine
            .flow_into(&mut clique, "solve", &chi, &mut out)
            .unwrap();
        let expected = clique.ledger().total_rounds() - before;
        let reference = engine
            .network()
            .unwrap()
            .flow(&mut clique, &chi, engine.options().solver_eps)
            .unwrap();
        assert_eq!(out.flows, reference.flows);
        assert_eq!(out.potentials, reference.potentials);
        let stage = engine.stats().stage("solve");
        assert_eq!(stage.solves, 1);
        assert_eq!(stage.chebyshev_iterations, out.iterations);
        assert_eq!(stage.rounds, expected);
        engine.record_residual("solve", 0.125);
        assert_eq!(engine.stats().stage("solve").last_residual_norm, 0.125);
    }

    #[test]
    fn norm_roundtrip_costs_one_round() {
        let mut clique = Clique::new(6);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(6, EngineOptions::default());
        let before = clique.ledger().total_rounds();
        engine.norm_roundtrip(&mut clique).unwrap();
        assert_eq!(clique.ledger().total_rounds() - before, 1);
    }
}
