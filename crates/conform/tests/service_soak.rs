//! Service-layer soak: a seeded randomized request stream through one
//! long-lived engine, spot-checked against the sequential oracles.
//!
//! `SERVICE_SOAK_REQUESTS=N` scales the stream (CI runs ≥ 10 000); the
//! default keeps the tier-1 run short. `SERVICE_SOAK_ORACLE_EVERY=K`
//! tunes the sampled-oracle density.

use cc_conform::{run_service_soak, run_service_soak_on, SoakConfig};
use cc_model::{BroadcastComm, Clique, ThreadedComm};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn soak_config() -> SoakConfig {
    SoakConfig {
        requests: env_or("SERVICE_SOAK_REQUESTS", 120),
        oracle_every: env_or("SERVICE_SOAK_ORACLE_EVERY", 5),
        ..SoakConfig::default()
    }
}

#[test]
fn seeded_soak_has_zero_oracle_mismatches() {
    let report = run_service_soak(&soak_config());
    println!(
        "soak: {} requests in {} batches, {} oracle checks, \
         {} template cache hits, {} builds, {} rounds ({} charged)",
        report.requests,
        report.batches,
        report.oracle_checks,
        report.template_cache_hits,
        report.builds,
        report.total_rounds,
        report.charged_rounds,
    );
    assert!(report.oracle_checks > 0, "soak must sample the oracle");
    assert!(
        report.mismatches.is_empty(),
        "oracle mismatches: {:#?}",
        report.mismatches
    );
    assert!(
        report.template_cache_hits > 0,
        "the stream must observe cross-request cache reuse"
    );
}

#[test]
fn broadcast_soak_has_zero_oracle_mismatches() {
    // The registry leg of the broadcast model: the whole engine —
    // registration, sessions, batch admission, caching — over a measured
    // `BroadcastComm`, spot-checked against the same sequential oracles.
    let report = run_service_soak_on(&soak_config(), |n| BroadcastComm::measured(Clique::new(n)));
    assert!(report.oracle_checks > 0, "soak must sample the oracle");
    assert!(
        report.mismatches.is_empty(),
        "oracle mismatches over BroadcastComm: {:#?}",
        report.mismatches
    );
}

#[test]
fn broadcast_soak_is_bitwise_identical_over_threaded_comm() {
    let config = SoakConfig {
        oracle_every: 0,
        ..soak_config()
    };
    let base = run_service_soak_on(&config, |n| BroadcastComm::measured(Clique::new(n)));
    for workers in [1usize, 2, 8] {
        let got = run_service_soak_on(&config, |n| {
            BroadcastComm::measured(ThreadedComm::with_workers(n, workers))
        });
        assert_eq!(
            base, got,
            "broadcast soak report diverged over ThreadedComm at {workers} workers"
        );
    }
}

#[test]
fn soak_stream_is_bitwise_identical_over_threaded_comm() {
    // The whole service stack — engine, sessions, batch admission —
    // over the concurrent sharded transport must reproduce the
    // sequential SoakReport bit for bit, at every worker count.
    let config = SoakConfig {
        oracle_every: 0,
        ..soak_config()
    };
    let base = run_service_soak(&config);
    for workers in [1usize, 2, 8] {
        let got = run_service_soak_on(&config, |n| ThreadedComm::with_workers(n, workers));
        assert_eq!(
            base, got,
            "soak report diverged over ThreadedComm at {workers} workers"
        );
    }
}
