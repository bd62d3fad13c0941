//! Determinism guarantees across the stack: every experiment table in the
//! reproduction must be regenerable bit-for-bit.

use hotspot_autotuner::prelude::*;

fn opts(seed: u64, workers: usize) -> TunerOptions {
    TunerOptions {
        budget: SimDuration::from_mins(4),
        seed,
        workers,
        ..TunerOptions::default()
    }
}

#[test]
fn identical_seeds_give_identical_sessions() {
    let w = workload_by_name("crypto.rsa").unwrap();
    let a = Tuner::new(opts(42, 4)).run(
        &SimExecutor::new(w.clone()),
        "rsa",
        &TelemetryBus::disabled(),
    );
    let b = Tuner::new(opts(42, 4)).run(&SimExecutor::new(w), "rsa", &TelemetryBus::disabled());
    // The entire trial log must match, not just the headline.
    assert_eq!(a.session.to_json(), b.session.to_json());
}

#[test]
fn worker_count_does_not_change_results() {
    let w = workload_by_name("crypto.aes").unwrap();
    let serial = Tuner::new(opts(7, 1)).run(
        &SimExecutor::new(w.clone()),
        "aes",
        &TelemetryBus::disabled(),
    );
    let parallel =
        Tuner::new(opts(7, 8)).run(&SimExecutor::new(w), "aes", &TelemetryBus::disabled());
    assert_eq!(serial.session.to_json(), parallel.session.to_json());
}

#[test]
fn different_seeds_explore_differently() {
    let w = workload_by_name("crypto.rsa").unwrap();
    let a = Tuner::new(opts(1, 4)).run(
        &SimExecutor::new(w.clone()),
        "rsa",
        &TelemetryBus::disabled(),
    );
    let b = Tuner::new(opts(2, 4)).run(&SimExecutor::new(w), "rsa", &TelemetryBus::disabled());
    assert_ne!(a.session.to_json(), b.session.to_json());
}

#[test]
fn simulator_outcomes_are_pure_functions_of_config_and_seed() {
    let registry = hotspot_registry();
    let workload = workload_by_name("dacapo:fop").unwrap();
    let sim = JvmSim::new();
    let mut config = JvmConfig::default_for(registry);
    config
        .set_by_name(registry, "TieredCompilation", FlagValue::Bool(true))
        .unwrap();
    let a = sim.run(registry, &config, &workload, 77);
    let b = sim.run(registry, &config, &workload, 77);
    assert_eq!(a.total, b.total);
    assert_eq!(a.gc.young_collections, b.gc.young_collections);
    assert_eq!(a.jit.c2_compiles, b.jit.c2_compiles);
}
