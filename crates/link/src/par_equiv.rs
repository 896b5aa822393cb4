//! Serial/parallel equivalence of the fleet drivers and the §5.4 corpus.
//!
//! Fleet sessions draw every stream from `mix64(seed, 1 + i)` and are
//! collected in session order, so a fleet's reports must be bit-identical
//! at any pool width. Each test reruns one workload at widths {1, 2, 3, 8}
//! and compares the whole output against the 1-thread run. Under
//! `--no-default-features` `with_threads` is inert and the same assertions
//! certify the serial path, so passing in both builds proves the two agree.

use crate::channel::{Environment, FogStage, ScintillationStage};
use crate::control::{ControlPlaneConfig, FaultPlan};
use crate::engine::{
    run_fleet, run_fleet_mixed, FallbackPolicy, FleetConfig, FleetPool, TxInstallation,
};
use crate::handover::Occluder;
use crate::registry::headset_profile;
use crate::sched::{run_fleet_scheduled, SchedConfig};
use crate::trace_sim::{simulate_corpus, TraceSimParams};
use cyclops_vrh::traces::{HeadTrace, TraceGenConfig};
use cyclops_vrh::tracking::TrackerConfig;
use std::fmt::Debug;
use std::sync::OnceLock;

/// Runs `work` at pool widths {1, 2, 3, 8} and asserts every run renders
/// identically to the 1-thread run. `{:?}` prints each `f64` in its
/// shortest round-trip form, so equal renderings mean equal bits (NaN
/// payloads aside), for every field of the result.
fn assert_width_invariant<R: Debug>(ctx: &str, work: impl Fn() -> R) {
    let reference = format!("{:?}", cyclops_par::with_threads(1, &work));
    for threads in [2, 3, 8] {
        let got = format!("{:?}", cyclops_par::with_threads(threads, &work));
        assert!(
            got == reference,
            "{ctx}: {threads} threads diverge from 1 thread"
        );
    }
}

fn units() -> &'static [TxInstallation] {
    static UNITS: OnceLock<Vec<TxInstallation>> = OnceLock::new();
    UNITS.get_or_init(|| crate::session_tests::two_units(911))
}

/// The hostile fleet: 8 headsets over 2 units, hardened control plane
/// under the stress fault plan, one roaming occluder per session, and
/// telemetry collected so its counters are compared too. 4 s covers a
/// handover away from the occluded unit and the ~2.5 s SFP relink.
fn hostile() -> FleetConfig {
    let base = FleetConfig::default().base_pose;
    let tx0 = units()[0].dep.tx_world_params().q2;
    FleetConfig {
        n_sessions: 8,
        duration_s: 4.0,
        seed: 424,
        control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(5))),
        occluders: vec![Occluder::new(tx0.lerp(base.trans, 0.5), 0.12, 0.4, 0)],
        collect_telemetry: true,
        ..FleetConfig::default()
    }
}

#[test]
fn run_fleet_is_invariant_to_thread_count() {
    for fallback in [FallbackPolicy::Off, FallbackPolicy::RfOnOutage] {
        let cfg = FleetConfig {
            fallback,
            ..hostile()
        };
        assert_width_invariant(&format!("run_fleet, {fallback:?}"), || {
            run_fleet(units(), &cfg)
        });
    }
}

#[test]
fn run_fleet_scheduled_is_invariant_to_thread_count() {
    let cfg = hostile();
    for sched in [
        SchedConfig::static_partition(),
        SchedConfig::greedy(),
        SchedConfig::proportional_fair(1.0),
    ] {
        assert_width_invariant(&format!("run_fleet_scheduled, {:?}", sched.policy), || {
            run_fleet_scheduled(units(), &cfg, &sched).expect("valid sched config")
        });
    }
}

#[test]
fn run_fleet_mixed_is_invariant_to_thread_count() {
    let pools = [
        ("10g/rift-s", TrackerConfig::default()),
        (
            "10g/quest",
            headset_profile("quest").expect("preset").tracker,
        ),
    ]
    .map(|(label, tracker)| FleetPool {
        label: label.into(),
        units: units().to_vec(),
        tracker,
    });
    let env = Environment::new()
        .stage(FogStage::from_density(0.3, 1550.0).expect("valid density"))
        .stage(ScintillationStage::new(0.6, 10e-3, 77).expect("valid scintillation"));
    let cfg = FleetConfig {
        environment: Some(env),
        ..hostile()
    };
    assert_width_invariant("run_fleet_mixed", || {
        let fleet = run_fleet_mixed(&pools, &cfg).expect("valid mixed fleet");
        let rollups = fleet.profile_rollups();
        (fleet, rollups)
    });
}

#[test]
fn simulate_corpus_is_invariant_to_thread_count() {
    let traces: Vec<HeadTrace> = (0..16)
        .map(|i| HeadTrace::generate(&TraceGenConfig::default(), 9_100 + i))
        .collect();
    assert_width_invariant("simulate_corpus", || {
        simulate_corpus(&traces, &TraceSimParams::default())
    });
}
