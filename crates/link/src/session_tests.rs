//! Behaviour tests of the full-physics [`LinkSession`]: the single-TX
//! throughput configuration behind Figs 13–15 (rail speed, tracker drift,
//! report loss, the §5.3 pause-on-outage protocol, the hardened control
//! plane) and the multi-TX occlusion handover. Also home of the
//! [`two_units`] fixture shared by the `engine`, `sched` and `par_equiv` tests.

use crate::control::{ControlPlaneConfig, FaultPlan, FlapSchedule, ReacqConfig};
use crate::engine::{
    DarkDebounce, EngineConfig, EngineSlot, FirstReport, LinkSession, SingleTx, TxInstallation,
};
use crate::handover::Occluder;
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::kspace::{train_both, BoardConfig};
use cyclops_core::mapping::{self, rough_initial_guess};
use cyclops_core::tp::{TpConfig, TpController};
use cyclops_geom::pose::Pose;
use cyclops_geom::vec3::{v3, Vec3};
use cyclops_vrh::motion::{LinearRail, Motion, StaticPose};
use cyclops_vrh::tracking::TrackerConfig;

/// Full commissioning: train stages 1+2, leave the link aligned.
fn commissioned(seed: u64) -> (Deployment, TpController) {
    let mut dep = Deployment::new(&DeploymentConfig::paper_10g(seed));
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        train_both(&dep, &BoardConfig::default(), seed).expect("stage-1 training");
    let (init_tx, init_rx) =
        rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, seed.wrapping_add(7));
    let mt = mapping::train(
        &mut dep,
        &tx_tr.fitted,
        &rx_tr.fitted,
        init_tx,
        init_rx,
        30,
        seed.wrapping_add(9),
    );
    // Park the headset at the nominal pose and align via TP.
    dep.set_headset_pose(Pose::translation(v3(0.0, 0.0, 1.75)));
    let v0 = dep.voltages();
    let mut ctl = TpController::new(mt.trained, TpConfig::default(), [v0.0, v0.1, v0.2, v0.3]);
    let rep = mapping::noisy_report(&mut dep, &TrackerConfig::default());
    let cmd = ctl.on_report(&rep);
    dep.set_voltages(
        cmd.voltages[0],
        cmd.voltages[1],
        cmd.voltages[2],
        cmd.voltages[3],
    );
    (dep, ctl)
}

/// Two fully-trained installations sharing one headset world.
pub(crate) fn two_units(seed: u64) -> Vec<TxInstallation> {
    let board = BoardConfig {
        cols: 10,
        rows: 8,
        cell_m: 0.0508,
    };
    [v3(-0.35, 0.0, 0.0), v3(0.35, 0.0, 0.0)]
        .into_iter()
        .map(|pos| {
            let mut cfg = DeploymentConfig::paper_10g(seed);
            cfg.tx_position = pos;
            let mut dep = Deployment::new(&cfg);
            let (tx_tr, tx_rig, rx_tr, rx_rig) =
                train_both(&dep, &board, seed).expect("stage-1 training");
            let (itx, irx) = rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, seed + 7);
            let mt = mapping::train(
                &mut dep,
                &tx_tr.fitted,
                &rx_tr.fitted,
                itx,
                irx,
                12,
                seed + 9,
            );
            let v = dep.voltages();
            let ctl = TpController::new(mt.trained, TpConfig::default(), [v.0, v.1, v.2, v.3]);
            TxInstallation { dep, ctl }
        })
        .collect()
}

/// The single-TX throughput session over one commissioned unit. A one-unit
/// builder starts the link aligned and sends its first report one period in.
fn single_tx<M: Motion>(
    dep: Deployment,
    ctl: TpController,
    motion: M,
    cfg: EngineConfig,
) -> LinkSession<M, SingleTx> {
    LinkSession::builder(motion)
        .deployment(dep, ctl)
        .config(cfg)
        .build()
        .expect("valid single-TX config")
}

/// The multi-TX handover session: unit 0 starts active with a report at
/// t = 0, and after a 30 ms dark debounce the selector hands over to the
/// nearest unoccluded sibling.
fn multi_tx<M: Motion>(
    units: Vec<TxInstallation>,
    motion: M,
    occluders: Vec<Occluder>,
) -> LinkSession<M, DarkDebounce> {
    LinkSession::builder(motion)
        .units(units)
        .occluders(occluders)
        .selector(DarkDebounce::new(0.03))
        .config(EngineConfig::multi_tx(TrackerConfig::default()))
        .first_report(FirstReport::AtZero)
        .build()
        .expect("valid multi-TX config")
}

fn up_frac(recs: &[EngineSlot]) -> f64 {
    recs.iter().filter(|r| r.link_up).count() as f64 / recs.len() as f64
}

fn park() -> Pose {
    Pose::translation(v3(0.0, 0.0, 1.75))
}

/// A constant-speed rail along x through the parked pose.
fn rail(v: f64) -> LinearRail {
    let mut rail = LinearRail::paper_protocol(park(), Vec3::X);
    rail.v0 = v;
    rail.dv = 0.0;
    rail
}

#[test]
fn static_headset_sustains_optimal_throughput() {
    let (dep, ctl) = commissioned(601);
    let mut sim = single_tx(dep, ctl, StaticPose(park()), EngineConfig::default());
    let recs = sim.run(2.0);
    let up = up_frac(&recs);
    assert!(up > 0.999, "up fraction {up}");
    let mean_tp = recs.iter().map(|r| r.goodput_gbps).sum::<f64>() / recs.len() as f64;
    assert!((mean_tp - 9.4).abs() < 0.1, "mean goodput {mean_tp} Gbps");
}

#[test]
fn slow_rail_motion_keeps_link_up() {
    // 5 cm/s strokes: far below the §5.3 33 cm/s threshold.
    let (dep, ctl) = commissioned(602);
    let mut sim = single_tx(dep, ctl, rail(0.05), EngineConfig::default());
    let up = up_frac(&sim.run(8.0));
    assert!(up > 0.98, "up fraction {up}");
}

#[test]
fn fast_rail_motion_breaks_link() {
    // 1.2 m/s: far beyond any tolerated speed — throughput must die and
    // the relink hysteresis must keep it dead for seconds.
    let (dep, ctl) = commissioned(603);
    let mut sim = single_tx(dep, ctl, rail(1.2), EngineConfig::default());
    let down = 1.0 - up_frac(&sim.run(3.0));
    assert!(down > 0.5, "down fraction {down}");
}

#[test]
fn tracker_drift_degrades_the_link_over_time() {
    // With a strong random-walk drift the reported frame walks away from
    // reality; the TP acts on stale coordinates and the static link
    // degrades within seconds — the §4 re-calibration trigger.
    let (dep, ctl) = commissioned(606);
    let run = |drift: f64| -> f64 {
        let mut cfg = EngineConfig::default();
        cfg.tracker.drift_sigma_per_sqrt_s = drift;
        let mut sim = single_tx(dep.clone(), ctl.clone(), StaticPose(park()), cfg);
        up_frac(&sim.run(8.0))
    };
    let stable = run(0.0);
    let drifting = run(4e-3);
    assert!(stable > 0.99, "no drift: {stable}");
    assert!(
        drifting < stable - 0.1,
        "drift must hurt: {stable} -> {drifting}"
    );
}

#[test]
fn report_loss_degrades_speed_tolerance() {
    // Losing half the control-channel reports doubles the effective
    // report interval, so a speed that was comfortably tolerated starts
    // dropping windows.
    let (dep, ctl) = commissioned(605);
    let run = |loss: f64| -> f64 {
        let mut cfg = EngineConfig::default();
        cfg.tracker.report_loss_prob = loss;
        let mut sim = single_tx(dep.clone(), ctl.clone(), rail(0.25), cfg);
        up_frac(&sim.run(5.0))
    };
    let clean = run(0.0);
    let lossy = run(0.6);
    assert!(
        clean > 0.95,
        "clean channel should hold at 25 cm/s: {clean}"
    );
    assert!(
        lossy < clean - 0.02,
        "60% report loss must hurt: {clean} -> {lossy}"
    );
}

#[test]
fn pause_on_outage_freezes_motion_until_relink() {
    // A fast rail breaks the link; with the §5.3 operator protocol the
    // motion must freeze (speed ≈ 0) while the SFP re-locks, then resume.
    let (dep, ctl) = commissioned(604);
    let cfg = EngineConfig {
        pause_on_outage: true,
        ..Default::default()
    };
    let mut sim = single_tx(dep, ctl, rail(1.2), cfg);
    let recs = sim.run(6.0);
    // Find the first down slot, then check motion is frozen while down.
    let first_down = recs
        .iter()
        .position(|r| !r.link_up)
        .expect("1.2 m/s must break the link");
    let mut frozen = 0usize;
    let mut down = 0usize;
    for r in &recs[first_down + 2..] {
        if !r.link_up {
            down += 1;
            if r.lin_speed < 1e-9 {
                frozen += 1;
            }
        }
    }
    assert!(
        down > 100,
        "expect a multi-second relink ({down} down slots)"
    );
    let frac = frozen as f64 / down as f64;
    assert!(
        frac > 0.95,
        "motion frozen during {:.0}% of down slots",
        frac * 100.0
    );
    // The protocol cycles: freeze → re-lock → resume → (at this
    // over-threshold speed) break again. The link must come back up at
    // least once after the first loss.
    assert!(
        recs[first_down..].iter().any(|r| r.link_up),
        "link should re-lock at least once after the first loss"
    );
}

#[test]
fn arq_plus_dead_reckoning_survives_bursty_report_loss() {
    // Bursty control-channel loss (~6-report blackouts) at a speed the
    // clean channel tolerates: unprotected, one blackout mid-stroke lets
    // the beam walk off the aperture and the SFP's multi-second re-lock
    // eats the run; with ARQ + dead reckoning the link must ride it out
    // at (near-)clean availability. The run stays within a single rail
    // stroke: a velocity *reversal* inside a total blackout is beyond
    // any constant-velocity predictor and is not the claim under test.
    let (dep, ctl) = commissioned(607);
    let bursty = FaultPlan {
        loss_prob: 0.05,
        burst_enter_prob: 0.08,
        burst_exit_prob: 0.15,
        burst_loss_prob: 1.0,
        ..FaultPlan::clean(71)
    };
    let run = |control: ControlPlaneConfig| -> f64 {
        // 0.15 m/s over the 0.40 m rail: the first stroke lasts 2.67 s,
        // longer than the 2.5 s run. One ~84 ms blackout costs ~13 mm of
        // unrealigned drift — past the ~8.6 mm lateral tolerance.
        let cfg = EngineConfig {
            control: Some(control),
            ..Default::default()
        };
        let mut sim = single_tx(dep.clone(), ctl.clone(), rail(0.15), cfg);
        up_frac(&sim.run(2.5))
    };
    let clean = run(ControlPlaneConfig::hardened(FaultPlan::clean(71)));
    let unprotected = run(ControlPlaneConfig::unprotected(bursty));
    let hardened = run(ControlPlaneConfig::hardened(bursty));
    assert!(clean > 0.95, "clean control plane should hold: {clean}");
    assert!(
        unprotected < 0.7,
        "bursty loss without mitigation should collapse: {unprotected}"
    );
    assert!(
        hardened > clean - 0.05,
        "ARQ+DR should ride out bursts: clean {clean}, hardened {hardened}, \
         unprotected {unprotected}"
    );
}

#[test]
fn reacq_spiral_recovers_a_lost_beam_without_reports() {
    // Total report blackout AND a badly mispointed beam: without the
    // spiral the link can never come back (no reports, no search); with
    // it the beam is re-found within the probe budget and the SFP
    // re-locks after its hysteresis.
    let (dep, ctl) = commissioned(608);
    let run = |reacq: Option<ReacqConfig>| {
        let cfg = EngineConfig {
            control: Some(ControlPlaneConfig {
                fault: FaultPlan::iid_loss(5, 1.0),
                arq: None,
                dead_reckoning: None,
                reacq,
            }),
            ..Default::default()
        };
        let mut sim = single_tx(dep.clone(), ctl.clone(), StaticPose(park()), cfg);
        // Knock the TX aim well off the aperture (0.64 V ≈ 24 mm at the
        // RX plane — far outside the ~10 mm lateral tolerance).
        let dep = &mut sim.units_mut()[0].dep;
        let v = dep.voltages();
        dep.set_voltages(v.0 + 0.5, v.1 - 0.4, v.2, v.3);
        let recs = sim.run(5.0);
        let up_at_end = recs[recs.len() - 1].link_up;
        (up_at_end, sim.session_stats())
    };
    let (up_without, st_without) = run(None);
    assert!(!up_without, "no search, no reports: must stay down");
    assert_eq!(st_without.n_reacq_steps, 0);
    let reacq = ReacqConfig {
        trigger_after_s: 0.03,
        step_v: 0.02,
        max_steps: 1500,
        ..Default::default()
    };
    let (up_with, st_with) = run(Some(reacq));
    assert!(
        up_with,
        "spiral should recover the beam and re-lock ({st_with:?})"
    );
    assert!(st_with.n_reacq_steps > 0, "{st_with:?}");
    assert!(
        st_with.longest_outage_s < 4.0,
        "outage should end within the run: {st_with:?}"
    );
}

#[test]
fn scheduled_flaps_force_counted_outages() {
    let (dep, ctl) = commissioned(609);
    let cfg = EngineConfig {
        control: Some(ControlPlaneConfig::hardened(FaultPlan {
            flap: Some(FlapSchedule {
                first_s: 1.0,
                period_s: 30.0,
                down_s: 0.1,
            }),
            ..FaultPlan::clean(3)
        })),
        ..Default::default()
    };
    let mut sim = single_tx(dep, ctl, StaticPose(park()), cfg);
    let recs = sim.run(5.0);
    let st = sim.session_stats();
    // One flap at t=1: down for 0.1 s forced + ~2.5 s re-lock.
    assert_eq!(st.n_outages, 1, "{st:?}");
    assert!(
        (2.0..3.5).contains(&st.longest_outage_s),
        "outage {} s should be flap + re-lock",
        st.longest_outage_s
    );
    // Beam itself never moved: no spiral probes should have fired.
    assert_eq!(st.n_reacq_steps, 0, "{st:?}");
    let up = up_frac(&recs);
    assert!((0.3..0.6).contains(&up), "up fraction {up}");
    assert!(st.control.is_some());
}

#[test]
fn control_plane_runs_are_bit_identical_per_seed() {
    let (dep, ctl) = commissioned(610);
    let run = || {
        let cfg = EngineConfig {
            control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(17))),
            ..Default::default()
        };
        let mut sim = single_tx(dep.clone(), ctl.clone(), rail(0.2), cfg);
        let recs = sim.run(3.0);
        (recs, sim.session_stats())
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.power_dbm.to_bits(), y.power_dbm.to_bits());
        assert_eq!(x.goodput_gbps.to_bits(), y.goodput_gbps.to_bits());
        assert_eq!(x.link_up, y.link_up);
    }
    assert_eq!(sa.control, sb.control);
    assert_eq!(sa.n_extrapolated, sb.n_extrapolated);
    assert_eq!(sa.n_reacq_steps, sb.n_reacq_steps);
}

#[test]
fn units_share_one_headset_world() {
    let units = two_units(901);
    // Same hidden headset config (same seed) but different TX positions.
    let h0 = units[0].dep.headset.hidden_config().vr_from_world.trans;
    let h1 = units[1].dep.headset.hidden_config().vr_from_world.trans;
    assert!((h0 - h1).norm() < 1e-12, "hidden worlds must match");
    let t0 = units[0].dep.tx_world_params().q2;
    let t1 = units[1].dep.tx_world_params().q2;
    assert!((t0 - t1).norm() > 0.5, "TX units must be installed apart");
}

#[test]
fn occlusion_triggers_physical_handover() {
    let units = two_units(902);
    // Park an occluder permanently on unit 0's line of sight.
    let tx0 = units[0].dep.tx_world_params().q2;
    let mid = tx0.lerp(park().trans, 0.5);
    let occ = Occluder::new(mid, 0.12, 0.0, 1);
    let mut sim = multi_tx(units, StaticPose(park()), vec![occ]);
    assert_eq!(sim.active(), 0);
    let recs = sim.run(4.0);
    // Handover happened...
    assert_eq!(sim.active(), 1, "should have switched to unit 1");
    // ...and after the SFP re-lock, data flows again on real optics.
    let tail = &recs[recs.len() - 200..];
    let up = tail.iter().filter(|r| r.link_up).count();
    assert!(
        up > 190,
        "link should be up on unit 1 at the end ({up}/200)"
    );
    // The outage is dominated by the SFP re-lock, not the steering.
    let first_up_again = recs
        .iter()
        .position(|r| r.active == 1 && r.link_up)
        .expect("must recover");
    let outage_s = recs[first_up_again].t;
    assert!(
        (2.0..3.5).contains(&outage_s),
        "recovery after ≈ relink time, got {outage_s}s"
    );
}

#[test]
fn no_occluder_means_no_handover() {
    let units = two_units(903);
    let mut sim = multi_tx(units, StaticPose(park()), vec![]);
    let recs = sim.run(1.0);
    assert_eq!(sim.active(), 0);
    assert!(up_frac(&recs) > 0.98);
}
