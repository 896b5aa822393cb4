//! **Extension: multi-TX occlusion coverage (§3/§6)** — quantifies the
//! paper's deployment argument that "multiple Cyclops TXs can be installed
//! to cover occlusions", on the full-physics multi-TX [`LinkSession`] (trained
//! TP per unit, real optics, real SFP re-lock).
//!
//! Two occlusion scenarios, swept over the number of installed units:
//!
//! * **brief crossings** — a person repeatedly walks across all beams at
//!   0.45 m/s (each blockage lasts well under a second);
//! * **lingering blocker** — a person walks in, stands on unit 0's beam for
//!   12 s, then leaves.
//!
//! The interesting (and honest) result: because every hand-over still pays
//! the commodity SFP's ~2.5 s re-lock (DESIGN.md known-deviation 5), extra
//! units barely help against *brief* crossings — but they bound the outage
//! of *long* occlusions at debounce + re-lock instead of the full blockage
//! duration.

use cyclops::geom::vec3::v3;
use cyclops::link::engine::{DarkDebounce, TxInstallation};
use cyclops::link::handover::Occluder;
use cyclops::prelude::*;
use cyclops::vrh::motion::{ArbitraryMotion, ArbitraryMotionConfig};
use cyclops_bench::{row, section};

/// Commission one ceiling unit at `pos` (reduced board/placement budget —
/// the coverage story does not need Table-2-grade accuracy).
fn commission_unit(pos: Vec3, seed: u64) -> TxInstallation {
    let mut cfg = SystemConfig::fast_10g(seed);
    cfg.deployment.tx_position = pos;
    CyclopsSystem::commission(&cfg).into()
}

/// Runs the session while moving occluder 0 along a scripted trajectory
/// (a person walking is deterministic at this scale, not a diffusion).
fn run_with_trajectory(
    sim: &mut LinkSession<ArbitraryMotion, DarkDebounce>,
    dur_s: f64,
    traj: impl Fn(f64) -> Vec3,
) -> Vec<EngineSlot> {
    let seg = 0.05;
    let mut slots = Vec::new();
    let mut t = 0.0;
    while t < dur_s - 1e-9 {
        sim.occluders_mut()[0].center = traj(t);
        slots.extend(sim.run(seg));
        t += seg;
    }
    slots
}

/// Availability, handovers and outage statistics from a slot record.
fn summarize(slots: &[EngineSlot]) -> (f64, usize, f64) {
    let up = slots.iter().filter(|s| s.link_up).count() as f64 / slots.len() as f64;
    let handovers = slots
        .windows(2)
        .filter(|w| w[0].active != w[1].active)
        .count();
    let mut max_out = 0.0f64;
    let mut run = 0usize;
    for s in slots {
        if s.link_up {
            max_out = max_out.max(run as f64 * 1e-3);
            run = 0;
        } else {
            run += 1;
        }
    }
    max_out = max_out.max(run as f64 * 1e-3);
    (up, handovers, max_out)
}

/// Ping-pong crossing: walks between x = −1.2 and +1.2 at `v` m/s, through
/// every beam at height z = 0.9.
fn crossing(t: f64, v: f64) -> Vec3 {
    let span = 2.4;
    let phase = (v * t) % (2.0 * span);
    let x = if phase < span {
        -1.2 + phase
    } else {
        1.2 - (phase - span)
    };
    v3(x, 0.0, 0.9)
}

/// Walk in, stand on unit 0's beam (x ≈ −0.24 at z = 0.9) for 12 s, leave.
fn linger(t: f64) -> Vec3 {
    let v = 0.45;
    let x_block = -0.24;
    let t_arrive = (x_block - (-1.2)) / v;
    let x = if t < t_arrive {
        -1.2 + v * t
    } else if t < t_arrive + 12.0 {
        x_block
    } else {
        (x_block + v * (t - t_arrive - 12.0)).min(1.2)
    };
    v3(x, 0.0, 0.9)
}

fn main() {
    let seed = 36u64;
    section("Extension: multi-TX occlusion coverage (full physics, 10G)");
    println!("commissioning 3 ceiling units (reduced boards), seed {seed} ...");
    let units: Vec<TxInstallation> = [v3(-0.5, 0.0, 0.0), v3(0.0, 0.0, 0.0), v3(0.5, 0.0, 0.0)]
        .into_iter()
        .map(|p| commission_unit(p, seed))
        .collect();
    let mk_sim = |n: usize| {
        let base = Pose::translation(v3(0.0, 0.0, 1.75));
        let motion = ArbitraryMotion::new(
            base,
            ArbitraryMotionConfig {
                lin_rms: 0.04,
                ang_rms: 0.06,
                ..Default::default()
            },
            seed + 50,
        );
        // Trajectory-driven occluder: zero wander speed, scripted centre.
        let occ = Occluder::new(v3(-1.2, 0.0, 0.9), 0.15, 0.0, 1);
        LinkSession::builder(motion)
            .units(units[..n].to_vec())
            .occluder(occ)
            .selector(DarkDebounce::new(0.03))
            .config(EngineConfig::multi_tx(TrackerConfig::default()))
            .first_report(FirstReport::AtZero)
            .build()
            .expect("valid multi-TX config")
    };

    let widths = [22, 8, 10, 12, 14];
    row(
        &[
            "scenario".into(),
            "units".into(),
            "uptime".into(),
            "handovers".into(),
            "max outage".into(),
        ],
        &widths,
    );
    let dur = 40.0;
    for n_units in [1usize, 2, 3] {
        let mut sim = mk_sim(n_units);
        let slots = run_with_trajectory(&mut sim, dur, |t| crossing(t, 0.45));
        let (up, ho, max_out) = summarize(&slots);
        row(
            &[
                "brief crossings".into(),
                format!("{n_units}"),
                format!("{:.1}%", up * 100.0),
                format!("{ho}"),
                format!("{:.2} s", max_out),
            ],
            &widths,
        );
    }
    for n_units in [1usize, 2, 3] {
        let mut sim = mk_sim(n_units);
        let slots = run_with_trajectory(&mut sim, dur, linger);
        let (up, ho, max_out) = summarize(&slots);
        row(
            &[
                "lingering blocker".into(),
                format!("{n_units}"),
                format!("{:.1}%", up * 100.0),
                format!("{ho}"),
                format!("{:.2} s", max_out),
            ],
            &widths,
        );
    }
    println!("\nagainst brief crossings every outage is dominated by the commodity");
    println!("SFP's ~2.5 s re-lock, so extra units buy little (DESIGN.md known-");
    println!("deviation 5 — the paper's §5.4 slot model ignores re-locking);");
    println!("against a lingering blocker they bound the outage at debounce +");
    println!("re-lock instead of the full occlusion, which is the §3 coverage");
    println!("argument made quantitative.");
}
