//! Multi-TX handover under occlusion — the §3 coverage extension.
//!
//! "To circumvent occasional occlusions ... we can use multiple TXs on the
//! ceiling with appropriate handover techniques." This example quantifies
//! that: a user's raised arm (a wandering spherical occluder) repeatedly
//! blocks the line of sight, and we compare link availability with 1, 2 and
//! 4 ceiling units.
//!
//! ```sh
//! cargo run --release --example multi_tx_handover
//! ```

use cyclops::link::handover::{HandoverSystem, Occluder, TxUnit};
use cyclops::optics::coupling::LinkDesign;
use cyclops::prelude::Vec3;

fn availability(n_tx: usize, seed: u64) -> f64 {
    // Ceiling units spread over a 2 m rail above the play space.
    let txs: Vec<TxUnit> = (0..n_tx)
        .map(|i| {
            let x = if n_tx == 1 {
                0.0
            } else {
                -1.0 + 2.0 * i as f64 / (n_tx - 1) as f64
            };
            TxUnit {
                pos: Vec3::new(x, 2.2, 0.0),
            }
        })
        .collect();
    let design = LinkDesign::ten_g_diverging(20e-3, 2.2);
    let mut hs = HandoverSystem::new(txs, design, 0.05);

    // The user's arm: a 20 cm sphere wandering near head height.
    let mut arm = Occluder::new(Vec3::new(0.2, 1.2, 0.0), 0.20, 1.2, seed);
    let rx = Vec3::new(0.0, 0.0, 0.0);

    let slots = 60_000; // one minute at 1 ms
    let mut ok = 0usize;
    for _ in 0..slots {
        arm.step(1e-3);
        // Keep the arm plausibly near the body.
        let pull = (Vec3::new(0.2, 1.2, 0.0) - arm.center) * 0.002;
        arm.center += pull;
        if hs.step(rx, std::slice::from_ref(&arm), 1e-3) {
            ok += 1;
        }
    }
    ok as f64 / slots as f64
}

/// Act 2: the same story on the full physical pipeline — two trained
/// installations sharing one headset world, a static occluder parked on the
/// active beam, and the real SFP re-lock cost.
fn full_physics_act() {
    use cyclops::link::engine::DarkDebounce;
    use cyclops::link::handover::Occluder;
    use cyclops::prelude::{
        CyclopsSystem, EngineConfig, FirstReport, LinkSession, Pose, StaticPose, SystemConfig,
        TrackerConfig, TxInstallation,
    };

    println!("\n-- full-physics act: 2 trained units, occluder on unit 0 --");
    let seed = 777u64;
    let units: Vec<TxInstallation> = [Vec3::new(-0.35, 0.0, 0.0), Vec3::new(0.35, 0.0, 0.0)]
        .into_iter()
        .map(|pos| {
            let mut cfg = SystemConfig::fast_10g(seed);
            cfg.deployment.tx_position = pos;
            CyclopsSystem::commission(&cfg).into()
        })
        .collect();
    let tx0 = units[0].dep.tx_world_params().q2;
    let rx = Vec3::new(0.0, 0.0, 1.75);
    let occ = Occluder::new(tx0.lerp(rx, 0.5), 0.12, 0.0, 1);
    let motion = StaticPose(Pose::translation(rx));
    let mut sim = LinkSession::builder(motion)
        .units(units)
        .occluder(occ)
        .selector(DarkDebounce::new(0.03))
        .config(EngineConfig::multi_tx(TrackerConfig::default()))
        .first_report(FirstReport::AtZero)
        .build()
        .expect("valid multi-TX config");
    let recs = sim.run(5.0);
    let up = recs.iter().filter(|r| r.link_up).count() as f64 / recs.len() as f64;
    let first_recovery = recs.iter().position(|r| r.active == 1 && r.link_up);
    println!(
        "  handover to unit {} completed; outage until t = {:.2} s (SFP re-lock);\n  availability over 5 s: {:.1} %",
        sim.active(),
        first_recovery.map_or(f64::NAN, |i| recs[i].t),
        up * 100.0
    );
}

fn main() {
    println!("== Multi-TX handover under occlusion ==\n");
    println!("one minute of a wandering-arm occluder, 1 ms slots, 50 ms handover cost\n");
    println!("  ceiling TXs | link availability");
    println!("  ----------- | -----------------");
    for n in [1usize, 2, 4] {
        let mut avgs = 0.0;
        const RUNS: u64 = 3;
        for seed in 0..RUNS {
            avgs += availability(n, 1000 + seed);
        }
        let a = avgs / RUNS as f64 * 100.0;
        println!("  {n:>11} | {a:>6.2} %");
    }
    println!("\nmore ceiling units → fewer un-coverable occlusions, at the cost of");
    println!("a 50 ms outage per handover (steer + SFP re-lock on the new unit).");

    full_physics_act();
}
