//! Criterion microbenches of the per-slot hot path: the three channel-math
//! entry points (`q_factor`, `ber`, `frame_success_prob`) individually, and
//! one full [`LinkSession`] `step_slot` — the end-to-end serial cost a fleet
//! pays per session-slot. Power inputs sweep a small grid so the optimizer
//! cannot constant-fold the transcendental pipeline away.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cyclops::link::channel::FsoChannel;
use cyclops::link::engine::SlotSession;
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;

/// Power sweep across the channel's interesting region: deep outage,
/// threshold shoulder, and overload.
const POWERS: [f64; 8] = [-90.0, -40.0, -26.0, -24.5, -23.0, -21.0, -19.5, -15.0];

fn bench_q_factor(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: q_factor (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.q_factor(black_box(p));
            }
            acc
        })
    });
}

fn bench_ber(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: ber (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.ber(black_box(p));
            }
            acc
        })
    });
}

fn bench_frame_success(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: frame_success_prob (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.frame_success_prob(black_box(p), black_box(81_920));
            }
            acc
        })
    });
}

/// One full engine slot: galvo trace, capture fraction, channel math, SFP
/// state machine, goodput accounting — the serial cost every session pays
/// per millisecond of simulated time.
fn bench_engine_slot(c: &mut Criterion) {
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(4242));
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 500);
    let mut session = sys
        .into_session_builder(motion)
        .build()
        .expect("valid bench session config");
    let mut k = 0usize;
    c.bench_function("engine: one full EngineSlot step", |b| {
        b.iter(|| {
            let r = session.step_slot(black_box(k));
            k += 1;
            r.power_dbm
        })
    });
}

criterion_group!(
    benches,
    bench_q_factor,
    bench_ber,
    bench_frame_success,
    bench_engine_slot
);
criterion_main!(benches);
