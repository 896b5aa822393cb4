//! The two fleet workloads.
//!
//! * `fleet_physics` — hundreds of independently seeded hand-held sessions
//!   over two commissioned TX installations through `run_fleet`: hardened
//!   control plane under `FaultPlan::stress`, one roaming occluder,
//!   `BestMargin` handover. Scheduling, environment, RF fallback and
//!   telemetry are off, so per-slot physics does almost all the work.
//! * `fleet_shared` — the same sessions as independent venues of twelve
//!   headsets sharing their venue's two fast-relock TX units under
//!   `run_fleet_scheduled` with `ProportionalFair`: bursty viewport traffic,
//!   RF fallback, fog + scintillation + beam crossings, counters telemetry.
//!   Venues run one after another, so the parallel leg shows only the
//!   driver's own parallelism.
//!
//! The traced run rebuilds sessions from the program's public pieces with
//! timing wrappers at the trait seams, steps them through
//! `SlotSession::step_slot`, records the inputs each remaining stage saw,
//! and replays those stages on the recorded inputs. Its session reports
//! must equal the untraced run's bit for bit.

use crate::stats::median;
use crate::trace::{
    self, RecordedEvent, RecordingSink, Stage, TimedMotion, TimedScheduler, TimedSelector,
};
use crate::{
    host_threads, print_spread, run_legs, timed, untraced_ns_per_slot, Args, Scale, Workload,
    WorkloadResult,
};
use cyclops::core::kspace::train_both;
use cyclops::core::mapping::{self, rough_initial_guess};
use cyclops::link::channel::{FrameSuccessCache, FsoChannel};
use cyclops::link::engine::{BestMargin, SlotSession, TxSelector};
use cyclops::prelude::*;
use cyclops_par::mix64;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the two TX installations. The deployment is the same for every
/// workload seed; `--seed` varies the users (motion, faults, occluder walks,
/// traffic and environment streams).
pub const COMMISSION_SEED: u64 = 911;

/// Two commissioned ceiling units and what commissioning cost.
pub struct Commissioning {
    /// The trained installations.
    pub units: Vec<TxInstallation>,
    /// Wall time of the stage-1 K-space fits (`train_both`), both units (s).
    pub kspace_s: f64,
    /// Wall time of the stage-2 mapping (`mapping::train`), both units (s).
    pub mapping_s: f64,
    /// Levenberg–Marquardt iterations over all fits.
    pub lm_iters: usize,
    /// Mean combined TX/RX mapping error over the training samples (mm).
    pub err_mm: f64,
}

/// Commissions two ceiling installations 0.7 m apart (10G design, 10×8
/// board) — the set-up a fleet operator pays before the first session.
pub fn commission(mapping_samples: usize) -> Commissioning {
    let seed = COMMISSION_SEED;
    let board = BoardConfig {
        cols: 10,
        rows: 8,
        cell_m: 0.0508,
    };
    let mut c = Commissioning {
        units: Vec::new(),
        kspace_s: 0.0,
        mapping_s: 0.0,
        lm_iters: 0,
        err_mm: 0.0,
    };
    for pos in [Vec3::new(-0.35, 0.0, 0.0), Vec3::new(0.35, 0.0, 0.0)] {
        let mut cfg = DeploymentConfig::paper_10g(seed);
        cfg.tx_position = pos;
        let mut dep = Deployment::new(&cfg);
        let (dt, trained) = timed(|| train_both(&dep, &board, seed));
        let (tx_tr, tx_rig, rx_tr, rx_rig) = trained.expect("stage-1 training must converge");
        c.kspace_s += dt;
        let (dt, mt) = timed(|| {
            let (itx, irx) = rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, seed + 7);
            mapping::train(
                &mut dep,
                &tx_tr.fitted,
                &rx_tr.fitted,
                itx,
                irx,
                mapping_samples,
                seed + 9,
            )
        });
        c.mapping_s += dt;
        c.lm_iters +=
            tx_tr.report.iterations + rx_tr.report.iterations + mt.trained.report.iterations;
        let (tx_e, rx_e) = mt.trained.combined_errors(&mt.samples);
        c.err_mm += 0.5 * (tx_e.mean + rx_e.mean) * 1e3;
        let v = dep.voltages();
        let ctl = TpController::new(mt.trained, TpConfig::default(), [v.0, v.1, v.2, v.3]);
        c.units.push(TxInstallation { dep, ctl });
    }
    c.err_mm /= c.units.len() as f64;
    c
}

/// The hostile fleet: `n` sessions of `session_s` seconds, seeded from the
/// workload seed.
pub fn physics_fleet(units: &[TxInstallation], seed: u64, n: usize, session_s: f64) -> FleetConfig {
    let tx0 = units[0].dep.tx_world_params().q2;
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mid = tx0.lerp(base.trans, 0.5);
    FleetConfig {
        n_sessions: n,
        duration_s: session_s,
        seed: mix64(seed, 0xf1ee7),
        base_pose: base,
        control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(mix64(
            seed, 0xfa17,
        )))),
        occluders: vec![Occluder::new(mid, 0.12, 0.4, 0)],
        ..FleetConfig::default()
    }
}

/// SFP re-lock of the pooled units (s). As in `ext_multi_user`'s contention
/// ablation: with the paper's 2.5 s re-lock the sessions spend most of their
/// time in SFP dead time, the grant engine only serves sessions whose link
/// is up, and the pool would be idle rather than contended.
pub const POOL_RELINK_S: f64 = 0.02;

/// The venue's shared TX pool: the commissioned units with FSO-tuned SFPs
/// ([`POOL_RELINK_S`]).
pub fn pool_units(units: &[TxInstallation]) -> Vec<TxInstallation> {
    let mut pool = units.to_vec();
    for u in &mut pool {
        u.dep.design.sfp.relink_time_s = POOL_RELINK_S;
    }
    pool
}

/// Venue `v` of `fleet_shared`: the hostile sessions plus RF fallback, the
/// environment stack and counters telemetry (re-keyed per session by the
/// fleet driver).
pub fn shared_venue(units: &[TxInstallation], seed: u64, v: usize, scale: &Scale) -> FleetConfig {
    let env = Environment::new()
        .stage(FogStage::from_density(0.3, 1550.0).expect("valid fog density"))
        .stage(ScintillationStage::new(0.6, 10e-3, 0).expect("valid scintillation"))
        .stage(HumanOccluderStage::new(3.0, 0.6, 30.0, 0).expect("valid crossing stage"));
    FleetConfig {
        seed: mix64(seed, 0x5ca1e + v as u64),
        fallback: FallbackPolicy::RfOnOutage,
        collect_telemetry: true,
        environment: Some(env),
        ..physics_fleet(
            units,
            mix64(seed, v as u64),
            scale.venue_sessions,
            scale.session_s,
        )
    }
}

/// Proportional-fair scheduling of the oversubscribed pool: ~2.2 Gbps of
/// bursty viewport traffic per session (the offered load of
/// `ext_multi_user`'s contention ablation), at most six sessions admitted
/// per unit (every session of a full-size venue).
pub fn sched_config() -> SchedConfig {
    let mut sc = SchedConfig::proportional_fair(1.0);
    sc.traffic = TrafficConfig {
        base_frame_mbit: 23.0,
        ..TrafficConfig::default()
    };
    sc.max_sessions_per_unit = 6;
    sc
}

fn slots_in(duration_s: f64) -> usize {
    (duration_s / EngineConfig::default().slot_s).round() as usize
}

/// Runs `fleet_physics` or `fleet_shared`.
pub fn run(args: &Args, scale: &Scale) -> WorkloadResult {
    let mut res = WorkloadResult::default();
    let threads = host_threads();

    // Set-up: commissioning, repeated, median reported. Each repetition
    // must train the same installations. It runs on one thread, so its time
    // does not depend on whether the host's other cores are free.
    let mut setups = Vec::new();
    let mut comms = Vec::new();
    for _ in 0..scale.setup_reps {
        let (dt, c) = cyclops_par::with_threads(1, || timed(|| commission(scale.mapping_samples)));
        setups.push(dt);
        comms.push(c);
    }
    let unit_digests: Vec<u64> = comms.iter().map(|c| crate::digest(&c.units)).collect();
    res.check(
        unit_digests.windows(2).all(|w| w[0] == w[1]),
        "commissioning_deterministic",
        || format!("repetitions trained different units: {unit_digests:x?}"),
    );
    let med = |f: &dyn Fn(&Commissioning) -> f64| {
        median(&comms.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let v = &mut res.values;
    v.insert("setup_s", median(&setups).unwrap_or(0.0));
    v.insert("core.kspace_train_s", med(&|c| c.kspace_s));
    v.insert("core.mapping_train_s", med(&|c| c.mapping_s));
    let c = comms.pop().expect("at least one set-up repetition");
    v.insert("solver.lm_iters", c.lm_iters as f64);
    v.insert("core.commission_err_mm", c.err_mm);
    println!("set-up (commissioning 2 TX units), {} reps:", setups.len());
    print_spread("setup_s", &setups, "s");

    match args.workload {
        Workload::FleetPhysics => physics(args, scale, &c.units, threads, &mut res),
        Workload::FleetShared => shared(args, scale, &pool_units(&c.units), threads, &mut res),
        Workload::TraceReplay => unreachable!("trace_replay is not a fleet workload"),
    }
    res
}

/// Checks every session completed all its slots (and the total is
/// conserved); returns the sessions that did not.
fn check_slots(sessions: &[SessionReport], n_slots: usize, res: &mut WorkloadResult) -> u64 {
    let short = sessions.iter().filter(|s| s.slots != n_slots).count() as u64;
    let total: usize = sessions.iter().map(|s| s.slots).sum();
    res.check(
        total == sessions.len() * n_slots,
        "slot_conservation",
        || {
            format!(
                "sum of session slots {total} != {} sessions x {n_slots} slots",
                sessions.len()
            )
        },
    );
    short
}

/// Outcome counters over a set of session reports (one base each, stated
/// by the metric name).
fn outcome_counts(sessions: &[SessionReport], res: &mut WorkloadResult) {
    let n = sessions.len().max(1) as f64;
    let slots: usize = sessions.iter().map(|s| s.slots).sum();
    let slot_s = EngineConfig::default().slot_s;
    let sum = |f: &dyn Fn(&SessionReport) -> f64| sessions.iter().map(f).sum::<f64>();
    let ctrl = |f: &dyn Fn(&ControlStats) -> u64| {
        sessions
            .iter()
            .filter_map(|s| s.stats.control)
            .map(|c| f(&c) as f64)
            .sum::<f64>()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let v = &mut res.values;
    v.insert(
        "link.handovers_per_session",
        sum(&|s| s.handovers as f64) / n,
    );
    v.insert(
        "core.tp_fail_ratio",
        ratio(
            sum(&|s| s.tp_failures as f64),
            sum(&|s| s.tp_reports as f64),
        ),
    );
    v.insert(
        "link.ctrl_delivered_ratio",
        ratio(ctrl(&|c| c.delivered), ctrl(&|c| c.sent)),
    );
    v.insert(
        "link.ctrl_retransmits_per_sent",
        ratio(ctrl(&|c| c.retransmits), ctrl(&|c| c.sent)),
    );
    v.insert(
        "link.sfp_outage_frac",
        ratio(sum(&|s| s.stats.outage_s), slots as f64 * slot_s),
    );
    v.insert(
        "link.rf_slot_frac",
        ratio(sum(&|s| s.stats.rf.rf_slots as f64), slots as f64),
    );
}

/// Slot throughput of both legs, plus the parallel speed-up.
fn throughput(legs: &crate::Legs, slots: usize, res: &mut WorkloadResult) -> f64 {
    let rate = |xs: &[f64]| slots as f64 / median(xs).unwrap_or(f64::NAN);
    let (s, p) = (rate(&legs.serial_s), rate(&legs.par_s));
    println!(
        "timed legs ({slots} slots per batch, {} + {} batches):",
        legs.serial_s.len(),
        legs.par_s.len()
    );
    print_spread("serial batch", &legs.serial_s, "s");
    print_spread("parallel batch", &legs.par_s, "s");
    let v = &mut res.values;
    v.insert("slots_per_s", s);
    v.insert("slots_per_s_par", p);
    v.insert("par.speedup", p / s);
    s
}

fn physics(
    args: &Args,
    scale: &Scale,
    units: &[TxInstallation],
    threads: usize,
    res: &mut WorkloadResult,
) {
    let cfg = physics_fleet(units, args.seed, scale.fleet_sessions, scale.session_s);
    let timed_cfg = FleetConfig {
        n_sessions: scale.timed_sessions.min(cfg.n_sessions),
        ..cfg.clone()
    };
    let n_slots = slots_in(cfg.duration_s);
    // The whole population runs once, untimed: it gives the simulated
    // outcomes and fills caches. Each timed batch runs its first sessions
    // (the same per-index seeds) and must reproduce them bit for bit.
    let reference = run_fleet(units, &cfg).sessions;
    res.attempted = reference.len() as u64;
    res.failed = check_slots(&reference, n_slots, res);
    let ref_d = crate::digest(&reference[..timed_cfg.n_sessions]);
    let legs = run_legs(
        args.seconds,
        threads,
        scale.min_reps,
        ref_d,
        || run_fleet(units, &timed_cfg).sessions,
        res,
    );
    let serial = throughput(&legs, timed_cfg.n_sessions * n_slots, res);

    let n = reference.len().max(1) as f64;
    let up: f64 = reference.iter().map(|s| s.up_frac).sum::<f64>() / n;
    let gbps: f64 = reference.iter().map(|s| s.mean_goodput_gbps).sum::<f64>() / n;
    res.values.insert("sim_availability", up);
    res.values.insert("sim_goodput_gbps", gbps);
    outcome_counts(&reference, res);

    if args.trace {
        let sub = FleetConfig {
            n_sessions: scale.traced_sessions.min(cfg.n_sessions),
            ..cfg.clone()
        };
        let untraced = untraced_ns_per_slot(|| run_fleet(units, &sub), sub.n_sessions * n_slots);
        trace::start();
        let (wall_s, traced) = timed(|| {
            (0..sub.n_sessions)
                .map(|i| trace_session(units, &sub, i))
                .collect::<Vec<TracedSession>>()
        });
        let spans = trace::finish();
        let events = trace::take_events(sub.n_sessions);
        for (t, r) in traced.iter().zip(&reference) {
            check_traced(&t.report, r, res);
        }
        let costs = replay_all(units, &traced, &events, None, res);
        let overhead = Overhead {
            traced_s: wall_s,
            untraced_ns: untraced,
            serial_slots_per_s: serial,
        };
        budget(args, &spans, &traced, &costs, &overhead, false, res);
    }
}

fn shared(
    args: &Args,
    scale: &Scale,
    units: &[TxInstallation],
    threads: usize,
    res: &mut WorkloadResult,
) {
    let venues: Vec<FleetConfig> = (0..scale.venues)
        .map(|v| shared_venue(units, args.seed, v, scale))
        .collect();
    let sc = sched_config();
    let n_slots = slots_in(scale.session_s);
    let run_venues = |vs: &[FleetConfig]| -> Vec<Vec<SessionReport>> {
        vs.iter()
            .map(|cfg| {
                run_fleet_scheduled(units, cfg, &sc)
                    .expect("valid scheduled fleet")
                    .sessions
            })
            .collect()
    };
    // All venues run once, untimed (outcomes, checks, warm caches); the
    // timed batches rerun the first venues and must reproduce them.
    let reference = run_venues(&venues);
    let all: Vec<SessionReport> = reference.iter().flatten().copied().collect();
    res.attempted = all.len() as u64;
    res.failed = check_slots(&all, n_slots, res);
    for (v, sessions) in reference.iter().enumerate() {
        check_sched(v, sessions, units.len(), &sc, n_slots, res);
    }
    let n_timed = scale.timed_venues.min(venues.len());
    let ref_d = crate::digest(&reference[..n_timed]);
    let legs = run_legs(
        args.seconds,
        threads,
        scale.min_reps,
        ref_d,
        || run_venues(&venues[..n_timed]),
        res,
    );
    let serial = throughput(&legs, n_timed * scale.venue_sessions * n_slots, res);

    let n = all.len().max(1) as f64;
    let sched = |s: &SessionReport| s.sched.expect("scheduled session carries sched stats");
    let slots: usize = all.iter().map(|s| s.slots).sum();
    let carried: u64 = all
        .iter()
        .map(|s| sched(s).served_slots + s.stats.rf.rf_slots)
        .sum();
    let sum = |f: &dyn Fn(&SchedSessionStats) -> f64| all.iter().map(|s| f(&sched(s))).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jain: f64 = reference
        .iter()
        .map(|v| {
            FleetSummary {
                sessions: v.clone(),
            }
            .rollup()
            .sched
            .map_or(0.0, |r| r.fairness_jain)
        })
        .sum::<f64>()
        / reference.len().max(1) as f64;
    let v = &mut res.values;
    v.insert("sim_availability", carried as f64 / slots.max(1) as f64);
    v.insert("sim_goodput_gbps", sum(&|s| s.mean_served_gbps) / n);
    v.insert("sim_stall_frac", sum(&|s| s.stall_frac) / n);
    v.insert(
        "link.sched_served_per_granted",
        ratio(
            sum(&|s| s.served_slots as f64),
            sum(&|s| s.granted_slots as f64),
        ),
    );
    v.insert(
        "link.sched_denied_frac",
        sum(&|s| s.denied_slots as f64) / slots.max(1) as f64,
    );
    v.insert("link.sched_preempts", sum(&|s| s.preempts as f64) / n);
    v.insert("link.sched_jain", jain);
    outcome_counts(&all, res);

    if args.trace {
        let k = scale.traced_venues.min(venues.len());
        let slots_traced = k * scale.venue_sessions * n_slots;
        let untraced = untraced_ns_per_slot(|| run_venues(&venues[..k]), slots_traced);
        trace::start();
        let (wall_s, traced) = timed(|| {
            let mut traced = Vec::new();
            for cfg in &venues[..k] {
                let base = traced.len();
                traced.extend(trace_venue(units, cfg, &sc, base));
            }
            traced
        });
        let spans = trace::finish();
        let events = trace::take_events(traced.len());
        for (t, r) in traced.iter().zip(&all) {
            check_traced(&t.report, r, res);
        }
        let costs = replay_all(units, &traced, &events, venues[0].environment.as_ref(), res);
        let overhead = Overhead {
            traced_s: wall_s,
            untraced_ns: untraced,
            serial_slots_per_s: serial,
        };
        budget(args, &spans, &traced, &costs, &overhead, true, res);
        let competing: u64 = traced.iter().map(|t| t.contending).sum();
        let denied: u64 = traced.iter().map(|t| t.fso_denied).sum();
        let contention = competing as f64 / (units.len() * k * n_slots) as f64;
        println!(
            "pool load: {contention:.3} FSO-up sessions with demand per unit per slot, \
             {denied} of {competing} such session-slots not served"
        );
        let v = &mut res.values;
        v.insert("link.sched_contention", contention);
        v.insert(
            "link.sched_fso_denied_frac",
            denied as f64 / competing.max(1) as f64,
        );
    }
}

/// Scheduler invariants of one venue: service never exceeds grants,
/// admission never exceeds the pool's capacity, and the pool never serves
/// more than one session per unit per slot.
fn check_sched(
    v: usize,
    sessions: &[SessionReport],
    n_units: usize,
    sc: &SchedConfig,
    n_slots: usize,
    res: &mut WorkloadResult,
) {
    let st: Vec<SchedSessionStats> = sessions.iter().filter_map(|s| s.sched).collect();
    res.check(st.len() == sessions.len(), "sched_stats_present", || {
        format!(
            "venue {v}: {} of {} sessions carry sched stats",
            st.len(),
            sessions.len()
        )
    });
    for (i, s) in st.iter().enumerate() {
        res.check(
            s.served_slots <= s.granted_slots,
            "sched_served_le_granted",
            || {
                format!(
                    "venue {v} session {i}: served {} > granted {}",
                    s.served_slots, s.granted_slots
                )
            },
        );
    }
    let admitted = st.iter().filter(|s| s.admitted).count();
    let cap = n_units * sc.max_sessions_per_unit;
    res.check(
        cap == 0 || admitted <= cap,
        "sched_admitted_le_capacity",
        || format!("venue {v}: admitted {admitted} > capacity {cap}"),
    );
    let served: u64 = st.iter().map(|s| s.served_slots).sum();
    res.check(
        served <= (n_units * n_slots) as u64,
        "sched_pool_capacity",
        || format!("venue {v}: served {served} slots > {n_units} units x {n_slots} slots"),
    );
}

fn check_traced(traced: &SessionReport, untraced: &SessionReport, res: &mut WorkloadResult) {
    res.check(
        crate::digest(traced) == crate::digest(untraced),
        "traced_equals_untraced",
        || {
            format!(
                "session {}: traced report {traced:?} != untraced {untraced:?}",
                untraced.session
            )
        },
    );
}

// ---------------------------------------------------------------------------
// Traced sessions
// ---------------------------------------------------------------------------

type TracedLink = LinkSession<TimedMotion<ArbitraryMotion>, TimedSelector<BestMargin>>;

/// The state a slot's stages saw, recorded after the slot.
#[derive(Debug, Clone, Copy)]
struct SlotRec {
    /// Slot end time (s).
    t: f64,
    /// Headset pose set on the units this slot.
    pose: Pose,
    /// Galvo voltages of the unit whose power was evaluated.
    volts: [f64; 4],
    /// That unit (the active unit before any handover this slot).
    unit: usize,
    /// Whether that unit had line of sight (power was evaluated).
    los: bool,
    /// TX→RX path length on that unit (m), the environment stages' input.
    path_m: f64,
    /// The slot's power after environment and re-acquisition (dBm), the
    /// frame-success input.
    power_dbm: f64,
    /// The SFP was up (frame success was evaluated).
    sfp_up: bool,
}

/// Per-session recording state of the traced run. Everything is read from
/// the session's public accessors after each slot, outside the slot span.
struct Recording {
    recs: Vec<SlotRec>,
    /// `(slot, unit)` of every TP solve, from the controllers' counters.
    tp_calls: Vec<(usize, usize)>,
    solves: Vec<u64>,
    outage_s: f64,
    unit: usize,
}

fn solves(u: &TxInstallation) -> u64 {
    u.ctl.metrics.n_reports + u.ctl.metrics.n_extrapolated
}

impl Recording {
    fn new(s: &TracedLink, n_slots: usize) -> Recording {
        Recording {
            recs: Vec::with_capacity(n_slots),
            tp_calls: Vec::new(),
            solves: s.units().iter().map(solves).collect(),
            outage_s: 0.0,
            unit: 0,
        }
    }

    /// Steps slot `k` inside a `Slot` span and records what its stages saw.
    fn step(&mut self, s: &mut TracedLink, k: usize) -> EngineSlot {
        let id = trace::enter(Stage::Slot);
        let rec = s.step_slot(k);
        trace::exit(id);
        let pose = s.motion_mut().last;
        for (u, unit) in s.units().iter().enumerate() {
            let n = solves(unit);
            self.tp_calls
                .extend((self.solves[u]..n).map(|_| (self.recs.len(), u)));
            self.solves[u] = n;
        }
        // Outage time grows by one slot exactly when the SFP is down.
        let outage_s = s.session_stats().outage_s;
        let sfp_up = outage_s == self.outage_s;
        self.outage_s = outage_s;
        let dep = &s.units()[self.unit].dep;
        let (a, b, c, d) = dep.voltages();
        self.recs.push(SlotRec {
            t: rec.t,
            pose,
            volts: [a, b, c, d],
            unit: self.unit,
            los: rec.los,
            path_m: dep.rx_world_params().q2.distance(dep.tx_world_params().q2),
            power_dbm: rec.power_dbm,
            sfp_up,
        });
        self.unit = rec.active;
        rec
    }
}

/// One traced session: its report, recorded inputs and TP solve counters.
struct TracedSession {
    report: SessionReport,
    rec: Recording,
    seed: u64,
    tp_iters: u64,
    tp_solves: u64,
    /// Scheduled slots in which the session was admitted, FSO-up (not on
    /// RF) and had demand: it competed for a pool unit.
    contending: u64,
    /// Of those, the slots it was not served.
    fso_denied: u64,
}

/// Builds fleet session `i` exactly as the program's fleet drivers do (same
/// `mix64` seed derivation, motion, fault re-keying, occluder walks,
/// selector, engine config and environment re-keying), with the timing
/// wrappers attached. Sessions that aggregate telemetry also get the
/// recording sink (the traced run replays the aggregation on the recorded
/// events); the others keep telemetry off, as in the untraced run. `id`
/// tags the session's spans and recorded events.
fn build_traced(
    units: &[TxInstallation],
    cfg: &FleetConfig,
    i: usize,
    id: u32,
) -> (TracedLink, u64) {
    trace::set_session(id);
    let seed = mix64(cfg.seed, 1 + i as u64);
    let motion = TimedMotion::new(ArbitraryMotion::new(cfg.base_pose, cfg.motion, seed));
    let mut control = cfg.control;
    if let Some(c) = control.as_mut() {
        c.fault.seed = mix64(c.fault.seed, 1 + i as u64);
    }
    let occluders: Vec<Occluder> = cfg
        .occluders
        .iter()
        .enumerate()
        .map(|(j, o)| Occluder::new(o.center, o.radius, o.speed, mix64(seed, 0x0cc1 + j as u64)))
        .collect();
    let ecfg = EngineConfig {
        control,
        los_gating: !occluders.is_empty(),
        pause_on_outage: cfg.pause_on_outage,
        fallback: cfg.fallback,
        tracker: cfg.tracker,
        ..EngineConfig::default()
    };
    let selector = TimedSelector(BestMargin::new(units[0].dep.design, cfg.debounce_s));
    let telemetry = if cfg.collect_telemetry {
        Telemetry::with_sink_and_counters(Box::new(RecordingSink(id)))
    } else {
        Telemetry::off()
    };
    let mut b = LinkSession::builder(motion)
        .units(units.to_vec())
        .occluders(occluders)
        .selector(selector)
        .config(ecfg)
        .telemetry(telemetry)
        .first_report(FirstReport::AtZero);
    if let Some(env) = &cfg.environment {
        b = b.environment(env.reseeded(seed));
    }
    let mut s = b.build().expect("fleet engine config must be valid");
    if cfg.collect_telemetry {
        s.telemetry_mut().emit(&TelemetryEvent::SessionStart {
            session: i as u64,
            seed,
        });
    }
    // The speed-tracking prologue of the program's slot drivers: one pose
    // sample at motion time 0 before the first slot.
    s.motion_mut().pose_at(0.0);
    (s, seed)
}

/// Per-slot sums a session report is built from — the same fields, in the
/// same order, as the program's fleet drivers fold.
#[derive(Default)]
struct Sums {
    slots: usize,
    n_up: usize,
    n_sig: usize,
    n_rf: usize,
    goodput_sum: f64,
    power_sum: f64,
}

impl Sums {
    fn absorb(&mut self, r: &EngineSlot, sens_dbm: f64) {
        self.slots += 1;
        self.n_up += r.link_up as usize;
        self.n_sig += (r.power_dbm >= sens_dbm) as usize;
        self.n_rf += r.rf_active as usize;
        self.goodput_sum += r.goodput_gbps;
        self.power_sum += r.power_dbm;
    }

    fn report<M: Motion, S: TxSelector>(
        &self,
        i: usize,
        seed: u64,
        s: &LinkSession<M, S>,
    ) -> SessionReport {
        let n = self.slots.max(1) as f64;
        let tp = s.tp_metrics();
        SessionReport {
            session: i,
            seed,
            slots: self.slots,
            up_frac: self.n_up as f64 / n,
            signal_frac: self.n_sig as f64 / n,
            mean_goodput_gbps: self.goodput_sum / n,
            rf_frac: self.n_rf as f64 / n,
            mean_power_dbm: self.power_sum / n,
            handovers: s.n_handovers(),
            stats: s.session_stats(),
            tp_reports: tp.n_reports,
            tp_failures: tp.n_failures,
            telemetry: s.telemetry().copied(),
            sched: None,
            profile: None,
        }
    }
}

fn finish_traced(
    i: usize,
    seed: u64,
    mut s: TracedLink,
    sums: &Sums,
    rec: Recording,
    collect: bool,
) -> TracedSession {
    if collect {
        s.telemetry_mut().emit(&TelemetryEvent::SessionEnd {
            session: i as u64,
            slots: sums.slots as u64,
        });
    }
    let tp = s.tp_metrics();
    TracedSession {
        report: sums.report(i, seed, &s),
        rec,
        seed,
        tp_iters: tp.sum_iters,
        tp_solves: tp.n_reports + tp.n_extrapolated,
        contending: 0,
        fso_denied: 0,
    }
}

/// Traces one `run_fleet` session.
fn trace_session(units: &[TxInstallation], cfg: &FleetConfig, i: usize) -> TracedSession {
    let (mut s, seed) = build_traced(units, cfg, i, i as u32);
    let sens = units[0].dep.design.sfp.rx_sensitivity_dbm;
    let n_slots = slots_in(cfg.duration_s);
    let mut sums = Sums::default();
    let mut recording = Recording::new(&s, n_slots);
    for k in 0..n_slots {
        let rec = recording.step(&mut s, k);
        sums.absorb(&rec, sens);
    }
    finish_traced(i, seed, s, &sums, recording, cfg.collect_telemetry)
}

/// Traces one scheduled venue: the program's `run_fleet_with_scheduler`
/// loop, rebuilt from its public pieces with the scheduler wrapped and the
/// grant and traffic steps timed. Session `i` is traced under id `base + i`.
fn trace_venue(
    units: &[TxInstallation],
    cfg: &FleetConfig,
    sc: &SchedConfig,
    base: usize,
) -> Vec<TracedSession> {
    let n = cfg.n_sessions;
    let m = units.len();
    let mut sessions = Vec::with_capacity(n);
    let mut seeds = Vec::with_capacity(n);
    for i in 0..n {
        let (s, seed) = build_traced(units, cfg, i, (base + i) as u32);
        sessions.push(s);
        seeds.push(seed);
    }
    trace::set_session(trace::NONE);
    let mut policy = TimedScheduler(sc.policy.scheduler());
    let cap = m * sc.max_sessions_per_unit;
    let mut admitted = vec![false; n];
    let mut n_admitted = 0usize;
    for (i, a) in admitted.iter_mut().enumerate() {
        *a = policy.admit(i, n_admitted, cap);
        n_admitted += *a as usize;
    }
    let slot_s = sessions[0].cfg().slot_s;
    let n_slots = (cfg.duration_s / slot_s).round() as usize;
    let sens = units[0].dep.design.sfp.rx_sensitivity_dbm;
    let collect = cfg.collect_telemetry;

    let mut ge = GrantEngine::new(n, m, sc, slot_s);
    let mut traffic: Vec<TrafficSource> = seeds
        .iter()
        .map(|&s| TrafficSource::new(sc.traffic, mix64(s, 0x7ea_ff1c)))
        .collect();
    let mut sums: Vec<Sums> = (0..n).map(|_| Sums::default()).collect();
    let mut acc: Vec<SchedSessionStats> = admitted
        .iter()
        .map(|&a| SchedSessionStats {
            admitted: a,
            ..SchedSessionStats::default()
        })
        .collect();
    let mut states: Vec<SessionSlotState> = (0..n)
        .map(|i| SessionSlotState {
            session: i,
            admitted: admitted[i],
            active_unit: 0,
            signal: false,
            link_up: false,
            margin_db: f64::NEG_INFINITY,
            rate_gbps: 0.0,
            demand: false,
            backlog_bits: 0.0,
            handed_over: false,
            served_ewma_gbps: 0.0,
            stalled: false,
        })
        .collect();
    let mut recs: Vec<EngineSlot> = Vec::with_capacity(n);
    let mut recordings: Vec<Recording> = sessions
        .iter()
        .map(|s| Recording::new(s, n_slots))
        .collect();
    let mut prev_active = vec![0usize; n];
    let mut prev_grant: Vec<Option<usize>> = vec![None; n];
    let mut contending = vec![0u64; n];
    let mut fso_denied = vec![0u64; n];

    for k in 0..n_slots {
        recs.clear();
        for i in 0..n {
            trace::set_session((base + i) as u32);
            let rec = recordings[i].step(&mut sessions[i], k);
            sums[i].absorb(&rec, sens);
            let tr = &mut traffic[i];
            let (demand, backlog_bits, stalled) = trace::span(Stage::Traffic, || {
                tr.arrive_until(rec.t);
                (tr.has_demand(), tr.backlog_bits(), tr.is_stalled())
            });
            let fso_up = rec.link_up && !rec.rf_active;
            states[i] = SessionSlotState {
                session: i,
                admitted: admitted[i],
                active_unit: rec.active,
                signal: rec.power_dbm >= sens,
                link_up: fso_up,
                margin_db: rec.power_dbm - sens,
                rate_gbps: rec.goodput_gbps,
                demand,
                backlog_bits,
                handed_over: rec.active != prev_active[i],
                served_ewma_gbps: 0.0,
                stalled,
            };
            prev_active[i] = rec.active;
            recs.push(rec);
        }

        trace::set_session(trace::NONE);
        trace::span(Stage::SchedStep, || {
            ge.step(k as u64, slot_s, &mut states, &mut policy)
        });

        for i in 0..n {
            trace::set_session((base + i) as u32);
            let rec = &recs[i];
            let unit = ge.unit_of(i);
            let fso_served = ge.deliverable(i, &states[i]);
            let capacity_gbps = if rec.rf_active || fso_served {
                rec.goodput_gbps
            } else {
                0.0
            };
            let tr = &mut traffic[i];
            let (delivered, ps) = trace::span(Stage::Traffic, || {
                let d = if capacity_gbps > 0.0 {
                    tr.deliver(capacity_gbps * 1e9 * slot_s)
                } else {
                    0.0
                };
                (d, tr.playout_step(rec.t, slot_s))
            });
            ge.note_rate(i, delivered / (1e9 * slot_s));

            let competes = states[i].admitted && states[i].link_up && states[i].demand;
            contending[i] += competes as u64;
            fso_denied[i] += (competes && !fso_served) as u64;
            let a = &mut acc[i];
            a.granted_slots += unit.is_some() as u64;
            a.served_slots += fso_served as u64;
            a.denied_slots += (states[i].demand && !fso_served && !rec.rf_active) as u64;
            if let Some(u) = unit {
                a.retarget_slots += ge.unit_dark(u) as u64;
            }
            a.preempts += ge.preempted(i) as u64;
            a.delivered_gb += delivered / 1e9;

            if collect {
                let tele = sessions[i].telemetry_mut();
                if unit != prev_grant[i] {
                    if let Some(u) = unit {
                        tele.emit(&TelemetryEvent::SchedGrant {
                            t: rec.t,
                            unit: u as u64,
                        });
                    } else if ge.preempted(i) {
                        tele.emit(&TelemetryEvent::SchedPreempt {
                            t: rec.t,
                            unit: prev_grant[i].unwrap_or(0) as u64,
                        });
                    }
                }
                if let Some(stall_s) = ps.stall_ended {
                    tele.emit(&TelemetryEvent::PlayoutStall { t: rec.t, stall_s });
                }
            }
            prev_grant[i] = unit;
        }
    }
    trace::set_session(trace::NONE);

    let mut out = Vec::with_capacity(n);
    for (i, (s, recording)) in sessions.into_iter().zip(recordings).enumerate() {
        let mut t = finish_traced(i, seeds[i], s, &sums[i], recording, collect);
        let ts = traffic[i].stats();
        let slots = sums[i].slots.max(1) as f64;
        let dur = slots * slot_s;
        let a = &mut acc[i];
        a.availability = a.served_slots as f64 / slots;
        a.mean_served_gbps = a.delivered_gb / dur;
        a.offered_gb = ts.offered_gb;
        a.stall_s = ts.stall_s;
        a.stall_frac = ts.stall_s / dur;
        a.stall_events = ts.stall_events;
        a.frames_generated = ts.frames_generated;
        a.frames_played = ts.frames_played;
        t.report.sched = Some(*a);
        t.contending = contending[i];
        t.fso_denied = fso_denied[i];
        out.push(t);
    }
    out
}

// ---------------------------------------------------------------------------
// Stage replays on the recorded inputs
// ---------------------------------------------------------------------------

/// Replayed stage costs summed over the traced sessions (ns), with call
/// counts.
#[derive(Debug, Default)]
struct Costs {
    on_report_ns: f64,
    reports: u64,
    power_ns: f64,
    channel_ns: f64,
    env_ns: f64,
    /// Counter aggregation of the events the slot loop emitted.
    tele_ns: f64,
    events: u64,
    /// Counter aggregation of the events the fleet driver emitted around
    /// the slots (session start/end, grants, preemptions, stalls).
    tele_out_ns: f64,
}

/// Best (minimum) of three timings of `f` (ns); `prep` builds fresh state
/// for each repetition outside the timed region.
fn best_of_3<S>(mut prep: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    (0..3)
        .map(|_| {
            let mut s = prep();
            let t0 = Instant::now();
            f(&mut s);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn replay_all(
    units: &[TxInstallation],
    traced: &[TracedSession],
    events: &[Vec<RecordedEvent>],
    env: Option<&Environment>,
    res: &mut WorkloadResult,
) -> Costs {
    let mut c = Costs::default();
    let ecfg = EngineConfig::default();
    let sfp = units[0].dep.design.sfp;
    let channel = FsoChannel::new(sfp.rx_sensitivity_dbm, sfp.rx_overload_dbm);
    for (ts, evs) in traced.iter().zip(events) {
        // core: TP solves on the clean tracked pose of the slot each solve
        // ran in (tracker noise is not re-drawn), on the unit that ran it,
        // from the commissioned controller state.
        let recs = &ts.rec.recs;
        let mut deps: Vec<Deployment> = units.iter().map(|u| u.dep.clone()).collect();
        let tp_inputs: Vec<(usize, Pose)> = ts
            .rec
            .tp_calls
            .iter()
            .map(|&(k, u)| {
                deps[u].set_headset_pose(recs[k].pose);
                (u, deps[u].headset.true_reported_pose())
            })
            .collect();
        c.reports += tp_inputs.len() as u64;
        c.on_report_ns += best_of_3(
            || units.iter().map(|u| u.ctl.clone()).collect::<Vec<_>>(),
            |ctls| {
                for (u, p) in &tp_inputs {
                    black_box(ctls[*u].on_report(black_box(p)));
                }
            },
        );

        // core/optics: received power on each line-of-sight slot's recorded
        // deployment state; the state-setting cost is measured alone and
        // subtracted.
        let power_in: Vec<&SlotRec> = recs.iter().filter(|r| r.los).collect();
        let power_loop = |call: bool| {
            best_of_3(
                || units.iter().map(|u| u.dep.clone()).collect::<Vec<_>>(),
                |deps| {
                    let mut acc = 0.0;
                    for r in &power_in {
                        let d = &mut deps[r.unit];
                        d.set_headset_pose(r.pose);
                        d.set_voltages(r.volts[0], r.volts[1], r.volts[2], r.volts[3]);
                        if call {
                            acc += d.received_power_dbm();
                        }
                    }
                    black_box(acc);
                },
            )
        };
        let state_only = power_loop(false);
        c.power_ns += (power_loop(true) - state_only).max(0.0);

        // link.channel: frame success on the recorded power stream of the
        // SFP-up slots, through the slot loop's exact-reuse cache.
        let fsp_powers: Vec<f64> = recs
            .iter()
            .filter(|r| r.sfp_up)
            .map(|r| r.power_dbm)
            .collect();
        c.channel_ns += best_of_3(
            || FrameSuccessCache::new(channel, ecfg.frame_bits),
            |fsp| {
                let mut acc = 0.0;
                for &p in &fsp_powers {
                    acc += fsp.frame_success_prob(black_box(p));
                }
                black_box(acc);
            },
        );

        // link.channel environment stages, re-keyed as the session was.
        if let Some(env) = env {
            c.env_ns += best_of_3(
                || env.reseeded(ts.seed),
                |e| {
                    let mut acc = 0.0;
                    for r in recs {
                        acc += e.attenuation_db(black_box(r.t), r.path_m);
                    }
                    black_box(acc);
                },
            );
        }

        // link.telemetry: counter aggregation over the recorded events, the
        // slot loop's and the fleet driver's timed apart. The replay of the
        // whole stream must rebuild the session's counters exactly, which
        // also proves the recorded stream is the one the program observed.
        if let Some(want) = ts.report.telemetry {
            let split = |in_slot: bool| -> Vec<TelemetryEvent> {
                evs.iter()
                    .filter(|e| e.in_slot == in_slot)
                    .map(|e| e.ev)
                    .collect()
            };
            let (inside, outside) = (split(true), split(false));
            let observe_all = |evs: &[TelemetryEvent]| {
                best_of_3(SessionTelemetry::default, |st| {
                    for ev in evs {
                        st.observe(black_box(ev));
                    }
                })
            };
            c.events += inside.len() as u64;
            c.tele_ns += observe_all(&inside);
            c.tele_out_ns += observe_all(&outside);
            let mut got = SessionTelemetry::default();
            for e in evs {
                got.observe(&e.ev);
            }
            res.check(got == want, "telemetry_replay_exact", || {
                format!("session {}: replayed counters differ", ts.report.session)
            });
        }
    }
    c
}

/// What the traced pass cost against the untraced run of the same work.
struct Overhead {
    /// Wall time of the traced pass, replays excluded (s).
    traced_s: f64,
    /// Untraced serial ns per slot on the same sessions.
    untraced_ns: f64,
    /// Untraced serial slots/s of the full timed batch.
    serial_slots_per_s: f64,
}

/// Per-layer metrics of a traced fleet run, and the printed slot budget:
/// the traced `step_slot` time split into its timed children, the replayed
/// stages, and what remains unattributed. Only spans and events inside a
/// slot span enter the budget; what the fleet driver does around the slots
/// is its own row.
fn budget(
    args: &Args,
    spans: &[trace::Span],
    traced: &[TracedSession],
    c: &Costs,
    o: &Overhead,
    sched: bool,
    res: &mut WorkloadResult,
) {
    let tot = trace::totals(spans);
    let in_slot = trace::child_totals(spans, Stage::Slot);
    let slots: usize = traced.iter().map(|t| t.report.slots).sum();
    let per = |ns: f64| ns / slots.max(1) as f64;
    let incl = |s: Stage| per(tot[s as usize].1 as f64);
    let child = |s: Stage| per(in_slot[s as usize] as f64);
    let slot_ns = incl(Stage::Slot);
    let slot_self = per(tot[Stage::Slot as usize].2 as f64);
    let replayed = per(c.on_report_ns + c.power_ns + c.channel_ns + c.env_ns + c.tele_ns);
    let unattributed = slot_self - replayed;
    // Motion, selector and sink calls outside any slot: the session-start
    // pose samples and the driver's telemetry, with its counter replay.
    let around = [Stage::PoseAt, Stage::Select, Stage::Sink]
        .iter()
        .map(|&s| incl(s) - child(s))
        .sum::<f64>()
        + per(c.tele_out_ns);
    let traced_ns = o.traced_s * 1e9 / slots.max(1) as f64;

    let mut session_ns = vec![0.0; traced.len()];
    for s in spans.iter().filter(|s| s.stage == Stage::Slot) {
        session_ns[s.session as usize] += (s.end_ns - s.start_ns) as f64;
    }
    let session_ns: Vec<f64> = session_ns
        .iter()
        .zip(traced)
        .map(|(ns, t)| ns / t.report.slots.max(1) as f64)
        .collect();

    println!(
        "traced slot budget, ns per simulated slot ({slots} slots, {} sessions):",
        traced.len()
    );
    let rows = [
        ("vrh.pose_at (span)", child(Stage::PoseAt)),
        ("link.engine.select (span)", child(Stage::Select)),
        ("trace.sink, tracing cost (span)", child(Stage::Sink)),
        ("core.on_report (replay)", per(c.on_report_ns)),
        ("core.received_power (replay)", per(c.power_ns)),
        ("link.channel frame success (replay)", per(c.channel_ns)),
        ("link.channel environment (replay)", per(c.env_ns)),
        ("link.telemetry counters (replay)", per(c.tele_ns)),
        ("unattributed (clocks, control, SFP, records)", unattributed),
    ];
    for (name, ns) in rows {
        println!("  {name:<46} {ns:>9.1}");
    }
    println!("  {:<46} {slot_ns:>9.1}", "= link.engine.step_slot (span)");
    if sched {
        println!(
            "  {:<46} {:>9.1}",
            "+ link.sched.grant_step (span)",
            incl(Stage::SchedStep)
        );
        println!(
            "  {:<46} {:>9.1}",
            "  of which link.sched.assign (span)",
            incl(Stage::SchedAssign)
        );
        println!(
            "  {:<46} {:>9.1}",
            "+ link.traffic (span)",
            incl(Stage::Traffic)
        );
    }
    println!(
        "  {:<46} {around:>9.1}",
        "+ outside slots (session start, driver events)"
    );
    println!(
        "  traced pass {traced_ns:.1} ns/slot (wall, recording included) vs untraced {:.1} \
         ns/slot on the same sessions (untraced full batch: {:.1} ns/slot)",
        o.untraced_ns,
        1e9 / o.serial_slots_per_s
    );
    print_spread("traced step_slot per session", &session_ns, "ns/slot");

    let path = crate::bench_dir()
        .join("out")
        .join(format!("spans-{}.tsv", args.workload.name()));
    if let Err(e) = trace::write_spans(&path, &crate::stamp(args), spans) {
        res.check(false, "span_file_written", || {
            format!("{}: {e}", path.display())
        });
    } else {
        println!("  spans: {} written to {}", spans.len(), path.display());
    }

    let tp_solves: u64 = traced.iter().map(|t| t.tp_solves).sum();
    let tp_iters: u64 = traced.iter().map(|t| t.tp_iters).sum();
    let v = &mut res.values;
    v.insert("link.slot_ns", slot_ns);
    v.insert("vrh.pose_at_ns_per_slot", child(Stage::PoseAt));
    v.insert("link.select_ns_per_slot", child(Stage::Select));
    v.insert(
        "core.on_report_ns_per_call",
        c.on_report_ns / c.reports.max(1) as f64,
    );
    v.insert("core.on_report_ns_per_slot", per(c.on_report_ns));
    v.insert(
        "core.reports_per_slot",
        c.reports as f64 / slots.max(1) as f64,
    );
    v.insert("core.received_power_ns_per_slot", per(c.power_ns));
    v.insert("link.channel_ns_per_slot", per(c.channel_ns));
    v.insert("link.env_ns_per_slot", per(c.env_ns));
    v.insert("link.telemetry_ns_per_slot", per(c.tele_ns));
    v.insert(
        "link.telemetry_events_per_slot",
        c.events as f64 / slots.max(1) as f64,
    );
    v.insert("link.slot_unattributed_ns", unattributed);
    v.insert("link.sched_ns_per_slot", incl(Stage::SchedStep));
    v.insert("link.traffic_ns_per_slot", incl(Stage::Traffic));
    v.insert(
        "core.tp_iters_mean",
        tp_iters as f64 / tp_solves.max(1) as f64,
    );
    v.insert(
        "trace.overhead_pct",
        100.0 * (traced_ns / o.untraced_ns - 1.0),
    );
}
