//! The `trace_replay` workload: the §5.4 / Fig 16 corpus with the paper's
//! drift methodology. Each seed-generated 60 s head trace runs through the
//! fused `TraceSession` (`simulate_trace`, 25G profile) and then through
//! `replay_with_fallback` twice — fallback off and RF on — adding the §5.3
//! SFP re-lock and the `LinkPolicy` replay. The drift model bypasses motion,
//! TP, optics and channel, so a physics-layer change must show no change
//! here; the fused loop and its materialised slot vector dominate.

use crate::stats::median;
use crate::trace::{self, Stage};
use crate::{
    host_threads, print_spread, run_legs, timed, untraced_ns_per_slot, Args, Scale, WorkloadResult,
};
use cyclops::link::engine::TraceSession;
use cyclops::prelude::*;
use std::hint::black_box;

/// §5.3's multi-second SFP re-lock applied to the replay (s).
pub const RELINK_S: f64 = 2.5;
/// Top rung of the RF fallback ladder (Gbps).
pub const RF_RATE_GBPS: f64 = 2.31;
/// The 25G prototype's effective FSO rate (Gbps).
pub const FSO_RATE_GBPS: f64 = 23.5;
/// The paper's operational-slot share over its trace corpus (%).
pub const PAPER_OPERATIONAL_PCT: f64 = 98.6;

/// One trace's outcome.
#[derive(Debug, Clone, Copy)]
struct TraceOut {
    slots: usize,
    on: usize,
    off: FallbackReplay,
    rf: FallbackReplay,
}

fn replay(slots_on: &[bool], p: &TraceSimParams, fallback: FallbackPolicy) -> FallbackReplay {
    replay_with_fallback(
        slots_on,
        p.slot_ms,
        RELINK_S,
        fallback,
        RF_RATE_GBPS,
        FSO_RATE_GBPS,
    )
}

/// One trace through the workload. The spans record only in the traced
/// pass; otherwise each is a thread-local check (three per 60 000 slots).
fn pipeline(t: &HeadTrace, p: &TraceSimParams) -> TraceOut {
    let r = trace::span(Stage::TraceRun, || simulate_trace(t, p));
    let [off, rf] = [FallbackPolicy::Off, FallbackPolicy::RfOnOutage]
        .map(|f| trace::span(Stage::TraceReplay, || replay(&r.slots_on, p, f)));
    TraceOut {
        slots: r.slots_on.len(),
        on: r.slots_on.len() - r.off_slots(),
        off,
        rf,
    }
}

/// Runs `trace_replay`.
pub fn run(args: &Args, scale: &Scale) -> WorkloadResult {
    let mut res = WorkloadResult::default();
    let p = TraceSimParams::default();
    let traces = HeadTrace::generate_corpus(args.seed, scale.viewers, scale.videos);
    let expected: Vec<usize> = traces
        .iter()
        .map(|t| ((t.duration_s() * 1e3) / p.slot_ms).floor() as usize)
        .collect();
    let total_slots: usize = expected.iter().sum();

    // Set-up: constructing every trace's session on a fresh copy (the drift
    // rates are computed on first construction and cached on the trace).
    // The copies are made outside the timed region.
    let mut setups = Vec::new();
    for _ in 0..3 * scale.setup_reps {
        let mut total = 0.0;
        for t in &traces {
            let fresh = t.clone();
            total += timed(|| black_box(TraceSession::new(&fresh, p))).0;
        }
        setups.push(total);
    }
    res.values.insert("setup_s", median(&setups).unwrap_or(0.0));
    println!(
        "set-up (session construction, {} traces), {} reps:",
        traces.len(),
        setups.len()
    );
    print_spread("setup_s", &setups, "s");

    // Warm-up batch (fills the drift-rate caches): the reference every
    // timed batch must reproduce.
    let batch = || cyclops_par::par_map(&traces, 1, |t| pipeline(t, &p));
    let reference = batch();
    res.attempted = reference.len() as u64;
    res.failed = reference
        .iter()
        .zip(&expected)
        .filter(|(o, &n)| o.slots != n)
        .count() as u64;
    check(&traces, &p, &reference, total_slots, &mut res);
    let ref_d = crate::digest(&reference);
    let legs = run_legs(
        args.seconds,
        host_threads(),
        scale.min_reps,
        ref_d,
        batch,
        &mut res,
    );
    let rate = |xs: &[f64]| total_slots as f64 / median(xs).unwrap_or(f64::NAN);
    let (serial, par) = (rate(&legs.serial_s), rate(&legs.par_s));
    println!(
        "timed legs ({total_slots} slots per batch, {} + {} batches):",
        legs.serial_s.len(),
        legs.par_s.len()
    );
    print_spread("serial batch", &legs.serial_s, "s");
    print_spread("parallel batch", &legs.par_s, "s");

    let n = total_slots.max(1) as f64;
    let weighted = |f: &dyn Fn(&TraceOut) -> f64| {
        reference.iter().map(|o| f(o) * o.slots as f64).sum::<f64>() / n
    };
    let on: usize = reference.iter().map(|o| o.on).sum();
    let v = &mut res.values;
    v.insert("slots_per_s", serial);
    v.insert("slots_per_s_par", par);
    v.insert("par.speedup", par / serial);
    v.insert("sim_availability", weighted(&|o| o.rf.up_frac));
    v.insert(
        "sim_goodput_gbps",
        reference.iter().map(|o| o.rf.effective_gbps).sum::<f64>() / reference.len().max(1) as f64,
    );
    v.insert(
        "fig16_err_pp",
        (100.0 * on as f64 / n - PAPER_OPERATIONAL_PCT).abs(),
    );
    v.insert(
        "link.sfp_outage_frac",
        1.0 - weighted(&|o| o.off.fso_up_frac),
    );
    v.insert("link.rf_slot_frac", weighted(&|o| o.rf.rf_frac));

    if args.trace {
        let untraced_ns = untraced_ns_per_slot(batch, total_slots);
        trace::start();
        let (wall_s, traced) = timed(|| {
            traces
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    trace::set_session(i as u32);
                    pipeline(t, &p)
                })
                .collect::<Vec<TraceOut>>()
        });
        let spans = trace::finish();
        res.check(
            crate::digest(&traced) == ref_d,
            "traced_equals_untraced",
            || "traced trace outcomes differ from the untraced run".into(),
        );
        let tot = trace::totals(&spans);
        let per = |s: Stage| tot[s as usize].1 as f64 / n;
        let traced_ns = wall_s * 1e9 / n;
        println!(
            "traced budget, ns per simulated slot ({total_slots} slots, {} traces):",
            traces.len()
        );
        println!(
            "  {:<46} {:>9.2}",
            "link.trace_sim.run (span)",
            per(Stage::TraceRun)
        );
        println!(
            "  {:<46} {:>9.2}",
            "link.trace_sim.replay x2 (span)",
            per(Stage::TraceReplay)
        );
        println!(
            "  traced pass {traced_ns:.2} ns/slot (wall) vs untraced {untraced_ns:.2} ns/slot"
        );
        let path = crate::bench_dir()
            .join("out")
            .join(format!("spans-{}.tsv", args.workload.name()));
        if let Err(e) = trace::write_spans(&path, &crate::stamp(args), &spans) {
            res.check(false, "span_file_written", || {
                format!("{}: {e}", path.display())
            });
        }
        let v = &mut res.values;
        v.insert("link.trace_run_ns_per_slot", per(Stage::TraceRun));
        v.insert("link.trace_replay_ns_per_slot", per(Stage::TraceReplay));
        v.insert(
            "trace.overhead_pct",
            100.0 * (traced_ns / untraced_ns - 1.0),
        );
    }
    res
}

/// Output checks on the reference batch: slots are conserved, the fused
/// counting loop agrees with the materialised slot vector, and the replays
/// keep their contracts (fallback off is FSO-only; the RF policy never
/// feeds the SFP, and never lowers availability).
fn check(
    traces: &[HeadTrace],
    p: &TraceSimParams,
    out: &[TraceOut],
    total_slots: usize,
    res: &mut WorkloadResult,
) {
    let sum: usize = out.iter().map(|o| o.slots).sum();
    res.check(sum == total_slots, "slot_conservation", || {
        format!("sum of trace slots {sum} != expected {total_slots}")
    });
    for (i, (t, o)) in traces.iter().zip(out).enumerate() {
        let fused = TraceSession::new(t, *p).run_count(o.slots);
        res.check(fused == o.on, "fused_count_matches_vector", || {
            format!("trace {i}: run_count {fused} != vector count {}", o.on)
        });
        res.check(
            o.off.rf_frac == 0.0 && o.off.up_frac == o.off.fso_up_frac,
            "fallback_off_is_fso_only",
            || format!("trace {i}: {:?}", o.off),
        );
        res.check(
            o.rf.fso_up_frac == o.off.fso_up_frac && o.rf.up_frac >= o.off.up_frac,
            "fallback_rf_adds_delivery_only",
            || format!("trace {i}: off {:?} rf {:?}", o.off, o.rf),
        );
    }
}
