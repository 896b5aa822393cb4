//! The repository benchmark: three closed-batch workloads over the Cyclops
//! link simulator, end-to-end metrics from an untraced run, per-layer
//! metrics from a separate traced run. See `README.md` in this directory.

mod fleet;
pub mod stats;
mod trace;
mod traces;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

/// A named metric: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    ("slots_per_s", "slots/s", "higher"),
    ("slots_per_s_par", "slots/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_availability", "fraction", "higher"),
    ("sim_goodput_gbps", "Gbps", "higher"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A layer that
/// does no work on a workload reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    ("link.slot_ns", "ns", "lower"),
    ("vrh.pose_at_ns_per_slot", "ns", "lower"),
    ("core.on_report_ns_per_call", "ns", "lower"),
    ("core.on_report_ns_per_slot", "ns", "lower"),
    ("core.reports_per_slot", "count/slot", "lower"),
    ("core.received_power_ns_per_slot", "ns", "lower"),
    ("link.channel_ns_per_slot", "ns", "lower"),
    ("link.select_ns_per_slot", "ns", "lower"),
    ("link.handovers_per_session", "count", "lower"),
    ("link.env_ns_per_slot", "ns", "lower"),
    ("link.sched_ns_per_slot", "ns", "lower"),
    ("link.traffic_ns_per_slot", "ns", "lower"),
    ("link.sched_served_per_granted", "ratio", "higher"),
    ("link.sched_denied_frac", "fraction", "lower"),
    ("link.sched_contention", "sessions/unit", "lower"),
    ("link.sched_fso_denied_frac", "fraction", "lower"),
    ("link.sched_preempts", "count/session", "lower"),
    ("link.sched_jain", "ratio", "higher"),
    ("link.telemetry_events_per_slot", "count/slot", "lower"),
    ("link.telemetry_ns_per_slot", "ns", "lower"),
    ("link.slot_unattributed_ns", "ns", "lower"),
    ("link.trace_run_ns_per_slot", "ns", "lower"),
    ("link.trace_replay_ns_per_slot", "ns", "lower"),
    ("par.speedup", "x", "higher"),
    ("core.kspace_train_s", "s", "lower"),
    ("core.mapping_train_s", "s", "lower"),
    ("solver.lm_iters", "count", "lower"),
    ("core.commission_err_mm", "mm", "lower"),
    ("core.tp_iters_mean", "count", "lower"),
    ("core.tp_fail_ratio", "ratio", "lower"),
    ("link.ctrl_delivered_ratio", "ratio", "higher"),
    ("link.ctrl_retransmits_per_sent", "ratio", "lower"),
    ("link.sfp_outage_frac", "fraction", "lower"),
    ("link.rf_slot_frac", "fraction", "lower"),
    ("sim_stall_frac", "fraction", "lower"),
    ("fig16_err_pp", "pp", "lower"),
    ("failed_frac", "fraction", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hostile full-physics fleet through `run_fleet`.
    FleetPhysics,
    /// Shared-TX scheduled venues through `run_fleet_scheduled`.
    FleetShared,
    /// The §5.4 trace corpus: fused `TraceSession` + fallback replays.
    TraceReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FleetPhysics,
        Workload::FleetShared,
        Workload::TraceReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetPhysics => "fleet_physics",
            Workload::FleetShared => "fleet_shared",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// the smoke tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `fleet_physics`: sessions whose simulated outcomes are reported.
    pub fleet_sessions: usize,
    /// `fleet_physics`: sessions per timed batch (the first ones).
    pub timed_sessions: usize,
    /// Simulated length of every fleet session (s).
    pub session_s: f64,
    /// `fleet_physics`: sessions replayed by the traced run.
    pub traced_sessions: usize,
    /// `fleet_shared`: independent venues (scheduled fleets) whose simulated
    /// outcomes are reported.
    pub venues: usize,
    /// `fleet_shared`: venues per timed batch (the first ones).
    pub timed_venues: usize,
    /// `fleet_shared`: sessions per venue (over the venue's 2 TX units).
    pub venue_sessions: usize,
    /// `fleet_shared`: venues replayed by the traced run.
    pub traced_venues: usize,
    /// `trace_replay`: viewer styles × videos per style.
    pub viewers: usize,
    /// See `viewers`.
    pub videos: usize,
    /// Set-up repetitions (the median is reported).
    pub setup_reps: usize,
    /// Minimum timed batches per leg, even past `--seconds`.
    pub min_reps: usize,
    /// Mapping samples per TX unit at commissioning.
    pub mapping_samples: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            fleet_sessions: 512,
            timed_sessions: 32,
            session_s: 8.0,
            traced_sessions: 16,
            venues: 8,
            timed_venues: 3,
            venue_sessions: 12,
            traced_venues: 2,
            viewers: 300,
            videos: 1,
            setup_reps: 7,
            min_reps: 3,
            mapping_samples: 12,
        }
    }

    /// Smoke-test sizes: every code path, a fraction of a second of work.
    pub fn tiny() -> Scale {
        Scale {
            fleet_sessions: 3,
            timed_sessions: 2,
            session_s: 0.25,
            traced_sessions: 2,
            venues: 1,
            timed_venues: 1,
            venue_sessions: 3,
            traced_venues: 1,
            viewers: 2,
            videos: 1,
            setup_reps: 1,
            min_reps: 1,
            mapping_samples: 8,
        }
    }
}

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window (s).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Metric values a workload produced, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Sessions or traces simulated.
    pub attempted: u64,
    /// Of those, the ones that errored or did not complete all slots.
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Names and details of failed checks.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot hold, become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// What a workload hands back: counts, failed checks, and metric values.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Sessions or traces simulated.
    pub attempted: u64,
    /// Sessions or traces that failed.
    pub failed: u64,
    /// Failed checks (`name: detail`).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Values,
}

impl WorkloadResult {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, name: &str, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// Runs one workload and assembles its outcome. A panic anywhere in the
/// workload counts every attempted unit as failed and fails the run.
pub fn run(args: &Args, scale: &Scale) -> Outcome {
    let attempted_guess = match args.workload {
        Workload::FleetPhysics => scale.fleet_sessions,
        Workload::FleetShared => scale.venues * scale.venue_sessions,
        Workload::TraceReplay => scale.viewers * scale.videos,
    } as u64;
    let res = std::panic::catch_unwind(|| match args.workload {
        Workload::FleetPhysics | Workload::FleetShared => fleet::run(args, scale),
        Workload::TraceReplay => traces::run(args, scale),
    });
    let mut r = res.unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        WorkloadResult {
            attempted: attempted_guess,
            failed: attempted_guess,
            failures: vec![format!("panic: {msg}")],
            values: Values::new(),
        }
    });
    match peak_rss_mb() {
        Some(mb) => {
            r.values.insert("peak_rss_mb", mb);
        }
        None => r
            .failures
            .push("peak_rss: /proc/self/status has no VmHWM".into()),
    }
    if args.trace {
        let frac = r.failed as f64 / r.attempted.max(1) as f64;
        r.values.insert("failed_frac", frac);
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for k in r.values.keys() {
        if !END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == *k) {
            r.failures
                .push(format!("metric_registry: unknown metric {k}"));
        }
    }
    let mut metrics = Vec::with_capacity(registry.len());
    for &(name, unit, _) in registry {
        let v = match r.values.get(name) {
            Some(&v) => v,
            // A layer that does no work on this workload reports 0; an
            // end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => {
                if r.failures.is_empty() {
                    r.failures.push(format!("metric_missing: {name}"));
                }
                0.0
            }
        };
        metrics.push((name, v, unit));
    }
    Outcome {
        correct: r.failures.is_empty(),
        attempted: r.attempted.max(1),
        failed: r.failed,
        metrics,
        failures: r.failures,
    }
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// Wall-clock seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Host threads (`std::thread::available_parallelism`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Batch wall times of the two timed legs.
#[derive(Debug, Default)]
pub struct Legs {
    /// Batches run with the `cyclops_par` pool pinned to 1 thread (s).
    pub serial_s: Vec<f64>,
    /// Batches run at the host's thread count (s).
    pub par_s: Vec<f64>,
}

/// Alternates serial and parallel batches until `seconds` have elapsed and
/// each leg has `min_reps` batches. Every batch's output must be
/// bit-identical to `reference` (compared by [`digest`]); a mismatch is a
/// failed check.
pub fn run_legs<R: Debug>(
    seconds: f64,
    threads: usize,
    min_reps: usize,
    reference: u64,
    mut batch: impl FnMut() -> R,
    res: &mut WorkloadResult,
) -> Legs {
    let mut legs = Legs::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || legs.par_s.len() < min_reps {
        for (n, out) in [(1, &mut legs.serial_s), (threads, &mut legs.par_s)] {
            let (dt, r) = cyclops_par::with_threads(n, || timed(&mut batch));
            out.push(dt);
            let d = digest(&r);
            res.check(d == reference, "serial_parallel_identical", || {
                format!("batch at {n} thread(s) digests to {d:016x}, reference {reference:016x}")
            });
        }
    }
    legs
}

/// Median serial ns per slot of three untraced runs of `f`, which
/// simulates `slots` slots: the base of `trace.overhead_pct`, measured on
/// the same work as the traced pass.
pub fn untraced_ns_per_slot<R>(mut f: impl FnMut() -> R, slots: usize) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| cyclops_par::with_threads(1, || timed(&mut f).0))
        .collect();
    stats::median(&times).unwrap_or(f64::NAN) * 1e9 / slots as f64
}

/// FNV-1a over the `Debug` rendering. Rust prints every `f64` in its
/// shortest round-trip form, so equal digests mean bit-identical values.
pub fn digest<T: Debug + ?Sized>(x: &T) -> u64 {
    format!("{x:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Prints a timing summary line: median, quartiles, and the tail percentile
/// with its sample count (or why there is none).
pub fn print_spread(label: &str, xs: &[f64], unit: &str) {
    let med = stats::median(xs).unwrap_or(f64::NAN);
    let q = stats::quartiles(xs).map_or("-".to_string(), |[a, _, c]| format!("{a:.4e}..{c:.4e}"));
    let tail = stats::tail_percentile(xs).map_or(
        format!("no tail percentile (n={} < 11)", xs.len()),
        |(p, v, n)| format!("p{p:.1} {v:.4e} (n={n})"),
    );
    println!("  {label}: median {med:.4e} {unit}, quartiles {q}, {tail}");
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Run stamps
// ---------------------------------------------------------------------------

/// Directory of this package (the benchmark reads the program's sources and
/// writes its span files relative to it).
pub fn bench_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `git rev-parse HEAD` when the benchmark sits in a git checkout, else
/// `none`.
fn git_rev() -> String {
    let root = bench_dir().join("..");
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the program's sources (`crates/`,
/// `vendor/`, the root manifest) in sorted order: identifies the measured
/// code even where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The stamp every result carries: revision, source digest, compiler, host
/// threads, worker threads, compiled features, workload and seed.
pub fn stamp(args: &Args) -> String {
    format!(
        "git_rev={} src_digest={} rustc=\"{}\" nproc={} threads={} parallel_compiled={} \
         workload={} seed={} seconds={} trace={}",
        git_rev(),
        source_digest(),
        env!("PERFBENCH_RUSTC_VERSION"),
        host_threads(),
        cyclops_par::max_threads(),
        cyclops_par::parallel_compiled(),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    )
}
