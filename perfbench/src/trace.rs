//! Span recorder for the traced run, and the timing wrappers the traced run
//! attaches at the program's trait seams (`Motion`, `TxSelector`,
//! `TxScheduler`, `TelemetrySink`).
//!
//! A span is recorded at each call into a layer: stage, start, end, parent
//! span, and the session it belongs to. Spans are kept in memory on the
//! recording thread (the traced run is single-threaded by design, so the
//! timings are free of thread-pool effects) and written out when the run
//! ends. A stage's self time is its spans' durations minus the time their
//! direct child spans cover.

use cyclops::link::engine::{SelectCtx, TxSelector};
use cyclops::link::sched::{GrantSet, SchedCtx, TxScheduler};
use cyclops::link::telemetry::{TelemetryEvent, TelemetrySink};
use cyclops::prelude::{Motion, Pose};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layer boundaries the traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// `SlotSession::step_slot` of a full-physics `LinkSession`.
    Slot,
    /// `Motion::pose_at` (vrh).
    PoseAt,
    /// `TxSelector::on_slot` (link.engine handover selection).
    Select,
    /// `TelemetrySink::record` — the recorder's own sink; tracing cost.
    Sink,
    /// `GrantEngine::step` (link.sched), policy included.
    SchedStep,
    /// `TxScheduler::assign` (the policy), inside `SchedStep`.
    SchedAssign,
    /// `TrafficSource` arrivals, delivery and playout (link.traffic).
    Traffic,
    /// `simulate_trace` — the fused `TraceSession` run (link.trace_sim).
    TraceRun,
    /// `replay_with_fallback` (link.trace_sim + SFP + fallback policy).
    TraceReplay,
}

impl Stage {
    /// Every stage, in `repr` order.
    pub const ALL: [Stage; 9] = [
        Stage::Slot,
        Stage::PoseAt,
        Stage::Select,
        Stage::Sink,
        Stage::SchedStep,
        Stage::SchedAssign,
        Stage::Traffic,
        Stage::TraceRun,
        Stage::TraceReplay,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Slot => "link.engine.step_slot",
            Stage::PoseAt => "vrh.pose_at",
            Stage::Select => "link.engine.select",
            Stage::Sink => "trace.sink",
            Stage::SchedStep => "link.sched.grant_step",
            Stage::SchedAssign => "link.sched.assign",
            Stage::Traffic => "link.traffic",
            Stage::TraceRun => "link.trace_sim.run",
            Stage::TraceReplay => "link.trace_sim.replay",
        }
    }
}

/// No parent / no session.
pub const NONE: u32 = u32::MAX;

/// One recorded span (times in ns since the recorder started).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary.
    pub stage: Stage,
    /// Session id (`NONE` outside any session).
    pub session: u32,
    /// Index of the enclosing span (`NONE` at the root).
    pub parent: u32,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    session: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding any earlier recording).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: NONE,
        })
    });
}

/// Stops recording and returns the spans in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tags subsequent spans with `session`.
pub fn set_session(session: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.session = session;
        }
    });
}

/// Opens a span; returns its index for [`exit`]. A no-op (returning
/// `NONE`) when nothing is recording.
#[inline]
pub fn enter(stage: Stage) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return NONE;
        };
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NONE);
        let session = rec.session;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            stage,
            session,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        id
    })
}

/// Closes the span opened by the matching [`enter`].
#[inline]
pub fn exit(id: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let top = rec.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        rec.spans[id as usize].end_ns = end_ns;
    });
}

/// Times `f` as one span of `stage`.
#[inline]
pub fn span<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let id = enter(stage);
    let r = f();
    exit(id);
    r
}

/// Whether the innermost open span is of `stage` (false when nothing is
/// recording).
pub fn inside(stage: Stage) -> bool {
    REC.with(|r| {
        r.borrow().as_ref().is_some_and(|rec| {
            rec.open
                .last()
                .is_some_and(|&id| rec.spans[id as usize].stage == stage)
        })
    })
}

/// Inclusive ns per stage over the spans whose direct parent is a span of
/// `parent`, indexed by `Stage as usize`: the part of each stage's time
/// that `parent`'s self time excludes.
pub fn child_totals(spans: &[Span], parent: Stage) -> [u64; Stage::ALL.len()] {
    let mut out = [0u64; Stage::ALL.len()];
    for s in spans {
        if s.parent != NONE && spans[s.parent as usize].stage == parent {
            out[s.stage as usize] += s.end_ns - s.start_ns;
        }
    }
    out
}

/// Per-stage totals over a span set: `(count, inclusive ns, self ns)`,
/// indexed by `Stage as usize`. Self time is a span's duration minus the
/// durations of its direct children.
pub fn totals(spans: &[Span]) -> [(u64, u64, i64); Stage::ALL.len()] {
    let mut self_ns: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for s in spans {
        if s.parent != NONE {
            self_ns[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
        }
    }
    let mut out = [(0u64, 0u64, 0i64); Stage::ALL.len()];
    for (s, own) in spans.iter().zip(self_ns) {
        let t = &mut out[s.stage as usize];
        t.0 += 1;
        t.1 += s.end_ns - s.start_ns;
        t.2 += own;
    }
    out
}

/// Writes the spans as tab-separated lines (`id parent session name
/// start_ns end_ns`) after a `#`-prefixed header of run stamps.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "# id\tparent\tsession\tname\tstart_ns\tend_ns")?;
    let opt = |x: u32| {
        if x == NONE {
            "-".to_string()
        } else {
            x.to_string()
        }
    };
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            opt(s.parent),
            opt(s.session),
            s.stage.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Timing wrappers at the program's trait seams
// ---------------------------------------------------------------------------

/// `Motion` wrapper: times every `pose_at` and keeps the last pose returned,
/// which the traced run records as the slot's headset pose.
#[derive(Debug)]
pub struct TimedMotion<M: Motion> {
    inner: M,
    /// The pose the last `pose_at` call returned.
    pub last: Pose,
}

impl<M: Motion> TimedMotion<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMotion {
            inner,
            last: Pose::IDENTITY,
        }
    }
}

impl<M: Motion> Motion for TimedMotion<M> {
    fn pose_at(&mut self, t: f64) -> Pose {
        let p = span(Stage::PoseAt, || self.inner.pose_at(t));
        self.last = p;
        p
    }
}

/// `TxSelector` wrapper: times every `on_slot`.
#[derive(Debug)]
pub struct TimedSelector<S: TxSelector>(pub S);

impl<S: TxSelector> TxSelector for TimedSelector<S> {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        span(Stage::Select, || self.0.on_slot(ctx))
    }
}

/// `TxScheduler` wrapper: times every `assign` (admission is once per
/// session at fleet start and is passed through untimed).
pub struct TimedScheduler(pub Box<dyn TxScheduler>);

impl TxScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn admit(&mut self, session: usize, n_admitted: usize, cap: usize) -> bool {
        self.0.admit(session, n_admitted, cap)
    }

    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet) {
        span(Stage::SchedAssign, || self.0.assign(ctx, grants))
    }
}

/// A telemetry event as the recording sink saw it.
#[derive(Debug, Clone, Copy)]
pub struct RecordedEvent {
    /// Emitted inside a `Slot` span (by the slot loop), not by the fleet
    /// driver around it (session start/end, grants, stalls).
    pub in_slot: bool,
    /// The event.
    pub ev: TelemetryEvent,
}

thread_local! {
    static EVENTS: RefCell<Vec<(u32, RecordedEvent)>> = const { RefCell::new(Vec::new()) };
}

/// `TelemetrySink` that appends every event, tagged with its session and
/// whether a slot span was open, to this thread's event log (see
/// [`take_events`]); each `record` is a `Sink` span, so the recorder's own
/// cost is separated from the slot's self time.
#[derive(Debug)]
pub struct RecordingSink(pub u32);

impl TelemetrySink for RecordingSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        let rec = RecordedEvent {
            in_slot: inside(Stage::Slot),
            ev: *ev,
        };
        span(Stage::Sink, || {
            EVENTS.with(|e| e.borrow_mut().push((self.0, rec)))
        });
    }
}

/// Drains the events recorded on this thread since the last call, split by
/// session (`out[i]` holds session `i`'s events in emission order).
pub fn take_events(n_sessions: usize) -> Vec<Vec<RecordedEvent>> {
    let mut out = vec![Vec::new(); n_sessions];
    for (s, ev) in EVENTS.with(|e| std::mem::take(&mut *e.borrow_mut())) {
        out[s as usize].push(ev);
    }
    out
}
