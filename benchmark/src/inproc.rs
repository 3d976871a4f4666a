//! The in-process workloads, `fanin_ets` and `sparse_join`: a planned
//! query on the serial `Executor` with on-demand ETS, fed closed-loop.
//!
//! Each arrival advances the virtual clock to its timestamp, is
//! ingested, and runs to quiescence before the next one. Arrivals are
//! generated and their reference output computed a chunk at a time,
//! outside the timed replay of that chunk; engine output is byte-compared
//! with the reference after every chunk. Every timed stretch sits between
//! two host-speed calibrations (`calib`), and its wall time is reported
//! scaled to the calibration's nominal speed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use millstream_exec::{
    CostModel, EtsPolicy, ExecStats, Executor, OpProfile, SourceId, VirtualClock,
};
use millstream_ops::SinkCollector;
use millstream_query::plan_program;
use millstream_types::{Timestamp, Tuple};

use crate::calib;
use crate::gen::{digest_arrivals, Arrival, FaninGen, JoinGen};
use crate::reference::{encode_tuple, merge, Checker, WindowJoinRef};
use crate::report::{Metric, Outcome};
use crate::spans::{self, Tracer};
use crate::stats::{mean, median, percentile};

/// Arrivals hashed into the recorded trace digest.
const DIGEST_PREFIX: usize = 65_536;
/// Set-ups timed at the start of each pass; `setup_s` is the median over
/// the run.
const SETUP_REPS_PER_PASS: usize = 40;

const FANIN_INPUTS: usize = 64;
const FANIN_ZIPF_S: f64 = 1.1;
const FANIN_RATE_HZ: f64 = 5_000.0;
/// Untimed first arrivals (about 200), so caches and allocations settle.
const FANIN_WARMUP_US: u64 = 40_000;
/// Arrivals timed per pass (0.8 s of stream time), and passes per run.
const FANIN_MEASURED: usize = 4_000;
const FANIN_PASSES: usize = 30;
/// Arrivals replayed between two calibrations (about 50 ms of wall time).
const FANIN_CHUNK: usize = 250;

const JOIN_KEYS: u64 = 4_096;
const JOIN_DENSE_HZ: f64 = 20_000.0;
const JOIN_SPARSE_HZ: f64 = 1.0;
const JOIN_WINDOW_US: u64 = 1_000_000;
/// Arrivals timed per pass (2 s of stream time, two windows: the jittered
/// sparse stream puts at least one sparse probe in every such span), and
/// passes per run.
const JOIN_MEASURED: usize = 40_000;
const JOIN_PASSES: usize = 8;
/// Arrivals replayed between two calibrations (about 60 ms of wall time).
const JOIN_CHUNK: usize = 1_000;

enum Reference {
    /// Timestamp-ordered merge of the per-source inputs.
    Merge { inputs: usize },
    /// Nested-loop window join.
    Join(WindowJoinRef),
}

impl Reference {
    fn expected(&mut self, chunk: &[Arrival], out: &mut Vec<Tuple>) {
        match self {
            Reference::Merge { inputs } => {
                let mut per_source = vec![Vec::new(); *inputs];
                for a in chunk {
                    per_source[a.input].push(a.tuple.clone());
                }
                out.extend(merge(&per_source));
            }
            Reference::Join(j) => {
                for a in chunk {
                    j.push(a.input, &a.tuple, out);
                }
            }
        }
    }
}

/// One in-process workload, fully determined by its seed.
pub struct Workload {
    program: String,
    /// Stream name of each input index.
    inputs: Vec<String>,
    seed: u64,
    arrivals: fn(u64) -> Box<dyn Iterator<Item = Arrival>>,
    reference: fn() -> Reference,
    /// Arrivals at or below this stream time are a warm-up, not timed.
    warmup_until_us: u64,
    /// Arrivals timed per pass.
    measured: usize,
    /// Arrivals replayed between two calibrations.
    chunk: usize,
    /// Passes per run, unless `--seconds` run out first. A fixed count
    /// keeps the sample behind each estimate the same from one commit to
    /// the next.
    passes: usize,
}

pub fn fanin_ets(seed: u64) -> Workload {
    let inputs: Vec<String> = (0..FANIN_INPUTS).map(|i| format!("s{i}")).collect();
    let mut program: String = inputs
        .iter()
        .map(|s| format!("CREATE STREAM {s} (v INT);\n"))
        .collect();
    let selects: Vec<String> = inputs
        .iter()
        .map(|s| format!("SELECT * FROM {s}"))
        .collect();
    program.push_str(&selects.join("\nUNION "));
    program.push(';');
    Workload {
        program,
        inputs,
        seed,
        arrivals: |seed| {
            Box::new(FaninGen::new(
                seed,
                FANIN_INPUTS,
                FANIN_ZIPF_S,
                FANIN_RATE_HZ,
            ))
        },
        reference: || Reference::Merge {
            inputs: FANIN_INPUTS,
        },
        warmup_until_us: FANIN_WARMUP_US,
        measured: FANIN_MEASURED,
        chunk: FANIN_CHUNK,
        passes: FANIN_PASSES,
    }
}

pub fn sparse_join(seed: u64) -> Workload {
    let program = format!(
        "CREATE STREAM d (k INT, v INT);
         CREATE STREAM s (k INT, w INT);
         SELECT d.k, d.v, s.w FROM d JOIN s ON d.k = s.k WINDOW {} MILLISECONDS;",
        JOIN_WINDOW_US / 1000
    );
    Workload {
        program,
        inputs: vec!["d".into(), "s".into()],
        seed,
        arrivals: join_arrivals,
        reference: || Reference::Join(WindowJoinRef::new(JOIN_WINDOW_US)),
        warmup_until_us: JOIN_WINDOW_US,
        measured: JOIN_MEASURED,
        chunk: JOIN_CHUNK,
        passes: JOIN_PASSES,
    }
}

fn join_arrivals(seed: u64) -> Box<dyn Iterator<Item = Arrival>> {
    Box::new(JoinGen::new(seed, JOIN_KEYS, JOIN_DENSE_HZ, JOIN_SPARSE_HZ))
}

/// Sink side of the engine: encodes every delivered tuple for the byte
/// comparison and samples stream-time latency (sink clock − timestamp).
#[derive(Clone)]
struct Capture(Arc<Mutex<CaptureState>>);

struct CaptureState {
    bytes: Vec<u8>,
    outputs: u64,
    late: u64,
    /// Per output; a pass delivers a fixed number of outputs.
    stream_latency_ms: Vec<f64>,
}

impl SinkCollector for Capture {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        let mut s = self.0.lock().expect("capture lock");
        encode_tuple(&tuple, &mut s.bytes);
        s.outputs += 1;
        let lag = now.as_micros().saturating_sub(tuple.ts.as_micros());
        if lag > 0 {
            s.late += 1;
        }
        s.stream_latency_ms.push(lag as f64 / 1000.0);
    }
}

struct Engine {
    exec: Executor,
    sources: Vec<SourceId>,
    monitor: Option<millstream_exec::NodeId>,
    capture: Capture,
}

/// Program text to a ready executor: the span of `setup_s`.
fn set_up(w: &Workload, tracer: &mut Tracer) -> (Engine, f64, f64) {
    let started = Instant::now();
    let root = tracer.open("bench.setup", None);
    let capture = Capture(Arc::new(Mutex::new(CaptureState {
        bytes: Vec::new(),
        outputs: 0,
        late: 0,
        stream_latency_ms: Vec::new(),
    })));
    let plan_started = Instant::now();
    let planned = tracer
        .time("query.plan", root, || {
            plan_program(&w.program, capture.clone())
        })
        .expect("benchmark program plans");
    let plan_s = plan_started.elapsed().as_secs_f64();
    let by_name: HashMap<&str, SourceId> = planned
        .sources
        .iter()
        .map(|s| (s.stream.as_str(), s.id))
        .collect();
    let sources = w.inputs.iter().map(|n| by_name[n.as_str()]).collect();
    let mut exec = Executor::new(
        planned.graph,
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::on_demand(),
    );
    if let Some(node) = planned.monitor {
        exec.monitor_idle(node);
    }
    tracer.close(root);
    let setup_s = started.elapsed().as_secs_f64();
    let engine = Engine {
        exec,
        sources,
        monitor: planned.monitor,
        capture,
    };
    (engine, setup_s, plan_s)
}

/// Counters of one run: failures and what the engine reported.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Engine {
    /// Replays `chunk`, appending each arrival's wall time (ms) to
    /// `latency`. Returns the chunk's wall time in seconds.
    fn replay(
        &mut self,
        chunk: Vec<Arrival>,
        tally: &mut Tally,
        tracer: &mut Tracer,
        latency: &mut Vec<f64>,
    ) -> f64 {
        let root = tracer.open("bench.chunk", None);
        let clock = Arc::clone(self.exec.clock());
        let started = Instant::now();
        let mut last = started;
        for a in chunk {
            tally.attempted += 1;
            clock.advance_to(a.tuple.ts);
            let src = self.sources[a.input];
            let exec = &mut self.exec;
            if tracer
                .time("buffer.ingest", root, || exec.ingest(src, a.tuple))
                .is_err()
            {
                tally.failed += 1;
            }
            if tracer
                .time("exec.run", root, || exec.run_until_quiescent(u64::MAX))
                .is_err()
            {
                tally.failed += 1;
            }
            let now = Instant::now();
            latency.push(now.duration_since(last).as_secs_f64() * 1e3);
            last = now;
        }
        let wall = started.elapsed().as_secs_f64();
        tracer.close(root);
        wall
    }

    fn settle(&self, checker: &mut Checker) {
        let mut s = self.capture.0.lock().expect("capture lock");
        checker.settle(&mut s.bytes);
    }

    fn close_and_drain(&mut self, tally: &mut Tally) {
        for &s in &self.sources {
            if self.exec.close_source(s).is_err() {
                tally.failed += 1;
            }
        }
        if self.exec.run_until_quiescent(u64::MAX).is_err() {
            tally.failed += 1;
        }
    }
}

/// The engine's cumulative counters at one instant.
struct Snapshot {
    stats: ExecStats,
    profile: Vec<OpProfile>,
    punct_enqueued: u64,
    coalesced: u64,
    outputs: u64,
    late: u64,
}

fn snapshot(e: &Engine) -> Snapshot {
    let tracker = e.exec.graph().tracker();
    let cap = e.capture.0.lock().expect("capture lock");
    Snapshot {
        stats: e.exec.stats(),
        profile: e.exec.profile().to_vec(),
        punct_enqueued: tracker.punctuation_enqueued(),
        coalesced: tracker.coalesced(),
        outputs: cap.outputs,
        late: cap.late,
    }
}

/// One timed chunk of arrivals.
struct Chunk {
    /// Wall seconds.
    wall: f64,
    /// `calib::scale` of the calibrations on either side.
    scale: f64,
    traced: bool,
}

/// What one pass measured.
struct Pass {
    chunks: Vec<Chunk>,
    /// Scaled wall time of each measured arrival in an untraced chunk, ms.
    arrival_ms: Vec<f64>,
    /// Count-based per-layer metrics; identical on every pass.
    counts: Vec<Metric>,
    stream_latency_p99_ms: f64,
    outputs: u64,
}

impl Pass {
    /// Tuples per scaled second over the pass's traced or untraced
    /// chunks; `None` if it has none of that kind.
    fn rate(&self, w: &Workload, traced: bool) -> Option<f64> {
        let (n, _, scaled) = self.totals(w, traced);
        (n > 0).then(|| n as f64 / scaled)
    }

    /// Tuples per wall second over the untraced chunks, unscaled.
    fn raw_rate(&self, w: &Workload) -> Option<f64> {
        let (n, wall, _) = self.totals(w, false);
        (n > 0).then(|| n as f64 / wall)
    }

    /// Arrivals, wall seconds and scaled seconds of the traced or
    /// untraced chunks.
    fn totals(&self, w: &Workload, traced: bool) -> (usize, f64, f64) {
        let (mut n, mut wall, mut scaled) = (0, 0.0, 0.0);
        for (j, c) in self.chunks.iter().enumerate() {
            if c.traced == traced {
                n += chunk_len(w, j);
                wall += c.wall;
                scaled += c.wall * c.scale;
            }
        }
        (n, wall, scaled)
    }
}

/// Tuples per scaled second over the traced or untraced chunks of all
/// passes.
fn run_rate(passes: &[Pass], w: &Workload, traced: bool) -> f64 {
    let (n, scaled) = passes
        .iter()
        .map(|p| p.totals(w, traced))
        .fold((0, 0.0), |(n, t), (pn, _, pt)| (n + pn, t + pt));
    n as f64 / scaled.max(f64::MIN_POSITIVE)
}

fn chunk_len(w: &Workload, j: usize) -> usize {
    w.chunk.min(w.measured - j * w.chunk)
}

/// One pass: set up, warm up, time `measured` arrivals, drain, check.
/// Every pass replays the same trace, so passes differ only in timing.
/// In a traced run chunk `j` of pass `p` is traced when `j + p` is odd,
/// so every chunk is timed both ways over two passes.
fn run_pass(
    w: &Workload,
    pass_no: usize,
    tracer: &mut Tracer,
    traced: bool,
    tally: &mut Tally,
    setups: &mut Vec<f64>,
    plans: &mut Vec<f64>,
) -> Pass {
    let mut engine = None;
    let calib_before = calib::sample();
    let first = setups.len();
    for _ in 0..SETUP_REPS_PER_PASS {
        // Drop the previous engine first so set-ups do not stack up memory.
        drop(engine.take());
        let (e, setup_s, plan_s) = set_up(w, tracer);
        setups.push(setup_s);
        plans.push(plan_s);
        engine = Some(e);
    }
    let scale = calib::scale(calib_before, calib::sample());
    for s in setups[first..].iter_mut().chain(&mut plans[first..]) {
        *s *= scale;
    }
    let mut e = engine.expect("at least one set-up");
    let mut reference = (w.reference)();
    let mut arrivals = (w.arrivals)(w.seed).peekable();
    let mut checker = Checker::default();
    let mut scratch = Vec::new();
    let mut arrival_ms = Vec::with_capacity(w.measured);
    let mut traced_ms = Vec::new();

    tracer.set_enabled(false);
    loop {
        let chunk: Vec<Arrival> = std::iter::from_fn(|| {
            arrivals.next_if(|a| a.tuple.ts.as_micros() <= w.warmup_until_us)
        })
        .take(w.chunk)
        .collect();
        if chunk.is_empty() {
            break;
        }
        feed_reference(&mut reference, &chunk, &mut scratch, &mut checker);
        e.replay(chunk, tally, tracer, &mut traced_ms);
        e.settle(&mut checker);
    }

    let before = snapshot(&e);
    let mut chunks = Vec::new();
    let mut calib_before = calib::sample();
    let mut left = w.measured;
    while left > 0 {
        let chunk: Vec<Arrival> = arrivals.by_ref().take(w.chunk.min(left)).collect();
        left -= chunk.len();
        feed_reference(&mut reference, &chunk, &mut scratch, &mut checker);
        let trace_this = traced && (chunks.len() + pass_no) % 2 == 1;
        tracer.set_enabled(trace_this);
        let latency = if trace_this {
            &mut traced_ms
        } else {
            &mut arrival_ms
        };
        let from = latency.len();
        let wall = e.replay(chunk, tally, tracer, latency);
        let calib_after = calib::sample();
        let scale = calib::scale(calib_before, calib_after);
        calib_before = calib_after;
        for ms in &mut latency[from..] {
            *ms *= scale;
        }
        chunks.push(Chunk {
            wall,
            scale,
            traced: trace_this,
        });
        e.settle(&mut checker);
    }
    tracer.set_enabled(false);
    let after = snapshot(&e);
    let idle_frac = e.monitor.and_then(|m| {
        let now = e.exec.clock().now();
        e.exec.idle_tracker(m).map(|t| t.idle_fraction(now))
    });
    let peak_queue = e.exec.graph().tracker().peak();
    e.close_and_drain(tally);
    e.settle(&mut checker);
    checker.finish();
    tally.failed += checker.mismatches();

    let cap = e.capture.0.lock().expect("capture lock");
    Pass {
        chunks,
        arrival_ms,
        counts: count_metrics(&before, &after, w.measured as u64, idle_frac, peak_queue),
        stream_latency_p99_ms: percentile(&cap.stream_latency_ms, 99.0).unwrap_or(0.0),
        outputs: cap.outputs,
    }
}

pub fn run(w: Workload, seconds: f64, traced: bool) -> Outcome {
    let epoch = Instant::now();
    let deadline = epoch + std::time::Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(epoch, traced);
    let (mut setups, mut plans) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    while passes.len() < 2 || (passes.len() < w.passes && Instant::now() < deadline) {
        let pass = run_pass(
            &w,
            passes.len(),
            &mut tracer,
            traced,
            &mut tally,
            &mut setups,
            &mut plans,
        );
        passes.push(pass);
        // Later passes only repeat the timing; the allocator churn of
        // tearing one engine down and building the next would otherwise
        // add a few MB that depend on allocation order, not on the engine.
        peak_rss.get_or_insert_with(crate::report::peak_rss_mb);
    }

    // Every pass repeats identical work. In scaled time (`calib`), the
    // run's throughput is all timed arrivals over all their time, and each
    // latency percentile is the mean over passes (see NOTES.md).
    let rates: Vec<f64> = passes.iter().filter_map(|p| p.rate(&w, false)).collect();
    let raw_rates: Vec<f64> = passes.iter().filter_map(|p| p.raw_rate(&w)).collect();
    let scales: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunks.iter().map(|c| c.scale))
        .collect();
    let pass_latency = |q: f64| -> Vec<f64> {
        passes
            .iter()
            .filter_map(|p| percentile(&p.arrival_ms, q))
            .collect()
    };
    let (p50s, p90s) = (pass_latency(50.0), pass_latency(90.0));
    let first = &passes[0];
    let mut out = Outcome::new(tally.attempted, tally.failed);
    out.end_to_end = vec![
        Metric::new("tuples_per_s", run_rate(&passes, &w, false), "1/s"),
        Metric::new("latency_p50_ms", mean(&p50s), "ms"),
        Metric::new("latency_p90_ms", mean(&p90s), "ms"),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
        Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
    ];
    out.text(
        "trace_digest",
        &digest_arrivals((w.arrivals)(w.seed), DIGEST_PREFIX),
    );
    out.num("passes", passes.len() as f64);
    out.num("measured_tuples_per_pass", w.measured as f64);
    out.num("outputs_per_pass", first.outputs as f64);
    out.raw(
        "pass_latency_samples",
        &passes
            .iter()
            .map(|p| p.arrival_ms.len() as f64)
            .collect::<Vec<_>>(),
    );
    out.num("stream_latency_p99_ms", first.stream_latency_p99_ms);
    out.raw("pass_tuples_per_s", &rates);
    out.raw("pass_unscaled_tuples_per_s", &raw_rates);
    out.num("scale_median", median(&scales).unwrap_or(0.0));
    out.raw("pass_latency_p50_ms", &p50s);
    out.raw("pass_latency_p90_ms", &p90s);
    out.raw("setup_s", &setups);

    if traced {
        let spans: &[spans::Span] = tracer.spans();
        let totals = spans::totals_by_name(&[spans]);
        // Times are per pass: seconds per `measured` traced arrivals, so
        // they follow a layer's cost, not how many passes fit the run;
        // and scaled as the traced chunks' wall time is (`calib`).
        let (traced_n, traced_wall, traced_scaled) = passes
            .iter()
            .map(|p| p.totals(&w, true))
            .fold((0, 0.0, 0.0), |(n, t, u), (pn, pt, pu)| {
                (n + pn, t + pt, u + pu)
            });
        let scale = traced_scaled / traced_wall.max(f64::MIN_POSITIVE);
        let per_pass = |s: f64| s * scale / traced_n.max(1) as f64 * w.measured as f64;
        let self_s = |name: &str| per_pass(totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9));
        let traced_rates: Vec<f64> = passes.iter().filter_map(|p| p.rate(&w, true)).collect();
        let overhead = 1.0 - run_rate(&passes, &w, true) / run_rate(&passes, &w, false);
        let mut layer = vec![
            Metric::new("query.plan_s", median(&plans).unwrap_or(0.0), "s"),
            Metric::new("buffer.ingest_s", self_s("buffer.ingest"), "s"),
            Metric::new("exec.run_s", self_s("exec.run"), "s"),
            Metric::new("trace.wall_s", per_pass(traced_wall), "s"),
            Metric::new(
                "trace.unaccounted_frac",
                spans::unaccounted_share(&[spans]),
                "fraction",
            ),
            Metric::new("trace.overhead_frac", overhead, "fraction"),
        ];
        layer.extend(first.counts.iter().cloned());
        out.per_layer = layer;
        out.raw("traced_pass_tuples_per_s", &traced_rates);
        out.spans = vec![spans.to_vec()];
    }
    out
}

/// Count-based per-layer metrics between two snapshots, per measured
/// input tuple unless named otherwise.
fn count_metrics(
    before: &Snapshot,
    after: &Snapshot,
    tuples: u64,
    idle_frac: Option<f64>,
    peak_queue: usize,
) -> Vec<Metric> {
    let per = |x: u64| x as f64 / tuples.max(1) as f64;
    let (s0, s1) = (&before.stats, &after.stats);
    let mut out = vec![
        Metric::new("buffer.peak_queue_tuples", peak_queue as f64, "count"),
        Metric::new(
            "buffer.punct_per_tuple",
            per(after.punct_enqueued - before.punct_enqueued),
            "1/tuple",
        ),
        Metric::new(
            "buffer.coalesced_per_tuple",
            per(after.coalesced - before.coalesced),
            "1/tuple",
        ),
        Metric::new("exec.steps_per_tuple", per(s1.steps - s0.steps), "1/tuple"),
        Metric::new(
            "exec.batches_per_tuple",
            per(s1.batches - s0.batches),
            "1/tuple",
        ),
        Metric::new(
            "exec.backtracks_per_tuple",
            per(s1.backtracks - s0.backtracks),
            "1/tuple",
        ),
        Metric::new(
            "exec.ets_per_tuple",
            per(s1.ets_generated - s0.ets_generated),
            "1/tuple",
        ),
        Metric::new("exec.idle_wait_frac", idle_frac.unwrap_or(0.0), "fraction"),
        Metric::new(
            "exec.late_output_frac",
            (after.late - before.late) as f64 / (after.outputs - before.outputs).max(1) as f64,
            "fraction",
        ),
    ];
    out.extend(op_metrics(&before.profile, &after.profile, tuples));
    out
}

fn feed_reference(
    reference: &mut Reference,
    chunk: &[Arrival],
    scratch: &mut Vec<Tuple>,
    checker: &mut Checker,
) {
    scratch.clear();
    reference.expected(chunk, scratch);
    for t in scratch.iter() {
        checker.expect(t);
    }
}

/// Operator kinds reported per layer, by the planner's name prefix.
const OP_KINDS: [(&str, &str); 3] = [("union", "∪"), ("join", "⋈"), ("sink", "sink")];

/// `ops.<kind>.*` per measured input tuple, summed over operators of a
/// kind, plus the join's peak state.
fn op_metrics(before: &[OpProfile], after: &[OpProfile], tuples: u64) -> Vec<Metric> {
    let per = |x: u64| x as f64 / tuples.max(1) as f64;
    let mut out = Vec::new();
    for (kind, prefix) in OP_KINDS {
        let (mut consumed, mut produced, mut steps, mut peak) = (0, 0, 0, 0);
        for (b, a) in before.iter().zip(after) {
            if a.name.starts_with(prefix) {
                consumed += a.consumed - b.consumed;
                produced += a.produced - b.produced;
                steps += a.steps - b.steps;
                peak = peak.max(a.peak_state);
            }
        }
        out.push(Metric::new(
            format!("ops.{kind}.consumed_per_tuple"),
            per(consumed),
            "1/tuple",
        ));
        out.push(Metric::new(
            format!("ops.{kind}.produced_per_tuple"),
            per(produced),
            "1/tuple",
        ));
        out.push(Metric::new(
            format!("ops.{kind}.steps_per_tuple"),
            per(steps),
            "1/tuple",
        ));
        if kind == "join" {
            out.push(Metric::new(
                "ops.join.peak_state_tuples",
                peak as f64,
                "count",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_pass(mut w: Workload, measured: usize) -> (Tally, Pass) {
        w.measured = measured;
        w.chunk = 100;
        let mut tracer = Tracer::new(Instant::now(), false);
        let mut tally = Tally::default();
        let (mut setups, mut plans) = (Vec::new(), Vec::new());
        let pass = run_pass(
            &w,
            0,
            &mut tracer,
            true,
            &mut tally,
            &mut setups,
            &mut plans,
        );
        (tally, pass)
    }

    #[test]
    fn fanin_output_matches_the_merge_reference() {
        let (tally, pass) = one_pass(fanin_ets(3), 300);
        assert_eq!(tally.failed, 0);
        assert!(
            pass.outputs > 300,
            "warm-up and measured arrivals all delivered"
        );
        let ets = pass.counts.iter().find(|m| m.name == "exec.ets_per_tuple");
        assert_eq!(ets.map(|m| m.value), Some((FANIN_INPUTS - 1) as f64));
    }

    #[test]
    fn join_output_matches_the_nested_loop_reference() {
        let (tally, pass) = one_pass(sparse_join(3), 2_000);
        assert_eq!(tally.failed, 0);
        let traced: Vec<bool> = pass.chunks.iter().map(|c| c.traced).collect();
        assert_eq!(traced[..4], [false, true, false, true]);
        // Only untraced chunks give latency samples.
        assert_eq!(pass.arrival_ms.len(), 1_000);
    }

    #[test]
    fn timed_join_span_holds_sparse_probes_on_every_checked_seed() {
        // The sparse stream is what probes the large dense state; a timed
        // span without it would only measure inserts.
        for seed in (1..=10).chain([crate::report::CLAIM_SEED]) {
            let w = sparse_join(seed);
            let sparse = (w.arrivals)(seed)
                .skip_while(|a| a.tuple.ts.as_micros() <= w.warmup_until_us)
                .take(w.measured)
                .filter(|a| a.input == 1)
                .count();
            assert!(sparse >= 1, "seed {seed}: no sparse arrival timed");
        }
    }
}
