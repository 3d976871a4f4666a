//! Micro-benchmark — parallel execution, across components and within one.
//!
//! Two parallelism axes of the one `PartitionedExecutor` are measured
//! against the same serial baseline:
//!
//! * **workers** (inter-component): ETS backtracking never
//!   crosses a connected-component boundary, so a plan with N independent
//!   components is embarrassingly parallel — one single-threaded
//!   depth-first executor per component. The harness replicates the
//!   paper's filter→union shape into 1→N identical components.
//! * **shards** (intra-component): a *single* component is
//!   key-partitioned across N shard workers behind exchange edges, with
//!   per-worker frontier summaries replacing the per-source ETS/TSM
//!   registers and a timestamp merge re-establishing one ordered output.
//!
//! Methodology: the whole wave cycle — ingest plus drain-to-quiescence —
//! is timed, because both parallel paths pay their channel-send cost on
//! ingest; timing only the drain would flatter them. Configurations are
//! sampled in alternating rounds and the per-configuration minimum is
//! reported, as in `micro_batching`.
//!
//! Honesty: every parallel row records its workers' **busy/idle split**
//! (wall-clock time inside command processing vs blocked on the channel)
//! and an explicit `insufficient_cores` marker whenever the row ran more
//! worker threads than the host has cores — on such hosts real threads
//! cannot speed anything up, so the ≥2× speedup criteria are *skipped*
//! (loudly, never silently un-enforced) and the honest sub-1× numbers are
//! recorded as-is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use millstream_bench::{print_table, quick_mode, write_bench_summary, write_results};
use millstream_core::prelude::*;
use millstream_metrics::Json;

/// Counts deliveries without storing tuples (keeps the sink cost flat).
#[derive(Clone, Default)]
struct Count(Arc<AtomicU64>);

impl SinkCollector for Count {
    fn deliver(&mut self, _tuple: Tuple, _now: Timestamp) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

const WAVES: u64 = 32;
const WAVE_TUPLES: u64 = 512; // per source, per wave
const ROUNDS: usize = 5;

/// Waves per run: `--quick` shrinks the run 4× for CI-bounded sweeps.
fn waves() -> u64 {
    if quick_mode() {
        WAVES / 4
    } else {
        WAVES
    }
}

fn rounds() -> usize {
    if quick_mode() {
        2
    } else {
        ROUNDS
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

/// Appends one copy of the Fig. 4 shape — two sources → one selective
/// filter each → union → sink delivering to `out` — and returns its
/// source pair.
fn append_copy<C: SinkCollector + 'static>(
    b: &mut GraphBuilder,
    c: usize,
    out: C,
) -> (SourceId, SourceId) {
    let schema = schema();
    let s1 = b.source(format!("S{c}a"), schema.clone(), TimestampKind::Internal);
    let s2 = b.source(format!("S{c}b"), schema.clone(), TimestampKind::Internal);
    let pred = Expr::col(0).ge(Expr::lit(0));
    let f1 = b
        .operator(
            Box::new(Filter::new(format!("σ{c}a"), schema.clone(), pred.clone())),
            vec![Input::Source(s1)],
        )
        .unwrap();
    let f2 = b
        .operator(
            Box::new(Filter::new(format!("σ{c}b"), schema.clone(), pred)),
            vec![Input::Source(s2)],
        )
        .unwrap();
    let u = b
        .operator(
            Box::new(Union::new(format!("∪{c}"), schema.clone(), 2)),
            vec![Input::Op(f1), Input::Op(f2)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new(format!("sink{c}"), schema, out)),
        vec![Input::Op(u)],
    )
    .unwrap();
    (s1, s2)
}

/// Builds `n` disjoint copies of the Fig. 4 shape sharing one counting
/// sink. Returns the graph, the source pairs per component and the
/// counter.
fn build(n: usize) -> (QueryGraph, Vec<(SourceId, SourceId)>, Count) {
    let out = Count::default();
    let mut b = GraphBuilder::new();
    let sources = (0..n)
        .map(|c| append_copy(&mut b, c, out.clone()))
        .collect();
    (b.build().unwrap(), sources, out)
}

/// One tuple per (wave, index): a 1-in-32 pass rate, monotone timestamps.
fn tuple_at(n: u64, pass: &Tuple, fail: &Tuple) -> Tuple {
    let ts = Timestamp::from_millis(n);
    let mut t = if n.is_multiple_of(32) {
        pass.clone()
    } else {
        fail.clone()
    };
    t.ts = ts;
    t.entry = ts;
    t
}

struct RunResult {
    tuples: u64,
    delivered: u64,
    secs: f64,
    /// Per worker/shard thread: wall-clock seconds spent busy (command
    /// processing). Empty for the serial baseline, whose only "worker" is
    /// the benchmark thread itself.
    busy_secs: Vec<f64>,
}

fn run_serial(n: usize) -> RunResult {
    let (graph, sources, out) = build(n);
    let mut exec = Executor::new(
        graph,
        VirtualClock::shared(),
        CostModel::default(),
        EtsPolicy::None,
    );
    let pass = Tuple::data(Timestamp::ZERO, vec![Value::Int(1)]);
    let fail = Tuple::data(Timestamp::ZERO, vec![Value::Int(-1)]);
    let mut ingested = 0u64;
    let started = Instant::now();
    for w in 0..waves() {
        for i in 0..WAVE_TUPLES {
            let t = tuple_at(w * WAVE_TUPLES + i, &pass, &fail);
            for &(s1, s2) in &sources {
                exec.ingest(s1, t.clone()).unwrap();
                exec.ingest(s2, t.clone()).unwrap();
                ingested += 2;
            }
        }
        exec.run_until_quiescent(100_000_000).unwrap();
    }
    RunResult {
        tuples: ingested,
        delivered: out.0.load(Ordering::Relaxed),
        secs: started.elapsed().as_secs_f64(),
        busy_secs: Vec::new(),
    }
}

/// `n` components on the partitioned engine. With `partitioning.shards >
/// 1` (and `n == 1`), the one component is key-partitioned across the
/// shards behind exchange edges instead.
fn run_partitioned(n: usize, partitioning: Partitioning) -> RunResult {
    let config = PartitionedConfig::new(CostModel::default(), EtsPolicy::None, partitioning);
    let (mut pex, sources, out) = if partitioning.shards > 1 {
        let out = Count::default();
        let mut pair = None;
        let pex = PartitionedExecutor::sharded(
            |replica, shard_out| {
                let mut b = GraphBuilder::new();
                let ids = append_copy(&mut b, 0, shard_out);
                if replica == 0 {
                    pair = Some(ids);
                }
                b.build()
            },
            schema(),
            Box::new(out.clone()),
            config,
        )
        .unwrap();
        (pex, vec![pair.expect("replica 0 built")], out)
    } else {
        let (graph, sources, out) = build(n);
        let pex = PartitionedExecutor::new(graph, config);
        assert_eq!(pex.num_components(), n, "each copy must be one component");
        (pex, sources, out)
    };
    let pass = Tuple::data(Timestamp::ZERO, vec![Value::Int(1)]);
    let fail = Tuple::data(Timestamp::ZERO, vec![Value::Int(-1)]);
    let mut ingested = 0u64;
    let started = Instant::now();
    for w in 0..waves() {
        for i in 0..WAVE_TUPLES {
            let t = tuple_at(w * WAVE_TUPLES + i, &pass, &fail);
            for &(s1, s2) in &sources {
                pex.ingest(s1, t.clone()).unwrap();
                pex.ingest(s2, t.clone()).unwrap();
                ingested += 2;
            }
        }
        pex.run_until_quiescent(100_000_000).unwrap();
    }
    let secs = started.elapsed().as_secs_f64();
    let busy_secs = pex
        .snapshot()
        .unwrap()
        .worker_busy_nanos
        .iter()
        .map(|&n| n as f64 / 1e9)
        .collect();
    RunResult {
        tuples: ingested,
        delivered: out.0.load(Ordering::Relaxed),
        secs,
        busy_secs,
    }
}

/// `n` components, one worker each.
fn run_parallel(n: usize) -> RunResult {
    run_partitioned(n, Partitioning::workers(n))
}

/// One component, key-partitioned across `shards` exchange-edge workers.
fn run_sharded(shards: usize) -> RunResult {
    run_partitioned(1, Partitioning::sharded(shards))
}

/// Keeps the better (faster) of two samples of the same configuration.
fn keep_min(best: &mut RunResult, sample: RunResult) {
    if sample.secs < best.secs {
        *best = sample;
    }
}

/// JSON row shared by both parallel axes: throughputs, speedup, the
/// workers' busy/idle split over the run, and the honesty marker.
#[allow(clippy::too_many_arguments)]
fn json_row(
    label: (&'static str, f64),
    workers: usize,
    cores: usize,
    s: &RunResult,
    p: &RunResult,
) -> Json {
    let busy: f64 = p.busy_secs.iter().sum();
    let wall = workers as f64 * p.secs;
    Json::obj([
        (label.0, Json::Num(label.1)),
        ("workers", Json::Num(workers as f64)),
        ("serial_tuples_per_sec", Json::Num(s.tuples as f64 / s.secs)),
        (
            "parallel_tuples_per_sec",
            Json::Num(p.tuples as f64 / p.secs),
        ),
        ("parallel_speedup", Json::Num(s.secs / p.secs)),
        ("delivered", Json::Num(s.delivered as f64)),
        ("worker_busy_secs", Json::Num(busy)),
        ("worker_idle_secs", Json::Num((wall - busy).max(0.0))),
        (
            "busy_fraction",
            Json::Num(if wall > 0.0 { busy / wall } else { 0.0 }),
        ),
        ("insufficient_cores", Json::Bool(workers > cores)),
    ])
}

fn table_row(
    name: String,
    s: &RunResult,
    p: &RunResult,
    workers: usize,
    cores: usize,
) -> Vec<String> {
    let busy: f64 = p.busy_secs.iter().sum();
    let wall = workers as f64 * p.secs;
    let marker = if workers > cores { " ⚠cores" } else { "" };
    vec![
        name,
        format!("{:.2}", s.secs * 1e3),
        format!("{:.2}M", s.tuples as f64 / s.secs / 1e6),
        format!("{:.2}", p.secs * 1e3),
        format!("{:.2}M", p.tuples as f64 / p.secs / 1e6),
        format!("{:.2}x", s.secs / p.secs),
        format!("{:.0}%{marker}", 100.0 * busy / wall.max(f64::MIN_POSITIVE)),
    ]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("millstream micro-benchmark — partitioned execution across components (workers) and within one (shards)");
    println!(
        "filter→union shape, {} tuples per component per run, best of {} interleaved rounds, {cores} core(s){}\n",
        2 * waves() * WAVE_TUPLES,
        rounds(),
        if quick_mode() { " (quick mode)" } else { "" }
    );

    // Warm up the allocator, caches and thread spawning before timing.
    let _ = run_serial(1);
    let _ = run_parallel(1);
    let _ = run_sharded(2);

    let ns = [1usize, 2, 4];
    let shard_ns = [1usize, 2, 4];
    let mut serial: Vec<RunResult> = ns.iter().map(|&n| run_serial(n)).collect();
    let mut parallel: Vec<RunResult> = ns.iter().map(|&n| run_parallel(n)).collect();
    let mut sharded: Vec<RunResult> = shard_ns.iter().map(|&n| run_sharded(n)).collect();
    for _ in 1..rounds() {
        for (i, &n) in ns.iter().enumerate() {
            keep_min(&mut serial[i], run_serial(n));
            keep_min(&mut parallel[i], run_parallel(n));
        }
        for (i, &n) in shard_ns.iter().enumerate() {
            keep_min(&mut sharded[i], run_sharded(n));
        }
    }

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let (s, p) = (&serial[i], &parallel[i]);
        assert_eq!(
            s.delivered, p.delivered,
            "serial and parallel must deliver identical output at N={n}"
        );
        rows.push(table_row(format!("N={n} comps"), s, p, n, cores));
        json_rows.push(json_row(("components", n as f64), n, cores, s, p));
    }
    let mut shard_rows = Vec::new();
    let mut shard_json = Vec::new();
    for (i, &n) in shard_ns.iter().enumerate() {
        let (s, p) = (&serial[0], &sharded[i]);
        assert_eq!(
            s.delivered, p.delivered,
            "serial and sharded must deliver identical output at shards={n}"
        );
        shard_rows.push(table_row(format!("{n} shard(s)"), s, p, n, cores));
        shard_json.push(json_row(("shards", n as f64), n, cores, s, p));
    }
    print_table(
        "aggregate tuple throughput, serial vs one worker per component",
        &[
            "components",
            "serial ms",
            "serial t/s",
            "parallel ms",
            "parallel t/s",
            "speedup",
            "busy",
        ],
        &rows,
    );
    print_table(
        "single-component throughput, serial vs key-partitioned exchange shards",
        &[
            "exchange",
            "serial ms",
            "serial t/s",
            "sharded ms",
            "sharded t/s",
            "speedup",
            "busy",
        ],
        &shard_rows,
    );

    let summary = Json::obj([
        (
            "tuples_per_component",
            Json::Num((2 * waves() * WAVE_TUPLES) as f64),
        ),
        ("host_cores", Json::Num(cores as f64)),
        ("quick", Json::Bool(quick_mode())),
        ("speedup_assert_enforced", Json::Bool(cores >= 4)),
        ("insufficient_cores", Json::Bool(cores < 4)),
        ("rows", Json::Arr(json_rows)),
        ("sharded_rows", Json::Arr(shard_json)),
    ]);
    write_results("micro_components", summary.clone());
    write_bench_summary("components", summary);

    let speedup4 = serial[2].secs / parallel[2].secs;
    let shard_speedup4 = serial[0].secs / sharded[2].secs;
    if cores >= 4 {
        assert!(
            speedup4 >= 2.0,
            "4 components on 4 workers must at least double aggregate throughput, got {speedup4:.2}x"
        );
        assert!(
            shard_speedup4 >= 2.0,
            "4 exchange shards must at least double single-component throughput, got {shard_speedup4:.2}x"
        );
        println!(
            "\nshape checks passed: identical output everywhere; N=4 components {speedup4:.2}x, 4 shards {shard_speedup4:.2}x vs serial"
        );
    } else {
        println!(
            "\nshape checks passed: identical output everywhere; speedups recorded WITHOUT asserting \
             (insufficient_cores: criteria need ≥4 cores, host has {cores}) — \
             N=4 components {speedup4:.2}x, 4 shards {shard_speedup4:.2}x"
        );
    }
}
