//! Differential test: the ingest-path semantics of the
//! [`PartitionedExecutor`] must match the serial [`Executor`] exactly —
//! closed-source errors, punctuation-misuse errors, out-of-order errors,
//! stale-heartbeat drops and the `dropped_stale_heartbeats` counter all
//! have to survive the command channel and merge correctly into
//! [`millstream_exec::PartitionedSnapshot`].
//!
//! Every backend reports an ingest error from the call itself, with the
//! serial executor's error, never deferred to the next barrier.

use std::sync::{Arc, Mutex};

use millstream_exec::{
    CostModel, EtsPolicy, ExecStats, Executor, GraphBuilder, Input, PartitionedConfig,
    PartitionedExecutor, Partitioning, QueryGraph, SourceId, VirtualClock,
};
use millstream_ops::{Sink, SinkCollector, Union};
use millstream_types::{DataType, Error, Field, Schema, Timestamp, TimestampKind, Tuple, Value};

#[derive(Clone, Default)]
struct Out(Arc<Mutex<Vec<Tuple>>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.0.lock().unwrap().push(tuple);
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

/// S1, S2 → ∪ → sink — one component, so every backend hosts the same
/// graph shape.
fn union_graph<C: SinkCollector + 'static>(out: C) -> (QueryGraph, [SourceId; 2]) {
    let mut b = GraphBuilder::new();
    let s1 = b.source("S1", schema(), TimestampKind::Internal);
    let s2 = b.source("S2", schema(), TimestampKind::Internal);
    let u = b
        .operator(
            Box::new(Union::new("∪", schema(), 2)),
            vec![Input::Source(s1), Input::Source(s2)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink", schema(), out)),
        vec![Input::Op(u)],
    )
    .unwrap();
    (b.build().unwrap(), [s1, s2])
}

fn data(ts: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
}

fn partitioned_config(partitioning: Partitioning) -> PartitionedConfig {
    PartitionedConfig::new(CostModel::free(), EtsPolicy::None, partitioning)
}

/// A uniform driver interface over the backend matrix so the same script
/// runs verbatim against each.
enum Backend {
    Serial(Box<Executor>),
    Partitioned(Box<PartitionedExecutor>),
}

/// The backend matrix: serial, two workers, two key shards.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Serial,
    Workers,
    Shards,
}

const KINDS: [Kind; 3] = [Kind::Serial, Kind::Workers, Kind::Shards];

impl Backend {
    fn build(kind: Kind) -> (Backend, [SourceId; 2], Out) {
        let out = Out::default();
        let (graph, ids) = union_graph(out.clone());
        let backend = match kind {
            Kind::Serial => Backend::Serial(Box::new(Executor::new(
                graph,
                VirtualClock::shared(),
                CostModel::free(),
                EtsPolicy::None,
            ))),
            Kind::Workers => Backend::Partitioned(Box::new(PartitionedExecutor::new(
                graph,
                partitioned_config(Partitioning::workers(2)),
            ))),
            Kind::Shards => Backend::Partitioned(Box::new(
                PartitionedExecutor::sharded(
                    |_, shard_out| Ok(union_graph(shard_out).0),
                    schema(),
                    Box::new(out.clone()),
                    partitioned_config(Partitioning::sharded(2)),
                )
                .unwrap(),
            )),
        };
        (backend, ids, out)
    }

    /// Ingest without running.
    fn push(&mut self, s: SourceId, t: Tuple) -> Result<(), Error> {
        match self {
            Backend::Serial(e) => {
                e.clock().advance_to(t.ts);
                e.ingest(s, t)
            }
            Backend::Partitioned(p) => {
                p.advance_to(t.ts)?;
                p.ingest(s, t)
            }
        }
    }

    fn run(&mut self) -> Result<(), Error> {
        match self {
            Backend::Serial(e) => e.run_until_quiescent(1_000_000).map(|_| ()),
            Backend::Partitioned(p) => p.run_until_quiescent(1_000_000).map(|_| ()),
        }
    }

    /// Ingest + run to quiescence, reporting any error either side raises.
    fn ingest(&mut self, s: SourceId, t: Tuple) -> Result<(), Error> {
        self.push(s, t)?;
        self.run()
    }

    fn heartbeat(&mut self, s: SourceId, ts: Timestamp) -> Result<(), Error> {
        match self {
            Backend::Serial(e) => e.ingest_heartbeat(s, ts)?,
            Backend::Partitioned(p) => p.ingest_heartbeat(s, ts)?,
        }
        self.run()
    }

    fn close(&mut self, s: SourceId) -> Result<(), Error> {
        match self {
            Backend::Serial(e) => e.close_source(s)?,
            Backend::Partitioned(p) => p.close_source(s)?,
        }
        self.run()
    }

    fn stats(&mut self) -> ExecStats {
        match self {
            Backend::Serial(e) => e.stats(),
            Backend::Partitioned(p) => p.snapshot().unwrap().stats,
        }
    }
}

/// Runs the same ingest script against a backend, returning per-step
/// outcomes (Ok/Err with message) plus the final stats and deliveries.
fn run_script(kind: Kind) -> (Vec<Result<(), String>>, ExecStats, Vec<Tuple>) {
    let (mut b, [s1, s2], out) = Backend::build(kind);
    let mut log = Vec::new();
    let step = |r: Result<(), Error>| -> Result<(), String> { r.map_err(|e| e.to_string()) };

    // Normal data flow.
    log.push(step(b.ingest(s1, data(10))));
    log.push(step(b.ingest(s2, data(20))));
    // Stale heartbeats: below S1's data high-water, then at (== duplicate
    // of) an already-asserted punctuation mark. Both are silent drops that
    // must bump the counter.
    log.push(step(b.heartbeat(s1, Timestamp::from_micros(5))));
    log.push(step(b.heartbeat(s1, Timestamp::from_micros(30))));
    log.push(step(b.heartbeat(s1, Timestamp::from_micros(30))));
    // Punctuation misuse through the data path: a structured error.
    log.push(step(
        b.ingest(s2, Tuple::punctuation(Timestamp::from_micros(40))),
    ));
    // Close S2, then every further touch of it errors.
    log.push(step(b.close(s2)));
    log.push(step(b.ingest(s2, data(50))));
    log.push(step(b.heartbeat(s2, Timestamp::from_micros(60))));
    // Closing twice stays idempotent, and S1 still works.
    log.push(step(b.close(s2)));
    log.push(step(b.ingest(s1, data(70))));
    log.push(step(b.close(s1)));

    let stats = b.stats();
    let delivered = out.0.lock().unwrap().clone();
    (log, stats, delivered)
}

#[test]
fn parallel_ingest_semantics_match_serial() {
    let (s_log, s_stats, s_del) = run_script(Kind::Serial);
    for kind in [Kind::Workers, Kind::Shards] {
        let (p_log, p_stats, p_del) = run_script(kind);
        assert_eq!(
            s_log, p_log,
            "{kind:?}: identical per-step outcomes (incl. messages)"
        );
        assert_eq!(s_del, p_del, "{kind:?}: identical deliveries");
        // The merge stage of a sharded engine runs an executor of its own,
        // so only the unsharded counters can match the serial ones.
        if kind == Kind::Workers {
            assert_eq!(s_stats, p_stats, "identical merged stats");
        }
    }

    // Spot-check the interesting outcomes are what the serial contract
    // promises (so the differential test cannot vacuously pass on two
    // equally wrong backends).
    assert!(s_log[0].is_ok() && s_log[1].is_ok());
    assert!(
        s_log[2].is_ok() && s_log[3].is_ok() && s_log[4].is_ok(),
        "stale heartbeats are silent drops"
    );
    assert_eq!(
        s_stats.dropped_stale_heartbeats, 2,
        "one below data high-water, one duplicate punctuation; the first \
         heartbeat at 30 is fresh"
    );
    let misuse = s_log[5].as_ref().unwrap_err();
    assert!(misuse.contains("ingest_heartbeat"), "{misuse}");
    assert!(s_log[6].is_ok(), "close is clean");
    let closed = s_log[7].as_ref().unwrap_err();
    assert!(closed.contains("closed"), "{closed}");
    let closed_hb = s_log[8].as_ref().unwrap_err();
    assert!(closed_hb.contains("closed"), "{closed_hb}");
    assert!(s_log[9].is_ok(), "double close is idempotent");
    assert!(s_log[10].is_ok(), "the open source still ingests");
}

/// An ingest error is returned by the ingest call itself on every backend,
/// before any run: the partitioned engine checks the serial contract at
/// the router instead of deferring the error to the next barrier.
#[test]
fn ingest_without_run_returns_the_error() {
    let mut outcomes = Vec::new();
    for kind in KINDS {
        let (mut b, [s1, s2], _) = Backend::build(kind);
        b.push(s1, data(100)).unwrap();
        let late = b.push(s1, data(50)).unwrap_err();
        assert!(
            matches!(late, Error::OutOfOrder { got: 50, .. }),
            "{kind:?}: {late}"
        );
        b.push(s2, data(100)).unwrap();
        match &mut b {
            Backend::Serial(e) => e.close_source(s2).unwrap(),
            Backend::Partitioned(p) => p.close_source(s2).unwrap(),
        }
        let closed = b.push(s2, data(200)).unwrap_err();
        // Nothing was left behind for the barrier.
        b.run().unwrap();
        outcomes.push((late.to_string(), closed.to_string()));
    }
    assert!(outcomes[0].1.contains("closed"), "{:?}", outcomes[0]);
    assert!(
        outcomes.iter().all(|o| *o == outcomes[0]),
        "identical errors on every backend: {outcomes:?}"
    );
}

/// The counter must also merge across *components*: two independent
/// streams each dropping stale heartbeats on different workers sum into
/// one `PartitionedSnapshot` figure.
#[test]
fn stale_heartbeat_counter_merges_across_components() {
    let mut b = GraphBuilder::new();
    let s1 = b.source("A", schema(), TimestampKind::Internal);
    let s2 = b.source("B", schema(), TimestampKind::Internal);
    for (s, name) in [(s1, "sink-a"), (s2, "sink-b")] {
        b.operator(
            Box::new(Sink::new(name, schema(), Out::default())),
            vec![Input::Source(s)],
        )
        .unwrap();
    }
    let mut pex = PartitionedExecutor::new(
        b.build().unwrap(),
        partitioned_config(Partitioning::workers(2)),
    );
    assert_eq!(pex.num_components(), 2);
    for s in [s1, s2] {
        pex.ingest(s, data(100)).unwrap();
        pex.ingest_heartbeat(s, Timestamp::from_micros(10)).unwrap(); // stale
    }
    pex.run_until_quiescent(1_000_000).unwrap();
    let snap = pex.snapshot().unwrap();
    assert_eq!(snap.stats.dropped_stale_heartbeats, 2);
    assert_eq!(
        snap.slot_stats
            .iter()
            .map(|s| s.dropped_stale_heartbeats)
            .collect::<Vec<_>>(),
        vec![1, 1],
        "one drop on each worker"
    );
}

/// `ingest_batch` must be equivalent to the same tuples fed one at a time
/// — identical deliveries and stats — while crossing the worker channel in
/// far fewer commands.
#[test]
fn batched_ingest_matches_tuple_at_a_time() {
    const N: u64 = 100;
    let ts = |src: u64, i: u64| (i * 2 + src + 1) * 10;
    let engine =
        |graph| PartitionedExecutor::new(graph, partitioned_config(Partitioning::workers(2)));

    // Reference: tuple-at-a-time through the coalescing `ingest` path.
    let out_a = Out::default();
    let (graph, [a1, a2]) = union_graph(out_a.clone());
    let mut pex_a = engine(graph);
    for i in 0..N {
        pex_a.ingest(a1, data(ts(0, i))).unwrap();
        pex_a.ingest(a2, data(ts(1, i))).unwrap();
    }

    // Batched: the same tuples in runs of 25 per source.
    let out_b = Out::default();
    let (graph, [b1, b2]) = union_graph(out_b.clone());
    let mut pex_b = engine(graph);
    // Seed the coalescing buffer so at least one batch exercises the
    // merge-with-pending branch instead of the ship-as-is fast path.
    pex_b.ingest(b1, data(ts(0, 0))).unwrap();
    for chunk in 0..4 {
        let run = |src: u64, skip: u64| -> Vec<Tuple> {
            (chunk * 25..(chunk + 1) * 25)
                .filter(|&i| i >= skip)
                .map(|i| data(ts(src, i)))
                .collect()
        };
        pex_b.ingest_batch(b1, run(0, 1)).unwrap();
        pex_b.ingest_batch(b2, run(1, 0)).unwrap();
    }

    for (pex, [s1, s2]) in [(&mut pex_a, [a1, a2]), (&mut pex_b, [b1, b2])] {
        pex.advance_to(Timestamp::from_micros(ts(1, N - 1)))
            .unwrap();
        pex.close_source(s1).unwrap();
        pex.close_source(s2).unwrap();
        pex.run_until_quiescent(1_000_000).unwrap();
    }

    let del_a = out_a.0.lock().unwrap().clone();
    let del_b = out_b.0.lock().unwrap().clone();
    assert_eq!(del_a.len(), (2 * N) as usize);
    assert_eq!(del_a, del_b, "batched ingest changes no delivery");
    assert_eq!(
        pex_a.snapshot().unwrap().stats,
        pex_b.snapshot().unwrap().stats,
        "batched ingest changes no counter"
    );
    // 200 tuples crossed in a handful of Ingest commands; everything else
    // is advance/close/run traffic, nowhere near one command per tuple.
    assert!(
        pex_b.commands_sent() <= 20,
        "batched path sent {} commands",
        pex_b.commands_sent()
    );
    // An out-of-order tuple inside a run fails the call; the tuples
    // before it stay accepted, as on the serial executor.
    let out_c = Out::default();
    let (graph, [c1, _]) = union_graph(out_c.clone());
    let mut pex_c = engine(graph);
    let err = pex_c
        .ingest_batch(c1, vec![data(10), data(20), data(15), data(30)])
        .unwrap_err();
    assert!(matches!(err, Error::OutOfOrder { got: 15, .. }), "{err}");
    pex_c.run_until_quiescent(1_000_000).unwrap();
    assert_eq!(pex_c.snapshot().unwrap().ingested_per_source, vec![2, 0]);
}
