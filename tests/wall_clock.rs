//! Wall-clock validation (EXPERIMENTS.md A7): the paper's Fig. 4 union on
//! the partitioned engine's worker threads, with the clock set to elapsed
//! wall microseconds instead of virtual time. A fast source ingests every
//! 2 ms while the slow source stays silent, so the union can only release
//! a fast tuple once the slow input is bounded:
//!
//! * on-demand ETS bounds it at once — every fast tuple is delivered at
//!   sub-millisecond mean wall latency;
//! * without ETS nothing is delivered until the slow source closes;
//! * periodic heartbeats on the slow source bound the latency by the
//!   heartbeat period.
//!
//! The virtual-time results of the simulator hold on the wall clock.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use millstream_core::prelude::*;

/// Gap between fast-source arrivals.
const ARRIVAL_GAP: Duration = Duration::from_millis(2);
/// Fast tuples per run.
const ARRIVALS: usize = 40;

/// Records each delivery as `(timestamp, wall latency)`, both in µs: the
/// tuple's timestamp is its wall arrival time, the latency is elapsed wall
/// time at delivery minus that.
#[derive(Clone)]
struct WallSink {
    epoch: Instant,
    delivered: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl SinkCollector for WallSink {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let wall_us = self.epoch.elapsed().as_micros() as u64;
        let ts = tuple.ts.as_micros();
        self.delivered
            .lock()
            .unwrap()
            .push((ts, wall_us.saturating_sub(ts)));
    }
}

impl WallSink {
    fn delivered(&self) -> Vec<(u64, u64)> {
        self.delivered.lock().unwrap().clone()
    }
}

/// Fast and slow sources → ∪ → sink, on the partitioned engine.
struct Rig {
    engine: PartitionedExecutor,
    fast: SourceId,
    slow: SourceId,
    sink: WallSink,
}

impl Rig {
    fn start(policy: EtsPolicy) -> Rig {
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let mut b = GraphBuilder::new();
        let fast = b.source("fast", schema.clone(), TimestampKind::Internal);
        let slow = b.source("slow", schema.clone(), TimestampKind::Internal);
        let u = b
            .operator(
                Box::new(Union::new("∪", schema.clone(), 2)),
                vec![Input::Source(fast), Input::Source(slow)],
            )
            .unwrap();
        let sink = WallSink {
            epoch: Instant::now(),
            delivered: Arc::default(),
        };
        b.operator(
            Box::new(Sink::new("sink", schema, sink.clone())),
            vec![Input::Op(u)],
        )
        .unwrap();
        let engine = PartitionedExecutor::new(
            b.build().unwrap(),
            PartitionedConfig::new(CostModel::free(), policy, Partitioning::workers(2)),
        );
        Rig {
            engine,
            fast,
            slow,
            sink,
        }
    }

    /// Elapsed wall time as an engine timestamp.
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.sink.epoch.elapsed().as_micros() as u64)
    }

    /// Ingests `ARRIVALS` fast tuples `ARRIVAL_GAP` apart, advancing the
    /// engine clock to wall time and running it after each. With a
    /// `heartbeat` period, the slow source heartbeats at wall time once per
    /// period. Returns the longest driver iteration and the last
    /// heartbeat's timestamp.
    fn drive(&mut self, heartbeat: Option<TimeDelta>) -> (Duration, Option<Timestamp>) {
        let mut next_heartbeat = heartbeat.map(|p| self.now() + p);
        let mut last_heartbeat = None;
        let mut longest = Duration::ZERO;
        for i in 0..ARRIVALS {
            let started = Instant::now();
            let now = self.now();
            self.engine.advance_to(now).unwrap();
            self.engine
                .ingest(self.fast, Tuple::data(now, vec![Value::Int(i as i64)]))
                .unwrap();
            if let (Some(period), Some(due)) = (heartbeat, next_heartbeat) {
                if now >= due {
                    self.engine.ingest_heartbeat(self.slow, now).unwrap();
                    last_heartbeat = Some(now);
                    next_heartbeat = Some(now + period);
                }
            }
            self.engine.run_until_quiescent(u64::MAX).unwrap();
            std::thread::sleep(ARRIVAL_GAP);
            longest = longest.max(started.elapsed());
        }
        (longest, last_heartbeat)
    }

    fn close(&mut self) {
        self.engine.advance_to(self.now()).unwrap();
        self.engine.close_source(self.fast).unwrap();
        self.engine.close_source(self.slow).unwrap();
        self.engine.run_until_quiescent(u64::MAX).unwrap();
    }
}

#[test]
fn on_demand_vs_no_ets_on_the_wall_clock() {
    // On-demand: the union's backtrack bounds the silent slow source at
    // wall time, so every fast tuple leaves in the run that ingested it.
    let mut rig = Rig::start(EtsPolicy::on_demand());
    rig.drive(None);
    let on_demand = rig.sink.delivered();
    rig.close();
    assert_eq!(on_demand.len(), ARRIVALS, "every fast tuple delivered");
    let mean_ms = on_demand.iter().map(|&(_, l)| l).sum::<u64>() as f64 / ARRIVALS as f64 / 1e3;
    assert!(mean_ms < 1.0, "on-demand mean wall latency {mean_ms:.3} ms");
    assert!(rig.engine.snapshot().unwrap().stats.ets_generated > 0);

    // No ETS: the union idle-waits on the slow source until it closes.
    let mut rig = Rig::start(EtsPolicy::None);
    rig.drive(None);
    assert!(
        rig.sink.delivered().is_empty(),
        "nothing passes the union while the slow source is silent"
    );
    rig.close();
    assert_eq!(rig.sink.delivered().len(), ARRIVALS, "close releases all");
}

#[test]
fn heartbeats_bound_wall_clock_latency() {
    let period = TimeDelta::from_millis(10);
    let mut rig = Rig::start(EtsPolicy::None);
    let (longest, last_heartbeat) = rig.drive(Some(period));
    rig.close();
    let delivered = rig.sink.delivered();
    assert_eq!(delivered.len(), ARRIVALS);
    // A tuple waits for the next heartbeat: at most one period after the
    // previous one, plus the iteration before the driver sees it due, plus
    // the iteration that injects it and runs the engine. Tuples after the
    // last heartbeat are released by the close instead.
    let last_heartbeat = last_heartbeat.expect("heartbeats were due").as_micros();
    let bound = period.as_micros() + 2 * longest.as_micros() as u64;
    let heartbeat_released: Vec<u64> = delivered
        .iter()
        .filter(|&&(ts, _)| ts <= last_heartbeat)
        .map(|&(_, latency)| latency)
        .collect();
    assert!(heartbeat_released.len() >= ARRIVALS / 2);
    let worst = heartbeat_released.iter().copied().max().unwrap();
    assert!(
        worst <= bound,
        "heartbeat-bounded latency: worst {worst} µs > bound {bound} µs"
    );
}
