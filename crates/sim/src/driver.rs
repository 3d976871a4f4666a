//! The discrete-event simulation driver.
//!
//! Plays the role of the paper's external wrappers and of wall-clock time:
//! it schedules stochastic arrivals (and, for experiment line B, periodic
//! heartbeats), delivers them to the executor's source buffers, and
//! interleaves event delivery with single executor steps so that CPU
//! contention is modelled at microsecond granularity. When the executor is
//! quiescent the virtual clock jumps to the next event — this jump *is* the
//! idle-waiting the paper measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use millstream_exec::{
    Activity, ExecStats, Executor, NodeId, PartitionedConfig, PartitionedExecutor, QueryGraph,
    SourceId,
};
use millstream_metrics::{LatencyRecorder, RunMetrics};
use millstream_ops::SinkCollector;
use millstream_types::{Result, Schema, TimeDelta, Timestamp, TimestampKind, Tuple};

use crate::events::{Event, EventKind, EventQueue};
use crate::workload::{ArrivalProcess, PayloadGen};

/// Description of one input stream fed by the driver.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name (matches the graph source).
    pub name: String,
    /// Row schema.
    pub schema: Schema,
    /// Timestamp discipline.
    pub kind: TimestampKind,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Payload generator.
    pub payload: PayloadGen,
    /// If set, periodic heartbeat punctuation is injected into this stream
    /// at the given period (experiment line B).
    pub heartbeat_period: Option<TimeDelta>,
    /// For [`TimestampKind::External`] streams: fixed transfer delay
    /// between the application timestamp and physical arrival at the DSMS.
    pub external_delay: TimeDelta,
    /// For [`TimestampKind::External`] streams: additional *random* delay
    /// sampled uniformly in `[0, external_jitter]` per tuple. A non-zero
    /// jitter produces genuinely out-of-order application timestamps, so
    /// the graph source must be unordered and feed a `Reorder` stage.
    pub external_jitter: TimeDelta,
}

impl StreamSpec {
    /// A minimal internal-timestamped stream.
    pub fn internal(
        name: impl Into<String>,
        schema: Schema,
        process: ArrivalProcess,
        payload: PayloadGen,
    ) -> Self {
        StreamSpec {
            name: name.into(),
            schema,
            kind: TimestampKind::Internal,
            process,
            payload,
            heartbeat_period: None,
            external_delay: TimeDelta::ZERO,
            external_jitter: TimeDelta::ZERO,
        }
    }
}

/// Sink collector that records latency into a shared recorder, usable both
/// by the driver (to read) and the sink (to write).
#[derive(Clone, Default)]
pub struct SharedLatencyCollector {
    recorder: Arc<Mutex<LatencyRecorder>>,
    delivered: Arc<AtomicU64>,
}

impl SharedLatencyCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of data tuples delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorder.
    pub fn recorder(&self) -> LatencyRecorder {
        self.recorder.lock().unwrap().clone()
    }
}

impl SinkCollector for SharedLatencyCollector {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.recorder
            .lock()
            .unwrap()
            .record(now.duration_since(tuple.entry));
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

struct StreamRuntime {
    spec: StreamSpec,
    source: SourceId,
    seq: u64,
    /// Tuples delivered at the pending arrival epoch.
    pending_batch: u32,
    /// Monotonization floor for external application timestamps.
    last_app_ts: Timestamp,
    ingested: u64,
    heartbeats: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The paper-style combined metrics.
    pub metrics: RunMetrics,
    /// Executor counters.
    pub exec: ExecStats,
    /// On-demand ETS generated per source (by stream index).
    pub ets_per_stream: Vec<u64>,
    /// Heartbeats injected per stream (line B).
    pub heartbeats_per_stream: Vec<u64>,
    /// Data tuples ingested per stream.
    pub ingested_per_stream: Vec<u64>,
}

/// Drives an [`Executor`] with stochastic arrivals on a virtual timeline.
pub struct Simulation {
    executor: Executor,
    events: EventQueue,
    rng: SmallRng,
    streams: Vec<StreamRuntime>,
    collector: SharedLatencyCollector,
    monitor: Option<NodeId>,
    end: Timestamp,
}

impl Simulation {
    /// Creates a simulation over a prepared executor.
    ///
    /// * `streams` pairs each graph source with its workload spec;
    /// * `collector` must be the collector installed in the graph's sink;
    /// * `monitor` selects the IWP node whose idle-waiting is tracked.
    pub fn new(
        mut executor: Executor,
        streams: Vec<(SourceId, StreamSpec)>,
        collector: SharedLatencyCollector,
        monitor: Option<NodeId>,
        seed: u64,
    ) -> Result<Self> {
        for (_, spec) in &streams {
            spec.process.validate()?;
        }
        if let Some(node) = monitor {
            executor.monitor_idle(node);
        }
        Ok(Simulation {
            executor,
            events: EventQueue::new(),
            rng: SmallRng::seed_from_u64(seed),
            streams: streams
                .into_iter()
                .map(|(source, spec)| StreamRuntime {
                    spec,
                    source,
                    seq: 0,
                    pending_batch: 1,
                    last_app_ts: Timestamp::ZERO,
                    ingested: 0,
                    heartbeats: 0,
                })
                .collect(),
            collector,
            monitor,
            end: Timestamp::ZERO,
        })
    }

    /// Access to the executor (e.g. for graph inspection after a run).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Runs for `duration` of virtual time and reports the metrics.
    pub fn run(&mut self, duration: TimeDelta) -> Result<SimReport> {
        self.end = self.executor.clock().now() + duration;
        self.schedule_initial();

        loop {
            // Deliver everything due at the current instant.
            let now = self.executor.clock().now();
            while let Some(event) = self.events.pop_due(now) {
                self.handle(event)?;
            }
            if self.executor.step()? == Activity::Quiescent {
                match self.events.peek_time() {
                    Some(t) => self.executor.clock().advance_to(t),
                    None => break,
                }
            }
        }
        self.executor.finish_idle();
        Ok(self.report())
    }

    fn schedule_initial(&mut self) {
        let start = self.executor.clock().now();
        for (i, s) in self.streams.iter_mut().enumerate() {
            let (gap, batch) = s.spec.process.next_arrival(&mut self.rng);
            s.pending_batch = batch;
            let t = start + gap;
            if t <= self.end {
                self.events.push(Event {
                    time: t,
                    kind: EventKind::Arrival { stream: i },
                });
            }
            if let Some(period) = s.spec.heartbeat_period {
                let t = start + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream: i },
                    });
                }
            }
        }
    }

    fn handle(&mut self, event: Event) -> Result<()> {
        match event.kind {
            EventKind::Arrival { stream } => {
                let batch = self.streams[stream].pending_batch;
                for _ in 0..batch {
                    self.ingest_one(stream, event.time)?;
                }
                // Schedule the next epoch relative to this one's nominal
                // time (the arrival process is exogenous to CPU load).
                let (gap, next_batch) = self.streams[stream]
                    .spec
                    .process
                    .next_arrival(&mut self.rng);
                let t = event.time + gap;
                if t <= self.end {
                    self.streams[stream].pending_batch = next_batch;
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Arrival { stream },
                    });
                }
            }
            EventKind::Heartbeat { stream } => {
                // Heartbeats are stamped by the wrapper's clock on entry.
                let now = self.executor.clock().now();
                let source = self.streams[stream].source;
                self.executor.ingest_heartbeat(source, now)?;
                self.streams[stream].heartbeats += 1;
                let period = self.streams[stream]
                    .spec
                    .heartbeat_period
                    .expect("heartbeat event only scheduled with a period");
                let t = event.time + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream },
                    });
                }
            }
        }
        Ok(())
    }

    fn ingest_one(&mut self, stream: usize, event_time: Timestamp) -> Result<()> {
        let now = self.executor.clock().now();
        let tuple = synthesize_tuple(&mut self.streams[stream], &mut self.rng, event_time, now);
        self.executor.ingest(self.streams[stream].source, tuple)
    }

    fn report(&self) -> SimReport {
        let clock_end = self.executor.clock().now();
        let graph = self.executor.graph();
        let idle = self
            .monitor
            .and_then(|n| self.executor.idle_tracker(n))
            .map(|t| t.summarize(clock_end))
            .unwrap_or(millstream_metrics::IdleSummary {
                idle_fraction: 0.0,
                episodes: 0,
                longest_episode_ms: 0.0,
                total_idle_ms: 0.0,
            });
        let exec = self.executor.stats();
        SimReport {
            metrics: RunMetrics {
                latency: self.collector.recorder().summarize(),
                idle,
                peak_queue_tuples: graph.tracker().peak(),
                punctuation_enqueued: graph.tracker().punctuation_enqueued(),
                delivered: self.collector.delivered(),
                run_seconds: clock_end.as_secs_f64(),
                work_units: exec.work_units,
            },
            exec,
            ets_per_stream: self
                .streams
                .iter()
                .map(|s| graph.source(s.source).ets_generated)
                .collect(),
            heartbeats_per_stream: self.streams.iter().map(|s| s.heartbeats).collect(),
            ingested_per_stream: self.streams.iter().map(|s| s.ingested).collect(),
        }
    }
}

/// Builds the next tuple for `s` arriving nominally at `event_time`, with
/// `now` as the wrapper's entry clock. Shared by the serial and parallel
/// drivers so both synthesize identical payload/timestamp sequences from
/// the same seed.
fn synthesize_tuple(
    s: &mut StreamRuntime,
    rng: &mut SmallRng,
    event_time: Timestamp,
    now: Timestamp,
) -> Tuple {
    let row = s.spec.payload.generate(rng, s.seq);
    s.seq += 1;
    s.ingested += 1;
    match s.spec.kind {
        // Internal timestamps are assigned from the system clock on
        // entry; entry time equals the timestamp.
        TimestampKind::Internal => Tuple::data(now, row),
        // Latent streams carry no meaningful timestamp yet; stamp the
        // entry clock so ordering bookkeeping stays trivial.
        TimestampKind::Latent => Tuple::data(now, row),
        TimestampKind::External => {
            let jitter = s.spec.external_jitter.as_micros();
            if jitter == 0 {
                // Application timestamp precedes physical arrival by the
                // configured transfer delay; monotonized defensively.
                let app = event_time
                    .saturating_sub(s.spec.external_delay)
                    .max(s.last_app_ts);
                s.last_app_ts = app;
                Tuple::data_with_entry(app, now, row)
            } else {
                // Random per-tuple delay: application timestamps arrive
                // genuinely out of order (bounded by the jitter span);
                // the graph's Reorder stage restores the contract.
                use rand::Rng;
                let extra = TimeDelta::from_micros(rng.gen_range(0..=jitter));
                let app = event_time
                    .saturating_sub(s.spec.external_delay)
                    .saturating_sub(extra);
                Tuple::data_with_entry(app, now, row)
            }
        }
    }
}

/// Drives a [`PartitionedExecutor`] with the same stochastic event calendar
/// as [`Simulation`], one arrival epoch at a time.
///
/// Where the serial driver interleaves event delivery with *single*
/// executor steps (modelling one CPU contended by every operator), the
/// parallel driver has no shared CPU to contend for: each component runs
/// on its own worker with a private virtual clock. The driver therefore
/// advances in **epochs** — deliver everything due at the next event time,
/// then run every component to quiescence in parallel — and stamps
/// entry/internal timestamps with the nominal event time rather than a
/// CPU-lagged clock. With the same seed, payload and arrival sequences are
/// identical to the serial driver's; only the CPU-contention model
/// differs.
pub struct ParallelSimulation {
    pex: PartitionedExecutor,
    events: EventQueue,
    rng: SmallRng,
    streams: Vec<StreamRuntime>,
    collector: SharedLatencyCollector,
    monitor: Option<NodeId>,
    end: Timestamp,
}

impl ParallelSimulation {
    /// Creates a parallel simulation over a query graph.
    ///
    /// The graph is partitioned into connected components and spread over
    /// at most `config.workers` threads. Arguments mirror
    /// [`Simulation::new`].
    pub fn new(
        graph: QueryGraph,
        config: PartitionedConfig,
        streams: Vec<(SourceId, StreamSpec)>,
        collector: SharedLatencyCollector,
        monitor: Option<NodeId>,
        seed: u64,
    ) -> Result<Self> {
        for (_, spec) in &streams {
            spec.process.validate()?;
        }
        let mut pex = PartitionedExecutor::new(graph, config);
        if let Some(node) = monitor {
            pex.monitor_idle(node)?;
        }
        Ok(ParallelSimulation {
            pex,
            events: EventQueue::new(),
            rng: SmallRng::seed_from_u64(seed),
            streams: streams
                .into_iter()
                .map(|(source, spec)| StreamRuntime {
                    spec,
                    source,
                    seq: 0,
                    pending_batch: 1,
                    last_app_ts: Timestamp::ZERO,
                    ingested: 0,
                    heartbeats: 0,
                })
                .collect(),
            collector,
            monitor,
            end: Timestamp::ZERO,
        })
    }

    /// Access to the parallel executor (e.g. to inspect the partition).
    pub fn executor(&self) -> &PartitionedExecutor {
        &self.pex
    }

    /// Runs for `duration` of virtual time and reports the metrics.
    pub fn run(&mut self, duration: TimeDelta) -> Result<SimReport> {
        self.end = Timestamp::ZERO + duration;
        self.schedule_initial(Timestamp::ZERO);

        while let Some(t) = self.events.peek_time() {
            // Every component clock reaches the epoch time before its
            // events land, so entry stamps are monotone per source.
            self.pex.advance_to(t)?;
            while let Some(event) = self.events.pop_due(t) {
                self.handle(event)?;
            }
            self.pex.run_until_quiescent(u64::MAX)?;
        }
        self.pex.finish_idle()?;
        self.report()
    }

    fn schedule_initial(&mut self, start: Timestamp) {
        for (i, s) in self.streams.iter_mut().enumerate() {
            let (gap, batch) = s.spec.process.next_arrival(&mut self.rng);
            s.pending_batch = batch;
            let t = start + gap;
            if t <= self.end {
                self.events.push(Event {
                    time: t,
                    kind: EventKind::Arrival { stream: i },
                });
            }
            if let Some(period) = s.spec.heartbeat_period {
                let t = start + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream: i },
                    });
                }
            }
        }
    }

    fn handle(&mut self, event: Event) -> Result<()> {
        match event.kind {
            EventKind::Arrival { stream } => {
                let batch = self.streams[stream].pending_batch;
                for _ in 0..batch {
                    let tuple = synthesize_tuple(
                        &mut self.streams[stream],
                        &mut self.rng,
                        event.time,
                        event.time,
                    );
                    self.pex.ingest(self.streams[stream].source, tuple)?;
                }
                let (gap, next_batch) = self.streams[stream]
                    .spec
                    .process
                    .next_arrival(&mut self.rng);
                let t = event.time + gap;
                if t <= self.end {
                    self.streams[stream].pending_batch = next_batch;
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Arrival { stream },
                    });
                }
            }
            EventKind::Heartbeat { stream } => {
                // The wrapper's clock is the event calendar itself here:
                // heartbeats are stamped with their nominal emission time.
                let source = self.streams[stream].source;
                self.pex.ingest_heartbeat(source, event.time)?;
                self.streams[stream].heartbeats += 1;
                let period = self.streams[stream]
                    .spec
                    .heartbeat_period
                    .expect("heartbeat event only scheduled with a period");
                let t = event.time + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream },
                    });
                }
            }
        }
        Ok(())
    }

    fn report(&mut self) -> Result<SimReport> {
        let snap = self.pex.snapshot()?;
        // Components finish at different virtual times; the run extends to
        // the latest of them.
        let clock_end = snap
            .slot_clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(Timestamp::ZERO);
        let idle = self
            .monitor
            .and_then(|n| snap.idle.iter().find(|(id, _)| *id == n))
            .map(|(_, t)| t.summarize(clock_end))
            .unwrap_or(millstream_metrics::IdleSummary {
                idle_fraction: 0.0,
                episodes: 0,
                longest_episode_ms: 0.0,
                total_idle_ms: 0.0,
            });
        Ok(SimReport {
            metrics: RunMetrics {
                latency: self.collector.recorder().summarize(),
                idle,
                // Sum of per-component peaks: an upper bound on the
                // whole-graph peak, since component peaks need not
                // coincide in time.
                peak_queue_tuples: snap.slot_peaks.iter().sum(),
                punctuation_enqueued: snap.punctuation_enqueued,
                delivered: self.collector.delivered(),
                run_seconds: clock_end.as_secs_f64(),
                work_units: snap.stats.work_units,
            },
            exec: snap.stats,
            ets_per_stream: self
                .streams
                .iter()
                .map(|s| snap.ets_per_source[s.source.index()])
                .collect(),
            heartbeats_per_stream: self.streams.iter().map(|s| s.heartbeats).collect(),
            ingested_per_stream: self.streams.iter().map(|s| s.ingested).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_exec::{CostModel, EtsPolicy, GraphBuilder, Input, Partitioning, VirtualClock};
    use millstream_ops::{Filter, Sink};
    use millstream_types::{DataType, Expr, Field, Schema};

    use crate::workload::{ArrivalProcess, PayloadGen};

    fn value_schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    /// Two independent filter→sink chains — a 2-component graph. Both
    /// sinks share the collector so `delivered` counts the whole graph.
    fn two_chain_graph(collector: SharedLatencyCollector) -> (QueryGraph, Vec<SourceId>) {
        let schema = value_schema();
        let mut b = GraphBuilder::new();
        let mut sources = Vec::new();
        for name in ["a", "b"] {
            let s = b.source(name, schema.clone(), TimestampKind::Internal);
            let f = b
                .operator(
                    Box::new(Filter::new(
                        format!("filter_{name}"),
                        schema.clone(),
                        Expr::col(0).lt(Expr::lit(500)),
                    )),
                    vec![Input::Source(s)],
                )
                .unwrap();
            b.operator(
                Box::new(Sink::new(
                    format!("sink_{name}"),
                    schema.clone(),
                    collector.clone(),
                )),
                vec![Input::Op(f)],
            )
            .unwrap();
            sources.push(s);
        }
        (b.build().unwrap(), sources)
    }

    fn specs(sources: &[SourceId]) -> Vec<(SourceId, StreamSpec)> {
        sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    StreamSpec::internal(
                        format!("s{i}"),
                        value_schema(),
                        ArrivalProcess::Poisson {
                            rate_hz: 40.0 + 10.0 * i as f64,
                        },
                        PayloadGen::UniformInt { modulus: 1000 },
                    ),
                )
            })
            .collect()
    }

    /// Same seed → the parallel driver ingests the same tuples and the
    /// payload-deterministic filters deliver the same number of rows as
    /// the serial driver, despite the different CPU-contention model.
    #[test]
    fn parallel_driver_matches_serial_delivery() {
        let duration = TimeDelta::from_secs(20);
        let seed = 7;

        let serial_collector = SharedLatencyCollector::new();
        let (graph, sources) = two_chain_graph(serial_collector.clone());
        let executor = Executor::new(
            graph,
            VirtualClock::shared(),
            CostModel::default(),
            EtsPolicy::on_demand(),
        );
        let mut sim =
            Simulation::new(executor, specs(&sources), serial_collector, None, seed).unwrap();
        let serial = sim.run(duration).unwrap();

        let par_collector = SharedLatencyCollector::new();
        let (graph, sources) = two_chain_graph(par_collector.clone());
        let config = PartitionedConfig::new(
            CostModel::default(),
            EtsPolicy::on_demand(),
            Partitioning::workers(2),
        );
        let mut psim =
            ParallelSimulation::new(graph, config, specs(&sources), par_collector, None, seed)
                .unwrap();
        let parallel = psim.run(duration).unwrap();

        assert_eq!(psim.executor().num_components(), 2);
        assert_eq!(serial.ingested_per_stream, parallel.ingested_per_stream);
        assert_eq!(serial.metrics.delivered, parallel.metrics.delivered);
        assert!(parallel.metrics.run_seconds > 0.0);
    }
}
