//! The partitioned engine: one coordinator, a pool of worker threads, and
//! one unmodified single-threaded [`Executor`] per slot.
//!
//! The paper's §3 execution model is strictly single-threaded, but its
//! scheduling rules never cross a component boundary: Forward walks output
//! arcs, Encore stays on the current operator, and Backtrack walks *input*
//! arcs back to a starved source. On-demand ETS generation (§4) likewise
//! happens at the starved component's own sources. [`PartitionedExecutor`]
//! exploits that along the two axes of a [`Partitioning`]:
//!
//! * **components** — [`QueryGraph::partition_components`] splits a plain
//!   graph, and each connected component runs on its own executor;
//! * **shards** — one component is replicated `shards` times behind
//!   key-partitioned exchange edges ([`route_shard`]); see *Exchange*
//!   below.
//!
//! Each (component, shard) pair is a **slot**: one executor over one
//! sub-graph or replica. Slots are multiplexed round-robin onto
//! `min(workers, slots)` worker threads. The `RefCell` hot path is
//! untouched; only the leaf counters (clock, occupancy tracker) are
//! atomics so a slot can move across the thread boundary.
//!
//! ## Cross-thread surface
//!
//! Everything crosses on **one FIFO command channel per worker**, so a
//! heartbeat, close or clock advance can never be undercut by a later data
//! tuple. Workers apply ingest-class commands on arrival but only
//! *execute* on an explicit [`Cmd::Run`], which preserves the serial
//! baseline's ingest-then-run interleaving exactly — queues form
//! identically, so `tests/parallel_equivalence.rs` can assert equality of
//! steps, work units, ETS counts and final clocks, not just delivery. Data
//! tuples coalesce in a coordinator-side buffer and cross as one
//! [`Cmd::Ingest`] per [`INGEST_BATCH`] tuples, or earlier when any other
//! command needs the channel.
//!
//! The coordinator checks every call against the serial executor's ingest
//! contract before routing it — punctuation through the data path, a
//! closed source, an out-of-order tuple on a rejecting source — and
//! returns the serial executor's error from the call itself. Worker-side
//! failures (sentinel violations, operator errors, panics) are stashed and
//! surface at the next barrier.
//!
//! ## Quiescence barrier
//!
//! [`PartitionedExecutor::run_until_quiescent`] sends [`Cmd::Run`] to every
//! worker and blocks on every reply. Components are independent, so a slot
//! that reports quiescence cannot be re-awakened by another slot's
//! progress, and one pass per slot is a true global quiescence check.
//!
//! ## Exchange (`shards > 1`)
//!
//! A sharded engine hosts one component, built once per shard by a graph
//! factory ([`PartitionedExecutor::sharded`]):
//!
//! * the **router** partitions every ingested data tuple with a
//!   deterministic, seeded key hash ([`route_shard`]) into the coalescing
//!   buffer of its shard, and broadcasts heartbeats and closes to every
//!   shard;
//! * each **shard** consults the shared [`FrontierTable`] where the serial
//!   executor consults per-source ETS/TSM registers: when its replica still
//!   holds queued work after quiescing (an IWP operator starved on a
//!   key-partition it will never receive), it performs an **on-demand
//!   frontier advance** — a heartbeat at the global source frontier,
//!   generated only because a downstream operator actually starved,
//!   mirroring the paper's on-demand ETS discipline;
//! * after running, a shard publishes its **floor**: a lower bound on the
//!   timestamp of anything it may still emit, computed as `min(source
//!   frontiers, queued buffer fronts, operator frontier holds)` — see
//!   [`millstream_ops::Operator::frontier_hold`];
//! * the **merge stage** (a serial [`Executor`] with one ordered source per
//!   shard feeding a ts-merging union) re-establishes a single ordered
//!   output. It runs with [`EtsPolicy::None`]: its only frontier advances
//!   are floor heartbeats the coordinator injects *on demand*, when the
//!   merge union is observed starving — never speculatively, so a floor
//!   can never overtake a shard's in-flight emission. When no floor moves,
//!   one **promise round** asks every replica's own ETS policy for source
//!   promises ([`Executor::promise_frontiers`]).
//!
//! The sentinel layer closes the loop: every drained shard emission is
//! checked against the floor previously promised for that shard
//! ([`OrderSentinel::check_frontier_consistency`]); in strict mode a
//! violation aborts the run instead of silently reordering the merge.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};

use millstream_buffer::{
    CheckMode, FeedbackRegisters, FrontierTable, OccupancyTracker, OrderPolicy, OrderSentinel,
    PressureLevel, SentinelStats,
};
use millstream_metrics::IdleTracker;
use millstream_ops::{Sink, SinkCollector, Union};
use millstream_types::{Error, Result, Schema, Timestamp, TimestampKind, Tuple};

use crate::clock::{CostModel, VirtualClock};
use crate::executor::{ExecOptions, ExecStats, Executor, FeedbackConfig, OpProfile, SchedPolicy};
use crate::graph::{
    route_shard, ComponentGraph, GraphBuilder, Input, NodeId, QueryGraph, ShardKey, SourceId,
};
use crate::strategy::{frontier_advance, EtsPolicy};

/// Upper bound on shards: the merge union is one operator, and operator
/// fan-in is capped by the executor's inline port marshalling.
pub const MAX_SHARDS: usize = 8;

/// Tuples coalesced per [`Cmd::Ingest`] before the run is forced onto the
/// channel. Large enough to amortize the channel round trip, small enough
/// to keep ingest latency negligible.
const INGEST_BATCH: usize = 64;

/// `Timestamp::MAX` survives the frontier table's `micros + 1` encoding
/// only saturated; anything in the top two microseconds is end-of-stream.
fn is_final(ts: Timestamp) -> bool {
    ts.as_micros() >= u64::MAX - 1
}

/// How a [`PartitionedExecutor`] splits its work into slots and threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioning {
    /// Worker threads. Slots are multiplexed round-robin onto
    /// `min(workers, slots)` threads, so any positive value is valid.
    pub workers: usize,
    /// Key shards of the one component; `1` means no exchange. More than
    /// one needs [`PartitionedExecutor::sharded`]; clamped to
    /// [`MAX_SHARDS`].
    pub shards: usize,
}

impl Partitioning {
    /// Components spread over `workers` threads, no exchange.
    pub fn workers(workers: usize) -> Self {
        Partitioning { workers, shards: 1 }
    }

    /// One component split `shards` ways, one worker thread per shard.
    pub fn sharded(shards: usize) -> Self {
        Partitioning {
            workers: shards,
            shards,
        }
    }
}

/// Construction-time configuration for a [`PartitionedExecutor`]: the
/// knobs [`Executor`] takes, applied to every slot, plus the partitioning.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Virtual CPU cost model, applied per slot.
    pub cost: CostModel,
    /// Timestamp-management policy inside each slot.
    pub policy: EtsPolicy,
    /// Operator-scheduling discipline inside each slot.
    pub sched: SchedPolicy,
    /// Execution tuning knobs (Encore batching).
    pub opts: ExecOptions,
    /// Invariant-checking override for every executor. `None` (default)
    /// inherits the `MILLSTREAM_CHECK` environment variable.
    pub check: Option<CheckMode>,
    /// Feedback-punctuation configuration applied to every slot. `None`
    /// (default) disables pressure signalling entirely.
    pub feedback: Option<FeedbackConfig>,
    /// Workers and shards.
    pub partitioning: Partitioning,
    /// Partition key per source, for sharded engines. Empty means
    /// [`ShardKey::WholeRow`] everywhere — correct only when no operator
    /// keeps key-grouped state (no join, no GROUP BY).
    pub keys: Vec<ShardKey>,
}

impl PartitionedConfig {
    /// A config with default scheduling/tuning and the given essentials.
    pub fn new(cost: CostModel, policy: EtsPolicy, partitioning: Partitioning) -> Self {
        PartitionedConfig {
            cost,
            policy,
            sched: SchedPolicy::default(),
            opts: ExecOptions::default(),
            check: None,
            feedback: None,
            partitioning,
            keys: Vec::new(),
        }
    }

    /// Overrides the invariant-checking mode (builder style).
    pub fn with_check_mode(mut self, mode: CheckMode) -> Self {
        self.check = Some(mode);
        self
    }

    /// Selects the operator-scheduling discipline (builder style).
    pub fn with_sched_policy(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the Encore batch size (builder style).
    pub fn with_encore_batch(mut self, encore_batch: usize) -> Self {
        self.opts.encore_batch = encore_batch.max(1);
        self
    }

    /// Enables feedback punctuation on every slot (builder style).
    pub fn with_feedback(mut self, feedback: FeedbackConfig) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Sets the per-source partition keys (builder style).
    pub fn with_keys(mut self, keys: Vec<ShardKey>) -> Self {
        self.keys = keys;
        self
    }

    /// A serial executor over `graph` with this config's knobs: what every
    /// slot runs, and the oracle a caller falls back to.
    pub fn executor(&self, graph: QueryGraph) -> Executor {
        let mut exec = Executor::new(graph, VirtualClock::shared(), self.cost, self.policy)
            .with_sched_policy(self.sched)
            .with_exec_options(self.opts);
        if let Some(mode) = self.check {
            exec = exec.with_check_mode(mode);
        }
        if let Some(fb) = self.feedback {
            exec = exec.with_feedback(fb);
        }
        exec
    }
}

/// The collector a shard replica's sink delivers into: a queue the
/// coordinator drains into the merge stage after each barrier. Hand one to
/// the sink of each replica built by the graph factory.
#[derive(Clone, Default)]
pub struct ShardOutput {
    queue: Arc<Mutex<Vec<Tuple>>>,
}

impl SinkCollector for ShardOutput {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.queue.lock().expect("shard output lock").push(tuple);
    }
}

/// Commands crossing from the coordinator to a worker, in FIFO order.
enum Cmd {
    /// A coalesced run of data tuples for one slot-local source, applied
    /// via [`Executor::ingest_batch`].
    Ingest {
        slot: usize,
        source: SourceId,
        tuples: Vec<Tuple>,
    },
    /// A heartbeat punctuation.
    Heartbeat {
        slot: usize,
        source: SourceId,
        ts: Timestamp,
    },
    /// End-of-stream on a source.
    Close { slot: usize, source: SourceId },
    /// Advance every hosted slot's clock to `ts`.
    AdvanceTo(Timestamp),
    /// Begin idle-waiting tracking for a slot-local node.
    MonitorIdle { slot: usize, node: NodeId },
    /// Finalize idle trackers at the current slot clocks.
    FinishIdle,
    /// Run every hosted slot until quiescent (or `max_steps` each) and
    /// reply with the total steps taken, or the first stashed error. With
    /// `promise`, shard slots first ask their ETS policy for a promise on
    /// every open source — sent when the merge stage starves behind floors
    /// that no routed traffic will move.
    Run {
        max_steps: u64,
        promise: bool,
        reply: Sender<Result<u64>>,
    },
    /// Reply with a snapshot of every hosted slot plus the worker's
    /// cumulative busy nanoseconds.
    Snapshot {
        reply: Sender<(Vec<SlotSnapshot>, u64)>,
    },
}

/// One slot's state, shipped back over the snapshot barrier.
struct SlotSnapshot {
    slot: usize,
    stats: ExecStats,
    profile: Vec<OpProfile>,
    /// Per local source: (on-demand ETS generated, data tuples ingested,
    /// tuples shed by feedback-declared load shedding).
    sources: Vec<(u64, u64, u64)>,
    clock: Timestamp,
    peak_queued: usize,
    total_queued: usize,
    punct_enqueued: u64,
    idle: Vec<(NodeId, IdleTracker)>,
    frontier_advances: u64,
}

/// A slot hosted by a worker thread.
struct Slot {
    id: usize,
    exec: Executor,
    /// Present when the slot is one shard of an exchange.
    shard: Option<ShardState>,
}

/// The exchange state one shard slot owns.
struct ShardState {
    shard: usize,
    frontier: Arc<FrontierTable>,
    ordered: Arc<[bool]>,
    advances: u64,
}

impl Slot {
    /// Runs to quiescence. A shard additionally advances starved
    /// frontiers on demand and publishes its floor; with `promise`, it
    /// first consults its own ETS policy for every open source — the
    /// cross-shard completion of a merge-stage starvation backtrack.
    fn run(&mut self, max_steps: u64, promise: bool) -> Result<u64> {
        let exec = &mut self.exec;
        let mut taken = exec.run_until_quiescent(max_steps)?;
        let Some(shard) = &mut self.shard else {
            return Ok(taken);
        };
        if promise && exec.promise_frontiers()? > 0 {
            shard.advances += 1;
            taken = taken.saturating_add(exec.run_until_quiescent(max_steps)?);
        }
        // On-demand frontier advance: only while the replica still holds
        // queued work after quiescing — a downstream IWP operator starved
        // on a partition routed elsewhere. The global source frontier is
        // the router's promise that no shard will ever see that source
        // below it.
        while exec.graph().total_queued() > 0 {
            let mut advanced = false;
            for i in 0..shard.frontier.num_sources() {
                let sid = SourceId(i);
                if exec.graph().source(sid).closed {
                    continue;
                }
                let advance = {
                    let g = exec.graph();
                    let b = g.buffers[g.sources[i].buffer.0].borrow();
                    frontier_advance(
                        shard.frontier.source_frontier(i, shard.ordered[i]),
                        b.high_water(),
                        b.punct_high_water(),
                    )
                };
                if let Some(f) = advance {
                    exec.ingest_heartbeat(sid, f)?;
                    shard.frontier.publish_applied(i, shard.shard, f);
                    shard.advances += 1;
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
            taken = taken.saturating_add(exec.run_until_quiescent(max_steps)?);
        }
        shard.publish_floor(exec.graph());
        Ok(taken)
    }

    fn snapshot(&self) -> SlotSnapshot {
        let g = self.exec.graph();
        SlotSnapshot {
            slot: self.id,
            stats: self.exec.stats(),
            profile: self.exec.profile().to_vec(),
            sources: g
                .source_ids()
                .map(|s| {
                    let st = g.source(s);
                    (st.ets_generated, st.ingested, st.shed_tuples)
                })
                .collect(),
            clock: self.exec.clock().now(),
            peak_queued: g.tracker().peak(),
            total_queued: g.total_queued(),
            punct_enqueued: g.tracker().punctuation_enqueued(),
            idle: g
                .node_ids()
                .filter_map(|n| self.exec.idle_tracker(n).map(|t| (n, t.clone())))
                .collect(),
            frontier_advances: self.shard.as_ref().map_or(0, |s| s.advances),
        }
    }
}

impl ShardState {
    /// Publishes the shard's output floor: `min` over the per-source
    /// bounds, the fronts of every queued buffer, and every operator's
    /// frontier hold. Nothing this shard emits later can be below it. A
    /// source's bound is the *max* of the global frontier (the router's
    /// promise) and the local punctuation high-water (the replica's own ETS
    /// promise — valid because the replica rejects data below it, exactly
    /// as a serial executor does after generating the same ETS).
    fn publish_floor(&self, g: &QueryGraph) {
        let mut floor = Timestamp::MAX;
        for i in 0..self.frontier.num_sources() {
            let global = self.frontier.source_frontier(i, self.ordered[i]);
            let local = g.buffers[g.sources[i].buffer.0].borrow().punct_high_water();
            match (global, local) {
                (Some(a), Some(b)) => floor = floor.min(a.max(b)),
                (Some(f), None) | (None, Some(f)) => floor = floor.min(f),
                // A source with no routed data and no punctuation anywhere
                // bounds nothing: the floor is unknown, publish no promise.
                (None, None) => return,
            }
        }
        if let Some(t) = g.min_front_ts() {
            floor = floor.min(t);
        }
        if let Some(t) = g.min_frontier_hold() {
            floor = floor.min(t);
        }
        self.frontier.publish_floor(self.shard, floor);
    }
}

/// Converts a caught panic payload into a barrier-reportable error.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    Error::runtime(format!("worker panicked: {msg}"))
}

/// Runs `f`, turning a panic into a runtime error. A panicking operator
/// must not take the whole process down (or deadlock a barrier): the
/// worker keeps serving its channel and the coordinator sees the failure
/// at the next barrier like any other error.
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_error(p)))
}

fn hosted(slots: &mut [Slot], id: usize) -> &mut Executor {
    &mut slots
        .iter_mut()
        .find(|s| s.id == id)
        .expect("commands are routed to the slot's worker")
        .exec
}

/// Applies one ingest-class command.
fn apply(slots: &mut [Slot], cmd: Cmd) -> Result<()> {
    match cmd {
        Cmd::Ingest {
            slot,
            source,
            tuples,
        } => hosted(slots, slot).ingest_batch(source, tuples),
        Cmd::Heartbeat { slot, source, ts } => hosted(slots, slot).ingest_heartbeat(source, ts),
        Cmd::Close { slot, source } => hosted(slots, slot).close_source(source),
        Cmd::AdvanceTo(ts) => {
            for s in slots {
                s.exec.clock().advance_to(ts);
                s.exec.refresh_idle();
            }
            Ok(())
        }
        Cmd::MonitorIdle { slot, node } => {
            hosted(slots, slot).monitor_idle(node);
            Ok(())
        }
        Cmd::FinishIdle => {
            for s in slots {
                s.exec.finish_idle();
            }
            Ok(())
        }
        Cmd::Run { .. } | Cmd::Snapshot { .. } => unreachable!("barriers are answered in the loop"),
    }
}

/// Worker main loop: apply ingest-class commands in arrival order, execute
/// only on [`Cmd::Run`], stash the first error until the next barrier.
fn worker_loop(rx: Receiver<Cmd>, mut slots: Vec<Slot>) {
    let mut stashed: Option<Error> = None;
    // Wall-clock nanoseconds spent processing commands (as opposed to
    // blocked in `recv()`): the honest busy/idle split benchmarks report.
    let mut busy_nanos: u64 = 0;
    while let Ok(cmd) = rx.recv() {
        let started = Instant::now();
        match cmd {
            Cmd::Run {
                max_steps,
                promise,
                reply,
            } => {
                let result = match stashed.take() {
                    Some(e) => Err(e),
                    None => guarded(|| {
                        let mut taken = 0;
                        for slot in &mut slots {
                            taken += slot.run(max_steps, promise)?;
                        }
                        Ok(taken)
                    }),
                };
                let _ = reply.send(result);
            }
            Cmd::Snapshot { reply } => {
                let _ = reply.send((slots.iter().map(Slot::snapshot).collect(), busy_nanos));
            }
            cmd => {
                if let Err(e) = guarded(|| apply(&mut slots, cmd)) {
                    stashed.get_or_insert(e);
                }
            }
        }
        busy_nanos += started.elapsed().as_nanos() as u64;
    }
}

fn disconnected() -> Error {
    Error::runtime("partitioned worker disconnected")
}

/// The worker threads and their command channels. Dropping it closes every
/// channel, which ends each worker loop, and joins the threads.
struct Workers {
    senders: Vec<Sender<Cmd>>,
    threads: Vec<JoinHandle<()>>,
    /// Lifetime count of commands sent; the batching regression test pins
    /// round trips per tuple.
    sent: u64,
}

impl Workers {
    fn spawn(slots: Vec<Slot>, workers: usize) -> Workers {
        let count = workers.clamp(1, slots.len().max(1));
        let mut hosted: Vec<Vec<Slot>> = (0..count).map(|_| Vec::new()).collect();
        for slot in slots {
            hosted[slot.id % count].push(slot);
        }
        let mut senders = Vec::with_capacity(count);
        let mut threads = Vec::with_capacity(count);
        for (w, slots) in hosted.into_iter().enumerate() {
            let (tx, rx) = channel::unbounded();
            senders.push(tx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("millstream-worker-{w}"))
                    .spawn(move || worker_loop(rx, slots))
                    .expect("spawn worker thread"),
            );
        }
        Workers {
            senders,
            threads,
            sent: 0,
        }
    }

    fn send_to(&mut self, worker: usize, cmd: Cmd) -> Result<()> {
        self.sent += 1;
        self.senders[worker].send(cmd).map_err(|_| disconnected())
    }

    /// Sends to the worker hosting `slot` (slots are dealt round-robin).
    fn send(&mut self, slot: usize, cmd: Cmd) -> Result<()> {
        self.send_to(slot % self.senders.len(), cmd)
    }

    fn broadcast(&mut self, make: impl Fn() -> Cmd) -> Result<()> {
        (0..self.senders.len()).try_for_each(|w| self.send_to(w, make()))
    }

    /// Sends one reply-carrying command to every worker, then collects
    /// every reply — the workers answer in parallel.
    fn barrier<T>(&mut self, make: impl Fn(Sender<T>) -> Cmd) -> Result<Vec<T>> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for w in 0..self.senders.len() {
            let (tx, rx) = channel::bounded(1);
            self.send_to(w, make(tx))?;
            replies.push(rx);
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| disconnected()))
            .collect()
    }

    /// Runs every slot once; returns the total steps or the first error.
    fn round(&mut self, max_steps: u64, promise: bool) -> Result<u64> {
        let mut total = 0;
        let mut first_err = None;
        for reply in self.barrier(|reply| Cmd::Run {
            max_steps,
            promise,
            reply,
        })? {
            match reply {
                Ok(n) => total += n,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(total), Err)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.senders.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Router-side state of one global source.
struct SourceRoute {
    /// The component hosting the source.
    comp: usize,
    /// The source's id inside its component (and every shard replica).
    local: SourceId,
    name: String,
    /// The source buffer's name, for the serial executor's out-of-order
    /// error context.
    buffer: String,
    order: OrderPolicy,
    closed: bool,
    /// Highest data or heartbeat timestamp routed.
    high_water: Option<Timestamp>,
}

impl SourceRoute {
    fn check_open(&self) -> Result<()> {
        if self.closed {
            return Err(Error::runtime(format!("source `{}` is closed", self.name)));
        }
        Ok(())
    }
}

/// The coordinator-side half of a sharded engine.
struct Exchange {
    keys: Vec<ShardKey>,
    frontier: Arc<FrontierTable>,
    outputs: Vec<ShardOutput>,
    merge: Executor,
    merge_sources: Vec<SourceId>,
    /// Per shard: the highest floor heartbeat injected into the merge —
    /// the promise every later emission of that shard is checked against.
    promised: Vec<Option<Timestamp>>,
    merge_closed: bool,
    sentinel: Option<OrderSentinel>,
    sentinel_stats: Arc<SentinelStats>,
    merge_heartbeats: u64,
}

impl Exchange {
    /// Drains every shard's emission queue into the merge stage, checking
    /// frontier consistency against the floors already promised to (and
    /// consumed by) the merge union.
    fn drain_outputs(&mut self) -> Result<()> {
        for (j, out) in self.outputs.iter().enumerate() {
            let drained = std::mem::take(&mut *out.queue.lock().expect("shard output lock"));
            if drained.is_empty() {
                continue;
            }
            if let (Some(sentinel), Some(floor)) = (&self.sentinel, self.promised[j]) {
                for t in &drained {
                    sentinel.check_frontier_consistency(&format!("merge{j}"), t.ts, floor)?;
                }
            }
            self.merge.ingest_batch(self.merge_sources[j], drained)?;
        }
        Ok(())
    }

    /// Injects a floor heartbeat for every open merge input whose shard
    /// floor has moved past it. Returns whether any did.
    fn advance_floors(&mut self) -> Result<bool> {
        let mut advanced = false;
        for (j, &source) in self.merge_sources.iter().enumerate() {
            if self.merge.graph().source(source).closed {
                continue;
            }
            let raw = self.frontier.floor(j);
            if raw.is_some_and(is_final) {
                continue; // the close path injects Timestamp::MAX itself
            }
            let advance = {
                let g = self.merge.graph();
                let b = g.buffers[g.sources[source.0].buffer.0].borrow();
                frontier_advance(raw, b.high_water(), b.punct_high_water())
            };
            if let Some(floor) = advance {
                self.merge.ingest_heartbeat(source, floor)?;
                self.promised[j] = Some(floor);
                self.merge_heartbeats += 1;
                advanced = true;
            }
        }
        Ok(advanced)
    }
}

/// Merged state of a partitioned execution, collected over a snapshot
/// barrier. Per-slot vectors are indexed by slot: the component index on
/// an unsharded engine, the shard index on a sharded one.
#[derive(Debug, Clone, Default)]
pub struct PartitionedSnapshot {
    /// Executor counters summed over every slot and the merge stage.
    pub stats: ExecStats,
    /// Per-operator profile in the plan's node order, summed elementwise
    /// across shard replicas (`peak_state` takes the max).
    pub profile: Vec<OpProfile>,
    /// Per **global** source: on-demand ETS generated.
    pub ets_per_source: Vec<u64>,
    /// Per **global** source: data tuples ingested.
    pub ingested_per_source: Vec<u64>,
    /// Per **global** source: tuples shed by feedback-declared load
    /// shedding (zero everywhere unless [`FeedbackConfig::shed`] is on).
    pub shed_per_source: Vec<u64>,
    /// Each slot's unmerged executor counters.
    pub slot_stats: Vec<ExecStats>,
    /// Each slot's virtual clock reading. Slots run on private clocks, so
    /// there is one reading per slot, not a global "now".
    pub slot_clocks: Vec<Timestamp>,
    /// Each slot's peak queue occupancy. The sum is an upper bound on the
    /// whole-graph peak (slot peaks need not coincide in time).
    pub slot_peaks: Vec<usize>,
    /// Tuples currently queued across every slot and the merge stage.
    pub total_queued: usize,
    /// Lifetime punctuation enqueued, summed over every slot.
    pub punctuation_enqueued: u64,
    /// Idle trackers of monitored nodes, by **global** node id (one entry
    /// per shard replica on a sharded engine).
    pub idle: Vec<(NodeId, IdleTracker)>,
    /// Wall-clock nanoseconds each worker thread has spent processing
    /// commands (everything outside the blocking `recv()`); subtract from
    /// elapsed wall time for the worker's idle share.
    pub worker_busy_nanos: Vec<u64>,
    /// Per slot: on-demand frontier advances (the sharded analogue of
    /// `ets_generated`; zero without an exchange).
    pub frontier_advances: Vec<u64>,
    /// The merge stage's counters (zero without an exchange).
    pub merge_stats: ExecStats,
    /// Each shard's published output floor (empty without an exchange).
    pub floors: Vec<Option<Timestamp>>,
    /// Floor heartbeats injected into the merge stage — each one generated
    /// because the merge union was observed starving.
    pub merge_heartbeats: u64,
    /// Frontier-consistency violations observed at the merge input.
    pub frontier_violations: u64,
}

/// Runs a [`QueryGraph`] across worker threads: one single-threaded
/// [`Executor`] per slot, where a slot is a connected component or, on a
/// sharded engine, one key shard of the single component.
pub struct PartitionedExecutor {
    workers: Workers,
    /// Per **global** source.
    sources: Vec<SourceRoute>,
    /// Component → local→global node ids.
    comp_nodes: Vec<Vec<NodeId>>,
    /// Component → local→global source ids.
    comp_sources: Vec<Vec<SourceId>>,
    /// Slot → its executor's occupancy tracker (atomic; readable without a
    /// barrier while the worker owns the executor).
    trackers: Vec<Arc<OccupancyTracker>>,
    /// Slot → its executor's feedback registers (atomic; readable without
    /// a barrier).
    feedback: Vec<Arc<FeedbackRegisters>>,
    /// Coalescing buffer: `pending[slot][local source]` is the run of data
    /// tuples accepted but not yet shipped. Flushed when full or before any
    /// other command, preserving the per-worker FIFO discipline.
    pending: Vec<Vec<Vec<Tuple>>>,
    pending_count: usize,
    shards: usize,
    exchange: Option<Exchange>,
}

impl PartitionedExecutor {
    /// Partitions `graph` into connected components, one slot each, and
    /// spawns the workers. A single-component graph degenerates to one
    /// worker — the serial executor behind a channel. The plain graph
    /// cannot be replicated, so `config.partitioning.shards` is not read
    /// here; see [`PartitionedExecutor::sharded`].
    pub fn new(graph: QueryGraph, config: PartitionedConfig) -> PartitionedExecutor {
        let mut sources: Vec<SourceRoute> = graph
            .source_ids()
            .map(|s| source_route(&graph, s))
            .collect();
        let partition = graph.partition_components();
        for (route, &(comp, local)) in sources.iter_mut().zip(&partition.source_map) {
            route.comp = comp;
            route.local = local;
        }
        let mut comp_nodes = Vec::new();
        let mut comp_sources = Vec::new();
        let mut slots = Vec::new();
        for (c, part) in partition.components.into_iter().enumerate() {
            let ComponentGraph {
                graph,
                nodes,
                sources,
                ..
            } = part;
            slots.push(Slot {
                id: c,
                exec: config.executor(graph),
                shard: None,
            });
            comp_nodes.push(nodes);
            comp_sources.push(sources);
        }
        Self::assemble(
            slots,
            config.partitioning.workers,
            sources,
            comp_nodes,
            comp_sources,
            None,
        )
    }

    /// Builds a sharded engine: `factory` is invoked once per shard (with
    /// the shard index) and must build a structurally identical replica
    /// of one connected component whose sink delivers into the provided
    /// [`ShardOutput`]. [`QueryGraph`] owns boxed operator state and
    /// cannot be cloned, hence the factory. The merge stage delivers to
    /// `collector`; `output_schema` is the replicas' sink stream schema.
    ///
    /// Needs `config.partitioning.shards ≥ 2` (an unsharded component runs
    /// through [`PartitionedExecutor::new`]).
    pub fn sharded<F>(
        mut factory: F,
        output_schema: Schema,
        collector: Box<dyn SinkCollector>,
        config: PartitionedConfig,
    ) -> Result<PartitionedExecutor>
    where
        F: FnMut(usize, ShardOutput) -> Result<QueryGraph>,
    {
        let shards = config.partitioning.shards.min(MAX_SHARDS);
        if shards < 2 {
            return Err(Error::config(
                "a sharded engine needs at least 2 shards; \
                 run an unsharded graph through PartitionedExecutor::new",
            ));
        }
        let mut outputs = Vec::with_capacity(shards);
        let mut graphs: Vec<QueryGraph> = Vec::with_capacity(shards);
        for j in 0..shards {
            let out = ShardOutput::default();
            let g = factory(j, out.clone())?;
            if j == 0 {
                if g.num_components() != 1 {
                    return Err(Error::graph(
                        "sharded execution requires a single connected component; \
                         run several components unsharded",
                    ));
                }
            } else if g.num_sources() != graphs[0].num_sources()
                || g.num_ops() != graphs[0].num_ops()
            {
                return Err(Error::graph(
                    "shard graph factory must build structurally identical replicas",
                ));
            }
            outputs.push(out);
            graphs.push(g);
        }
        let g0 = &graphs[0];
        let num_sources = g0.num_sources();
        let keys = if config.keys.is_empty() {
            vec![ShardKey::WholeRow; num_sources]
        } else if config.keys.len() == num_sources {
            config.keys.clone()
        } else {
            return Err(Error::config(format!(
                "{} shard keys for {} sources",
                config.keys.len(),
                num_sources
            )));
        };
        let sources: Vec<SourceRoute> = g0.source_ids().map(|s| source_route(g0, s)).collect();
        let ordered: Arc<[bool]> = g0
            .source_ids()
            .map(|s| g0.source_is_ordered(s))
            .collect::<Vec<_>>()
            .into();
        let comp_nodes = vec![g0.node_ids().collect()];
        let comp_sources = vec![g0.source_ids().collect()];

        let frontier = FrontierTable::shared(num_sources, shards);
        let slots = graphs
            .into_iter()
            .enumerate()
            .map(|(j, g)| Slot {
                id: j,
                exec: config.executor(g),
                shard: Some(ShardState {
                    shard: j,
                    frontier: frontier.clone(),
                    ordered: ordered.clone(),
                    advances: 0,
                }),
            })
            .collect();

        // The merge stage: one ordered internal source per shard, a
        // ts-merging union, the real sink. EtsPolicy::None — the only
        // frontier advances are injected floors.
        let mut b = GraphBuilder::new();
        let merge_sources: Vec<SourceId> = (0..shards)
            .map(|j| {
                b.source(
                    format!("merge{j}"),
                    output_schema.clone(),
                    TimestampKind::Internal,
                )
            })
            .collect();
        let u = b.operator(
            Box::new(Union::new("merge-∪", output_schema.clone(), shards)),
            merge_sources.iter().map(|&s| Input::Source(s)).collect(),
        )?;
        b.operator(
            Box::new(Sink::new("merge-sink", output_schema, collector)),
            vec![Input::Op(u)],
        )?;
        let mut merge = Executor::new(
            b.build()?,
            VirtualClock::shared(),
            CostModel::free(),
            EtsPolicy::None,
        );
        if let Some(mode) = config.check {
            merge = merge.with_check_mode(mode);
        }

        let mode = config.check.unwrap_or_else(CheckMode::from_env);
        let sentinel_stats = SentinelStats::shared();
        let sentinel = mode
            .is_enabled()
            .then(|| OrderSentinel::new(mode, "exchange-merge", sentinel_stats.clone()));
        let exchange = Exchange {
            keys,
            frontier,
            outputs,
            merge,
            merge_sources,
            promised: vec![None; shards],
            merge_closed: false,
            sentinel,
            sentinel_stats,
            merge_heartbeats: 0,
        };
        Ok(Self::assemble(
            slots,
            config.partitioning.workers,
            sources,
            comp_nodes,
            comp_sources,
            Some(exchange),
        ))
    }

    fn assemble(
        slots: Vec<Slot>,
        workers: usize,
        sources: Vec<SourceRoute>,
        comp_nodes: Vec<Vec<NodeId>>,
        comp_sources: Vec<Vec<SourceId>>,
        exchange: Option<Exchange>,
    ) -> PartitionedExecutor {
        let shards = exchange.as_ref().map_or(1, |x| x.outputs.len());
        let trackers = slots
            .iter()
            .map(|s| s.exec.graph().tracker().clone())
            .collect();
        let feedback = slots
            .iter()
            .map(|s| s.exec.feedback_registers().clone())
            .collect();
        let pending = slots
            .iter()
            .map(|s| vec![Vec::new(); s.exec.graph().num_sources()])
            .collect();
        PartitionedExecutor {
            workers: Workers::spawn(slots, workers),
            sources,
            comp_nodes,
            comp_sources,
            trackers,
            feedback,
            pending,
            pending_count: 0,
            shards,
            exchange,
        }
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.comp_nodes.len()
    }

    /// Number of key shards per component (1 without an exchange).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Number of worker threads actually spawned.
    pub fn num_workers(&self) -> usize {
        self.workers.senders.len()
    }

    /// Commands this coordinator has sent over the worker channels —
    /// coalesced batches count once.
    pub fn commands_sent(&self) -> u64 {
        self.workers.sent
    }

    /// The slots of `comp`: one per shard.
    fn slots_of(&self, comp: usize) -> std::ops::Range<usize> {
        comp * self.shards..(comp + 1) * self.shards
    }

    /// The serial executor's ingest contract, checked before a data tuple
    /// is routed, so a violation fails the call that caused it.
    fn admit(&mut self, source: SourceId, tuple: &Tuple) -> Result<()> {
        let route = &mut self.sources[source.0];
        if tuple.is_punctuation() {
            return Err(Error::runtime(format!(
                "ingest on source `{}` requires a data tuple; \
                 use ingest_heartbeat for punctuation",
                route.name
            )));
        }
        route.check_open()?;
        if let Some(hw) = route.high_water {
            if tuple.ts < hw && route.order == OrderPolicy::Reject {
                return Err(Error::OutOfOrder {
                    context: format!("buffer {}", route.buffer),
                    got: tuple.ts.as_micros(),
                    watermark: hw.as_micros(),
                });
            }
        }
        route.high_water = Some(route.high_water.map_or(tuple.ts, |hw| hw.max(tuple.ts)));
        if let Some(x) = &self.exchange {
            if route.order != OrderPolicy::Accept {
                x.frontier.note_routed(source.0, tuple.ts);
            }
        }
        Ok(())
    }

    /// Ships `slot`'s coalescing run for `local` once it holds
    /// [`INGEST_BATCH`] tuples.
    fn ship_if_full(&mut self, slot: usize, local: SourceId) -> Result<()> {
        let run = &mut self.pending[slot][local.0];
        if run.len() < INGEST_BATCH {
            return Ok(());
        }
        let tuples = std::mem::take(run);
        self.pending_count -= tuples.len();
        self.workers.send(
            slot,
            Cmd::Ingest {
                slot,
                source: local,
                tuples,
            },
        )
    }

    /// Ships every coalesced run. Must precede any other command send so a
    /// heartbeat, close, or clock advance can never undercut data accepted
    /// before it.
    fn flush(&mut self) -> Result<()> {
        if self.pending_count == 0 {
            return Ok(());
        }
        self.pending_count = 0;
        for slot in 0..self.pending.len() {
            for local in 0..self.pending[slot].len() {
                let tuples = std::mem::take(&mut self.pending[slot][local]);
                if !tuples.is_empty() {
                    let source = SourceId(local);
                    self.workers.send(
                        slot,
                        Cmd::Ingest {
                            slot,
                            source,
                            tuples,
                        },
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Sends one command per shard slot of `source`'s component.
    fn send_to_shards(
        &mut self,
        source: SourceId,
        make: impl Fn(usize, SourceId) -> Cmd,
    ) -> Result<()> {
        let (comp, local) = (self.sources[source.0].comp, self.sources[source.0].local);
        self.flush()?;
        for slot in self.slots_of(comp) {
            self.workers.send(slot, make(slot, local))?;
        }
        Ok(())
    }

    /// Ingests a data tuple at a global source. The serial executor's
    /// ingest errors are returned here; accepted tuples coalesce per slot
    /// and cross the channel as one command per [`INGEST_BATCH`] tuples.
    /// On a sharded engine the tuple routes to its key's shard.
    pub fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        self.admit(source, &tuple)?;
        let route = &self.sources[source.0];
        let shard = match &self.exchange {
            Some(x) => route_shard(
                tuple.values().expect("admitted data tuple"),
                x.keys[source.0],
                self.shards,
            ),
            None => 0,
        };
        let (slot, local) = (route.comp * self.shards + shard, route.local);
        self.pending[slot][local.0].push(tuple);
        self.pending_count += 1;
        self.ship_if_full(slot, local)
    }

    /// Ingests a run of data tuples at a global source, equivalent to one
    /// [`Self::ingest`] per tuple: a rejected tuple fails the call and the
    /// tuples before it stay accepted. Unsharded, the run joins the
    /// source's coalescing buffer, so it can never reorder against tuples
    /// accepted before it, and crosses the channel in at most one command.
    pub fn ingest_batch(&mut self, source: SourceId, mut tuples: Vec<Tuple>) -> Result<()> {
        if self.exchange.is_some() {
            return tuples.into_iter().try_for_each(|t| self.ingest(source, t));
        }
        let mut verdict = Ok(());
        for (i, t) in tuples.iter().enumerate() {
            if let Err(e) = self.admit(source, t) {
                verdict = Err(e);
                tuples.truncate(i);
                break;
            }
        }
        let (slot, local) = (self.sources[source.0].comp, self.sources[source.0].local);
        let run = &mut self.pending[slot][local.0];
        if run.is_empty() && !tuples.is_empty() {
            // Common case: nothing buffered, ship the caller's run as-is
            // without copying it into the buffer first.
            self.workers.send(
                slot,
                Cmd::Ingest {
                    slot,
                    source: local,
                    tuples,
                },
            )?;
        } else {
            self.pending_count += tuples.len();
            run.extend(tuples);
            self.ship_if_full(slot, local)?;
        }
        verdict
    }

    /// Ingests a heartbeat punctuation at a global source, on every shard
    /// of a sharded engine (each drops it if stale locally).
    pub fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        let route = &mut self.sources[source.0];
        route.check_open()?;
        route.high_water = Some(route.high_water.map_or(ts, |hw| hw.max(ts)));
        if let Some(x) = &self.exchange {
            x.frontier.note_punct(source.0, ts);
        }
        self.send_to_shards(source, |slot, source| Cmd::Heartbeat { slot, source, ts })
    }

    /// Declares end-of-stream on a global source. Idempotent, like
    /// [`Executor::close_source`].
    pub fn close_source(&mut self, source: SourceId) -> Result<()> {
        if self.sources[source.0].closed {
            return Ok(());
        }
        self.send_to_shards(source, |slot, source| Cmd::Close { slot, source })?;
        self.sources[source.0].closed = true;
        if let Some(x) = &self.exchange {
            x.frontier.note_punct(source.0, Timestamp::MAX);
        }
        Ok(())
    }

    /// Advances every slot's clock (and the merge stage's) to `ts`; clocks
    /// never go backwards, so slots already past `ts` are unaffected.
    pub fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        self.flush()?;
        self.workers.broadcast(|| Cmd::AdvanceTo(ts))?;
        if let Some(x) = &mut self.exchange {
            x.merge.clock().advance_to(ts);
            x.merge.refresh_idle();
        }
        Ok(())
    }

    /// Begins idle-waiting tracking for a global node (on every shard
    /// replica of a sharded engine).
    pub fn monitor_idle(&mut self, node: NodeId) -> Result<()> {
        let (comp, local) = self
            .comp_nodes
            .iter()
            .enumerate()
            .find_map(|(c, nodes)| {
                let local = nodes.iter().position(|&n| n == node)?;
                Some((c, NodeId(local)))
            })
            .expect("node of the engine's graph");
        self.flush()?;
        for slot in self.slots_of(comp) {
            self.workers
                .send(slot, Cmd::MonitorIdle { slot, node: local })?;
        }
        Ok(())
    }

    /// Finalizes idle trackers at the current slot clocks.
    pub fn finish_idle(&mut self) -> Result<()> {
        self.flush()?;
        self.workers.broadcast(|| Cmd::FinishIdle)
    }

    /// The quiescence barrier: every worker runs each hosted slot until
    /// quiescent (or `max_steps` per slot), in parallel; the call returns
    /// once **all** slots are quiescent, with the total steps taken. On a
    /// sharded engine the shard emissions then drain into the merge stage,
    /// which advances with floor heartbeats injected only when the merge
    /// union actually starves. The first worker-side error stashed since
    /// the last barrier is returned.
    pub fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        self.flush()?;
        let taken = self.workers.round(max_steps, false)?;
        Ok(taken + self.pump_merge(max_steps)?)
    }

    /// Drains shard emissions into the merge stage and advances it.
    fn pump_merge(&mut self, max_steps: u64) -> Result<u64> {
        let Some(x) = &mut self.exchange else {
            return Ok(0);
        };
        x.drain_outputs()?;
        let mut total = x.merge.run_until_quiescent(max_steps)?;
        // On-demand frontier advance at the merge: only while tuples are
        // observably stuck behind a lagging shard floor.
        let mut promise_spent = false;
        while x.merge.graph().total_queued() > 0 {
            if x.advance_floors()? {
                total += x.merge.run_until_quiescent(max_steps)?;
                continue;
            }
            // No floor moved and tuples are still stuck: the serial
            // analogue of this moment is a backtrack reaching a starved
            // source and asking its ETS register for a promise. Complete
            // that final hop across the exchange — one promise round per
            // pump (the clocks are static here, so a second round could
            // not promise more).
            if promise_spent {
                break;
            }
            promise_spent = true;
            self.workers.round(max_steps, true)?;
            x.drain_outputs()?;
        }
        // End-of-stream: every source closed and every shard fully drained
        // (saturated floor proves empty buffers and released holds).
        if !x.merge_closed
            && self.sources.iter().all(|s| s.closed)
            && (0..self.shards).all(|j| x.frontier.floor(j).is_some_and(is_final))
        {
            for &source in &x.merge_sources {
                x.merge.close_source(source)?;
            }
            x.merge_closed = true;
            total += x.merge.run_until_quiescent(max_steps)?;
        }
        Ok(total)
    }

    /// Tuples currently queued across every slot, read lock-free from the
    /// atomic occupancy trackers — no worker barrier. The reading is a
    /// racy-but-consistent sum: each slot's contribution is exact at the
    /// instant it is read.
    pub fn queued_total(&self) -> usize {
        self.trackers.iter().map(|t| t.total()).sum()
    }

    /// The most recent feedback-pressure level published for a **global**
    /// source (the maximum over its shards), read lock-free. Always
    /// [`PressureLevel::Normal`] when feedback is disabled.
    pub fn source_pressure(&self, source: SourceId) -> PressureLevel {
        let route = &self.sources[source.0];
        self.slots_of(route.comp)
            .map(|slot| self.feedback[slot].get(route.local.0))
            .max()
            .unwrap_or(PressureLevel::Normal)
    }

    /// The maximum feedback-pressure level across every source of every
    /// slot — the engine-wide signal a server translates into producer
    /// pacing.
    pub fn max_pressure(&self) -> PressureLevel {
        self.feedback
            .iter()
            .map(|r| r.max_level())
            .max()
            .unwrap_or(PressureLevel::Normal)
    }

    /// Collects and merges a state snapshot from every slot.
    pub fn snapshot(&mut self) -> Result<PartitionedSnapshot> {
        self.flush()?;
        let replies = self.workers.barrier(|reply| Cmd::Snapshot { reply })?;
        let (slots, num_sources) = (self.trackers.len(), self.sources.len());
        let num_ops = self.comp_nodes.iter().map(Vec::len).sum();
        let mut profile: Vec<Option<OpProfile>> = vec![None; num_ops];
        let mut snap = PartitionedSnapshot {
            ets_per_source: vec![0; num_sources],
            ingested_per_source: vec![0; num_sources],
            shed_per_source: vec![0; num_sources],
            slot_stats: vec![ExecStats::default(); slots],
            slot_clocks: vec![Timestamp::ZERO; slots],
            slot_peaks: vec![0; slots],
            frontier_advances: vec![0; slots],
            ..PartitionedSnapshot::default()
        };
        for (slot_snaps, busy) in replies {
            snap.worker_busy_nanos.push(busy);
            for s in slot_snaps {
                let comp = s.slot / self.shards;
                snap.stats.merge(&s.stats);
                for (local, p) in s.profile.into_iter().enumerate() {
                    match &mut profile[self.comp_nodes[comp][local].0] {
                        Some(acc) => merge_profile(acc, &p),
                        empty => *empty = Some(p),
                    }
                }
                for (local, (ets, ingested, shed)) in s.sources.into_iter().enumerate() {
                    let global = self.comp_sources[comp][local].0;
                    snap.ets_per_source[global] += ets;
                    snap.ingested_per_source[global] += ingested;
                    snap.shed_per_source[global] += shed;
                }
                snap.slot_stats[s.slot] = s.stats;
                snap.slot_clocks[s.slot] = s.clock;
                snap.slot_peaks[s.slot] = s.peak_queued;
                snap.frontier_advances[s.slot] = s.frontier_advances;
                snap.total_queued += s.total_queued;
                snap.punctuation_enqueued += s.punct_enqueued;
                for (local, tracker) in s.idle {
                    snap.idle.push((self.comp_nodes[comp][local.0], tracker));
                }
            }
        }
        snap.idle.sort_by_key(|(n, _)| n.0);
        snap.profile = profile
            .into_iter()
            .map(|p| p.expect("every node is hosted by a slot"))
            .collect();
        if let Some(x) = &self.exchange {
            snap.merge_stats = x.merge.stats();
            snap.stats.merge(&snap.merge_stats);
            snap.total_queued += x.merge.graph().total_queued();
            snap.floors = (0..self.shards).map(|j| x.frontier.floor(j)).collect();
            snap.merge_heartbeats = x.merge_heartbeats;
            snap.frontier_violations = x.sentinel_stats.frontier_violations();
        }
        Ok(snap)
    }
}

/// Router-side state for one source of `graph`, before component routing.
fn source_route(graph: &QueryGraph, s: SourceId) -> SourceRoute {
    let buffer = graph.buffers[graph.source(s).buffer.0].borrow();
    SourceRoute {
        comp: 0,
        local: s,
        name: graph.source(s).name.clone(),
        buffer: buffer.name().to_string(),
        order: buffer.order_policy(),
        closed: false,
        high_water: None,
    }
}

/// Accumulates one replica's operator profile into another's.
fn merge_profile(acc: &mut OpProfile, p: &OpProfile) {
    let OpProfile {
        name: _,
        steps,
        consumed,
        produced,
        busy_micros,
        peak_state,
        compacted_runs,
        spilled_bytes,
        run_drops,
    } = p;
    acc.steps += steps;
    acc.consumed += consumed;
    acc.produced += produced;
    acc.busy_micros += busy_micros;
    // High-water, not a counter: the largest state held by any single
    // replica of this operator.
    acc.peak_state = acc.peak_state.max(*peak_state);
    acc.compacted_runs += compacted_runs;
    acc.spilled_bytes += spilled_bytes;
    acc.run_drops += run_drops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_ops::{AggExpr, AggFunc, Filter, WindowAggregate};
    use millstream_types::{DataType, Expr, Field, TimeDelta, Value};

    #[derive(Clone, Default)]
    struct Out(Arc<Mutex<Vec<Tuple>>>);

    impl SinkCollector for Out {
        fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
            self.0.lock().unwrap().push(tuple);
        }
    }

    impl Out {
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    fn data(ts: u64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
    }

    fn config(partitioning: Partitioning) -> PartitionedConfig {
        PartitionedConfig::new(CostModel::free(), EtsPolicy::on_demand(), partitioning)
    }

    /// Two components: S1→σ→sink and (S2,S3)→∪→sink.
    fn build() -> (QueryGraph, [SourceId; 3], Out, Out) {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let s2 = b.source("S2", schema(), TimestampKind::Internal);
        let s3 = b.source("S3", schema(), TimestampKind::Internal);
        let f = b
            .operator(
                Box::new(Filter::new("σ", schema(), Expr::col(0).ge(Expr::lit(0)))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let out1 = Out::default();
        b.operator(
            Box::new(Sink::new("sink1", schema(), out1.clone())),
            vec![Input::Op(f)],
        )
        .unwrap();
        let u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Source(s2), Input::Source(s3)],
            )
            .unwrap();
        let out2 = Out::default();
        b.operator(
            Box::new(Sink::new("sink2", schema(), out2.clone())),
            vec![Input::Op(u)],
        )
        .unwrap();
        (b.build().unwrap(), [s1, s2, s3], out1, out2)
    }

    /// Feeds `n` tuples to every source of [`build`] and closes them.
    fn feed_and_close(pex: &mut PartitionedExecutor, sources: [SourceId; 3], n: u64) {
        for i in 0..n {
            for s in sources {
                pex.ingest(s, data(i)).unwrap();
            }
        }
        for s in sources {
            pex.close_source(s).unwrap();
        }
        pex.run_until_quiescent(1_000_000).unwrap();
    }

    #[test]
    fn parallel_runs_both_components() {
        let (g, sources, out1, out2) = build();
        let mut pex = PartitionedExecutor::new(g, config(Partitioning::workers(2)));
        assert_eq!(pex.num_components(), 2);
        assert_eq!(pex.num_workers(), 2);
        feed_and_close(&mut pex, sources, 10);
        assert_eq!(out1.len(), 10);
        assert_eq!(out2.len(), 20);
        let snap = pex.snapshot().unwrap();
        assert_eq!(snap.ingested_per_source, vec![10, 10, 10]);
        assert_eq!(snap.total_queued, 0);
        assert_eq!(snap.profile.len(), 4);
        assert_eq!(snap.profile[0].name, "σ");
        assert_eq!(snap.profile[2].name, "∪");
    }

    #[test]
    fn workers_multiplex_components() {
        // One worker hosting both components still works (multiplexed).
        let (g, sources, out1, out2) = build();
        let mut pex = PartitionedExecutor::new(g, config(Partitioning::workers(1)));
        assert_eq!(pex.num_workers(), 1);
        assert_eq!(pex.num_components(), 2);
        feed_and_close(&mut pex, sources, 5);
        assert_eq!(out1.len(), 5);
        assert_eq!(out2.len(), 10);
        assert_eq!(pex.snapshot().unwrap().slot_clocks.len(), 2);
    }

    #[test]
    fn ingest_commands_coalesce_below_budget() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let f = b
            .operator(
                Box::new(Filter::new("σ", schema(), Expr::lit(true))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let out = Out::default();
        b.operator(
            Box::new(Sink::new("sink", schema(), out.clone())),
            vec![Input::Op(f)],
        )
        .unwrap();
        let mut pex =
            PartitionedExecutor::new(b.build().unwrap(), config(Partitioning::workers(1)));
        for i in 0..1000u64 {
            pex.ingest(s1, data(i)).unwrap();
        }
        pex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(out.len(), 1000);
        // 1000 tuples coalesce into ⌈1000/64⌉ = 16 batches + 1 run command.
        // The budget is a fixed regression bound: a per-tuple channel would
        // send 1001 commands here.
        let sent = pex.commands_sent();
        assert!(
            sent <= 24,
            "command round trips per 1k ingested tuples regressed: {sent} > 24"
        );
    }

    #[test]
    fn ingest_errors_surface_at_the_call() {
        let (g, [s1, s2, _], _, _) = build();
        let mut pex = PartitionedExecutor::new(g, config(Partitioning::workers(2)));
        pex.ingest(s1, data(100)).unwrap();
        // Out-of-order: rejected before it is routed, with the serial
        // executor's error.
        let err = pex.ingest(s1, data(5)).unwrap_err();
        assert!(matches!(err, Error::OutOfOrder { got: 5, .. }), "{err}");
        assert!(err.to_string().contains("buffer src:S1"), "{err}");
        pex.close_source(s2).unwrap();
        let err = pex.ingest(s2, data(200)).unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
        // Nothing was stashed for the barrier: it is clean.
        pex.run_until_quiescent(0).unwrap();
    }

    /// An operator that panics the first time it executes — simulating an
    /// operator bug on a worker thread.
    struct PanickingOp {
        schema: Schema,
    }

    impl millstream_ops::Operator for PanickingOp {
        fn name(&self) -> &str {
            "panicker"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_schema(&self) -> &Schema {
            &self.schema
        }
        fn poll(&mut self, ctx: &millstream_ops::OpContext<'_>) -> millstream_ops::Poll {
            if ctx.input(0).is_empty() {
                millstream_ops::Poll::starved_on(0)
            } else {
                millstream_ops::Poll::Ready
            }
        }
        fn step(
            &mut self,
            _ctx: &millstream_ops::OpContext<'_>,
        ) -> Result<millstream_ops::StepOutcome> {
            panic!("injected operator failure");
        }
    }

    #[test]
    fn worker_panic_surfaces_at_the_barrier() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let p = b
            .operator(
                Box::new(PanickingOp { schema: schema() }),
                vec![Input::Source(s1)],
            )
            .unwrap();
        b.operator(
            Box::new(Sink::new("sink", schema(), Out::default())),
            vec![Input::Op(p)],
        )
        .unwrap();
        let mut pex =
            PartitionedExecutor::new(b.build().unwrap(), config(Partitioning::workers(1)));
        pex.ingest(s1, data(1)).unwrap();
        let err = pex.run_until_quiescent(1_000).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("worker panicked"), "{msg}");
        assert!(msg.contains("injected operator failure"), "{msg}");
        // The worker thread survived the panic: the channel still answers.
        pex.run_until_quiescent(0).unwrap();
        pex.snapshot().unwrap();
    }

    #[test]
    fn config_check_mode_reaches_slot_executors() {
        use millstream_ops::Reorder;

        let mut b = GraphBuilder::new();
        let s1 = b.unordered_source("S1", schema(), TimestampKind::External);
        let r = b
            .operator(
                Box::new(Reorder::new("↻", schema(), TimeDelta::from_micros(100))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        b.operator(
            Box::new(Sink::new("sink", schema(), Out::default())),
            vec![Input::Op(r)],
        )
        .unwrap();
        let mut pex = PartitionedExecutor::new(
            b.build().unwrap(),
            PartitionedConfig::new(CostModel::free(), EtsPolicy::None, Partitioning::workers(1))
                .with_check_mode(CheckMode::Strict),
        );
        pex.ingest_heartbeat(s1, Timestamp::from_micros(10))
            .unwrap();
        // Data below the asserted heartbeat on an Accept buffer: the strict
        // sentinel rejects it at the worker and the barrier reports it.
        pex.ingest(s1, data(5)).unwrap();
        let err = pex.run_until_quiescent(0).unwrap_err();
        assert!(err.to_string().contains("punctuation-dominance"), "{err}");
    }

    fn kv_schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
    }

    fn kv(ts: u64, k: i64, v: i64) -> Tuple {
        Tuple::data(
            Timestamp::from_micros(ts),
            vec![Value::Int(k), Value::Int(v)],
        )
    }

    /// source → σ(v ≥ 0) → sink, replicated per shard.
    fn filter_factory(out: ShardOutput) -> Result<QueryGraph> {
        let mut b = GraphBuilder::new();
        let s = b.source("S", kv_schema(), TimestampKind::Internal);
        let f = b.operator(
            Box::new(Filter::new("σ", kv_schema(), Expr::col(1).ge(Expr::lit(0)))),
            vec![Input::Source(s)],
        )?;
        b.operator(
            Box::new(Sink::new("shard-sink", kv_schema(), out)),
            vec![Input::Op(f)],
        )?;
        b.build()
    }

    fn sharded(shards: usize) -> (PartitionedExecutor, Out) {
        let out = Out::default();
        let exec = PartitionedExecutor::sharded(
            |_, shard_out| filter_factory(shard_out),
            kv_schema(),
            Box::new(out.clone()),
            config(Partitioning::sharded(shards)),
        )
        .unwrap();
        (exec, out)
    }

    #[test]
    fn shards_partition_and_merge_preserves_order() {
        let (mut ex, out) = sharded(4);
        assert_eq!(ex.num_shards(), 4);
        assert_eq!(ex.num_workers(), 4);
        let s = SourceId(0);
        for i in 0..200u64 {
            ex.ingest(s, kv(i, i as i64 % 7, i as i64)).unwrap();
        }
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        let got = out.0.lock().unwrap();
        assert_eq!(got.len(), 200, "every tuple survives the exchange");
        let ts: Vec<u64> = got.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "merge restores global timestamp order");
    }

    #[test]
    fn shards_multiplex_onto_fewer_workers() {
        let out = Out::default();
        let mut ex = PartitionedExecutor::sharded(
            |_, shard_out| filter_factory(shard_out),
            kv_schema(),
            Box::new(out.clone()),
            config(Partitioning {
                workers: 1,
                shards: 3,
            }),
        )
        .unwrap();
        assert_eq!((ex.num_shards(), ex.num_workers()), (3, 1));
        for i in 0..10u64 {
            ex.ingest(SourceId(0), kv(i, i as i64, i as i64)).unwrap();
        }
        ex.close_source(SourceId(0)).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(out.len(), 10);
        assert!(PartitionedExecutor::sharded(
            |_, shard_out| filter_factory(shard_out),
            kv_schema(),
            Box::new(Out::default()),
            config(Partitioning::sharded(1)),
        )
        .is_err());
    }

    #[test]
    fn router_rejects_out_of_order_on_ordered_sources() {
        let (mut ex, _) = sharded(2);
        let s = SourceId(0);
        ex.ingest(s, kv(100, 0, 1)).unwrap();
        let err = ex.ingest(s, kv(5, 0, 2)).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
    }

    #[test]
    fn routing_is_deterministic_and_key_grouped() {
        // Same key column value → same shard, regardless of other columns.
        for shards in [2usize, 4, 8] {
            for k in 0..50i64 {
                let a = route_shard(&[Value::Int(k), Value::Int(1)], ShardKey::Column(0), shards);
                let b = route_shard(
                    &[Value::Int(k), Value::Int(999)],
                    ShardKey::Column(0),
                    shards,
                );
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // Whole-row routing spreads distinct rows across shards.
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| route_shard(&[Value::Int(i), Value::Int(i)], ShardKey::WholeRow, 4))
            .collect();
        assert!(hit.len() > 1, "64 distinct rows must not all hash together");
    }

    #[test]
    fn keyed_aggregate_groups_stay_whole_per_shard() {
        // source → Σ(GROUP BY k, window 1ms) → sink, keyed exchange on k.
        fn out_schema() -> Schema {
            Schema::new(vec![
                Field::new("window_start", DataType::Int),
                Field::new("k", DataType::Int),
                Field::new("sum", DataType::Int),
            ])
        }
        fn agg_factory(out: ShardOutput) -> Result<QueryGraph> {
            let mut b = GraphBuilder::new();
            let s = b.source("S", kv_schema(), TimestampKind::Internal);
            let a = b.operator(
                Box::new(WindowAggregate::new(
                    "Σ",
                    &kv_schema(),
                    TimeDelta::from_millis(1),
                    vec![("k".into(), Expr::col(0))],
                    vec![AggExpr {
                        func: AggFunc::Sum,
                        arg: Expr::col(1),
                        name: "sum".into(),
                    }],
                )?),
                vec![Input::Source(s)],
            )?;
            b.operator(
                Box::new(Sink::new("shard-sink", out_schema(), out)),
                vec![Input::Op(a)],
            )?;
            b.build()
        }
        let out = Out::default();
        let mut ex = PartitionedExecutor::sharded(
            |_, shard_out| agg_factory(shard_out),
            out_schema(),
            Box::new(out.clone()),
            config(Partitioning::sharded(4)).with_keys(vec![ShardKey::Column(0)]),
        )
        .unwrap();
        let s = SourceId(0);
        // Two windows × 4 keys × 25 tuples of v=1 each.
        for w in 0..2u64 {
            for i in 0..100u64 {
                let ts = w * 1000 + i * 10;
                ex.ingest(s, kv(ts, (i % 4) as i64, 1)).unwrap();
            }
        }
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(10_000_000).unwrap();
        let got = out.0.lock().unwrap();
        // Keyed routing keeps each group on one shard: exactly one output
        // row per (window, key), never partial sums from split groups.
        assert_eq!(got.len(), 8, "2 windows × 4 keys: {got:?}");
        for t in got.iter() {
            let v = t.values().unwrap();
            assert_eq!(v[2], Value::Int(25), "whole group on one shard: {v:?}");
        }
    }

    #[test]
    fn starved_merge_unblocks_via_frontier_summaries() {
        // Key-skewed input: every tuple routes to one shard; the other
        // shards publish floors that let the merge release output without
        // waiting for data that will never come.
        let (mut ex, out) = sharded(4);
        let s = SourceId(0);
        for i in 0..50u64 {
            // Identical rows → identical shard.
            ex.ingest(s, kv(i, 42, 7)).unwrap();
        }
        ex.run_until_quiescent(1_000_000).unwrap();
        // Without closing: merged output may lag behind the skewed shard
        // only until floors catch up; a heartbeat pushes them past it.
        ex.ingest_heartbeat(s, Timestamp::from_micros(1000))
            .unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(
            out.len(),
            50,
            "floors from empty shards must release the merge"
        );
        let snap = ex.snapshot().unwrap();
        assert!(
            snap.floors.iter().all(|f| f.is_some()),
            "every shard published a floor: {:?}",
            snap.floors
        );
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
    }
}
