//! # millstream-exec
//!
//! Query graphs, the depth-first NOS executor and timestamp-management
//! strategies — the primary contribution of the reproduced paper.
//!
//! * [`GraphBuilder`] / [`QueryGraph`] — operator DAGs with buffer arcs,
//!   source and sink nodes (paper §3, Figs. 2 and 4);
//! * [`Executor`] — the two-step execution cycle with the
//!   Forward/Encore/Backtrack *Next Operator Selection* rules (§3.1–3.2),
//!   per-step virtual-CPU costing, and **on-demand Enabling Time-Stamp
//!   generation inside the backtrack mechanism** (§4–5);
//! * [`EtsPolicy`] — the §5 generation rules (internal clock, external
//!   skew-bound `t + τ − δ`);
//! * [`PartitionedExecutor`] — the same executor, one per connected
//!   component or key shard, on a pool of worker threads;
//! * [`VirtualClock`] / [`CostModel`] — the deterministic timeline the
//!   experiments run on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock;
mod executor;
mod graph;
mod partitioned;
mod strategy;

pub use clock::{CostModel, VirtualClock};
pub use executor::{
    Activity, ExecOptions, ExecStats, Executor, FeedbackConfig, OpProfile, SchedPolicy,
};
pub use graph::{
    route_shard, BufferId, ComponentGraph, ComponentPartition, GraphBuilder, Input, NodeId, Pred,
    QueryGraph, ShardKey, SourceId, SourceState, SHARD_HASH_SEED,
};
pub use millstream_buffer::{
    CheckMode, FeedbackRegisters, FeedbackSignal, PressureLevel, SentinelStats, Watermarks,
};
pub use partitioned::{
    PartitionedConfig, PartitionedExecutor, PartitionedSnapshot, Partitioning, ShardOutput,
    MAX_SHARDS,
};
pub use strategy::{frontier_advance, EtsPolicy};
