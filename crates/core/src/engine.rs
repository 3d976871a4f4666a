//! Choosing and building the engine a textual program runs on.

use millstream_exec::{Executor, PartitionedConfig, PartitionedExecutor};
use millstream_ops::{SinkCollector, VecCollector};
use millstream_query::{
    parse_program, plan_program, plan_query, shard_keys, Catalog, PlannedSource,
};
use millstream_types::{Result, Schema};

/// The execution engine behind a planned program.
pub enum Engine {
    /// The single-threaded depth-first NOS executor — the oracle every
    /// other configuration is compared against.
    Serial(Box<Executor>),
    /// The plan's components spread over worker threads, or its one
    /// component key-sharded behind exchange edges.
    Partitioned(Box<PartitionedExecutor>),
}

/// A program planned onto the engine that runs it.
pub struct PlannedEngine {
    /// The engine, delivering to the collector passed to [`plan_engine`].
    pub engine: Engine,
    /// The program's input streams, in planning order.
    pub sources: Vec<PlannedSource>,
    /// Schema of the delivered stream.
    pub output_schema: Schema,
    /// The plan as Graphviz DOT, rendered before partitioning. A sharded
    /// plan shows its exchange nodes, shard replicas and merge stage.
    pub plan_dot: String,
}

/// Plans `program` (CREATE STREAM statements + one query) onto the engine
/// `config.partitioning` asks for:
///
/// * `shards > 1` — the plan replicated once per shard behind a
///   key-partitioned exchange edge, when the query is shardable: the
///   planner derives per-source partition keys ([`shard_keys`]) and the
///   plan is one connected component. Any other program (window cross
///   products, bare aggregates, conflicting keys, latent streams,
///   several components) falls back to the serial executor.
/// * `workers > 1` — the plan's connected components spread over the
///   worker threads.
/// * otherwise the serial executor.
///
/// Every engine runs with `config`'s cost model, policies and tuning.
pub fn plan_engine<C>(
    program: &str,
    collector: C,
    config: PartitionedConfig,
) -> Result<PlannedEngine>
where
    C: SinkCollector + Clone + 'static,
{
    let partitioning = config.partitioning;
    if partitioning.shards > 1 {
        if let Some(sharded) = plan_sharded(program, collector.clone(), &config)? {
            return Ok(sharded);
        }
    }
    let planned = plan_program(program, collector)?;
    let plan_dot = planned.graph.to_dot();
    let engine = if partitioning.shards == 1 && partitioning.workers > 1 {
        Engine::Partitioned(Box::new(PartitionedExecutor::new(planned.graph, config)))
    } else {
        Engine::Serial(Box::new(config.executor(planned.graph)))
    };
    Ok(PlannedEngine {
        engine,
        sources: planned.sources,
        output_schema: planned.output_schema,
        plan_dot,
    })
}

/// The sharded branch of [`plan_engine`]; `None` when the program is not
/// shardable.
fn plan_sharded<C>(
    program: &str,
    collector: C,
    config: &PartitionedConfig,
) -> Result<Option<PlannedEngine>>
where
    C: SinkCollector + 'static,
{
    let mut catalog = Catalog::new();
    let queries = catalog.apply(parse_program(program)?)?;
    let [query] = queries.as_slice() else {
        return Ok(None);
    };
    let Some(keys) = shard_keys(&catalog, query)? else {
        return Ok(None);
    };
    // Probe plan: the exchange replicates one connected component, and
    // the probe supplies the sources and output schema.
    let probe = plan_query(&catalog, query, VecCollector::default())?;
    if probe.graph.num_components() != 1 {
        return Ok(None);
    }
    let exec = PartitionedExecutor::sharded(
        |_, out| plan_query(&catalog, query, out).map(|p| p.graph),
        probe.output_schema.clone(),
        Box::new(collector),
        config.clone().with_keys(keys.clone()),
    )?;
    Ok(Some(PlannedEngine {
        plan_dot: probe.graph.to_dot_sharded(exec.num_shards(), &keys),
        engine: Engine::Partitioned(Box::new(exec)),
        sources: probe.sources,
        output_schema: probe.output_schema,
    }))
}
