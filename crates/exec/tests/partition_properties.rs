//! Property tests over `QueryGraph::partition_components`: for randomized
//! multi-chain graphs (with component construction interleaved, so global
//! ids do not come in component order), the partition must
//!
//! * place every operator node and every source in exactly one component,
//!   and never share a buffer between components,
//! * preserve the relative (bottom-up) node order inside each component,
//! * be deterministic — building the same graph twice partitions it
//!   identically, and
//! * route ingest correctly — a tuple pushed at a global source comes out
//!   of that chain's sink under the `PartitionedExecutor`, exactly as under
//!   the serial `Executor`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use millstream_exec::{
    CostModel, EtsPolicy, Executor, GraphBuilder, Input, NodeId, PartitionedConfig,
    PartitionedExecutor, Partitioning, QueryGraph, SourceId, VirtualClock,
};
use millstream_ops::{Filter, Sink, SinkCollector, Union};
use millstream_types::{DataType, Expr, Field, Schema, Timestamp, TimestampKind, Tuple, Value};

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

/// One independent chain: `sources` parallel inputs (unioned when > 1),
/// then `filters` pass-all filter stages, then a sink.
#[derive(Debug, Clone)]
struct ChainSpec {
    sources: usize,
    filters: usize,
}

fn chain_spec() -> impl Strategy<Value = ChainSpec> {
    (1usize..3, 0usize..4).prop_map(|(sources, filters)| ChainSpec { sources, filters })
}

/// Builds the chains **interleaved**: all sources first, then one operator
/// stage per chain per round. Global node ids therefore alternate between
/// components, exercising the id remapping rather than a trivial
/// contiguous split.
fn build(chains: &[ChainSpec]) -> (QueryGraph, Vec<Vec<SourceId>>, Vec<Out>) {
    let mut b = GraphBuilder::new();
    let sources: Vec<Vec<SourceId>> = chains
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            (0..c.sources)
                .map(|si| b.source(format!("s{ci}.{si}"), schema(), TimestampKind::Internal))
                .collect()
        })
        .collect();

    // Stage 0: per chain, the merge point (union, or a single pass filter).
    let mut tops: Vec<NodeId> = Vec::new();
    for (ci, chain_sources) in sources.iter().enumerate() {
        let inputs: Vec<Input> = chain_sources.iter().map(|&s| Input::Source(s)).collect();
        let top = if inputs.len() > 1 {
            b.operator(
                Box::new(Union::new(format!("∪{ci}"), schema(), inputs.len())),
                inputs,
            )
            .unwrap()
        } else {
            b.operator(
                Box::new(Filter::new(
                    format!("σ{ci}.in"),
                    schema(),
                    Expr::col(0).ge(Expr::lit(i64::MIN)),
                )),
                inputs,
            )
            .unwrap()
        };
        tops.push(top);
    }
    // Filter stages, round-robin across chains.
    let max_filters = chains.iter().map(|c| c.filters).max().unwrap_or(0);
    for round in 0..max_filters {
        for (ci, c) in chains.iter().enumerate() {
            if round < c.filters {
                tops[ci] = b
                    .operator(
                        Box::new(Filter::new(
                            format!("σ{ci}.{round}"),
                            schema(),
                            Expr::col(0).ge(Expr::lit(i64::MIN)),
                        )),
                        vec![Input::Op(tops[ci])],
                    )
                    .unwrap();
            }
        }
    }
    let outs: Vec<Out> = chains.iter().map(|_| Out::default()).collect();
    for (ci, &top) in tops.iter().enumerate() {
        b.operator(
            Box::new(Sink::new(format!("sink{ci}"), schema(), outs[ci].clone())),
            vec![Input::Op(top)],
        )
        .unwrap();
    }
    (b.build().unwrap(), sources, outs)
}

/// The partition's assignment, flattened for comparison: per component,
/// its global node ids and global source ids.
fn assignment(graph: QueryGraph) -> Vec<(Vec<usize>, Vec<usize>)> {
    graph
        .partition_components()
        .components
        .iter()
        .map(|c| {
            (
                c.nodes.iter().map(|n| n.index()).collect(),
                c.sources.iter().map(|s| s.index()).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn every_id_lands_in_exactly_one_component(
        chains in prop::collection::vec(chain_spec(), 1..5),
    ) {
        let (graph, _, _) = build(&chains);
        let (num_ops, num_sources) = (graph.num_ops(), graph.num_sources());
        let partition = graph.partition_components();
        prop_assert_eq!(partition.components.len(), chains.len());

        let mut nodes: Vec<usize> = Vec::new();
        let mut sources: Vec<usize> = Vec::new();
        let mut buffers = HashSet::new();
        for comp in &partition.components {
            // Bottom-up order is preserved: local ids ascend with global.
            prop_assert!(
                comp.nodes.windows(2).all(|w| w[0] < w[1]),
                "node order not preserved: {:?}", comp.nodes
            );
            nodes.extend(comp.nodes.iter().map(|n| n.index()));
            sources.extend(comp.sources.iter().map(|s| s.index()));
            for &buf in &comp.buffers {
                prop_assert!(buffers.insert(buf), "buffer shared between components");
            }
            // The sub-graph is self-contained and sized consistently.
            prop_assert_eq!(comp.graph.num_ops(), comp.nodes.len());
            prop_assert_eq!(comp.graph.num_sources(), comp.sources.len());
        }
        nodes.sort_unstable();
        sources.sort_unstable();
        prop_assert_eq!(nodes, (0..num_ops).collect::<Vec<_>>());
        prop_assert_eq!(sources, (0..num_sources).collect::<Vec<_>>());

        // The routing table agrees with component membership.
        for (comp_idx, comp) in partition.components.iter().enumerate() {
            for (local, &global) in comp.sources.iter().enumerate() {
                let (c, l) = partition.route(global);
                prop_assert_eq!(c, comp_idx);
                prop_assert_eq!(l.index(), local);
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic(
        chains in prop::collection::vec(chain_spec(), 1..5),
    ) {
        let (first, _, _) = build(&chains);
        let (second, _, _) = build(&chains);
        prop_assert_eq!(assignment(first), assignment(second));
    }

    #[test]
    fn routed_ingest_reaches_the_same_sink(
        chains in prop::collection::vec(chain_spec(), 1..5),
        arrivals in prop::collection::vec((0usize..8, 0i64..1000), 1..40),
    ) {
        // Serial reference run.
        let (graph, sources, outs) = build(&chains);
        let mut exec = Executor::new(
            graph,
            VirtualClock::shared(),
            CostModel::default(),
            EtsPolicy::on_demand(),
        );
        let flat: Vec<SourceId> = sources.iter().flatten().copied().collect();
        for (i, &(sel, v)) in arrivals.iter().enumerate() {
            let ts = Timestamp::from_millis(i as u64);
            exec.ingest(flat[sel % flat.len()], Tuple::data(ts, vec![Value::Int(v)]))
                .unwrap();
        }
        for &s in &flat {
            exec.close_source(s).unwrap();
        }
        exec.run_until_quiescent(1_000_000).unwrap();
        let expected: Vec<Vec<Tuple>> =
            outs.iter().map(|o| o.0.lock().unwrap().clone()).collect();

        // Parallel run over the identically built graph.
        let (graph, sources, outs) = build(&chains);
        let mut pex = PartitionedExecutor::new(
            graph,
            PartitionedConfig::new(
                CostModel::default(),
                EtsPolicy::on_demand(),
                Partitioning::workers(chains.len()),
            ),
        );
        prop_assert_eq!(pex.num_components(), chains.len());
        let flat: Vec<SourceId> = sources.iter().flatten().copied().collect();
        for (i, &(sel, v)) in arrivals.iter().enumerate() {
            let ts = Timestamp::from_millis(i as u64);
            pex.ingest(flat[sel % flat.len()], Tuple::data(ts, vec![Value::Int(v)]))
                .unwrap();
        }
        for &s in &flat {
            pex.close_source(s).unwrap();
        }
        pex.run_until_quiescent(1_000_000).unwrap();

        for (ci, out) in outs.iter().enumerate() {
            let got = out.0.lock().unwrap().clone();
            prop_assert_eq!(
                &got, &expected[ci],
                "chain {} delivered a different stream under the partition", ci
            );
        }
    }
}
