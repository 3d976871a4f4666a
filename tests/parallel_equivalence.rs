//! Differential equivalence suite for parallel multi-component execution.
//!
//! `PartitionedExecutor` runs each connected component of a query graph on
//! its own worker thread, each with a private clock and a private
//! single-threaded `Executor`. Because ETS backtracking never crosses a
//! component boundary, parallel execution must be *observationally
//! invisible* per component. Two baselines pin that down:
//!
//! 1. **Per-component serial baselines** — each component built and driven
//!    standalone on its own `Executor` with the identical schedule. Every
//!    observable must match *exactly*: the delivered `(tuple, time)`
//!    sequence, the full `ExecStats` (steps, work units, ETS counts,
//!    backtracks, staleness drops), per-source ETS and the final clock.
//! 2. **The whole-graph serial executor** — one `Executor` owning all
//!    components on one shared clock. Here only the delivered data per
//!    sink can be compared (a shared clock re-arms ETS budgets across
//!    components on every ingest, so step/ETS counters legitimately
//!    differ), and that comparison must hold too.
//!
//! The rig has three components — the paper's Fig. 4 union pipeline, a
//! union whose second input stays silent for the whole run (blocked, the
//! ETS showcase), and a plain filter chain — crossed over
//! EtsPolicy × SchedPolicy, plus a worker-multiplexing check
//! (3 components on 2 workers ≡ 3 workers).

use std::sync::{Arc, Mutex};

use millstream_core::prelude::*;

/// Shared sink collector recording `(tuple, delivery time)` pairs.
#[derive(Clone, Default)]
struct Out(Arc<Mutex<Vec<(Tuple, Timestamp)>>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.0.lock().unwrap().push((tuple, now));
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

const COMPONENTS: usize = 3;

/// Sources per component (component 0 and 1 have two, component 2 one).
const SOURCES: [usize; COMPONENTS] = [2, 2, 1];

/// One abstract driver step, applied identically to the parallel
/// executor (global ids), the per-component serial executors (local ids)
/// and the whole-graph serial executor (global ids).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Advance every clock to this instant (ms).
    Advance(u64),
    /// Ingest a data tuple stamped at `ms` into component `comp`'s
    /// `src`-th source.
    Data {
        comp: usize,
        src: usize,
        ms: u64,
        v: i64,
    },
    /// Ingest a heartbeat stamped at `ms`.
    Heartbeat { comp: usize, src: usize, ms: u64 },
    /// Run everything to quiescence.
    Drain,
}

/// The deterministic schedule shared by every run:
/// * component 0 (Fig. 4 union): a fast stream with drop-runs, a slow
///   stream, and duplicate heartbeats exercising the staleness gate;
/// * component 1 (blocked union): a steady first input, a second input
///   that never speaks — the union can only progress via on-demand ETS
///   (or not at all under `EtsPolicy::None`) until EOS;
/// * component 2 (chain): a sparse stream through a selective filter.
fn schedule() -> Vec<Step> {
    use Step::*;
    let mut steps = Vec::new();
    for i in 0u64..160 {
        let ms = 5 * i;
        steps.push(Advance(ms));
        let v = match i % 8 {
            3 | 4 => -(i as i64), // drop-run fodder for σ0a
            _ => (i % 10) as i64,
        };
        steps.push(Data {
            comp: 0,
            src: 0,
            ms,
            v,
        });
        if i % 8 == 7 {
            let v2 = if i % 16 == 7 { (i % 10) as i64 } else { -1 };
            steps.push(Data {
                comp: 0,
                src: 1,
                ms: ms + 1,
                v: v2,
            });
        }
        if i % 16 == 15 {
            // Fresh heartbeat, then a duplicate at the same timestamp
            // that the staleness gate must drop.
            steps.push(Heartbeat {
                comp: 0,
                src: 1,
                ms: ms + 2,
            });
            steps.push(Heartbeat {
                comp: 0,
                src: 1,
                ms: ms + 2,
            });
        }
        if i % 2 == 0 {
            // Component 1's first input speaks; its second never does.
            steps.push(Data {
                comp: 1,
                src: 0,
                ms,
                v: (i % 5) as i64,
            });
        }
        if i % 3 == 0 {
            let v = if i % 6 == 0 {
                (i % 7) as i64
            } else {
                -(i as i64)
            };
            steps.push(Data {
                comp: 2,
                src: 0,
                ms,
                v,
            });
        }
        if i % 8 == 7 {
            steps.push(Drain);
        }
    }
    steps
}

/// Adds component `comp`'s operators to `b`, fed by the given sources.
/// Used both for the combined graph and for standalone per-component
/// baselines, so the structures are identical by construction.
fn add_component(b: &mut GraphBuilder, comp: usize, sources: &[SourceId], out: Out) {
    let pass = |name: &str| Filter::new(name.to_string(), schema(), Expr::col(0).ge(Expr::lit(0)));
    match comp {
        0 => {
            let f1 = b
                .operator(Box::new(pass("σ0a")), vec![Input::Source(sources[0])])
                .unwrap();
            let f2 = b
                .operator(Box::new(pass("σ0b")), vec![Input::Source(sources[1])])
                .unwrap();
            let u = b
                .operator(
                    Box::new(Union::new("∪0", schema(), 2)),
                    vec![Input::Op(f1), Input::Op(f2)],
                )
                .unwrap();
            b.operator(
                Box::new(Sink::new("sink0", schema(), out)),
                vec![Input::Op(u)],
            )
            .unwrap();
        }
        1 => {
            let u = b
                .operator(
                    Box::new(Union::new("∪1", schema(), 2)),
                    vec![Input::Source(sources[0]), Input::Source(sources[1])],
                )
                .unwrap();
            b.operator(
                Box::new(Sink::new("sink1", schema(), out)),
                vec![Input::Op(u)],
            )
            .unwrap();
        }
        2 => {
            let f = b
                .operator(Box::new(pass("σ2")), vec![Input::Source(sources[0])])
                .unwrap();
            b.operator(
                Box::new(Sink::new("sink2", schema(), out)),
                vec![Input::Op(f)],
            )
            .unwrap();
        }
        _ => unreachable!("three components"),
    }
}

/// Builds the combined 3-component graph. Returns per-component source
/// ids and sink collectors.
fn combined_graph() -> (QueryGraph, Vec<Vec<SourceId>>, Vec<Out>) {
    let mut b = GraphBuilder::new();
    let sources: Vec<Vec<SourceId>> = (0..COMPONENTS)
        .map(|c| {
            (0..SOURCES[c])
                .map(|s| b.source(format!("S{c}.{s}"), schema(), TimestampKind::Internal))
                .collect()
        })
        .collect();
    let outs: Vec<Out> = (0..COMPONENTS).map(|_| Out::default()).collect();
    for c in 0..COMPONENTS {
        add_component(&mut b, c, &sources[c], outs[c].clone());
    }
    (b.build().unwrap(), sources, outs)
}

/// Everything observable about one component after a run.
#[derive(Debug, PartialEq)]
struct CompObservation {
    delivered: Vec<(Tuple, Timestamp)>,
    stats: ExecStats,
    ets_per_source: Vec<u64>,
    final_clock: Timestamp,
}

/// Drives the standalone serial baseline of component `comp`.
fn run_component_serial(comp: usize, policy: EtsPolicy, sched: SchedPolicy) -> CompObservation {
    let mut b = GraphBuilder::new();
    let sources: Vec<SourceId> = (0..SOURCES[comp])
        .map(|s| b.source(format!("S{comp}.{s}"), schema(), TimestampKind::Internal))
        .collect();
    let out = Out::default();
    add_component(&mut b, comp, &sources, out.clone());
    let mut exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::default(),
        policy,
    )
    .with_sched_policy(sched);

    for step in schedule() {
        match step {
            Step::Advance(ms) => exec.clock().advance_to(Timestamp::from_millis(ms)),
            Step::Data {
                comp: c,
                src,
                ms,
                v,
            } if c == comp => {
                exec.ingest(
                    sources[src],
                    Tuple::data(Timestamp::from_millis(ms), vec![Value::Int(v)]),
                )
                .unwrap();
            }
            Step::Heartbeat { comp: c, src, ms } if c == comp => {
                exec.ingest_heartbeat(sources[src], Timestamp::from_millis(ms))
                    .unwrap();
            }
            Step::Drain => {
                exec.run_until_quiescent(1_000_000).unwrap();
            }
            _ => {}
        }
    }
    for &s in &sources {
        exec.close_source(s).unwrap();
    }
    exec.run_until_quiescent(1_000_000).unwrap();
    let delivered = out.0.lock().unwrap().clone();
    CompObservation {
        delivered,
        stats: exec.stats(),
        ets_per_source: sources
            .iter()
            .map(|&s| exec.graph().source(s).ets_generated)
            .collect(),
        final_clock: exec.clock().now(),
    }
}

/// Drives the parallel executor over the combined graph and splits the
/// observation per component.
fn run_parallel(policy: EtsPolicy, sched: SchedPolicy, workers: usize) -> Vec<CompObservation> {
    let (graph, sources, outs) = combined_graph();
    let mut pex = PartitionedExecutor::new(
        graph,
        PartitionedConfig::new(CostModel::default(), policy, Partitioning::workers(workers))
            .with_sched_policy(sched),
    );
    assert_eq!(pex.num_components(), COMPONENTS);

    for step in schedule() {
        match step {
            Step::Advance(ms) => pex.advance_to(Timestamp::from_millis(ms)).unwrap(),
            Step::Data { comp, src, ms, v } => {
                pex.ingest(
                    sources[comp][src],
                    Tuple::data(Timestamp::from_millis(ms), vec![Value::Int(v)]),
                )
                .unwrap();
            }
            Step::Heartbeat { comp, src, ms } => {
                pex.ingest_heartbeat(sources[comp][src], Timestamp::from_millis(ms))
                    .unwrap();
            }
            Step::Drain => {
                pex.run_until_quiescent(1_000_000).unwrap();
            }
        }
    }
    for comp_sources in &sources {
        for &s in comp_sources {
            pex.close_source(s).unwrap();
        }
    }
    pex.run_until_quiescent(1_000_000).unwrap();

    let snap = pex.snapshot().unwrap();
    (0..COMPONENTS)
        .map(|c| CompObservation {
            delivered: outs[c].0.lock().unwrap().clone(),
            stats: snap.slot_stats[c],
            ets_per_source: sources[c]
                .iter()
                .map(|&s| snap.ets_per_source[s.index()])
                .collect(),
            final_clock: snap.slot_clocks[c],
        })
        .collect()
}

/// Drives the whole-graph serial executor; returns the delivered data
/// tuples per sink (delivery times are not comparable — one shared clock
/// serializes all components).
fn run_whole_serial(policy: EtsPolicy, sched: SchedPolicy) -> Vec<Vec<Tuple>> {
    let (graph, sources, outs) = combined_graph();
    let mut exec = Executor::new(graph, VirtualClock::shared(), CostModel::default(), policy)
        .with_sched_policy(sched);

    for step in schedule() {
        match step {
            Step::Advance(ms) => exec.clock().advance_to(Timestamp::from_millis(ms)),
            Step::Data { comp, src, ms, v } => {
                exec.ingest(
                    sources[comp][src],
                    Tuple::data(Timestamp::from_millis(ms), vec![Value::Int(v)]),
                )
                .unwrap();
            }
            Step::Heartbeat { comp, src, ms } => {
                exec.ingest_heartbeat(sources[comp][src], Timestamp::from_millis(ms))
                    .unwrap();
            }
            Step::Drain => {
                exec.run_until_quiescent(1_000_000).unwrap();
            }
        }
    }
    for comp_sources in &sources {
        for &s in comp_sources {
            exec.close_source(s).unwrap();
        }
    }
    exec.run_until_quiescent(1_000_000).unwrap();
    outs.iter()
        .map(|o| o.0.lock().unwrap().iter().map(|(t, _)| t.clone()).collect())
        .collect()
}

fn policies() -> Vec<(EtsPolicy, SchedPolicy)> {
    let mut combos = Vec::new();
    for ets in [EtsPolicy::None, EtsPolicy::on_demand()] {
        for sched in [SchedPolicy::DepthFirst, SchedPolicy::RoundRobin] {
            combos.push((ets, sched));
        }
    }
    combos
}

#[test]
fn parallel_components_match_serial_baselines_exactly() {
    for (ets, sched) in policies() {
        let parallel = run_parallel(ets, sched, COMPONENTS);
        for (comp, observed) in parallel.iter().enumerate() {
            let serial = run_component_serial(comp, ets, sched);
            assert_eq!(
                *observed, serial,
                "component {comp} diverged under {ets:?}/{sched:?}"
            );
        }
    }
}

#[test]
fn parallel_output_matches_whole_graph_serial_run() {
    for (ets, sched) in policies() {
        let serial = run_whole_serial(ets, sched);
        let parallel = run_parallel(ets, sched, COMPONENTS);
        for comp in 0..COMPONENTS {
            let got: Vec<Tuple> = parallel[comp]
                .delivered
                .iter()
                .map(|(t, _)| t.clone())
                .collect();
            assert_eq!(
                got, serial[comp],
                "sink {comp} data diverged from the whole-graph run under {ets:?}/{sched:?}"
            );
        }
    }
}

#[test]
fn worker_multiplexing_is_invisible() {
    // 3 components on 2 workers: one worker hosts two components, so the
    // round-robin multiplexing path runs. Observations must be identical
    // to the one-worker-per-component layout.
    for (ets, sched) in policies() {
        let dedicated = run_parallel(ets, sched, COMPONENTS);
        let multiplexed = run_parallel(ets, sched, 2);
        assert_eq!(
            dedicated, multiplexed,
            "worker multiplexing changed observations under {ets:?}/{sched:?}"
        );
    }
}

#[test]
fn schedule_exercises_the_interesting_paths() {
    // The suite only proves something if the schedule drives each rig
    // through its characteristic behavior; pin that here.
    let obs = run_parallel(EtsPolicy::on_demand(), SchedPolicy::DepthFirst, COMPONENTS);

    // Component 0: real deliveries, drop-runs and staleness drops.
    assert!(
        obs[0].delivered.len() >= 100,
        "only {} deliveries",
        obs[0].delivered.len()
    );
    assert!(obs[0].stats.dropped_stale_heartbeats >= 5);
    // Component 1: the silent second input forces on-demand ETS there.
    assert!(
        obs[1].ets_per_source[1] > 0,
        "the blocked union's silent input must be unblocked by on-demand ETS"
    );
    assert!(!obs[1].delivered.is_empty());
    // Component 2: the selective filter actually dropped tuples.
    assert!(!obs[2].delivered.is_empty());
    assert!(obs[2].delivered.len() < 54, "filter dropped nothing");

    // Under EtsPolicy::None the blocked union must still deliver exactly
    // the serial result (everything arrives only at EOS).
    let none = run_parallel(EtsPolicy::None, SchedPolicy::DepthFirst, COMPONENTS);
    assert_eq!(none[1].stats.ets_generated, 0);
    assert!(!none[1].delivered.is_empty());
}
