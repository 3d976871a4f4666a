//! **BENCH_multijoin** — N-ary window join probe cost and state retention.
//!
//! Sweeps the `MultiWindowJoin` over arity × window length × key skew and
//! contrasts the two state layouts the operator supports:
//!
//! * **keyed** — equi-keys installed via `with_keys`, so each probe walks
//!   only its hash bucket (`JoinState` key partition);
//! * **scan** — the same equality expressed as a residual condition, so
//!   each probe walks whole windows with per-depth conjunct pruning (the
//!   seed cross-product behaviour).
//!
//! Both layouts are driven through the public operator contract
//! (`poll`/`step` over `OpContext`, exactly as the executor does) on
//! identical input schedules, so their `matches` counters must agree —
//! the bench asserts that output equivalence on every cell. The paper's
//! Fig. 8 methodology carries over to state: punctuation is injected once
//! per window length and the lifetime `peak_state` high-water is checked
//! against the `arity × O(window)` bound the purge contract guarantees
//! (§10 of DESIGN.md), independent of run length.
//!
//! The headline acceptance number is the probe-work ratio at the largest
//! arity × window cell: keyed probing must examine ≥5× fewer candidate
//! tuples than the scan layout (in practice the ratio tracks the window
//! length, i.e. hundreds).

use std::cell::RefCell;
use std::time::Instant;

use millstream_bench::{print_table, quick_mode, write_bench_summary, write_results};
use millstream_buffer::Buffer;
use millstream_metrics::Json;
use millstream_ops::{MultiWindowJoin, OpContext, Operator, TierConfig};
use millstream_types::{DataType, Expr, Field, Schema, TimeDelta, Timestamp, Tuple, Value};

/// Key-skew regimes for the single INT join column.
#[derive(Clone, Copy, PartialEq)]
enum Skew {
    /// Every step carries a fresh key — each probe matches exactly the
    /// aligned tuples of the other inputs (point-join regime).
    Unique,
    /// Keys cycle over a domain of 16 — buckets hold ~window/16 tuples.
    Uniform,
    /// Half the traffic lands on one hot key, the rest cycles — buckets
    /// are unbalanced, the worst case for scan-layout pruning.
    Hot,
}

impl Skew {
    fn name(self) -> &'static str {
        match self {
            Skew::Unique => "unique",
            Skew::Uniform => "uniform16",
            Skew::Hot => "hot50",
        }
    }

    fn key(self, step: u64) -> i64 {
        match self {
            Skew::Unique => step as i64,
            Skew::Uniform => (step % 16) as i64,
            Skew::Hot => {
                if step.is_multiple_of(2) {
                    0
                } else {
                    1 + ((step / 2) % 15) as i64
                }
            }
        }
    }
}

/// One sweep cell: `arity` inputs joined over `window_ms`-long windows.
struct Cell {
    arity: usize,
    window_ms: u64,
    skew: Skew,
}

/// Counters from one run of a cell under one state layout.
struct Measured {
    /// Candidate tuples examined across all enumeration depths.
    probes: u64,
    /// Combinations emitted.
    matches: u64,
    /// Lifetime high-water of stored tuples, summed over inputs.
    peak_state: u64,
    /// Ingested data tuples per second of wall-clock drain time.
    tuples_per_sec: f64,
}

/// Runs one cell: `steps` rounds, each pushing one tuple per input at a
/// 1 ms cadence and draining the operator to quiescence, with progress
/// punctuation on every input once per window length (the purge driver).
fn run_cell(cell: &Cell, keyed: bool, steps: u64) -> Measured {
    let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
    let schemas = vec![schema; cell.arity];
    let windows = vec![TimeDelta::from_millis(cell.window_ms); cell.arity];
    // The scan layout states the same equi-join as a conjunct chain over
    // the concatenated row (input i's only column sits at offset i).
    let condition = if keyed {
        None
    } else {
        (1..cell.arity)
            .map(|i| Expr::col(i - 1).eq(Expr::col(i)))
            .reduce(Expr::and)
    };
    let mut join = MultiWindowJoin::new("⋈", &schemas, windows, condition);
    if keyed {
        join = join.with_keys(vec![0; cell.arity]);
    }

    let bufs: Vec<RefCell<Buffer>> = (0..cell.arity)
        .map(|i| RefCell::new(Buffer::new(format!("in{i}"))))
        .collect();
    let out = RefCell::new(Buffer::new("out"));
    let inputs: Vec<&RefCell<Buffer>> = bufs.iter().collect();
    let outputs = [&out];

    let mut matches = 0u64;
    let started = Instant::now();
    for step in 0..steps {
        let ts = Timestamp::from_millis(step);
        let key = cell.skew.key(step);
        for buf in &bufs {
            buf.borrow_mut()
                .push(Tuple::data(ts, vec![Value::Int(key)]))
                .unwrap();
        }
        if step > 0 && step.is_multiple_of(cell.window_ms) {
            // Punctuation witnesses at the data timestamp: drives the
            // keyed purge sweep exactly once per window length.
            for buf in &bufs {
                buf.borrow_mut().push(Tuple::punctuation(ts)).unwrap();
            }
        }
        let ctx = OpContext::new(&inputs, &outputs, ts);
        while join.poll(&ctx).is_ready() {
            join.step(&ctx).unwrap();
        }
        let mut o = out.borrow_mut();
        while let Some(t) = o.pop() {
            if t.is_data() {
                matches += 1;
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(matches, join.matches(), "sink count matches operator count");

    Measured {
        probes: join.probes(),
        matches,
        peak_state: join.peak_state() as u64,
        tuples_per_sec: (steps * cell.arity as u64) as f64 / secs.max(1e-9),
    }
}

/// Counters from one run of the spill cell.
struct SpillMeasured {
    /// Output rows in emission order, `(ts, values)` — compared across
    /// budgets for byte-identity.
    output: Vec<(u64, Vec<Value>)>,
    /// High-water of `resident_state_bytes()` sampled after every step.
    peak_resident_bytes: u64,
    stats: millstream_ops::SpillStats,
}

/// The long-window spill cell: a keyed binary join over string-heavy rows
/// whose window holds far more payload than the spill budget. Drives the
/// operator exactly like [`run_cell`] and samples the resident join-state
/// footprint each step.
fn run_spill_cell(tier: Option<TierConfig>, window_ms: u64, steps: u64) -> SpillMeasured {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("p", DataType::Str),
    ]);
    let schemas = vec![schema; 2];
    let windows = vec![TimeDelta::from_millis(window_ms); 2];
    let mut join = MultiWindowJoin::new("⋈", &schemas, windows, None)
        .with_keys(vec![0; 2])
        .with_tier(tier);

    let bufs: Vec<RefCell<Buffer>> = (0..2)
        .map(|i| RefCell::new(Buffer::new(format!("in{i}"))))
        .collect();
    let out = RefCell::new(Buffer::new("out"));
    let inputs: Vec<&RefCell<Buffer>> = bufs.iter().collect();
    let outputs = [&out];

    let mut output = Vec::new();
    let mut peak = 0u64;
    for step in 0..steps {
        let ts = Timestamp::from_millis(step);
        let row = vec![
            Value::Int((step % 8) as i64),
            Value::str(format!("payload-{step:-<120}")),
        ];
        for buf in &bufs {
            buf.borrow_mut().push(Tuple::data(ts, row.clone())).unwrap();
        }
        if step > 0 && step.is_multiple_of(window_ms) {
            for buf in &bufs {
                buf.borrow_mut().push(Tuple::punctuation(ts)).unwrap();
            }
        }
        let ctx = OpContext::new(&inputs, &outputs, ts);
        while join.poll(&ctx).is_ready() {
            join.step(&ctx).unwrap();
        }
        peak = peak.max(join.resident_state_bytes());
        let mut o = out.borrow_mut();
        while let Some(t) = o.pop() {
            if t.is_data() {
                output.push((t.ts.as_micros(), t.values_expect().to_vec()));
            }
        }
    }
    SpillMeasured {
        output,
        peak_resident_bytes: peak,
        stats: join.spill_stats(),
    }
}

fn main() {
    let quick = quick_mode();
    // Quick mode shrinks windows and run length but keeps every cell, so
    // the CI smoke exercises the full sweep shape.
    let (w_small, w_large) = if quick { (16, 64) } else { (64, 256) };
    let steps_for = |window_ms: u64| (4 * window_ms).max(if quick { 64 } else { 256 });

    println!("millstream BENCH_multijoin — N-ary join probe cost: keyed buckets vs window scan");
    println!(
        "1 ms cadence, punctuation once per window{}\n",
        if quick { " (quick mode)" } else { "" }
    );

    let cells = [
        Cell {
            arity: 2,
            window_ms: w_small,
            skew: Skew::Unique,
        },
        Cell {
            arity: 3,
            window_ms: w_small,
            skew: Skew::Unique,
        },
        Cell {
            arity: 4,
            window_ms: w_small,
            skew: Skew::Unique,
        },
        Cell {
            arity: 4,
            window_ms: w_large,
            skew: Skew::Unique,
        },
        Cell {
            arity: 3,
            window_ms: w_small,
            skew: Skew::Uniform,
        },
        Cell {
            arity: 3,
            window_ms: w_small,
            skew: Skew::Hot,
        },
    ];

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut largest_speedup = 0.0f64;
    for cell in &cells {
        let steps = steps_for(cell.window_ms);
        let keyed = run_cell(cell, true, steps);
        let scan = run_cell(cell, false, steps);

        // Output equivalence: both layouts enumerate the same join.
        assert_eq!(
            keyed.matches,
            scan.matches,
            "keyed and scan layouts must emit identical combinations \
             (arity {}, window {} ms, {})",
            cell.arity,
            cell.window_ms,
            cell.skew.name()
        );
        // Purge contract: peak retention is O(arity × window), regardless
        // of how many steps ran. The factor 2 covers the amortized sweep
        // (half-window hysteresis) plus the in-flight probe tuple.
        let bound = cell.arity as u64 * (2 * cell.window_ms + 4);
        assert!(
            keyed.peak_state <= bound,
            "peak state {} exceeds purge bound {bound} (arity {}, window {} ms)",
            keyed.peak_state,
            cell.arity,
            cell.window_ms
        );

        let speedup = scan.probes as f64 / keyed.probes.max(1) as f64;
        if cell.arity == 4 && cell.window_ms == w_large {
            largest_speedup = speedup;
        }
        rows.push(vec![
            format!("{}-ary", cell.arity),
            format!("{} ms", cell.window_ms),
            cell.skew.name().into(),
            keyed.probes.to_string(),
            scan.probes.to_string(),
            format!("{speedup:.1}x"),
            keyed.matches.to_string(),
            format!("{}/{}", keyed.peak_state, scan.peak_state),
        ]);
        let layout = |m: &Measured| {
            Json::obj([
                ("probes", Json::Num(m.probes as f64)),
                ("matches", Json::Num(m.matches as f64)),
                ("peak_state", Json::Num(m.peak_state as f64)),
                ("tuples_per_sec", Json::Num(m.tuples_per_sec)),
            ])
        };
        json_rows.push(Json::obj([
            ("arity", Json::Num(cell.arity as f64)),
            ("window_ms", Json::Num(cell.window_ms as f64)),
            ("skew", Json::str(cell.skew.name())),
            ("steps", Json::Num(steps as f64)),
            ("keyed", layout(&keyed)),
            ("scan", layout(&scan)),
            ("probe_speedup", Json::Num(speedup)),
            ("peak_state_bound", Json::Num(bound as f64)),
        ]));
    }

    print_table(
        "candidate tuples examined (probes): keyed buckets vs window scan",
        &[
            "arity", "window", "skew", "keyed", "scan", "speedup", "matches", "peak k/s",
        ],
        &rows,
    );

    assert!(
        largest_speedup >= 5.0,
        "keyed probing must win ≥5x at the largest arity × window cell, got {largest_speedup:.1}x"
    );
    println!(
        "\nacceptance: keyed probe work is {largest_speedup:.1}x below scan at 4-ary × {w_large} ms (≥5x required)"
    );

    // Spill cell: a long window of string-heavy rows, run untiered (every
    // live byte resident) and with a tiny spill budget. The tier must cut
    // the peak resident footprint ≥4x while leaving the output stream
    // byte-identical.
    let spill_window = if quick { 256 } else { 1024 };
    let spill_steps = 3 * spill_window;
    let budget = 4096u64;
    let unbounded = run_spill_cell(None, spill_window, spill_steps);
    let budgeted = run_spill_cell(
        Some(TierConfig {
            budget,
            hot_fraction: 0.05,
            min_run_rows: 16,
        }),
        spill_window,
        spill_steps,
    );
    let output_identical = unbounded.output == budgeted.output;
    assert!(
        output_identical,
        "tiered join output diverged from untiered ({} vs {} rows)",
        budgeted.output.len(),
        unbounded.output.len()
    );
    assert!(
        budgeted.stats.spilled_bytes > 0,
        "budget {budget} must spill"
    );
    assert!(budgeted.stats.run_drops > 0, "punctuation must drop runs");
    let reduction =
        unbounded.peak_resident_bytes as f64 / budgeted.peak_resident_bytes.max(1) as f64;
    assert!(
        reduction >= 4.0,
        "spill budget must cut peak resident state ≥4x, got {reduction:.1}x \
         ({} -> {} bytes)",
        unbounded.peak_resident_bytes,
        budgeted.peak_resident_bytes
    );
    println!(
        "spill: peak resident join state {} -> {} bytes ({reduction:.1}x) under a {budget}-byte \
         budget at window {spill_window} ms; {} bytes spilled, {} runs compacted, {} runs \
         dropped, output identical over {} rows (≥4x required)",
        unbounded.peak_resident_bytes,
        budgeted.peak_resident_bytes,
        budgeted.stats.spilled_bytes,
        budgeted.stats.compacted_runs,
        budgeted.stats.run_drops,
        budgeted.output.len(),
    );

    let summary = Json::obj([
        (
            "method",
            Json::str(
                "MultiWindowJoin driven via poll/step; keyed = with_keys hash buckets, \
                 scan = same equality as residual condition; punctuation once per window",
            ),
        ),
        ("quick", Json::Bool(quick)),
        ("largest_cell_probe_speedup", Json::Num(largest_speedup)),
        ("rows", Json::Arr(json_rows)),
        (
            "spill",
            Json::obj([
                ("window_ms", Json::Num(spill_window as f64)),
                ("budget_bytes", Json::Num(budget as f64)),
                (
                    "unbounded_peak_bytes",
                    Json::Num(unbounded.peak_resident_bytes as f64),
                ),
                (
                    "budgeted_peak_bytes",
                    Json::Num(budgeted.peak_resident_bytes as f64),
                ),
                ("peak_reduction", Json::Num(reduction)),
                (
                    "spilled_bytes",
                    Json::Num(budgeted.stats.spilled_bytes as f64),
                ),
                (
                    "compacted_runs",
                    Json::Num(budgeted.stats.compacted_runs as f64),
                ),
                ("run_drops", Json::Num(budgeted.stats.run_drops as f64)),
                ("output_identical", Json::Bool(output_identical)),
            ]),
        ),
    ]);
    write_results("multijoin", summary.clone());
    write_bench_summary("multijoin", summary);
}
