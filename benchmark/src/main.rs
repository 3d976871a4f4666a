//! The millstream benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fanin_ets --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`fanin_ets`, `sparse_join` or `wire_stream`) with
//! inputs generated from `--seed` for about `--seconds` of measurement,
//! checks every output against the benchmark's own reference, and prints
//! two lines: a stamped report (host, revision, seed, raw values, trace
//! digest), then the result line `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics from a run that records spans around
//! every call into a layer, and writes those spans under
//! `benchmark/out/`. See `benchmark/NOTES.md`.

mod calib;
mod gen;
mod inproc;
mod reference;
mod report;
mod spans;
mod stats;
mod wire;

use millstream_metrics::Json;

use report::{complete, result_line, stamped, END_TO_END, PER_LAYER};

/// Span rows written per thread at the end of a traced run.
const SPAN_CSV_CAP: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload fanin_ets|sparse_join|wire_stream --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "fanin_ets" => inproc::run(inproc::fanin_ets(args.seed), args.seconds, args.trace),
        "sparse_join" => inproc::run(inproc::sparse_join(args.seed), args.seconds, args.trace),
        "wire_stream" => wire::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("benchmark: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    complete(&mut outcome.end_to_end, &END_TO_END);
    let not_reached = if args.trace {
        complete(&mut outcome.per_layer, &PER_LAYER)
    } else {
        Vec::new()
    };
    let header = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        (
            "claim_seed".to_string(),
            Json::Num(report::CLAIM_SEED as f64),
        ),
        ("traced".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("nproc".to_string(), Json::Num(report::nproc() as f64)),
        (
            "git_revision".to_string(),
            Json::str(report::git_revision()),
        ),
        (
            "not_reached".to_string(),
            Json::Arr(not_reached.into_iter().map(Json::Str).collect()),
        ),
    ];
    if args.trace {
        let path = std::path::PathBuf::from(format!("benchmark/out/{}.spans.csv", args.workload));
        let threads: Vec<&[spans::Span]> = outcome.spans.iter().map(Vec::as_slice).collect();
        if let Err(e) = spans::write_csv(&path, &threads, SPAN_CSV_CAP) {
            eprintln!("benchmark: writing {}: {e}", path.display());
        }
    }
    println!("{}", stamped(&outcome, header));
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!("{}", result_line(&outcome, metrics));
}
