//! Metric names, the stamped report, and the final result line.

use millstream_metrics::Json;

use crate::spans::Span;

/// A seed kept out of tuning, for confirming claims (see NOTES.md).
pub const CLAIM_SEED: u64 = 104_729;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("tuples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not reach reads 0 and is listed under `not_reached`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("query.plan_s", "s"),
    ("buffer.ingest_s", "s"),
    ("buffer.peak_queue_tuples", "count"),
    ("buffer.punct_per_tuple", "1/tuple"),
    ("buffer.coalesced_per_tuple", "1/tuple"),
    ("exec.run_s", "s"),
    ("exec.steps_per_tuple", "1/tuple"),
    ("exec.batches_per_tuple", "1/tuple"),
    ("exec.backtracks_per_tuple", "1/tuple"),
    ("exec.ets_per_tuple", "1/tuple"),
    ("exec.idle_wait_frac", "fraction"),
    ("exec.late_output_frac", "fraction"),
    ("ops.union.consumed_per_tuple", "1/tuple"),
    ("ops.union.produced_per_tuple", "1/tuple"),
    ("ops.union.steps_per_tuple", "1/tuple"),
    ("ops.join.consumed_per_tuple", "1/tuple"),
    ("ops.join.produced_per_tuple", "1/tuple"),
    ("ops.join.steps_per_tuple", "1/tuple"),
    ("ops.join.peak_state_tuples", "count"),
    ("ops.sink.consumed_per_tuple", "1/tuple"),
    ("ops.sink.produced_per_tuple", "1/tuple"),
    ("ops.sink.steps_per_tuple", "1/tuple"),
    ("net.send_s", "s"),
    ("net.recv_wait_s", "s"),
    ("net.frames_per_section", "count"),
    ("net.ingest_lag_tuples", "count"),
    ("net.engine_lag_tuples", "count"),
    ("net.egress_lag_tuples", "count"),
    ("net.server_wire_to_sink_p50_ms", "ms"),
    ("net.gen_late_max_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    details: Vec<(String, Json)>,
    /// Spans per thread (traced runs only).
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Adds a value to the stamped report.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.detail(key, Json::Num(value));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.detail(key, Json::str(value));
    }

    /// Adds a run's raw per-repetition values to the stamped report.
    pub fn raw(&mut self, key: &str, values: &[f64]) {
        self.detail(
            key,
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        );
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Orders `metrics` as `names` does, filling absent ones with 0. Returns
/// the filled names. Panics on a name outside `names`: the declared set
/// and what the workloads report must not drift apart.
pub fn complete(metrics: &mut Vec<Metric>, names: &[(&'static str, &'static str)]) -> Vec<String> {
    for m in metrics.iter() {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "undeclared metric {} [{}]",
            m.name,
            m.unit
        );
    }
    let mut filled = Vec::new();
    let mut ordered = Vec::with_capacity(names.len());
    for (name, unit) in names {
        match metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(metrics.swap_remove(i)),
            None => {
                filled.push(name.to_string());
                ordered.push(Metric::new(*name, 0.0, unit));
            }
        }
    }
    *metrics = ordered;
    filled
}

/// Metrics as the result line's `metrics` object.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::Num(o.attempted as f64)),
        ("failed".into(), Json::Num(o.failed as f64)),
        ("metrics".into(), metrics_json(metrics)),
    ])
    .render()
}

/// The stamped report printed before the result line.
pub fn stamped(o: &Outcome, header: Vec<(String, Json)>) -> String {
    let mut fields = header;
    fields.push(("error_rate".into(), Json::Num(o.error_rate())));
    fields.push(("end_to_end".into(), metrics_json(&o.end_to_end)));
    if !o.per_layer.is_empty() {
        fields.push(("per_layer".into(), metrics_json(&o.per_layer)));
    }
    fields.extend(o.details.iter().cloned());
    Json::Obj(fields).render()
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units in `BENCHMARK.json` (one metric object per line in
    /// its `end_to_end` and `per_layer` arrays).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let k = format!("\"{key}\": \"");
            let at = line.find(&k)? + k.len();
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declared_metrics_match_what_runs_report() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn complete_orders_and_fills() {
        let mut m = vec![
            Metric::new("setup_s", 2.0, "s"),
            Metric::new("tuples_per_s", 1.0, "1/s"),
        ];
        let filled = complete(&mut m, &END_TO_END);
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(
            filled,
            vec!["latency_p50_ms", "latency_p90_ms", "peak_rss_mb"]
        );
        assert_eq!(m[0].value, 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome::new(10, 0);
        let line = result_line(&o, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
