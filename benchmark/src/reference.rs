//! Reference computations written independently of the engine, and the
//! canonical byte encoding both sides are compared in.
//!
//! * `fanin_ets` — a timestamp-ordered merge of the per-source inputs;
//! * `sparse_join` — a nested-loop symmetric window join;
//! * `wire_stream` — a plain filter and project.

use std::collections::VecDeque;

use millstream_types::{Timestamp, Tuple, Value};

/// Canonical bytes of a data tuple: timestamp, then each value tagged.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.ts.as_micros().to_le_bytes());
    let values = t.values().unwrap_or(&[]);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => out.extend_from_slice(&[3, *b as u8]),
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Timestamp-ordered merge of per-source sequences (each already in
/// timestamp order); ties go to the lower source index.
pub fn merge(per_source: &[Vec<Tuple>]) -> Vec<Tuple> {
    let mut heads = vec![0usize; per_source.len()];
    let total = per_source.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<(Timestamp, usize)> = None;
        for (i, seq) in per_source.iter().enumerate() {
            if let Some(t) = seq.get(heads[i]) {
                if best.is_none_or(|(ts, _)| t.ts < ts) {
                    best = Some((t.ts, i));
                }
            }
        }
        let (_, i) = best.expect("a source still has tuples");
        out.push(per_source[i][heads[i]].clone());
        heads[i] += 1;
    }
    out
}

/// Nested-loop symmetric window join on an equality key, fed one input
/// tuple at a time in timestamp order. A tuple at `t` joins every
/// earlier tuple of the other input with the same key and a timestamp at
/// or above `t − window`; each result carries `t` and the row
/// `(key, left value, right value)`, in the other input's arrival order.
pub struct WindowJoinRef {
    window_us: u64,
    sides: [VecDeque<Tuple>; 2],
}

impl WindowJoinRef {
    pub fn new(window_us: u64) -> WindowJoinRef {
        WindowJoinRef {
            window_us,
            sides: [VecDeque::new(), VecDeque::new()],
        }
    }

    /// Feeds a `(k, v)` tuple on `input` (0 = left, 1 = right) and
    /// appends its results to `out`.
    pub fn push(&mut self, input: usize, t: &Tuple, out: &mut Vec<Tuple>) {
        let floor = t.ts.as_micros().saturating_sub(self.window_us);
        // Arrivals come in timestamp order, so later tuples of either
        // input only raise the floor: rows below it on both sides go.
        for side in &mut self.sides {
            while side.front().is_some_and(|u| u.ts.as_micros() < floor) {
                side.pop_front();
            }
        }
        let (key, val) = key_value(t);
        for u in self.sides[1 - input].iter() {
            let (ukey, uval) = key_value(u);
            if ukey == key {
                let (left, right) = if input == 0 { (val, uval) } else { (uval, val) };
                out.push(Tuple::data(
                    t.ts,
                    vec![Value::Int(key), Value::Int(left), Value::Int(right)],
                ));
            }
        }
        self.sides[input].push_back(t.clone());
    }
}

fn key_value(t: &Tuple) -> (i64, i64) {
    match t.values_expect() {
        [Value::Int(k), Value::Int(v)] => (*k, *v),
        other => panic!("join input rows are (k INT, v INT), got {other:?}"),
    }
}

/// The `wire_stream` query: keep rows `(seq, k, v)` with `v < limit`,
/// project `(seq, k)`.
pub fn filter_project(t: &Tuple, limit: i64) -> Option<Tuple> {
    match t.values_expect() {
        [seq, k, Value::Int(v)] if *v < limit => Some(t.with_values(vec![seq.clone(), k.clone()])),
        [_, _, Value::Int(_)] => None,
        other => panic!("wire rows are (seq INT, k INT, v INT), got {other:?}"),
    }
}

/// Streaming byte comparison of engine output against the reference.
/// Both sides append encoded tuples; [`Checker::settle`] compares the
/// common prefix and drops it, so neither side grows with run length.
#[derive(Default)]
pub struct Checker {
    expected: VecDeque<u8>,
    mismatches: u64,
}

impl Checker {
    pub fn expect(&mut self, t: &Tuple) {
        let mut buf = Vec::with_capacity(48);
        encode_tuple(t, &mut buf);
        self.expected.extend(buf);
    }

    /// Compares `actual` (encoded engine output) against the expected
    /// prefix. Bytes beyond the expected stream count as a mismatch.
    pub fn settle(&mut self, actual: &mut Vec<u8>) {
        let n = actual.len().min(self.expected.len());
        if !self.expected.iter().take(n).eq(actual[..n].iter()) {
            self.mismatches += 1;
        }
        self.expected.drain(..n);
        actual.drain(..n);
        if !actual.is_empty() {
            // Output the reference never produced.
            self.mismatches += 1;
            actual.clear();
        }
    }

    /// Call once output is complete: anything still expected is missing.
    pub fn finish(&mut self) {
        if !self.expected.is_empty() {
            self.mismatches += 1;
            self.expected.clear();
        }
    }

    /// Mismatch events (each a differing, extra or missing stretch).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(ts: u64, k: i64, v: i64) -> Tuple {
        Tuple::data(
            Timestamp::from_micros(ts),
            vec![Value::Int(k), Value::Int(v)],
        )
    }

    #[test]
    fn merge_orders_by_timestamp() {
        let a = vec![kv(1, 0, 0), kv(5, 0, 1)];
        let b = vec![kv(2, 1, 0), kv(3, 1, 1), kv(9, 1, 2)];
        let out: Vec<u64> = merge(&[a, b]).iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(out, vec![1, 2, 3, 5, 9]);
    }

    #[test]
    fn window_join_matches_by_key_within_window() {
        let mut j = WindowJoinRef::new(10);
        let mut out = Vec::new();
        j.push(0, &kv(1, 7, 100), &mut out);
        j.push(0, &kv(2, 8, 101), &mut out);
        j.push(1, &kv(5, 7, 900), &mut out); // joins (1, 7)
        j.push(0, &kv(12, 7, 102), &mut out); // joins (5, 7): 12 − 10 ≤ 5
        j.push(1, &kv(13, 7, 901), &mut out); // (1, 7) expired; joins (12, 7)
        j.push(0, &kv(16, 7, 103), &mut out); // (5, 7) expired (16 − 10 = 6)
        let rows: Vec<(u64, Vec<Value>)> = out
            .iter()
            .map(|t| (t.ts.as_micros(), t.values_expect().to_vec()))
            .collect();
        let row = |ts, a, b| (ts, vec![Value::Int(7), Value::Int(a), Value::Int(b)]);
        assert_eq!(
            rows,
            vec![
                row(5, 100, 900),
                row(12, 102, 900),
                row(13, 102, 901),
                row(16, 103, 901),
            ]
        );
    }

    #[test]
    fn filter_keeps_low_values_and_projects() {
        let t = Tuple::data(
            Timestamp::from_micros(4),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        let kept = filter_project(&t, 10).unwrap();
        assert_eq!(kept.values_expect(), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(kept.ts, t.ts);
        assert!(filter_project(&t, 3).is_none());
    }

    #[test]
    fn checker_detects_missing_extra_and_changed_output() {
        let enc = |t: &Tuple| {
            let mut b = Vec::new();
            encode_tuple(t, &mut b);
            b
        };
        let (x, y) = (kv(1, 1, 1), kv(2, 2, 2));

        let mut ok = Checker::default();
        ok.expect(&x);
        ok.expect(&y);
        let mut got = enc(&x);
        ok.settle(&mut got); // partial output is fine mid-run
        let mut got = enc(&y);
        ok.settle(&mut got);
        ok.finish();
        assert_eq!(ok.mismatches(), 0);

        let mut missing = Checker::default();
        missing.expect(&x);
        missing.expect(&y);
        let mut got = enc(&x);
        missing.settle(&mut got);
        missing.finish();
        assert_eq!(missing.mismatches(), 1);

        let mut extra = Checker::default();
        extra.expect(&x);
        let mut got = [enc(&x), enc(&y)].concat();
        extra.settle(&mut got);
        assert_eq!(extra.mismatches(), 1);

        let mut changed = Checker::default();
        changed.expect(&x);
        let mut got = enc(&kv(1, 1, 2));
        changed.settle(&mut got);
        changed.finish();
        assert_eq!(changed.mismatches(), 1);
    }
}
