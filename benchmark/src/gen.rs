//! Seeded input generation and the trace digest.
//!
//! The generator is self-contained (SplitMix64) so a trace depends only on
//! the seed and the workload parameters, never on a library's random
//! number stream. Events are produced lazily, one at a time, so the
//! benchmark's own memory does not grow with how far a run gets.

use millstream_types::{Timestamp, Tuple, Value};

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential inter-arrival gap in microseconds for `rate_hz`, at
    /// least 1 µs so timestamps stay strictly increasing.
    pub fn exp_gap_us(&mut self, rate_hz: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]
        ((-u.ln() / rate_hz) * 1e6).round().max(1.0) as u64
    }

    /// Jittered periodic gap in microseconds for `rate_hz`: uniform in
    /// `[0.5, 1.5)` mean gaps.
    pub fn jittered_gap_us(&mut self, rate_hz: f64) -> u64 {
        ((0.5 + self.unit()) / rate_hz * 1e6).round() as u64
    }
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Samples a rank from a cumulative distribution.
pub fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// One generated arrival: which input it enters and the tuple.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub input: usize,
    pub tuple: Tuple,
}

impl Arrival {
    fn new(input: usize, ts_us: u64, values: Vec<Value>) -> Arrival {
        Arrival {
            input,
            tuple: Tuple::data(Timestamp::from_micros(ts_us), values),
        }
    }
}

/// `fanin_ets` input: one Poisson process of `rate_hz` total arrivals,
/// each routed to one of `inputs` sources by a Zipf draw (a few hot
/// sources, most sparse). Source `i` has Zipf rank `i + 1` for every
/// seed, so seeds vary the arrivals but not which sources are hot.
pub struct FaninGen {
    rng: Rng,
    cdf: Vec<f64>,
    rate_hz: f64,
    ts_us: u64,
    seq: i64,
}

impl FaninGen {
    pub fn new(seed: u64, inputs: usize, zipf_s: f64, rate_hz: f64) -> FaninGen {
        FaninGen {
            rng: Rng::derive(seed, 1),
            cdf: zipf_cdf(inputs, zipf_s),
            rate_hz,
            ts_us: 0,
            seq: 0,
        }
    }
}

impl Iterator for FaninGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.ts_us += self.rng.exp_gap_us(self.rate_hz);
        let input = sample_cdf(&self.cdf, self.rng.unit());
        self.seq += 1;
        Some(Arrival::new(input, self.ts_us, vec![Value::Int(self.seq)]))
    }
}

/// `sparse_join` input: a dense Poisson stream (input 0) and a sparse one
/// (input 1) over `keys` uniformly drawn join keys. The sparse stream is
/// jittered-periodic: each gap is uniform in half to one and a half mean
/// gaps, so any span of one and a half mean gaps holds a sparse arrival. Rows are
/// `(k, v)` on both sides; timestamps are strictly increasing across both
/// streams, so the join's processing order is unique.
pub struct JoinGen {
    dense: Rng,
    sparse: Rng,
    keys: u64,
    dense_hz: f64,
    sparse_hz: f64,
    next_dense: u64,
    next_sparse: u64,
    last_ts: u64,
    seq: i64,
}

impl JoinGen {
    pub fn new(seed: u64, keys: u64, dense_hz: f64, sparse_hz: f64) -> JoinGen {
        let mut dense = Rng::derive(seed, 2);
        let mut sparse = Rng::derive(seed, 3);
        let next_dense = dense.exp_gap_us(dense_hz);
        let next_sparse = sparse.jittered_gap_us(sparse_hz);
        JoinGen {
            dense,
            sparse,
            keys,
            dense_hz,
            sparse_hz,
            next_dense,
            next_sparse,
            last_ts: 0,
            seq: 0,
        }
    }
}

impl Iterator for JoinGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let (input, due) = if self.next_dense <= self.next_sparse {
            (0, self.next_dense)
        } else {
            (1, self.next_sparse)
        };
        let rng = if input == 0 {
            &mut self.dense
        } else {
            &mut self.sparse
        };
        let key = rng.below(self.keys) as i64;
        if input == 0 {
            self.next_dense += rng.exp_gap_us(self.dense_hz);
        } else {
            self.next_sparse += rng.jittered_gap_us(self.sparse_hz);
        }
        // Two streams may draw the same microsecond; nudge forward.
        let ts = due.max(self.last_ts + 1);
        self.last_ts = ts;
        self.seq += 1;
        Some(Arrival::new(
            input,
            ts,
            vec![Value::Int(key), Value::Int(self.seq)],
        ))
    }
}

/// `wire_stream` input rows `(seq, k, v)`: `seq` numbers the tuple so a
/// subscriber can find its scheduled send time; `k` and `v` are uniform.
pub struct WireGen {
    rng: Rng,
    seq: i64,
}

impl WireGen {
    pub fn new(seed: u64) -> WireGen {
        WireGen {
            rng: Rng::derive(seed, 4),
            seq: 0,
        }
    }

    /// The next row, stamped at `ts_us`.
    pub fn next_at(&mut self, ts_us: u64) -> Tuple {
        let k = self.rng.below(1024) as i64;
        let v = self.rng.below(1000) as i64;
        let t = Tuple::data(
            Timestamp::from_micros(ts_us),
            vec![Value::Int(self.seq), Value::Int(k), Value::Int(v)],
        );
        self.seq += 1;
        t
    }
}

/// FNV-1a 64, fed with the canonical byte encoding of events.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of the first `n` arrivals of a trace (input index and encoded
/// tuple of each). Traces are unbounded, so a fixed prefix identifies one.
pub fn digest_arrivals(arrivals: impl Iterator<Item = Arrival>, n: usize) -> String {
    let mut d = Digest::default();
    let mut buf = Vec::new();
    for a in arrivals.take(n) {
        buf.clear();
        buf.extend_from_slice(&(a.input as u32).to_le_bytes());
        crate::reference::encode_tuple(&a.tuple, &mut buf);
        d.update(&buf);
    }
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_per_seed() {
        let a = digest_arrivals(FaninGen::new(7, 64, 1.1, 5000.0), 4096);
        let b = digest_arrivals(FaninGen::new(7, 64, 1.1, 5000.0), 4096);
        let c = digest_arrivals(FaninGen::new(8, 64, 1.1, 5000.0), 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let j1 = digest_arrivals(JoinGen::new(7, 4096, 20_000.0, 1.0), 4096);
        let j2 = digest_arrivals(JoinGen::new(7, 4096, 20_000.0, 1.0), 4096);
        let j3 = digest_arrivals(JoinGen::new(9, 4096, 20_000.0, 1.0), 4096);
        assert_eq!(j1, j2);
        assert_ne!(j1, j3);
    }

    #[test]
    fn generated_timestamps_strictly_increase() {
        let mut last = 0;
        for a in JoinGen::new(3, 16, 20_000.0, 50.0).take(20_000) {
            let ts = a.tuple.ts.as_micros();
            assert!(ts > last);
            last = ts;
        }
        let mut last = 0;
        for a in FaninGen::new(3, 64, 1.1, 50_000.0).take(20_000) {
            let ts = a.tuple.ts.as_micros();
            assert!(ts > last);
            last = ts;
        }
    }

    #[test]
    fn zipf_makes_a_few_sources_hot() {
        let mut counts = [0usize; 64];
        for a in FaninGen::new(11, 64, 1.1, 1000.0).take(50_000) {
            counts[a.input] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = counts[..4].iter().sum();
        assert!(top4 > 50_000 / 3, "top four sources carry {top4}");
        assert!(counts[63] < 50_000 / 200, "coldest carries {}", counts[63]);
    }
}
