//! The `wire_stream` workload: a `Server` on loopback hosting a one-stream
//! filter and project, one producer connection and one subscriber
//! connection, on two generator threads (this one produces, a second one
//! subscribes).
//!
//! The run repeats `ROUNDS` rounds of the same shape, fewer if `--seconds`
//! run out first:
//!
//! * open loop: `OPEN_N` tuples due at a fixed rate well below capacity;
//!   each is timed to its arrival at the subscriber from its due time, or
//!   from the generator's wake-up if its sleep overran that. A stall in
//!   `StreamClient::send` (a full ack window) thus still delays the
//!   tuples queued behind it, while a generator thread woken late does
//!   not read as server latency; how late the generator ran is reported
//!   on its own (`gen_late_*`);
//! * flood: `FLOOD` tuples sent as fast as the ack window allows, timed
//!   from the first send to the arrival of the last output.
//!
//! Each phase starts after the previous one has fully drained. The
//! subscriber regenerates the input from the seed and byte-compares every
//! output with the reference filter as it arrives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use millstream_net::{ClientConfig, Server, ServerConfig, StreamClient, Subscription};
use millstream_ops::VecCollector;
use millstream_query::plan_program;
use millstream_types::{Tuple, Value};

use crate::gen::{Digest, WireGen};
use crate::reference::{encode_tuple, filter_project};
use crate::report::{Metric, Outcome};
use crate::spans::{self, Span, Tracer};
use crate::stats::{lowest, median, percentile};

const PROGRAM: &str = "CREATE STREAM s (seq INT, k INT, v INT);
SELECT seq, k FROM s WHERE v < 750;";
/// The filter's constant, for the reference.
const FILTER_LIMIT: i64 = 750;
const STREAM: &str = "s";
/// Server set-ups timed per run.
const SETUP_REPS: usize = 200;
/// Open-loop send rate, and tuples per round (a quarter second).
const OPEN_RATE_HZ: f64 = 20_000.0;
const OPEN_N: u64 = 5_000;
/// Tuples per flood.
const FLOOD: u64 = 40_000;
/// Rounds per run, unless `--seconds` run out first (a fixed count keeps
/// the sample behind each estimate the same from one commit to the next),
/// and the round after which `peak_rss_mb` is read.
const ROUNDS: usize = 48;
const RSS_ROUNDS: usize = 10;
/// Producer frames in flight before `send` waits for acks.
const ACK_WINDOW: usize = 1024;
/// `Server::stats` is polled once per this many sends.
const POLL_EVERY: u64 = 512;
const DIGEST_PREFIX: u64 = 65_536;
/// Longest a phase may wait for its outputs before the run gives up.
const DRAIN_PATIENCE: Duration = Duration::from_secs(20);

fn server_config() -> ServerConfig {
    // One poller and one worker: pools no larger than the core count on
    // any host, and the one-stream plan is a single component anyway.
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.workers = 1;
    cfg.io_threads = 1;
    cfg.ingest_shards = 1;
    // Deep enough that a subscriber keeping up is never shed; a shed
    // tuple would still be declared and counted as a failure.
    cfg.subscriber_queue = 1 << 18;
    cfg
}

fn client_config(addr: &str) -> ClientConfig {
    let mut cc = ClientConfig::new(addr, STREAM);
    cc.ack_window = ACK_WINDOW;
    cc.backoff_seed = Some(0);
    cc
}

/// Server start plus both connects: the span of `setup_s`. The producer
/// connects first: a producer handshake arriving second often waits out
/// a poller park (about 2 ms instead of 0.2 ms), and whether it does
/// settles per process, which would make the figure flip between runs.
fn set_up() -> (Server, Subscription, StreamClient, f64) {
    let started = Instant::now();
    let server = Server::start(server_config()).expect("server starts");
    let addr = server.addr().to_string();
    let producer = StreamClient::connect(client_config(&addr)).expect("producer connects");
    let sub = Subscription::connect(&addr).expect("subscriber connects");
    (server, sub, producer, started.elapsed().as_secs_f64())
}

/// Ends a set-up-only session: producer close, server drain, subscriber
/// end of stream.
fn shut_down(server: Server, mut sub: Subscription, producer: StreamClient) {
    producer.close().expect("idle producer closes");
    server.shutdown().expect("idle server shuts down");
    while let Ok(Some(_)) = sub.next(DRAIN_PATIENCE) {}
}

/// One round's open-loop schedule: tuple `first_seq + i` is due at
/// `start + i / OPEN_RATE_HZ`.
#[derive(Clone, Copy)]
struct Schedule {
    first_seq: u64,
    start: Instant,
}

impl Schedule {
    fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / OPEN_RATE_HZ)
    }
}

/// What the subscriber thread shares with the producer while running.
struct Shared {
    epoch: Instant,
    /// Data outputs received so far.
    received: AtomicU64,
    /// Arrival of the latest output, in ns since `epoch`.
    last_recv_ns: AtomicU64,
    /// Whether the subscriber records spans right now.
    tracing: AtomicBool,
    /// The current round's open-loop schedule, published before it starts.
    schedule: Mutex<Option<Schedule>>,
    /// Where the latency of the current round's open-loop tuple `i`
    /// starts, in ns since `epoch`, stored before the tuple is sent.
    start_ns: Vec<AtomicU64>,
}

/// Open-loop latency of one round: p50, p90 (ms) and the sample count.
type RoundLatency = (f64, f64, usize);

/// The subscriber's findings, handed back when the stream ends.
struct SubResult {
    received: u64,
    mismatches: u64,
    rounds: Vec<RoundLatency>,
    spans: Vec<Span>,
    dropped: u64,
    error: Option<String>,
}

fn close_round(samples: &mut Vec<f64>, rounds: &mut Vec<RoundLatency>) {
    let p = |q| percentile(samples, q).unwrap_or(0.0);
    rounds.push((p(50.0), p(90.0), samples.len()));
    samples.clear();
}

/// Drains the subscription until end of stream, comparing each output
/// with the reference and timing open-loop outputs from their start.
fn subscribe(mut sub: Subscription, seed: u64, shared: Arc<Shared>) -> SubResult {
    let mut reference = WireGen::new(seed);
    let mut next_seq = 0u64;
    let mut tracer = Tracer::new(shared.epoch, false);
    let mut root = None;
    let mut r = SubResult {
        received: 0,
        mismatches: 0,
        rounds: Vec::new(),
        spans: Vec::new(),
        dropped: 0,
        error: None,
    };
    // The round being timed and its latency samples (ms).
    let mut round: Option<Schedule> = None;
    let mut samples: Vec<f64> = Vec::with_capacity(OPEN_N as usize);
    let (mut got, mut want) = (Vec::with_capacity(64), Vec::with_capacity(64));
    loop {
        let on = shared.tracing.load(Ordering::Relaxed);
        if on != tracer.enabled() {
            if on {
                tracer.set_enabled(true);
                root = tracer.open("bench.subscriber", None);
            } else {
                tracer.close(root.take());
                tracer.set_enabled(false);
            }
        }
        let next = tracer.time("net.recv", root, || sub.next(DRAIN_PATIENCE));
        let tuple = match next {
            Ok(Some(t)) if t.is_data() => t,
            Ok(Some(_punctuation)) => continue,
            Ok(None) => break,
            Err(e) => {
                r.error = Some(e.to_string());
                break;
            }
        };
        let now = Instant::now();
        let expected = loop {
            let t = reference.next_at(next_seq + 1);
            next_seq += 1;
            if let Some(o) = filter_project(&t, FILTER_LIMIT) {
                break o;
            }
        };
        got.clear();
        want.clear();
        encode_tuple(&tuple, &mut got);
        encode_tuple(&expected, &mut want);
        if got != want {
            r.mismatches += 1;
        }
        if let Some(&Value::Int(seq)) = tuple.values().and_then(|v| v.first()) {
            let seq = seq as u64;
            let current = *shared.schedule.lock().expect("schedule lock");
            if let Some(s) = current.filter(|s| seq >= s.first_seq) {
                if round.is_some_and(|r| r.first_seq != s.first_seq) {
                    close_round(&mut samples, &mut r.rounds);
                }
                round = Some(s);
            }
            if let Some(s) = round.filter(|s| seq - s.first_seq < OPEN_N) {
                let start_ns =
                    shared.start_ns[(seq - s.first_seq) as usize].load(Ordering::Acquire);
                let start = shared.epoch + Duration::from_nanos(start_ns);
                samples.push(now.saturating_duration_since(start).as_secs_f64() * 1e3);
            }
        }
        r.received += 1;
        shared.last_recv_ns.store(
            now.duration_since(shared.epoch).as_nanos() as u64,
            Ordering::Release,
        );
        shared.received.store(r.received, Ordering::Release);
    }
    if round.is_some() {
        close_round(&mut samples, &mut r.rounds);
    }
    tracer.close(root.take());
    r.dropped = sub.dropped();
    r.spans = tracer.spans().to_vec();
    r
}

/// The producer side: sends, tracks which sent tuples pass the filter,
/// and samples the server's counters.
struct Producer {
    client: StreamClient,
    gen: WireGen,
    digest: Digest,
    sent: u64,
    /// Outputs the reference expects from everything sent so far.
    passing: u64,
    /// `passing` after each of the last sends, for the engine-lag
    /// sample (the server ingests at most an ack window behind).
    recent_passing: VecDeque<u64>,
    failed: u64,
    lag_samples: [Vec<f64>; 3],
    tracer: Tracer,
}

impl Producer {
    fn send(&mut self, root: Option<usize>) {
        let t: Tuple = self.gen.next_at(self.sent + 1);
        if self.sent < DIGEST_PREFIX {
            let mut b = Vec::new();
            encode_tuple(&t, &mut b);
            self.digest.update(&b);
        }
        if filter_project(&t, FILTER_LIMIT).is_some() {
            self.passing += 1;
        }
        let client = &mut self.client;
        if self
            .tracer
            .time("net.send", root, || client.send(t))
            .is_err()
        {
            self.failed += 1;
        }
        self.sent += 1;
        self.recent_passing.push_back(self.passing);
        if self.recent_passing.len() > 2 * ACK_WINDOW {
            self.recent_passing.pop_front();
        }
    }

    /// Outputs the reference expects from the first `n` sent tuples.
    fn passing_at(&self, n: u64) -> u64 {
        let behind = self.sent.saturating_sub(n) as usize;
        let len = self.recent_passing.len();
        if n == 0 || behind >= len {
            return 0;
        }
        self.recent_passing[len - 1 - behind]
    }

    fn sample_lags(&mut self, server: &Server, shared: &Shared) {
        let st = server.stats();
        let received = shared.received.load(Ordering::Acquire);
        let engine_expected = self.passing_at(st.tuples_ingested);
        self.lag_samples[0].push(self.sent.saturating_sub(st.frames_in) as f64);
        self.lag_samples[1].push(engine_expected.saturating_sub(st.delivered) as f64);
        self.lag_samples[2].push(st.delivered.saturating_sub(received) as f64);
    }

    fn send_polling(&mut self, root: Option<usize>, server: &Server, shared: &Shared) {
        self.send(root);
        if self.sent.is_multiple_of(POLL_EVERY) {
            self.sample_lags(server, shared);
        }
    }

    /// Waits until the subscriber has every output sent so far. Returns
    /// the arrival of the last one, or `None` on timeout.
    fn drain(&self, shared: &Shared) -> Option<Instant> {
        let deadline = Instant::now() + DRAIN_PATIENCE;
        while shared.received.load(Ordering::Acquire) < self.passing {
            if Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let ns = shared.last_recv_ns.load(Ordering::Acquire);
        Some(shared.epoch + Duration::from_nanos(ns))
    }
}

/// What one round measured on the producer side.
struct Round {
    traced: bool,
    /// First flood send → last flood output received, seconds.
    flood_wall: f64,
    /// Open loop plus flood, seconds.
    wall: f64,
    /// How far behind schedule the open loop sent each tuple, ms.
    late_ms: Vec<f64>,
}

/// One round: open loop, drain, flood, drain. `None` if outputs stopped
/// arriving.
fn round(p: &mut Producer, server: &Server, shared: &Shared, traced: bool) -> Option<Round> {
    p.tracer.set_enabled(traced);
    shared.tracing.store(traced, Ordering::Relaxed);
    let schedule = Schedule {
        first_seq: p.sent,
        start: Instant::now() + Duration::from_millis(1),
    };
    *shared.schedule.lock().expect("schedule lock") = Some(schedule);

    // Send everything that is due, then sleep to the next due time. A
    // sleep that overruns sends a burst: its tuples count from the
    // wake-up, the overrun is recorded as generator lateness.
    let round_started = Instant::now();
    let root = p.tracer.open("bench.open_loop", None);
    let mut late_ms = Vec::with_capacity(OPEN_N as usize);
    let mut woke = round_started;
    while p.sent - schedule.first_seq < OPEN_N {
        let i = p.sent - schedule.first_seq;
        let now = Instant::now();
        let due = schedule.due(i);
        if now < due {
            std::thread::sleep(due - now);
            woke = Instant::now();
            continue;
        }
        late_ms.push((now - due).as_secs_f64() * 1e3);
        let start = due.max(woke).duration_since(shared.epoch);
        shared.start_ns[i as usize].store(start.as_nanos() as u64, Ordering::Release);
        p.send_polling(root, server, shared);
    }
    p.drain(shared)?;
    p.tracer.close(root);

    let root = p.tracer.open("bench.flood", None);
    let started = Instant::now();
    for _ in 0..FLOOD {
        p.send_polling(root, server, shared);
    }
    let last = p.drain(shared)?;
    p.tracer.close(root);
    let flood_wall = last.saturating_duration_since(started).as_secs_f64();
    Some(Round {
        traced,
        flood_wall,
        wall: last.saturating_duration_since(round_started).as_secs_f64(),
        late_ms,
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut plans = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        plan_program(PROGRAM, VecCollector::default()).expect("benchmark program plans");
        plans.push(started.elapsed().as_secs_f64());
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, sub, producer, _)) = session.take() {
            shut_down(server, sub, producer);
        }
        let s = set_up();
        setups.push(s.3);
        session = Some(s);
    }
    let (server, sub, client, _) = session.expect("at least one set-up");

    let shared = Arc::new(Shared {
        epoch,
        received: AtomicU64::new(0),
        last_recv_ns: AtomicU64::new(0),
        tracing: AtomicBool::new(false),
        schedule: Mutex::new(None),
        start_ns: (0..OPEN_N).map(|_| AtomicU64::new(0)).collect(),
    });
    let subscriber = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || subscribe(sub, seed, shared))
    };
    let mut p = Producer {
        client,
        gen: WireGen::new(seed),
        digest: Digest::default(),
        sent: 0,
        passing: 0,
        recent_passing: VecDeque::with_capacity(2 * ACK_WINDOW + 1),
        failed: 0,
        lag_samples: [Vec::new(), Vec::new(), Vec::new()],
        tracer: Tracer::new(epoch, false),
    };
    // A traced run traces every second round.
    let mut rounds = Vec::new();
    let mut stalled = false;
    let mut peak_rss = None;
    while rounds.len() < 2 || (rounds.len() < ROUNDS && Instant::now() < deadline) {
        match round(&mut p, &server, &shared, traced && rounds.len() % 2 == 1) {
            Some(r) => rounds.push(r),
            None => {
                stalled = true;
                break;
            }
        }
        // The server's memory grows with the tuples it has seen (see
        // NOTES.md), so a fixed amount of work, not the run length, sets
        // the figure.
        if rounds.len() == RSS_ROUNDS {
            peak_rss = Some(crate::report::peak_rss_mb());
        }
    }
    p.tracer.set_enabled(false);
    shared.tracing.store(false, Ordering::Relaxed);

    let sent = p.sent;
    let report = p.client.close();
    let server_report = server.shutdown();
    let sub_result = subscriber.join().expect("subscriber thread");

    let mut failed = p.failed + sub_result.mismatches + sub_result.dropped;
    match &report {
        Ok(r) => failed += r.sent.saturating_sub(r.acked),
        Err(_) => failed += 1,
    }
    let st = match &server_report {
        Ok(r) => r.stats.clone(),
        Err(_) => {
            failed += 1;
            Default::default()
        }
    };
    failed += st.rejected_tuples + st.duplicates_dropped + st.sub_shed + st.subscriber_overflows;
    // Every output the reference expects must have arrived.
    failed += p.passing.saturating_sub(sub_result.received);
    if sub_result.error.is_some() || stalled {
        failed += 1;
    }

    // Every round does the same work; latency is the best round
    // (`stats::lowest`). A flood's rate swings with thread scheduling (the
    // rounds of one run span 100k-200k tuples/s), so the best flood is a
    // lucky extreme and throughput takes the upper quartile instead (see
    // NOTES.md). Traced rounds only count towards the overhead.
    let flood_rate = |rates: &[f64]| percentile(rates, 75.0).unwrap_or(0.0);
    let plain = |f: fn(&Round, &RoundLatency) -> f64| -> Vec<f64> {
        rounds
            .iter()
            .zip(&sub_result.rounds)
            .filter(|(r, _)| !r.traced)
            .map(|(r, l)| f(r, l))
            .collect()
    };
    let rates = plain(|r, _| FLOOD as f64 / r.flood_wall);
    let p50s = plain(|_, l| l.0);
    let p90s = plain(|_, l| l.1);
    let late_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let late_max_ms = late_ms.iter().copied().fold(0.0, f64::max);

    let mut out = Outcome::new(sent, failed);
    out.end_to_end = vec![
        Metric::new("tuples_per_s", flood_rate(&rates), "1/s"),
        Metric::new("latency_p50_ms", lowest(&p50s), "ms"),
        Metric::new("latency_p90_ms", lowest(&p90s), "ms"),
        Metric::new(
            "peak_rss_mb",
            peak_rss.unwrap_or_else(crate::report::peak_rss_mb),
            "MB",
        ),
        Metric::new("setup_s", lowest(&setups), "s"),
    ];
    out.text("trace_digest", &p.digest.hex());
    out.num("rounds", rounds.len() as f64);
    out.num("open_loop_rate_hz", OPEN_RATE_HZ);
    out.num("open_loop_tuples_per_round", OPEN_N as f64);
    out.num("flood_tuples_per_round", FLOOD as f64);
    out.raw(
        "round_latency_samples",
        &sub_result
            .rounds
            .iter()
            .map(|l| l.2 as f64)
            .collect::<Vec<_>>(),
    );
    out.num("gen_late_max_ms", late_max_ms);
    out.num("gen_late_p90_ms", percentile(&late_ms, 90.0).unwrap_or(0.0));
    out.num("outputs", sub_result.received as f64);
    if let Some(e) = &sub_result.error {
        out.text("subscriber_error", e);
    }
    out.raw("round_tuples_per_s", &rates);
    out.raw("round_latency_p50_ms", &p50s);
    out.raw("round_latency_p90_ms", &p90s);
    out.raw("setup_s", &setups);

    if traced {
        let threads: [&[Span]; 2] = [p.tracer.spans(), &sub_result.spans];
        let totals = spans::totals_by_name(&threads);
        // Times are per traced round (one open loop and one flood), so they
        // follow a layer's cost, not how many rounds fit the run.
        let traced_rounds = rounds.iter().filter(|r| r.traced).count().max(1) as f64;
        let self_s =
            |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9) / traced_rounds;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced_rates: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| FLOOD as f64 / r.flood_wall)
            .collect();
        let traced_wall: f64 = rounds.iter().filter(|r| r.traced).map(|r| r.wall).sum();
        let overhead = 1.0 - flood_rate(&traced_rates) / flood_rate(&rates);
        let ingested = st.tuples_ingested.max(1) as f64;
        let mut layer = vec![
            Metric::new("query.plan_s", median(&plans).unwrap_or(0.0), "s"),
            Metric::new("net.send_s", self_s("net.send"), "s"),
            Metric::new("net.recv_wait_s", self_s("net.recv"), "s"),
            Metric::new(
                "net.frames_per_section",
                st.frames_in as f64 / st.ingest_sections.max(1) as f64,
                "count",
            ),
            Metric::new("net.ingest_lag_tuples", mean(&p.lag_samples[0]), "count"),
            Metric::new("net.engine_lag_tuples", mean(&p.lag_samples[1]), "count"),
            Metric::new("net.egress_lag_tuples", mean(&p.lag_samples[2]), "count"),
            Metric::new("net.gen_late_max_ms", late_max_ms, "ms"),
            Metric::new("trace.wall_s", traced_wall / traced_rounds, "s"),
            Metric::new(
                "trace.unaccounted_frac",
                spans::unaccounted_share(&threads),
                "fraction",
            ),
            Metric::new("trace.overhead_frac", overhead, "fraction"),
        ];
        if let Ok(r) = &server_report {
            let e = &r.exec;
            layer.extend([
                Metric::new("net.server_wire_to_sink_p50_ms", r.latency.p50_ms, "ms"),
                Metric::new("exec.steps_per_tuple", e.steps as f64 / ingested, "1/tuple"),
                Metric::new(
                    "exec.batches_per_tuple",
                    e.batches as f64 / ingested,
                    "1/tuple",
                ),
                Metric::new(
                    "exec.backtracks_per_tuple",
                    e.backtracks as f64 / ingested,
                    "1/tuple",
                ),
                Metric::new(
                    "exec.ets_per_tuple",
                    e.ets_generated as f64 / ingested,
                    "1/tuple",
                ),
                Metric::new(
                    "exec.idle_wait_frac",
                    r.monitor_idle_fraction.unwrap_or(0.0),
                    "fraction",
                ),
            ]);
        }
        out.per_layer = layer;
        out.raw("traced_round_tuples_per_s", &traced_rates);
        out.num("lag_samples", p.lag_samples[0].len() as f64);
        out.spans = vec![p.tracer.spans().to_vec(), sub_result.spans];
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn short_wire_run_matches_the_filter_reference() {
        let out = super::run(5, 0.5, false);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let tput = out.end_to_end.iter().find(|m| m.name == "tuples_per_s");
        assert!(tput.is_some_and(|m| m.value > 0.0));
    }
}
