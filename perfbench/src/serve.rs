//! `serve-mix`: a closed loop of two client connections against an
//! in-process `vtrain serve` daemon on loopback (2 workers, 1 sweep
//! thread, unbounded cache). Every response is compared with
//! `api::execute` run in-process on the same frame, by a 64-bit digest
//! of its bytes (keeping thousands of multi-kilobyte answers would
//! dominate the peak RSS being measured).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Serialize;
use vtrain::api::{self, Report, Request, RequestKind, Response, ServerStats};
use vtrain::prelude::*;
use vtrain::sim::search::SweepStats;

use crate::gen;
use crate::layers::PlanLayers;
use crate::report::{median, micros, object, peak_rss_mb, quantile, tail, Digest, RunResult};

/// Client connections; each waits for its reply before sending again.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Sweep threads per request.
pub const SWEEP_THREADS: usize = 1;
/// Frames served before measuring, so preset profiles are cached.
const WARMUP_FRAMES: u64 = 40;
/// Measured frames after which the peak RSS is read: the cache grows
/// with every novel model, so the peak is taken at a fixed amount of
/// work rather than at the end of a timed run.
const RSS_FRAMES: u64 = 6000;
/// Daemon set-ups before and after the measured loop; the median of all
/// is reported.
const SETUPS: usize = 6;

/// A tiny validate frame that proves a fresh daemon answers.
const READY: &str = r#"{"cluster":{"preset":"aws-p4d","total_gpus":16},"model":{"preset":"megatron-1.7B"},"parallelism":{"data":2,"global_batch":16,"micro_batch":1,"pipeline":2,"tensor":4}}"#;

/// A daemon serving on an ephemeral loopback port from a thread of
/// this process.
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), vtrain::Error>>,
}

impl Daemon {
    pub fn start() -> Daemon {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            threads: Some(SWEEP_THREADS),
            cache_capacity: None,
            ..ServerConfig::default()
        };
        let server = Server::bind(config).expect("loopback bind");
        let addr = server.local_addr();
        Daemon { addr, thread: thread::spawn(move || server.run()) }
    }

    /// A new client connection to the daemon.
    pub fn connect(&self) -> Conn {
        Conn::connect(self.addr)
    }

    fn control(&self, kind: &str) -> Response {
        let mut conn = self.connect();
        let (_, line) =
            conn.round_trip(&format!("{{\"id\":\"ctl\",\"kind\":\"{kind}\",\"v\":1}}\n"));
        serde_json::from_str(&line).expect("control responses parse")
    }

    fn stats(&self) -> ServerStats {
        match self.control("Stats").outcome {
            Outcome::Ok(Report::Stats(stats)) => stats,
            other => panic!("Stats answered {other:?}"),
        }
    }

    /// Drains and stops the daemon and waits for its accept loop.
    pub fn shutdown(self) {
        self.control("Shutdown");
        self.thread.join().expect("daemon thread").expect("daemon exits cleanly");
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("loopback connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Conn { writer, reader }
    }

    /// Sends one frame and reads one response line. The round trip runs
    /// from the first request byte written to the last response byte
    /// read, in microseconds.
    pub fn round_trip(&mut self, frame: &str) -> (f64, String) {
        let mut line = String::new();
        let t = Instant::now();
        self.writer.write_all(frame.as_bytes()).expect("request write");
        self.reader.read_line(&mut line).expect("response read");
        (micros(t.elapsed()), line)
    }
}

/// One answered request.
struct Sample {
    index: u64,
    rtt_us: f64,
    /// Digest of the response bytes.
    digest: u64,
}

/// Runs the closed loop: every connection takes the next stream index,
/// sends that frame and waits for its reply, until `frames` yields
/// `None`. Returns the samples in index order and the wall time.
fn closed_loop(
    conns: &mut [Conn],
    frames: &(dyn Fn(u64) -> Option<String> + Sync),
) -> (Vec<Sample>, Duration) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(frame) = frames(index) else { return mine };
                        let (rtt_us, response) = conn.round_trip(&frame);
                        let digest = Digest::of(response.as_bytes());
                        mine.push(Sample { index, rtt_us, digest });
                    }
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    let wall = start.elapsed();
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

fn connect_all(daemon: &Daemon) -> Vec<Conn> {
    (0..CLIENTS).map(|_| daemon.connect()).collect()
}

/// Set-up as a user of the daemon sees it: start it, open every client
/// connection, and get one answer on each.
fn setup() -> (Daemon, Vec<Conn>, Duration) {
    let t = Instant::now();
    let daemon = Daemon::start();
    let mut conns = connect_all(&daemon);
    let ready = gen::frame("ready", RequestKind::Validate, READY);
    for conn in &mut conns {
        let (_, line) = conn.round_trip(&ready);
        assert!(line.contains("\"Ok\""), "daemon not ready: {line}");
    }
    (daemon, conns, t.elapsed())
}

/// The id-free identity of a frame: equal keys get equal answers.
fn key(frame: &gen::MixFrame) -> (String, String) {
    (format!("{:?}", frame.kind), frame.scenario.clone())
}

/// Design points of an exhaustive sweep answer (every evaluated point).
fn exhaustive_points(response: &Response) -> Option<usize> {
    match &response.outcome {
        Outcome::Ok(Report::Sweep(r)) if r.goal == SweepGoal::Exhaustive => {
            Some(r.variants.iter().map(|v| v.points.len()).sum())
        }
        _ => None,
    }
}

/// Compares each sample with `api::execute` on the same frame;
/// `Busy`, other errors and mismatches count as failures. Returns the
/// digest of the first block's answers in block order, ids blanked —
/// the same for every seed — and the design points of each sample that
/// is an exhaustive sweep.
fn verify(seed: u64, samples: &[Sample], out: &mut RunResult) -> (u64, Vec<Option<usize>>) {
    let cache = Arc::new(ProfileCache::new());
    let mut expected: HashMap<(String, String), Response> = HashMap::new();
    let mut first_block = Vec::new();
    let mut points = Vec::new();
    for s in samples {
        let frame = gen::mix_frame(seed, s.index);
        let reference = expected.entry(key(&frame)).or_insert_with(|| {
            let request: Request = serde_json::from_str(&frame.text).expect("frames parse");
            api::execute(&request, &cache, Some(SWEEP_THREADS))
        });
        points.push(exhaustive_points(reference));
        let mut reference = reference.clone();
        reference.id = format!("mix-{seed}-{}", s.index);
        out.attempted += 1;
        if !matches!(reference.outcome, Outcome::Ok(_)) {
            out.mismatch(format!(
                "frame {} is not Ok in-process: {}",
                s.index,
                reference.to_json()
            ));
        } else if s.digest != Digest::of(reference.to_frame().as_bytes()) {
            out.mismatch(format!("frame {} differs from the in-process answer", s.index));
        }
        if s.index < gen::BLOCK {
            reference.id.clear();
            first_block.push((frame.slot, reference.to_frame()));
        }
    }
    first_block.sort();
    let mut digest = Digest::new();
    for (_, answer) in &first_block {
        digest.bytes(answer.as_bytes());
    }
    (digest.finish(), points)
}

fn truncate(text: &str) -> String {
    text.chars().take(200).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut out = RunResult::default();
    if trace {
        traced(seed, seconds, &mut out);
        return out;
    }
    let mut setups = Vec::new();
    let mut set_up = || {
        let (daemon, conns, took) = setup();
        setups.push(took.as_secs_f64());
        (daemon, conns)
    };
    for _ in 1..SETUPS {
        let (daemon, conns) = set_up();
        drop(conns);
        daemon.shutdown();
    }
    let (daemon, mut conns) = set_up();

    let warm = |i: u64| (i < WARMUP_FRAMES).then(|| gen::mix_frame(seed, i).text);
    let (mut answered, _) = closed_loop(&mut conns, &warm);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let rss_at = AtomicU64::new(0);
    let source = |i: u64| {
        if i == RSS_FRAMES {
            rss_at.store(peak_rss_mb().to_bits(), Ordering::Relaxed);
        }
        (start.elapsed() < budget).then(|| gen::mix_frame(seed, WARMUP_FRAMES + i).text)
    };
    let (mut measured, wall) = closed_loop(&mut conns, &source);
    measured.iter_mut().for_each(|s| s.index += WARMUP_FRAMES);
    let stats = daemon.stats();
    drop(conns);
    daemon.shutdown();
    for _ in 0..SETUPS {
        let (daemon, conns) = set_up();
        drop(conns);
        daemon.shutdown();
    }
    let rss = match rss_at.into_inner() {
        0 => peak_rss_mb(),
        bits => f64::from_bits(bits),
    };

    let kinds: Vec<RequestKind> =
        measured.iter().map(|s| gen::mix_frame(seed, s.index).kind).collect();
    let rtts = |kind: Option<RequestKind>| -> Vec<f64> {
        measured
            .iter()
            .zip(&kinds)
            .filter(|(_, k)| kind.is_none_or(|kind| **k == kind))
            .map(|(s, _)| s.rtt_us)
            .collect()
    };
    let all = rtts(None);
    out.metric("setup_s", median(&setups), "s");
    out.metric("serve_rtt_us_p50", quantile(&all, 0.5), "us");
    out.metric("serve_rtt_us_p99", quantile(&all, 0.99), "us");
    out.metric("serve_predict_rtt_us_p50", median(&rtts(Some(RequestKind::Predict))), "us");
    out.metric("serve_sweep_rtt_us_p50", median(&rtts(Some(RequestKind::Sweep))), "us");
    out.metric("serve_req_per_s", all.len() as f64 / wall.as_secs_f64(), "1/s");
    out.metric("peak_rss_mb", rss, "MB");

    let shares = gen::mix_shares(seed, WARMUP_FRAMES..WARMUP_FRAMES + all.len() as u64);
    out.info("serve_rtt_tail", tail(&all, 0.99));
    out.info(
        "counters",
        object([
            ("measured", all.len().to_value()),
            ("completed", stats.completed.to_value()),
            ("cache_entries", stats.cache_entries.to_value()),
            ("shares", shares.to_value()),
        ]),
    );
    let first_block = answered.iter().chain(&measured).filter(|s| s.index < gen::BLOCK).count();
    let warmup = answered.len();
    answered.append(&mut measured);
    let (digest, points) = verify(seed, &answered, &mut out);
    // Evaluated design points per second of exhaustive-sweep round trip.
    let (mut swept, mut sweep_s) = (0.0, 0.0);
    for (s, p) in answered[warmup..].iter().zip(&points[warmup..]) {
        if let Some(p) = p {
            swept += *p as f64;
            sweep_s += s.rtt_us * 1e-6;
        }
    }
    out.metric("sweep_points_per_s", swept / sweep_s, "1/s");
    out.exact("warmup_answers", warmup);
    out.exact("busy_rejections", stats.busy_rejections);
    out.exact("first_block_answers", first_block);
    out.info("first_block_digest", format!("{digest:016x}"));
    out
}

/// In-process reference run of a frame list: per-frame times and the
/// exact response bytes.
struct Reference {
    requests: Vec<String>,
    responses: Vec<String>,
    kinds: Vec<RequestKind>,
    parse_us: Vec<f64>,
    execute_us: Vec<f64>,
    serialize_us: Vec<f64>,
}

impl Reference {
    fn run(requests: Vec<String>, cache: &Arc<ProfileCache>, out: &mut RunResult) -> Reference {
        let mut r = Reference {
            requests: Vec::new(),
            responses: Vec::new(),
            kinds: Vec::new(),
            parse_us: Vec::new(),
            execute_us: Vec::new(),
            serialize_us: Vec::new(),
        };
        for text in requests {
            let t0 = Instant::now();
            let request: Request = serde_json::from_str(&text).expect("frames parse");
            let t1 = Instant::now();
            let response = api::execute(&request, cache, Some(SWEEP_THREADS));
            let t2 = Instant::now();
            let frame = response.to_frame();
            let t3 = Instant::now();
            out.attempted += 1;
            if !matches!(response.outcome, Outcome::Ok(_)) {
                out.mismatch(format!("in-process answer is not Ok: {}", truncate(&frame)));
            }
            r.requests.push(text);
            r.responses.push(frame);
            r.kinds.push(request.kind);
            r.parse_us.push(micros(t1 - t0));
            r.execute_us.push(micros(t2 - t1));
            r.serialize_us.push(micros(t3 - t2));
        }
        r
    }

    /// Median in-process execute time of the frames of `kind`, µs.
    fn execute_p50(&self, kind: RequestKind) -> f64 {
        let times: Vec<f64> = self
            .kinds
            .iter()
            .zip(&self.execute_us)
            .filter(|(k, _)| **k == kind)
            .map(|(_, &t)| t)
            .collect();
        median(&times)
    }
}

/// Serves the reference frames through fresh daemons, alternately with
/// the metrics registry off and on, for at least one round of each and
/// at least `budget`. Reports the daemon's own cost per request (round
/// trip minus the in-process execute and serialize time of the same
/// frame) from the untraced rounds, its p50 and its `tail` quantile as
/// `serve.overhead_us_p99`, and returns the median total round trip time
/// of a round with the registry off and on.
fn daemon_rounds(
    reference: &Reference,
    budget: Duration,
    tail_q: f64,
    out: &mut RunResult,
) -> (f64, f64) {
    let start = Instant::now();
    let (mut plain, mut traced, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_stats = None;
    let frames = |i: u64| reference.requests.get(i as usize).cloned();
    while plain.is_empty() || start.elapsed() < budget {
        for obs in [false, true] {
            vtrain::obs::set_enabled(obs);
            let daemon = Daemon::start();
            let mut conns = connect_all(&daemon);
            let (samples, _) = closed_loop(&mut conns, &frames);
            let stats = daemon.stats();
            drop(conns);
            daemon.shutdown();
            vtrain::obs::set_enabled(false);
            for s in &samples {
                let i = s.index as usize;
                out.attempted += 1;
                if s.digest != Digest::of(reference.responses[i].as_bytes()) {
                    out.mismatch(format!("served frame {i} differs from the in-process answer"));
                }
                if !obs {
                    overhead.push(s.rtt_us - reference.execute_us[i] - reference.serialize_us[i]);
                }
            }
            let total: f64 = samples.iter().map(|s| s.rtt_us).sum();
            if obs {
                traced.push(total);
            } else {
                plain.push(total);
                first_stats.get_or_insert(stats);
            }
        }
    }
    let stats = first_stats.expect("at least one round");
    out.metric("serve.overhead_us_p50", quantile(&overhead, 0.5), "us");
    out.metric("serve.overhead_us_p99", quantile(&overhead, tail_q), "us");
    out.info("overhead_tail", tail(&overhead, tail_q));
    out.metric("serve.busy_rejections", stats.busy_rejections as f64, "count");
    out.metric("serve.completed", stats.completed as f64, "count");
    (median(&plain), median(&traced))
}

/// The serve-layer probes of a sweep workload: its own predict and
/// validate `frames`, `repeat` times, in-process and through daemons,
/// with the overhead tail taken at `tail_q`.
pub fn serve_layers(frames: &[String], repeat: usize, tail_q: f64, out: &mut RunResult) {
    let requests = (0..repeat).flat_map(|_| frames.iter().cloned()).collect();
    let reference = Reference::run(requests, &Arc::new(ProfileCache::new()), out);
    out.metric("api.execute_us.predict", reference.execute_p50(RequestKind::Predict), "us");
    out.metric("api.execute_us.validate", reference.execute_p50(RequestKind::Validate), "us");
    daemon_rounds(&reference, Duration::ZERO, tail_q, out);
}

/// The traced run: the stream prefix in-process (exact counters and
/// per-call times), its sweeps again with stage profiling, layer probes
/// on its first predict plans, then daemon rounds until `seconds`.
fn traced(seed: u64, seconds: f64, out: &mut RunResult) {
    let mix: Vec<gen::MixFrame> = (0..gen::BLOCK).map(|i| gen::mix_frame(seed, i)).collect();
    let cache = Arc::new(ProfileCache::new());
    let reference = Reference::run(mix.iter().map(|f| f.text.clone()).collect(), &cache, out);
    let profile = cache.stats();
    out.metric("description.parse_us", median(&reference.parse_us), "us");
    out.metric("api.serialize_us", median(&reference.serialize_us), "us");
    for (name, kind) in [
        ("api.execute_us.predict", RequestKind::Predict),
        ("api.execute_us.sweep", RequestKind::Sweep),
        ("api.execute_us.validate", RequestKind::Validate),
    ] {
        out.metric(name, reference.execute_p50(kind), "us");
    }
    out.metric("profile.hits", profile.hits as f64, "count");
    out.metric("profile.misses", profile.misses as f64, "count");
    out.metric("profile.hit_rate", profile.hit_rate(), "ratio");

    let scratch = Arc::new(ProfileCache::new());
    let mut stats = SweepStats::default();
    let mut stages = StageNanos::default();
    for f in mix.iter().filter(|f| f.kind == RequestKind::Sweep) {
        let scenario = Scenario::from_json(&f.scenario).expect("frames parse");
        let run = scenario
            .sweep()
            .expect("valid sweep")
            .cache(Arc::clone(&scratch))
            .threads(SWEEP_THREADS)
            .stage_profile(true)
            .run();
        for variant in run.variants() {
            let s = &variant.outcome.stats;
            stats.candidates += s.candidates;
            stats.evaluated += s.evaluated;
            stats.pruned += s.pruned;
            stats.bound_pruned += s.bound_pruned;
            stats.delta_patched += s.delta_patched;
            let p = variant.outcome.stage_profile.expect("stage profiling was on");
            stages.merge(&p.stages);
        }
    }
    let evaluated = stats.evaluated.max(1) as f64;
    out.metric("sweep.candidates", stats.candidates as f64, "count");
    out.metric("sweep.evaluated", stats.evaluated as f64, "count");
    out.metric("sweep.pruned", stats.pruned as f64, "count");
    out.metric("sweep.bound_pruned", stats.bound_pruned as f64, "count");
    out.metric("sweep.delta_patched_frac", stats.delta_patched as f64 / evaluated, "ratio");
    out.metric(
        "sweep.validate_ns_per_candidate",
        stages.validate_ns as f64 / stats.candidates.max(1) as f64,
        "ns",
    );
    out.metric("sweep.lower_ns_per_point", stages.lower_ns as f64 / evaluated, "ns");
    out.metric("sweep.simulate_ns_per_point", stages.simulate_ns as f64 / evaluated, "ns");

    let mut layers = PlanLayers::default();
    let mut predicts: Vec<&gen::MixFrame> =
        mix.iter().filter(|f| f.kind == RequestKind::Predict).collect();
    predicts.sort_by_key(|f| f.slot);
    for f in predicts.into_iter().take(8) {
        let scenario = Scenario::from_json(&f.scenario).expect("frames parse");
        layers.measure(&scenario, &[scenario.plan().expect("predict frames carry a plan")]);
    }
    layers.report(out);

    let budget = Duration::from_secs_f64(seconds);
    let (plain, traced) = daemon_rounds(&reference, budget, 0.99, out);
    out.metric("trace.overhead_pct", (traced / plain - 1.0) * 100.0, "%");
    out.info(
        "trace",
        object([
            ("frames", gen::BLOCK.to_value()),
            ("untraced_round_us", plain.to_value()),
            ("traced_round_us", traced.to_value()),
            ("cache_entries", cache.len().to_value()),
        ]),
    );
}
