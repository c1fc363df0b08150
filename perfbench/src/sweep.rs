//! `mtnlg-grid` and `fair-sweep`: one exhaustive `Sweep` request per
//! pass through `api::execute`, the `vtrain sweep --json` path, with a
//! fresh profile cache per pass as a CLI run has; between passes a
//! daemon serves the same sweep and predicts of its design points.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use vtrain::api::{self, Report, Request, RequestKind, Response, SweepReport};
use vtrain::prelude::*;

use crate::gen;
use crate::layers::PlanLayers;
use crate::report::{median, object, peak_rss_mb, quantile, tail, Digest, RunResult};
use crate::serve;

/// A sweep workload and the output it must reproduce.
pub struct SweepWorkload {
    name: &'static str,
    scenario: &'static str,
    /// Digest of the sorted `(t, d, p, m, iteration ns, utilization
    /// bits)` list, taken at the commit that defined the benchmark.
    digest: u64,
    points: usize,
    best_iteration_ns: u64,
}

pub const MTNLG_GRID: SweepWorkload = SweepWorkload {
    name: "mtnlg-grid",
    scenario: gen::MTNLG_GRID,
    digest: 0x9adb_8772_c017_6e91,
    points: 195,
    best_iteration_ns: 9_481_075_372,
};

pub const FAIR_SWEEP: SweepWorkload = SweepWorkload {
    name: "fair-sweep",
    scenario: gen::FAIR_SWEEP,
    digest: 0x5829_4638_7385_decf,
    points: 116,
    best_iteration_ns: 2_581_102_316,
};

/// The checked facts of one sweep response.
struct Checked {
    digest: u64,
    points: usize,
    candidates: usize,
    pruned: usize,
    best_iteration_ns: u64,
}

fn summarize(response: &Response) -> Result<Checked, String> {
    let report = match &response.outcome {
        Outcome::Ok(Report::Sweep(report)) => report,
        other => return Err(format!("expected a sweep report, got {other:?}")),
    };
    let [variant] = report.variants.as_slice() else {
        return Err(format!("expected one variant, got {}", report.variants.len()));
    };
    if let Some(reason) = variant.aborted {
        return Err(format!("sweep aborted: {reason:?}"));
    }
    let mut rows: Vec<[u64; 6]> = variant
        .points
        .iter()
        .map(|p| {
            [
                p.plan.tensor() as u64,
                p.plan.data() as u64,
                p.plan.pipeline() as u64,
                p.plan.micro_batch() as u64,
                p.estimate.iteration_time.as_nanos(),
                p.estimate.utilization.to_bits(),
            ]
        })
        .collect();
    rows.sort_unstable();
    let mut digest = Digest::new();
    rows.iter().flatten().for_each(|&w| digest.word(w));
    Ok(Checked {
        digest: digest.finish(),
        points: rows.len(),
        candidates: variant.candidates,
        pruned: variant.pruned,
        best_iteration_ns: rows.iter().map(|r| r[4]).min().unwrap_or(0),
    })
}

/// Checks one response against the workload's reference output,
/// recording a mismatch in `out`.
fn check(w: &SweepWorkload, response: &Response, out: &mut RunResult) -> Option<Checked> {
    match summarize(response) {
        Ok(c)
            if c.digest == w.digest
                && c.points == w.points
                && c.best_iteration_ns == w.best_iteration_ns =>
        {
            Some(c)
        }
        Ok(c) => {
            out.mismatch(format!(
                "{}: digest {:016x} points {} best {} ns; expected {:016x} {} {} ns",
                w.name,
                c.digest,
                c.points,
                c.best_iteration_ns,
                w.digest,
                w.points,
                w.best_iteration_ns
            ));
            None
        }
        Err(e) => {
            out.mismatch(format!("{}: {e}", w.name));
            None
        }
    }
}

/// Parse, execute and serialize times of one untraced pass.
struct Pass {
    parse: Duration,
    execute: Duration,
    serialize: Duration,
    response: Response,
}

impl Pass {
    fn total(&self) -> Duration {
        self.parse + self.execute + self.serialize
    }
}

fn untraced_pass(frame: &str) -> Pass {
    let t0 = Instant::now();
    let request: Request = serde_json::from_str(frame).expect("generated frames parse");
    let t1 = Instant::now();
    let response = api::execute(&request, &Arc::new(ProfileCache::new()), None);
    let t2 = Instant::now();
    std::hint::black_box(response.to_frame());
    let t3 = Instant::now();
    Pass { parse: t1 - t0, execute: t2 - t1, serialize: t3 - t2, response }
}

/// The program's set-up before the first pass: parse the frame, resolve
/// and check every scenario section, allocate the cache.
fn setup(frame: &str) -> Duration {
    let t = Instant::now();
    let request: Request = serde_json::from_str(frame).expect("generated frames parse");
    request.scenario.as_ref().expect("sweep frames carry a scenario").check().expect("valid");
    std::hint::black_box(Arc::new(ProfileCache::new()));
    t.elapsed()
}

/// Set-ups per cycle. Spreading them over the run, rather than timing
/// them in one burst, samples the host the way the passes do.
const SETUPS_PER_CYCLE: usize = 50;

/// Predicts of the best design point served per cycle. One plan, not
/// several: the p50 of a mix of plans jumps between plans whose costs
/// are close.
const PREDICTS_PER_CYCLE: usize = 7;

/// The tail percentile the served round trips support. A run serves a
/// few hundred requests, too few for ten samples beyond p99, so the
/// value reported as `serve_rtt_us_p99` (and, in the traced run,
/// `serve.overhead_us_p99`) on the sweep workloads is their p90;
/// serve-mix reports the true p99. One served request in nine is the
/// sweep, so the p90 falls on the fastest served sweeps, the heavy
/// requests of the mix, rather than on noise in the tail of identical
/// predicts.
const TAIL: f64 = 0.90;

/// Served round trips a run collects at least: ten beyond [`TAIL`].
const MIN_SERVED: usize = 100;

fn points_of(response: &Response) -> Vec<DesignPoint> {
    match &response.outcome {
        Outcome::Ok(Report::Sweep(r)) => r.variants.iter().flat_map(|v| v.points.clone()).collect(),
        _ => Vec::new(),
    }
}

/// The fastest design point of a sweep answer.
fn best_plan(points: &[DesignPoint]) -> Option<ParallelConfig> {
    points.iter().min_by_key(|p| p.estimate.iteration_time).map(|p| p.plan)
}

/// Predict and validate frames of the workload's scenario at `plan`.
fn predict_and_validate(w: &SweepWorkload, plan: &ParallelConfig) -> [String; 2] {
    [
        gen::frame(
            &format!("{}-predict", w.name),
            RequestKind::Predict,
            &predict_scenario(w, plan),
        ),
        gen::frame(&format!("{}-validate", w.name), RequestKind::Validate, w.scenario),
    ]
}

/// The requests the daemon serves each cycle on a sweep workload, with
/// the digest of the answer each must get: predicts of the sweep's best
/// design point, a validate, and last the sweep frame itself (so its
/// memory churn does not run into the predicts' round trips).
fn served_frames(
    w: &SweepWorkload,
    frame: &str,
    reference: &Response,
    out: &mut RunResult,
) -> Vec<(String, u64)> {
    let sweep = (frame.to_owned(), Digest::of(reference.to_frame().as_bytes()));
    let Some(best) = best_plan(&points_of(reference)) else { return vec![sweep] };
    let cache = Arc::new(ProfileCache::new());
    let [predict, validate] = predict_and_validate(w, &best).map(|text| {
        let request: Request = serde_json::from_str(&text).expect("generated frames parse");
        let response = api::execute(&request, &cache, Some(1));
        if !matches!(response.outcome, Outcome::Ok(_)) {
            out.mismatch(format!("in-process answer is not Ok: {}", response.to_json()));
        }
        let digest = Digest::of(response.to_frame().as_bytes());
        (text, digest)
    });
    let mut served = vec![predict; PREDICTS_PER_CYCLE];
    served.extend([validate, sweep]);
    served
}

/// Cycles of one in-process pass (the CLI path) and one round of the
/// workload's own requests served by a daemon over one connection,
/// until `seconds` have passed.
pub fn run(w: &SweepWorkload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let frame = gen::frame(&format!("{}-{seed}", w.name), RequestKind::Sweep, w.scenario);
    let mut out = RunResult::default();
    out.info("pinned_cpu", pin_to_current_cpu());
    if trace {
        traced(w, &frame, seconds, &mut out);
        return out;
    }
    // The first pass warms the allocator and page cache and is left out
    // of the median; its answer is the reference the daemon must match.
    let first = untraced_pass(&frame);
    out.attempted += 1;
    if let Some(c) = check(w, &first.response, &mut out) {
        out.exact("candidates", c.candidates);
        out.exact("pruned", c.pruned);
        out.exact("points", c.points);
        out.info("digest", format!("{:016x}", c.digest));
        out.info("best_iteration_s", c.best_iteration_ns as f64 * 1e-9);
    }
    let served = served_frames(w, &frame, &first.response, &mut out);
    drop(first);
    // Peak memory of the CLI path: one pass (later passes and the daemon
    // only add allocator fragmentation that varies with timing).
    let rss = peak_rss_mb();

    let daemon = serve::Daemon::start();
    let mut conn = daemon.connect();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut rates, mut rtts, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = 0;
    while passes < 2 || start.elapsed() < budget || rtts.len() < MIN_SERVED {
        passes += 1;
        setups.extend((0..SETUPS_PER_CYCLE).map(|_| setup(&frame).as_secs_f64()));
        let pass = untraced_pass(&frame);
        out.attempted += 1;
        if let Some(c) = check(w, &pass.response, &mut out) {
            rates.push(c.points as f64 / pass.total().as_secs_f64());
        }
        drop(pass);
        for (position, (text, expected)) in served.iter().enumerate() {
            let (rtt_us, response) = conn.round_trip(text);
            out.attempted += 1;
            if Digest::of(response.as_bytes()) != *expected {
                out.mismatch(format!("served frame {position} differs from the in-process answer"));
            }
            rtts.push((position, rtt_us));
        }
    }
    drop(conn);
    daemon.shutdown();

    let last = served.len() - 1;
    let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        rtts.iter().filter(|(p, _)| keep(*p)).map(|&(_, rtt)| rtt).collect()
    };
    let all = pick(&|_| true);
    out.metric("setup_s", median(&setups), "s");
    out.metric("sweep_points_per_s", median(&rates), "1/s");
    out.metric("serve_rtt_us_p50", quantile(&all, 0.5), "us");
    out.metric("serve_rtt_us_p99", quantile(&all, TAIL), "us");
    out.metric("serve_predict_rtt_us_p50", median(&pick(&|p| p < PREDICTS_PER_CYCLE)), "us");
    out.metric("serve_sweep_rtt_us_p50", median(&pick(&|p| p == last)), "us");
    out.metric("serve_req_per_s", all.len() as f64 / (all.iter().sum::<f64>() * 1e-6), "1/s");
    out.metric("peak_rss_mb", rss, "MB");
    out.info("serve_rtt_tail", tail(&all, TAIL));
    out.info("pass_points_per_s", &rates);
    out
}

/// Pins the calling thread, and every thread it starts later, to the CPU
/// it runs on now, and returns that CPU (`None` if it could not).
///
/// A sweep workload is sequential: one thread runs a pass, and a served
/// request runs on one daemon worker while the client waits. On a host
/// whose CPUs run at different speeds (a busy SMT sibling, say) a
/// request's time would otherwise depend on which CPU its worker woke
/// on, and the p50 of a run would jump between the two speeds.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = u32::try_from(unsafe { sched_getcpu() }).ok().filter(|&cpu| cpu < 64)?;
    let mask = 1u64 << cpu;
    // SAFETY: the kernel reads `size_of::<u64>()` bytes from `mask`, a
    // live local of that size; pid 0 is the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (status == 0).then_some(cpu as usize)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// One traced pass: the same calls `api::execute` makes, made one by
/// one, with stage profiling and the metrics registry on.
struct TracedPass {
    total: Duration,
    stats: SweepStats,
    profile: StageProfile,
    cache: CacheStats,
    response: Response,
}

fn traced_pass(frame: &str) -> TracedPass {
    vtrain::obs::set_enabled(true);
    let t0 = Instant::now();
    let request: Request = serde_json::from_str(frame).expect("generated frames parse");
    let scenario = request.scenario.as_ref().expect("sweep frames carry a scenario");
    scenario.check().expect("workload scenarios are valid");
    let goal = scenario.goal().expect("valid goal");
    let cache = Arc::new(ProfileCache::new());
    let run =
        scenario.sweep().expect("valid sweep").cache(Arc::clone(&cache)).stage_profile(true).run();
    let response =
        Response::ok(request.id.clone(), Report::Sweep(SweepReport::from_run(goal, &run)));
    std::hint::black_box(response.to_frame());
    let total = t0.elapsed();
    vtrain::obs::set_enabled(false);
    let outcome = run.outcome();
    TracedPass {
        total,
        stats: outcome.stats,
        profile: outcome.stage_profile.expect("stage profiling was on"),
        cache: cache.stats(),
        response,
    }
}

/// Alternates untraced and traced passes for `seconds`, then times the
/// layers on a sample of the sweep's own points and serves the
/// workload's predict/validate frames through a daemon.
fn traced(w: &SweepWorkload, frame: &str, seconds: f64, out: &mut RunResult) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut plain, mut passes) = (Vec::new(), Vec::new());
    while passes.len() < 2 || start.elapsed() < budget {
        let pass = untraced_pass(frame);
        out.attempted += 1;
        check(w, &pass.response, out);
        plain.push(pass);
        let pass = traced_pass(frame);
        out.attempted += 1;
        check(w, &pass.response, out);
        passes.push(pass);
    }
    let med = |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let untraced_s = med(&|p| p.total().as_secs_f64());
    let traced_s = median(&passes.iter().map(|p| p.total.as_secs_f64()).collect::<Vec<_>>());

    let last = passes.last().expect("at least two traced passes");
    let stats = last.stats;
    let stage = |f: &dyn Fn(&StageProfile) -> u64| -> f64 {
        median(&passes.iter().map(|p| f(&p.profile) as f64).collect::<Vec<_>>())
    };
    let evaluated = stats.evaluated.max(1) as f64;
    out.metric("description.parse_us", med(&|p| p.parse.as_secs_f64()) * 1e6, "us");
    out.metric("api.serialize_us", med(&|p| p.serialize.as_secs_f64()) * 1e6, "us");
    out.metric("api.execute_us.sweep", med(&|p| p.execute.as_secs_f64()) * 1e6, "us");
    out.metric("sweep.candidates", stats.candidates as f64, "count");
    out.metric("sweep.evaluated", stats.evaluated as f64, "count");
    out.metric("sweep.pruned", stats.pruned as f64, "count");
    out.metric("sweep.bound_pruned", stats.bound_pruned as f64, "count");
    out.metric("sweep.delta_patched_frac", stats.delta_patched as f64 / evaluated, "ratio");
    out.metric(
        "sweep.validate_ns_per_candidate",
        stage(&|p| p.stages.validate_ns) / stats.candidates.max(1) as f64,
        "ns",
    );
    out.metric("sweep.lower_ns_per_point", stage(&|p| p.stages.lower_ns) / evaluated, "ns");
    out.metric("sweep.simulate_ns_per_point", stage(&|p| p.stages.simulate_ns) / evaluated, "ns");
    out.metric("profile.hits", last.cache.hits as f64, "count");
    out.metric("profile.misses", last.cache.misses as f64, "count");
    out.metric("profile.hit_rate", last.cache.hit_rate(), "ratio");
    out.metric("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");

    // Layer probes on six design points spread over the result.
    let scenario = Scenario::from_json(w.scenario).expect("workload scenarios parse");
    let points = points_of(&last.response);
    let step = (points.len() / 6).max(1);
    let plans: Vec<ParallelConfig> = points.iter().step_by(step).take(6).map(|p| p.plan).collect();
    let mut layers = PlanLayers::default();
    layers.measure(&scenario, &plans);
    layers.report(out);

    // Predict and validate frames of the workload at its best plan,
    // executed in-process and through the daemon.
    let best = best_plan(&points).expect("the sweep has feasible points");
    let frames = predict_and_validate(w, &best);
    // 60 of each: 120 round trips, at least ten beyond the p90.
    serve::serve_layers(&frames, 60, TAIL, out);
    out.info(
        "trace",
        object([
            ("untraced_pass_s", untraced_s.to_value()),
            ("traced_pass_s", traced_s.to_value()),
            ("pairs", passes.len().to_value()),
            ("delta_patched", stats.delta_patched.to_value()),
            ("wall_s", stats.wall_s.to_value()),
        ]),
    );
}

/// The workload scenario with its sweep section replaced by `plan`.
fn predict_scenario(w: &SweepWorkload, plan: &ParallelConfig) -> String {
    let mut scenario = Scenario::from_json(w.scenario).expect("workload scenarios parse");
    scenario.sweep = None;
    let json = format!(
        r#"{{"tensor":{},"data":{},"pipeline":{},"micro_batch":{},"global_batch":{}}}"#,
        plan.tensor(),
        plan.data(),
        plan.pipeline(),
        plan.micro_batch(),
        plan.global_batch()
    );
    let parallelism = serde_json::from_str(&json).expect("parallelism section parses");
    scenario.parallelism = Some(parallelism);
    vtrain::api::to_stable_json(&scenario)
}
