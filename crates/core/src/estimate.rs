//! The end-to-end estimation pipeline: model + plan + cluster → iteration
//! time, utilization, and breakdown.
//!
//! [`Estimator`] is a staged pipeline with an explicit, individually
//! reusable stage per concern:
//!
//! 1. **validate** — feasibility and memory checks, no allocation
//!    (`O(1)`; this is also the sweep executor's pruning predicate);
//! 2. **lower** — fuse graph construction and task lowering into one
//!    streaming pass, resolving each distinct compute signature against
//!    the shared [`ProfileCache`] and each distinct communication operator
//!    against the [`CommModel`] (latency, plus its flow program under fair
//!    sharing);
//! 3. **simulate** — the Algorithm 1 replay ([`simulate`]);
//! 4. **summarize** — fold a [`SimReport`] into an [`IterationEstimate`].
//!
//! Predicted estimates under the closed-form network model
//! ([`Estimator::estimate`], the sweep's hot path and
//! [`Estimator::estimate_staged`]) never build the graph: "lower" prices
//! the plan's latency-slot table and "simulate" walks each stage's
//! pipeline schedule over it (`slot_replay`), bit-identical to the graph
//! replay. Fair sharing, [`Estimator::measure`] and
//! [`Estimator::timeline`] need per-task replay and keep the graph path;
//! a fair-sharing point runs the builder once, and the flow replay reads
//! the flow programs the lowering recorded.
//!
//! Profiles are memoized in a concurrent
//! cache keyed by `(GpuKey, OpSignature)` shared across clones of the
//! estimator — a design-space sweep profiles each unique signature once,
//! not once per plan (§III-C, §III-F) — and cached results are
//! bit-identical to uncached ones (profiling is deterministic).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use vtrain_gpu::NoiseModel;
use vtrain_graph::{
    build_op_graph, CommKind, CommOp, CompKind, GraphOptions, Op, OpSignature, StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_net::{NetworkBackend, Topology};
use vtrain_obs::{CounterSample, TimelineRecorder, TraceSpan};
use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule, PlanError};
use vtrain_profile::{CacheStats, CommModel, GpuKey, ProfileCache, Profiler};

use crate::flow_replay::simulate_flows;
use crate::sim::{simulate, simulate_into_traced, BusyBreakdown, SimMode, SimReport, SimScratch};
use crate::slot_replay::{price_slots, walk, ProfileSource, SlotScratch};
use crate::task_graph::{TaskGraph, TaskKind};

/// Error produced by [`Estimator::estimate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EstimateError {
    /// The plan is malformed or infeasible on this cluster.
    InvalidPlan(PlanError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::InvalidPlan(e) => write!(f, "invalid training plan: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::InvalidPlan(e) => Some(e),
        }
    }
}

impl From<PlanError> for EstimateError {
    fn from(e: PlanError) -> Self {
        EstimateError::InvalidPlan(e)
    }
}

/// The simulator's verdict on one `(model, plan)` point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationEstimate {
    /// Single-iteration training time.
    pub iteration_time: TimeNs,
    /// Achieved FLOPS relative to peak across all `t·d·p` GPUs
    /// (the paper's GPU compute utilization, Fig. 1/10).
    pub utilization: f64,
    /// Busy time by category summed over simulated devices.
    pub busy: BusyBreakdown,
    /// Mean compute-stream occupancy (1 − bubble fraction).
    pub occupancy: f64,
    /// GPUs occupied by the plan.
    pub num_gpus: usize,
    /// Tokens consumed per iteration.
    pub tokens_per_iteration: u64,
}

/// Wall-clock nanoseconds attributed to each pipeline stage across one
/// or more estimates — the unit [`Estimator::estimate_staged`] fills and
/// the sweep's `--stage-profile` mode aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageNanos {
    /// Stage 1 — feasibility/memory validation.
    pub validate_ns: u64,
    /// Stage 2 — signature resolution + graph construction + lowering.
    pub lower_ns: u64,
    /// Stage 3 — the Algorithm 1 replay.
    pub simulate_ns: u64,
    /// Stage 4 — folding the report into the estimate.
    pub summarize_ns: u64,
}

impl StageNanos {
    /// Total attributed time across all four stages.
    pub fn total_ns(&self) -> u64 {
        self.validate_ns + self.lower_ns + self.simulate_ns + self.summarize_ns
    }

    /// Accumulates another attribution into this one.
    pub fn merge(&mut self, other: &StageNanos) {
        self.validate_ns += other.validate_ns;
        self.lower_ns += other.lower_ns;
        self.simulate_ns += other.simulate_ns;
        self.summarize_ns += other.summarize_ns;
    }
}

/// A fully-labeled per-stream execution timeline of one predicted
/// iteration — [`Estimator::timeline`]'s result.
#[derive(Debug)]
pub struct IterationTimeline {
    /// The recorded timeline: one track per simulated device (each
    /// pipeline stage's representative GPU), streams 0/1 = compute/comm,
    /// spans labeled with operator kinds and per-tier communication
    /// costs. Export with [`TimelineRecorder::to_chrome_trace`].
    pub recorder: TimelineRecorder,
    /// The replay report the timeline was captured from (bit-identical
    /// to the untraced replay).
    pub report: SimReport,
}

/// The vTrain estimation front-end: a staged `validate → lower →
/// simulate → summarize` pipeline over a shared profile cache.
///
/// Built declaratively with [`Estimator::builder`]; clones share the
/// cache (it sits behind an [`Arc`]), so handing clones to sweep worker
/// threads deduplicates profiling across the whole sweep.
#[derive(Clone, Debug)]
pub struct Estimator {
    cluster: ClusterSpec,
    comm: CommModel,
    graph_opts: GraphOptions,
    profiler: Profiler,
    cache: Arc<ProfileCache>,
    /// The profiler GPU's cache key, derived once per estimator instead
    /// of once per lookup.
    gpu_key: GpuKey,
    /// The §IV bandwidth-effectiveness calibration factor this estimator
    /// was built with (kept so derived estimators — sweeps over the same
    /// platform — can reproduce the configuration).
    alpha: f64,
    /// Ground-truth emulation oracle for [`Estimator::measure`].
    noise: NoiseModel,
}

/// Declarative constructor for [`Estimator`] — one builder instead of a
/// constructor per configuration axis.
///
/// Every axis is optional: the default is the paper's calibrated flat
/// model (`α = 1.0`, fresh profile cache, Equation (1) communication,
/// default measurement noise).
///
/// ```
/// use std::sync::Arc;
/// use vtrain_core::Estimator;
/// use vtrain_parallel::ClusterSpec;
/// use vtrain_profile::ProfileCache;
///
/// let cluster = ClusterSpec::aws_p4d(64);
/// let estimator = Estimator::builder(cluster.clone())
///     .alpha(0.9)
///     .topology(cluster.topology(0.9))
///     .cache(Arc::new(ProfileCache::new()))
///     .build();
/// assert!(estimator.is_topology_aware());
/// ```
#[derive(Clone, Debug)]
pub struct EstimatorBuilder {
    cluster: ClusterSpec,
    /// `None` until [`EstimatorBuilder::alpha`] is called: unset, the
    /// topology's own per-tier αs are used exactly as declared instead
    /// of being silently reset to 1.0.
    alpha: Option<f64>,
    cache: Option<Arc<ProfileCache>>,
    topology: Option<Topology>,
    noise: Option<vtrain_gpu::NoiseConfig>,
    network: Option<NetworkBackend>,
}

impl EstimatorBuilder {
    /// Sets the bandwidth-effectiveness factor `α ∈ (0, 1]` applied to
    /// inter-node communication (paper §IV; default `1.0`, the value
    /// found optimal on the paper's 512-GPU platform).
    ///
    /// With a [`topology`](EstimatorBuilder::topology), an explicit
    /// `alpha` supersedes any per-tier `alpha` set on the topology's
    /// inter-node tiers — it is the one §IV calibration knob, applied
    /// uniformly above the node level (encode per-tier effectiveness
    /// differences in tier bandwidths instead). When *not* called, the
    /// topology's own per-tier `α`s are used exactly as declared.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Shares an existing profile cache instead of creating a fresh one
    /// — e.g. one cache across estimators for several cluster sizes of
    /// the same GPU. Compute profiles are topology-independent, so
    /// estimators for different placements can share a cache soundly.
    pub fn cache(mut self, cache: Arc<ProfileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Prices collectives on a hierarchical `topology` (which may add a
    /// rack tier via
    /// [`Topology::with_rack_tier`](vtrain_net::Topology::with_rack_tier))
    /// via the `vtrain-net` algorithm library instead of the flat
    /// Equation (1) model.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Configures the ground-truth emulation effects
    /// [`Estimator::measure`] injects (default
    /// [`NoiseConfig::default`](vtrain_gpu::NoiseConfig), the paper's
    /// §IV error decomposition).
    pub fn noise(mut self, noise: vtrain_gpu::NoiseConfig) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Selects the network-cost regime (default
    /// [`NetworkBackend::ClosedForm`], the paper's per-collective
    /// Equation (1) pricing). Under
    /// [`NetworkBackend::FairSharing`] the Predicted replay runs in
    /// physical time with link-crossing collectives as flows that
    /// max-min share each tier's effective bandwidth, so overlapping
    /// DP/TP/PP communication contends instead of being priced in
    /// isolation.
    pub fn network(mut self, network: NetworkBackend) -> Self {
        self.network = Some(network);
        self
    }

    /// Finalizes the estimator.
    pub fn build(self) -> Estimator {
        let EstimatorBuilder { cluster, alpha, cache, topology, noise, network } = self;
        let cache = cache.unwrap_or_default();
        let (comm, graph_opts) = match topology {
            None => {
                let comm = CommModel::new(&cluster, alpha.unwrap_or(1.0));
                let graph_opts = GraphOptions {
                    gpus_per_node: cluster.gpus_per_node,
                    ..GraphOptions::default()
                };
                (comm, graph_opts)
            }
            Some(topology) => {
                // An explicit α is the §IV supersede; unset, the
                // topology's own per-tier αs are used exactly as
                // declared (so `cluster.topology(0.8)` keeps its 0.8
                // and a heterogeneous rack spine keeps its own value).
                let comm = match alpha {
                    Some(alpha) => CommModel::with_topology(&cluster, alpha, topology.clone()),
                    None => CommModel::with_topology_tiers(&cluster, topology.clone()),
                };
                // Graph placement geometry follows the topology's node
                // shape (falling back to the cluster's for a flat
                // topology's unbounded node).
                let gpus_per_node = if topology.gpus_per_node() == usize::MAX {
                    cluster.gpus_per_node
                } else {
                    topology.gpus_per_node()
                };
                let nodes_per_rack = (topology.num_tiers() == 3).then(|| topology.nodes_per_rack());
                let graph_opts =
                    GraphOptions { gpus_per_node, nodes_per_rack, ..GraphOptions::default() };
                (comm, graph_opts)
            }
        };
        let comm = comm.with_backend(network.unwrap_or_default());
        let profiler = Profiler::new(cluster.gpu.clone());
        let gpu_key = GpuKey::of(&cluster.gpu);
        let noise = NoiseModel::new(noise.unwrap_or_default());
        let alpha = comm.alpha();
        Estimator { cluster, comm, graph_opts, profiler, cache, gpu_key, alpha, noise }
    }
}

/// Reusable per-thread state of the sweep's evaluation hot path: the
/// slot-walk buffers, the report whose vectors are recycled, and this
/// thread's exact share of profile-cache traffic.
///
/// Thread one of these through [`Estimator::estimate_validated_with`] and
/// steady-state closed-form evaluation performs no per-point heap
/// allocation beyond the walk's per-plan layer partition.
#[derive(Default)]
pub struct EstimatorScratch {
    walk: SlotScratch,
    report: SimReport,
    /// Profile-cache hits/misses attributable to this scratch's owner.
    cache_stats: CacheStats,
}

impl EstimatorScratch {
    /// This scratch's exact profile-cache hit/miss tally (monotonic),
    /// under either network backend.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }
}

/// [`ProfileSource`] over the estimator's shared cache: weight updates
/// (near-unique parameter counts) are evaluated closed-form inline;
/// everything else goes through the cache with exact hit/miss
/// attribution into the scratch's local tally.
struct CacheSource<'a> {
    cache: &'a ProfileCache,
    profiler: &'a Profiler,
    gpu_key: &'a GpuKey,
    stats: &'a mut CacheStats,
}

impl ProfileSource for CacheSource<'_> {
    fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)> {
        if sig.kind == CompKind::WeightUpdate {
            return Some(self.profiler.operator_latency(sig));
        }
        let profile = self.cache.get_with(self.gpu_key, self.profiler, sig, self.stats);
        Some((profile.total(), profile.kernel_count() as u32))
    }
}

impl Estimator {
    /// Starts building an estimator for `cluster` — the one constructor.
    ///
    /// Defaults: `α = 1.0` (the value §IV found optimal on the paper's
    /// 512-GPU platform), a fresh profile cache, the flat Equation (1)
    /// communication model, and the paper's default measurement noise.
    pub fn builder(cluster: ClusterSpec) -> EstimatorBuilder {
        EstimatorBuilder {
            cluster,
            alpha: None,
            cache: None,
            topology: None,
            noise: None,
            network: None,
        }
    }

    /// The network-cost regime this estimator replays communication
    /// under.
    pub fn network(&self) -> NetworkBackend {
        self.comm.backend()
    }

    /// The bandwidth-effectiveness factor this estimator was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The ground-truth emulation oracle [`Estimator::measure`] uses.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The interconnect topology communication is priced against.
    pub fn topology(&self) -> &Topology {
        self.comm.topology()
    }

    /// True if this estimator routes collectives through the
    /// topology-aware algorithm library.
    pub fn is_topology_aware(&self) -> bool {
        self.comm.is_topology_aware()
    }

    /// The cluster being modeled.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The shared profile cache.
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }

    /// Lifetime hit/miss counters of the shared profile cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// **Stage 1 — validate.** Checks the plan against the model and
    /// cluster (divisibility, NVLink domain, pipeline depth, GPU count,
    /// per-GPU memory). Cheap: no allocation, no profiling — the sweep
    /// executor uses this as its pruning predicate.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InvalidPlan`] with the first violated
    /// constraint.
    pub fn validate(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<(), EstimateError> {
        plan.validate(model, &self.cluster)?;
        Ok(())
    }

    /// **Stage 2 — lower.** Streams the execution graph directly into a
    /// lowered [`TaskGraph`], resolving each distinct operator against the
    /// shared profile cache on first sight (profiling only signatures no
    /// previous query has seen).
    ///
    /// Weight updates are the one exception to cache residency: they
    /// decompose to a single fused Adam kernel whose latency is a
    /// closed-form function of the per-stage parameter count, so they are
    /// evaluated inline — per-stage parameter counts are nearly unique
    /// across `(t, p)` and would dilute the cache with unshareable
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid for the model (run
    /// [`Estimator::validate`] first).
    pub fn lower(&self, model: &ModelConfig, plan: &ParallelConfig) -> TaskGraph {
        self.lower_counted(model, plan, &mut CacheStats::default())
    }

    /// [`Estimator::lower`] with every profile lookup also tallied into
    /// `stats` (the sweep worker's attribution).
    fn lower_counted(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        stats: &mut CacheStats,
    ) -> TaskGraph {
        TaskGraph::lower_fused(model, plan, &self.graph_opts, &mut self.source(stats), &self.comm)
            .expect("estimator profile source resolves every signature")
    }

    /// The shared profile cache as a [`ProfileSource`], tallying lookups
    /// into `stats`.
    fn source<'a>(&'a self, stats: &'a mut CacheStats) -> CacheSource<'a> {
        CacheSource { cache: &self.cache, profiler: &self.profiler, gpu_key: &self.gpu_key, stats }
    }

    /// **Stage 3 — simulate.** Replays a lowered task graph (Algorithm 1).
    pub fn simulate(&self, task_graph: &TaskGraph, mode: SimMode<'_>) -> SimReport {
        simulate(task_graph, mode)
    }

    /// **Stage 4 — summarize.** Folds a replay report into the
    /// user-facing estimate (utilization, occupancy, token accounting).
    pub fn summarize(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        report: &SimReport,
    ) -> IterationEstimate {
        let flops = model.flops_per_iteration(plan.global_batch(), self.graph_opts.recompute);
        let peak = self.cluster.gpu.peak_fp16_flops * plan.num_gpus() as f64;
        let utilization = (flops.as_f64() / (peak * report.iteration_time.as_secs_f64())).min(1.0);
        IterationEstimate {
            iteration_time: report.iteration_time,
            utilization,
            occupancy: report.mean_device_occupancy(),
            busy: report.busy,
            num_gpus: plan.num_gpus(),
            tokens_per_iteration: model.tokens_per_iteration(plan.global_batch()),
        }
    }

    /// vTrain's prediction for one design point: `validate → lower →
    /// simulate → summarize`.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InvalidPlan`] if the plan fails
    /// [`ParallelConfig::validate`] against the model and cluster.
    pub fn estimate(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationEstimate, EstimateError> {
        self.validate(model, plan)?;
        Ok(self.estimate_point(model, plan, &mut EstimatorScratch::default(), None))
    }

    /// The sweep's hot path: [`Estimator::estimate`] for an already
    /// validated plan, reusing `scratch`'s buffers point to point and
    /// tallying profile lookups into it. Closed-form estimates walk the
    /// slot table; fair-sharing ones lower and replay the task graph.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid for the model (run
    /// [`Estimator::validate`] first).
    pub fn estimate_validated_with(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
    ) -> IterationEstimate {
        self.estimate_point(model, plan, scratch, None)
    }

    /// The one Predicted estimate of a validated plan, with optional
    /// per-stage wall-clock attribution. Under the closed form, `lower`
    /// prices the slot table and `simulate` is the slot walk; under fair
    /// sharing they are the full lowering and the flow replay.
    pub(crate) fn estimate_point(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
        stages: Option<&mut StageNanos>,
    ) -> IterationEstimate {
        let timed = stages.is_some();
        let now = || timed.then(Instant::now);
        let EstimatorScratch { walk: slots, report, cache_stats } = scratch;
        let t0 = now();
        let (t1, t2, t3);
        if self.network() == NetworkBackend::FairSharing {
            // The walk prices each comm task in isolation — exactly the
            // assumption fair sharing drops — so every fair-sharing point
            // takes the full lowering + physical replay.
            let graph = self.lower_counted(model, plan, cache_stats);
            t1 = now();
            *report = simulate_flows(&graph, self.topology(), None, None);
            t2 = now();
            // Teardown is attributed to the stage that allocated.
            drop(graph);
            t3 = now();
        } else {
            let mut source = self.source(cache_stats);
            price_slots(model, plan, &self.graph_opts, &mut source, &self.comm, slots)
                .expect("estimator profile source resolves every signature");
            t1 = now();
            walk(model, plan, slots, report);
            t2 = now();
            t3 = t2;
        }
        let estimate = self.summarize(model, plan, report);
        if let (Some(stages), Some(t0), Some(t1), Some(t2), Some(t3)) = (stages, t0, t1, t2, t3) {
            stages.lower_ns += ((t1 - t0) + (t3 - t2)).as_nanos() as u64;
            stages.simulate_ns += (t2 - t1).as_nanos() as u64;
            stages.summarize_ns += t3.elapsed().as_nanos() as u64;
        }
        estimate
    }

    /// An admissible analytic lower bound on the plan's Predicted
    /// iteration time, computed without lowering — see
    /// [`bounds`](crate::bounds) for the construction. Bound-guided sweep
    /// goals use this to skip points that provably lose to an incumbent.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`Estimator::lower`]: the plan must be valid
    /// for the model.
    pub fn lower_bound(&self, model: &ModelConfig, plan: &ParallelConfig) -> TimeNs {
        crate::bounds::iteration_floor(model, plan, &self.graph_opts, &self.cluster.gpu, &self.comm)
    }

    /// Ground-truth emulated "measurement" of the same design point — the
    /// stand-in for the real training runs of the paper's validation
    /// (Fig. 9, Table II). Same staged composition with the noise-model
    /// replay plus a configuration-level iteration bias.
    ///
    /// Uses the noise the estimator was
    /// [built with](EstimatorBuilder::noise) (the paper's §IV error
    /// decomposition by default); [`Estimator::measure_with`] accepts an
    /// explicit oracle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn measure(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationEstimate, EstimateError> {
        self.measure_with(model, plan, &self.noise)
    }

    /// [`Estimator::measure`] under an explicit noise oracle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn measure_with(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        noise: &NoiseModel,
    ) -> Result<IterationEstimate, EstimateError> {
        self.validate(model, plan)?;
        let tg = self.lower(model, plan);
        let nodes = plan.num_gpus().div_ceil(self.cluster.gpus_per_node);
        let mut report = self.simulate(&tg, SimMode::Measured { noise, nodes });
        // Configuration-level runtime bias a kernel replay cannot see
        // (framework effects); keyed deterministically on the config via a
        // toolchain-stable hash.
        let key = stable_config_key(model, plan);
        report.iteration_time = report.iteration_time.scale(noise.iteration_bias(key, nodes));
        Ok(self.summarize(model, plan, &report))
    }

    /// [`Estimator::estimate`] with wall-clock stage attribution: each of
    /// the four pipeline stages is timed individually and accumulated
    /// into `stages`. The estimate itself is bit-identical to
    /// [`Estimator::estimate`] — it runs the same path, timed from inside.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn estimate_staged(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        stages: &mut StageNanos,
    ) -> Result<IterationEstimate, EstimateError> {
        let t0 = Instant::now();
        self.validate(model, plan)?;
        stages.validate_ns += t0.elapsed().as_nanos() as u64;
        Ok(self.estimate_point(model, plan, &mut EstimatorScratch::default(), Some(stages)))
    }

    /// Captures a fully-labeled per-stream execution timeline of one
    /// predicted iteration: the traced Algorithm 1 replay joined back to
    /// the operator graph for names, with per-tier communication costs
    /// from the estimator's [`CommModel`] attached as span args.
    ///
    /// The returned recorder has one track per simulated device (each
    /// pipeline stage's representative GPU) with `compute`/`comm` stream
    /// lanes; the report is bit-identical to [`Estimator::estimate`]'s
    /// underlying replay, and the latest span end equals
    /// `report.iteration_time` exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn timeline(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationTimeline, EstimateError> {
        self.validate(model, plan)?;
        // Materialize the operator graph once, purely for labels: the
        // fused lowering emits exactly one task per node in node order
        // (pinned by the lowering equivalence tests), so task id == node
        // index and the join is an array lookup.
        let graph = build_op_graph(model, plan, &self.graph_opts);
        let tg = self.lower(model, plan);
        assert_eq!(tg.len(), graph.num_nodes(), "lowering preserves node count and order");

        let mut recorder = TimelineRecorder::new();
        for dev in 0..u64::from(tg.num_devices()) {
            recorder.set_track_name(dev, format!("stage {dev} rank group"));
            recorder.set_stream_name(dev, 0, "compute");
            recorder.set_stream_name(dev, 1, "comm");
        }

        let nodes = graph.nodes();
        let kinds = tg.kinds();
        let mut report = SimReport::default();
        let mut record = |id: u32, start: TimeNs, finish: TimeNs| {
            let node = &nodes[id as usize];
            let tid = match node.stream {
                StreamKind::Compute => 0,
                StreamKind::Comm => 1,
            };
            let (name, cat, args) = match &node.op {
                Op::Compute(c) => {
                    let kernels = match kinds[id as usize] {
                        TaskKind::Compute { kernels } => u64::from(kernels),
                        TaskKind::Comm { .. } => 0,
                    };
                    let (name, cat) = compute_label(c.sig.kind);
                    (name, cat, vec![("kernels".to_owned(), kernels)])
                }
                Op::Comm(c) => comm_label(c, &self.comm),
            };
            recorder.record(TraceSpan {
                pid: u64::from(node.device),
                tid,
                name: name.to_owned(),
                cat: cat.to_owned(),
                start_ns: start.as_nanos(),
                dur_ns: (finish - start).as_nanos(),
                args,
            });
        };
        if self.network() == NetworkBackend::FairSharing {
            // Counter samples are buffered and attached after the replay:
            // the span-recording closure holds the recorder borrow.
            let mut samples: Vec<(TimeNs, Vec<f64>)> = Vec::new();
            let mut net_trace = |t: TimeNs, util: &[f64]| samples.push((t, util.to_vec()));
            report = simulate_flows(&tg, self.topology(), Some(&mut record), Some(&mut net_trace));
            for (t, util) in samples {
                recorder.record_counter(CounterSample {
                    pid: 0,
                    name: "net.link_utilization".to_owned(),
                    ts_ns: t.as_nanos(),
                    values: util
                        .iter()
                        .enumerate()
                        .map(|(tier, u)| (format!("tier{tier}_pct"), (u * 100.0).round() as u64))
                        .collect(),
                });
            }
            return Ok(IterationTimeline { recorder, report });
        }
        simulate_into_traced(
            &tg,
            SimMode::Predicted,
            &mut SimScratch::default(),
            &mut report,
            &mut record,
        );
        Ok(IterationTimeline { recorder, report })
    }
}

/// `(name, category)` of a compute span.
fn compute_label(kind: CompKind) -> (&'static str, &'static str) {
    match kind {
        CompKind::EmbeddingFwd => ("EmbeddingFwd", "Fwd"),
        CompKind::MhaFwd => ("MhaFwd", "Fwd"),
        CompKind::FfnFwd => ("FfnFwd", "Fwd"),
        CompKind::LmHeadFwd => ("LmHeadFwd", "Fwd"),
        CompKind::EmbeddingBwd => ("EmbeddingBwd", "Bwd"),
        CompKind::MhaBwd => ("MhaBwd", "Bwd"),
        CompKind::FfnBwd => ("FfnBwd", "Bwd"),
        CompKind::LmHeadBwd => ("LmHeadBwd", "Bwd"),
        CompKind::WeightUpdate => ("WeightUpdate", "WeightUpdate"),
    }
}

/// `(name, category, args)` of a communication span: payload geometry
/// plus the comm model's per-tier cost attribution ([`CostBreakdown`]
/// phases summed by tier).
fn comm_label(op: &CommOp, comm: &CommModel) -> (&'static str, &'static str, Vec<(String, u64)>) {
    let name = match op.kind {
        CommKind::TpAllReduce => "TpAllReduce",
        CommKind::DpAllReduce => "DpAllReduce",
        CommKind::PpSendRecv => "PpSendRecv",
    };
    let mut args =
        vec![("bytes".to_owned(), op.bytes.as_u64()), ("ranks".to_owned(), op.ranks as u64)];
    let breakdown = comm.breakdown(op);
    let mut tiers: Vec<(usize, u64)> = Vec::new();
    for phase in &breakdown.phases {
        match tiers.iter_mut().find(|(t, _)| *t == phase.tier) {
            Some((_, ns)) => *ns += phase.time.as_nanos(),
            None => tiers.push((phase.tier, phase.time.as_nanos())),
        }
    }
    tiers.sort_by_key(|&(t, _)| t);
    for (tier, ns) in tiers {
        args.push((format!("tier{tier}_ns"), ns));
    }
    (name, "Comm", args)
}

/// FNV-1a accumulator for the measured-mode configuration key.
///
/// `std::collections::hash_map::DefaultHasher` makes no cross-release
/// stability promise, and "measured" runs must reproduce across
/// toolchains, so the key is an explicit FNV-1a over an explicit field
/// serialization (see [`stable_config_key`]).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Toolchain-stable 64-bit identity of a `(model, plan)` configuration.
///
/// Every field is serialized explicitly (name bytes length-prefixed,
/// numerics as little-endian `u64`), so the value depends only on this
/// function — never on `#[derive(Hash)]` layout or the standard hasher.
///
/// Maintenance note: unlike the `#[derive(Hash)]` it replaced, this list
/// does NOT extend itself when `ModelConfig` or `ParallelConfig` grow a
/// field — add new fields here (and to
/// `stable_config_key_separates_configurations`) or two configurations
/// differing only in the new field will share a measured-mode bias.
fn stable_config_key(model: &ModelConfig, plan: &ParallelConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(model.name().len() as u64);
    h.write_bytes(model.name().as_bytes());
    for dim in [
        model.hidden_size(),
        model.num_layers(),
        model.seq_len(),
        model.num_heads(),
        model.vocab_size(),
        model.ffn_expansion(),
    ] {
        h.write_u64(dim as u64);
    }
    for dim in
        [plan.tensor(), plan.data(), plan.pipeline(), plan.micro_batch(), plan.global_batch()]
    {
        h.write_u64(dim as u64);
    }
    h.write_u64(match plan.schedule() {
        PipelineSchedule::GPipe => 0,
        PipelineSchedule::OneFOneB => 1,
    });
    h.write_u64(u64::from(plan.gradient_bucketing()));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_gpu::NoiseConfig;
    use vtrain_model::presets;

    fn plan(t: usize, d: usize, p: usize, m: usize, b: usize) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .build()
            .unwrap()
    }

    #[test]
    fn estimate_rejects_invalid_plans() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let err = est.estimate(&presets::megatron("1.7B"), &plan(16, 1, 1, 1, 8)).unwrap_err();
        assert!(matches!(err, EstimateError::InvalidPlan(_)));
        assert!(err.to_string().contains("invalid training plan"));
    }

    #[test]
    fn utilization_in_plausible_band() {
        // A reasonable plan for 18.4B on 64 GPUs should land in the
        // 25–60 % utilization band the paper reports for A100 systems.
        let est = Estimator::builder(ClusterSpec::aws_p4d(64)).build();
        let e = est.estimate(&presets::megatron("18.4B"), &plan(8, 8, 1, 2, 128)).unwrap();
        assert!(e.utilization > 0.25 && e.utilization < 0.65, "utilization {:.3}", e.utilization);
    }

    #[test]
    fn tensor_parallel_beats_single_gpu_latency() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let model = presets::megatron("1.7B");
        let t1 = est.estimate(&model, &plan(1, 1, 1, 1, 8)).unwrap();
        let t8 = est.estimate(&model, &plan(8, 1, 1, 1, 8)).unwrap();
        assert!(t8.iteration_time < t1.iteration_time);
        // ... at lower utilization (All-Reduce overhead + smaller GEMMs).
        assert!(t8.utilization < t1.utilization);
    }

    #[test]
    fn measured_is_slower_on_average_and_close() {
        // Any single configuration's iteration-level bias may scatter
        // below 1 (the paper's Fig. 9 points sit on both sides of the
        // diagonal), so assert the ensemble behaviour: each ratio stays in
        // a sane envelope and the mean shows the systematic slow-down.
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let noise = NoiseModel::new(NoiseConfig::default());
        let plans =
            [plan(4, 2, 2, 1, 8), plan(2, 2, 2, 1, 8), plan(2, 4, 2, 1, 8), plan(8, 2, 1, 1, 8)];
        let mut ratios = Vec::new();
        for p in &plans {
            let predicted = est.estimate(&model, p).unwrap();
            let measured = est.measure_with(&model, p, &noise).unwrap();
            let ratio =
                measured.iteration_time.as_secs_f64() / predicted.iteration_time.as_secs_f64();
            assert!(ratio > 0.8 && ratio < 1.7, "measured/predicted ratio {ratio} for {p}");
            ratios.push(ratio);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.0, "mean measured/predicted ratio {mean:.3} should exceed 1");
    }

    #[test]
    fn data_parallel_scales_throughput() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(64)).build();
        let model = presets::megatron("1.7B");
        // Same per-replica work, 8× replicas consume 8× tokens per
        // iteration in comparable time.
        let one = est.estimate(&model, &plan(2, 1, 1, 2, 16)).unwrap();
        let eight = est.estimate(&model, &plan(2, 8, 1, 2, 128)).unwrap();
        let slowdown = eight.iteration_time.as_secs_f64() / one.iteration_time.as_secs_f64();
        assert!(slowdown < 1.4, "DP iteration slowdown {slowdown}");
        assert_eq!(eight.tokens_per_iteration, 8 * one.tokens_per_iteration);
    }

    #[test]
    fn staged_pipeline_composes_to_estimate() {
        // Running the stages by hand must equal the composed call.
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 2, 2, 1, 8);
        est.validate(&model, &p).unwrap();
        let tg = est.lower(&model, &p);
        let report = est.simulate(&tg, SimMode::Predicted);
        let staged = est.summarize(&model, &p, &report);
        let composed = est.estimate(&model, &p).unwrap();
        assert_eq!(staged.iteration_time, composed.iteration_time);
        assert_eq!(staged.busy, composed.busy);
        assert_eq!(staged.num_gpus, composed.num_gpus);
    }

    #[test]
    fn repeated_estimates_hit_the_cache_and_agree_exactly() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 2, 2, 1, 8);
        let cold = est.estimate(&model, &p).unwrap();
        let cold_stats = est.cache_stats();
        assert_eq!(cold_stats.hits, 0, "first query profiles everything");
        let warm = est.estimate(&model, &p).unwrap();
        let warm_stats = est.cache_stats();
        assert_eq!(warm_stats.misses, cold_stats.misses, "second query profiles nothing");
        assert!(warm_stats.hits >= cold_stats.misses);
        assert_eq!(cold.iteration_time, warm.iteration_time);
        assert_eq!(cold.busy, warm.busy);
        assert_eq!(cold.utilization.to_bits(), warm.utilization.to_bits());
        assert_eq!(cold.occupancy.to_bits(), warm.occupancy.to_bits());
    }

    #[test]
    fn clones_share_one_cache() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let clone = est.clone();
        let model = presets::megatron("1.7B");
        let p = plan(2, 2, 2, 1, 8);
        est.estimate(&model, &p).unwrap();
        let misses_before = clone.cache_stats().misses;
        clone.estimate(&model, &p).unwrap();
        assert_eq!(clone.cache_stats().misses, misses_before, "clone reuses shared profiles");
    }

    #[test]
    fn unset_alpha_inherits_the_topology_tier_alpha() {
        // `.topology(cluster.topology(0.8))` without `.alpha(..)` must
        // keep the declared 0.8, not silently reset tiers to 1.0.
        let cluster = ClusterSpec::aws_p4d(32);
        let inherited = Estimator::builder(cluster.clone()).topology(cluster.topology(0.8)).build();
        assert_eq!(inherited.alpha(), 0.8);
        assert_eq!(inherited.topology().tier(1).alpha, 0.8);
        let explicit =
            Estimator::builder(cluster.clone()).alpha(0.8).topology(cluster.topology(0.8)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 1, 1, 16);
        let a = inherited.estimate(&model, &p).unwrap();
        let b = explicit.estimate(&model, &p).unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
        // An explicit α still supersedes the tiers, as documented.
        let overridden =
            Estimator::builder(cluster.clone()).alpha(1.0).topology(cluster.topology(0.8)).build();
        assert_eq!(overridden.topology().tier(1).alpha, 1.0);
        // Heterogeneous tiers survive too: a rack spine declared at
        // α = 0.5 keeps its own value when no explicit α is set.
        let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 0.5);
        let racked = Estimator::builder(cluster.clone())
            .topology(cluster.topology(0.8).with_rack_tier(2, spine))
            .build();
        assert_eq!(racked.topology().tier(1).alpha, 0.8);
        assert_eq!(racked.topology().tier(2).alpha, 0.5);
    }

    #[test]
    fn topology_estimator_agrees_with_flat_on_spread_groups() {
        // t = 8 fills each node, so every DP group has one rank per node:
        // the selector degenerates to the flat ring and the topology-aware
        // estimate must be bit-identical to the legacy model.
        let cluster = ClusterSpec::aws_p4d(64);
        let flat = Estimator::builder(cluster.clone()).build();
        let aware = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        assert!(aware.is_topology_aware() && !flat.is_topology_aware());
        let model = presets::megatron("18.4B");
        let p = plan(8, 8, 1, 2, 128);
        let a = flat.estimate(&model, &p).unwrap();
        let b = aware.estimate(&model, &p).unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    }

    #[test]
    fn topology_estimator_speeds_up_node_packed_gradients() {
        // t = 2 leaves 4 DP ranks per node: hierarchical gradient
        // All-Reduce sends only S/4 over InfiniBand, so the topology-aware
        // estimate must be at least as fast as the flat Equation (1).
        let cluster = ClusterSpec::aws_p4d(32);
        let flat = Estimator::builder(cluster.clone()).build();
        let aware = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 16, 1, 1, 16);
        let a = flat.estimate(&model, &p).unwrap();
        let b = aware.estimate(&model, &p).unwrap();
        assert!(
            b.iteration_time <= a.iteration_time,
            "topology-aware {} vs flat {}",
            b.iteration_time,
            a.iteration_time
        );
    }

    #[test]
    fn rack_tier_slows_cross_rack_placements() {
        // Same plan, same cluster; adding a rack tier with a slower spine
        // can only lengthen communication.
        let cluster = ClusterSpec::aws_p4d(64);
        let two_tier = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
        let racked = Estimator::builder(cluster.clone())
            .topology(cluster.topology(1.0).with_rack_tier(2, spine))
            .build();
        assert_eq!(racked.topology().num_tiers(), 3);
        let model = presets::megatron("1.7B");
        let p = plan(2, 16, 2, 1, 16); // 64 GPUs: spans all 4 racks of 16.
        let fast = two_tier.estimate(&model, &p).unwrap();
        let slow = racked.estimate(&model, &p).unwrap();
        assert!(
            slow.iteration_time >= fast.iteration_time,
            "racked {} vs two-tier {}",
            slow.iteration_time,
            fast.iteration_time
        );
    }

    #[test]
    fn fair_sharing_defaults_off_and_is_selectable() {
        let cluster = ClusterSpec::aws_p4d(8);
        let est = Estimator::builder(cluster.clone()).build();
        assert_eq!(est.network(), NetworkBackend::ClosedForm);
        let est = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        assert_eq!(est.network(), NetworkBackend::FairSharing);
    }

    #[test]
    fn fair_sharing_solo_flows_match_closed_form_exactly() {
        // p = 1 → one simulated device → the comm stream serialises its
        // transfers, so every flow drains alone. A solo drain is
        // bit-identical to the closed-form cost, and therefore so is the
        // whole iteration.
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let p = plan(8, 2, 1, 1, 8);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert_eq!(closed.iteration_time, fair.iteration_time);
        assert_eq!(closed.busy, fair.busy);
        assert_eq!(closed.utilization.to_bits(), fair.utilization.to_bits());
    }

    #[test]
    fn fair_sharing_intra_node_plans_are_untouched() {
        // All communication on one node rides NVLink; nothing becomes a
        // flow, so the physical-time replay coincides with Algorithm 1.
        let cluster = ClusterSpec::aws_p4d(8);
        let model = presets::megatron("1.7B");
        let p = plan(8, 1, 1, 1, 8);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert_eq!(closed.iteration_time, fair.iteration_time);
        assert_eq!(closed.busy, fair.busy);
    }

    #[test]
    fn fair_sharing_contention_lengthens_overlapping_communication() {
        // p = 4 keeps several pipeline boundaries' inter-node transfers
        // and the stages' gradient All-Reduces in flight at once on the
        // shared inter-node tier. Under fair sharing the overlapping
        // transfers split the link, so the iteration must come out
        // strictly longer than the closed form, which prices every
        // transfer against the full link.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 4, 4, 1, 32);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert!(
            fair.iteration_time > closed.iteration_time,
            "fair sharing {} should exceed closed form {}",
            fair.iteration_time,
            closed.iteration_time
        );
    }

    #[test]
    fn fair_sharing_sweep_path_matches_the_composed_estimate() {
        // The sweep hot path has no fair-sharing fast lane: it takes the
        // full lowering + physical replay and must agree exactly.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 2, 1, 16);
        let est = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        let composed = est.estimate(&model, &p).unwrap();
        let mut scratch = EstimatorScratch::default();
        let before = est.cache_stats();
        let hot = est.estimate_validated_with(&model, &p, &mut scratch);
        assert_eq!(composed.iteration_time, hot.iteration_time);
        assert_eq!(composed.busy, hot.busy);
        // The fair branch attributes its profile lookups to the scratch.
        assert_eq!(scratch.cache_stats(), est.cache_stats().since(&before));
        assert!(scratch.cache_stats().hits > 0);
        let mut stages = StageNanos::default();
        let staged = est.estimate_staged(&model, &p, &mut stages).unwrap();
        assert_eq!(composed.iteration_time, staged.iteration_time);
        assert!(stages.simulate_ns > 0);
    }

    #[test]
    fn fair_sharing_measure_and_timeline_stay_on_the_task_graph() {
        // The slot walk prices closed-form Predicted estimates only. These
        // three paths need the lowered task graph; each must reproduce
        // its graph replay exactly.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 4, 4, 1, 32);
        let closed = Estimator::builder(cluster.clone()).build();
        let tasks = closed.lower(&model, &p);

        // FairSharing: the flow replay over the lowered graph.
        let fair = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        let report = simulate_flows(&fair.lower(&model, &p), fair.topology(), None, None);
        let estimate = fair.estimate(&model, &p).unwrap();
        assert_eq!(estimate, fair.summarize(&model, &p, &report));

        // measure: the Measured replay keys noise on task ids.
        let noise = closed.noise();
        let nodes = p.num_gpus().div_ceil(8);
        let mut report = closed.simulate(&tasks, SimMode::Measured { noise, nodes });
        let bias = noise.iteration_bias(stable_config_key(&model, &p), nodes);
        report.iteration_time = report.iteration_time.scale(bias);
        let measured = closed.measure(&model, &p).unwrap();
        assert_eq!(measured, closed.summarize(&model, &p, &report));

        // timeline: one span per task of the lowered graph.
        let timeline = closed.timeline(&model, &p).unwrap();
        assert_eq!(timeline.report, closed.simulate(&tasks, SimMode::Predicted));
        assert_eq!(timeline.recorder.spans().len(), tasks.len());
    }

    #[test]
    fn fair_lowering_aligns_with_the_operator_graph() {
        // Task i of the fair lowering is node i of the operator graph:
        // same device, stream and children, and the flow program the comm
        // model compiles for that node. Rack-tier plans with p > 1 put
        // pipeline sends and DP All-Reduces on every tier.
        let cluster = ClusterSpec::aws_p4d(64);
        let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
        let est = Estimator::builder(cluster.clone())
            .topology(cluster.topology(1.0).with_rack_tier(2, spine))
            .network(NetworkBackend::FairSharing)
            .build();
        let model = presets::megatron("1.7B");
        for p in [plan(2, 16, 2, 1, 16), plan(2, 4, 8, 1, 32), plan(4, 4, 4, 2, 32)] {
            let graph = build_op_graph(&model, &p, &est.graph_opts);
            let tg = est.lower(&model, &p);
            assert_eq!(tg.len(), graph.num_nodes(), "{p}");
            let mut rack_flows = 0;
            for (i, node) in graph.nodes().iter().enumerate() {
                let id = i as u32;
                assert_eq!(tg.devices()[i], node.device, "{p}: device of {i}");
                assert_eq!(tg.streams()[i], node.stream as u8, "{p}: stream of {i}");
                assert_eq!(tg.children(id), graph.children(id), "{p}: children of {i}");
                let expected = match &node.op {
                    Op::Comm(c) => est.comm.flow_program(c),
                    Op::Compute(_) => None,
                };
                assert_eq!(tg.flow_program(id), expected.as_ref(), "{p}: flow of {i}");
                rack_flows +=
                    usize::from(expected.is_some_and(|f| f.phases.iter().any(|ph| ph.tier == 2)));
            }
            assert!(rack_flows > 0, "{p}: some flow must cross the rack tier");
        }
    }

    #[test]
    fn fair_sharing_timeline_carries_link_utilization_counters() {
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 2, 1, 16);
        let est = Estimator::builder(cluster.clone()).network(NetworkBackend::FairSharing).build();
        let timeline = est.timeline(&model, &p).unwrap();
        let estimate = est.estimate(&model, &p).unwrap();
        assert_eq!(
            timeline.recorder.max_end_ns(),
            estimate.iteration_time.as_nanos(),
            "traced replay is bit-identical to the untraced one"
        );
        assert_eq!(timeline.report.iteration_time, estimate.iteration_time);
        let counters = timeline.recorder.counters();
        assert!(!counters.is_empty(), "refills should leave utilization samples");
        assert!(counters.iter().all(|c| c.name == "net.link_utilization"));
        assert!(
            counters
                .iter()
                .flat_map(|c| &c.values)
                .any(|(series, pct)| series == "tier1_pct" && *pct > 0),
            "the inter-node tier should see traffic"
        );
        let json = timeline.recorder.to_chrome_trace();
        assert!(json.contains("\"ph\":\"C\""), "counters export as Chrome counter events");
    }

    #[test]
    fn stable_config_key_is_pinned() {
        // Regression pin: the measured-mode bias key must be identical
        // across Rust releases and platforms. If this value ever changes,
        // "measured" runs stop being reproducible — do not update the
        // constant without understanding why it moved.
        let model = presets::megatron("1.7B");
        let p = plan(4, 2, 2, 1, 8);
        assert_eq!(stable_config_key(&model, &p), 0x1b33_83be_ce30_35d7);
    }

    #[test]
    fn stable_config_key_separates_configurations() {
        // Every hashed field must flip the key on its own (keep this list
        // in sync with `stable_config_key`).
        let model = presets::megatron("1.7B");
        let base = stable_config_key(&model, &plan(4, 2, 2, 1, 8));
        // Plan fields.
        assert_ne!(base, stable_config_key(&model, &plan(2, 4, 2, 1, 8)), "tensor/data");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 1, 1, 8)), "pipeline");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 2, 2, 8)), "micro_batch");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 2, 1, 16)), "global_batch");
        let gpipe = ParallelConfig::builder()
            .tensor(4)
            .data(2)
            .pipeline(2)
            .micro_batch(1)
            .global_batch(8)
            .schedule(PipelineSchedule::GPipe)
            .build()
            .unwrap();
        assert_ne!(base, stable_config_key(&model, &gpipe), "schedule");
        let unbucketed = ParallelConfig::builder()
            .tensor(4)
            .data(2)
            .pipeline(2)
            .micro_batch(1)
            .global_batch(8)
            .gradient_bucketing(false)
            .build()
            .unwrap();
        assert_ne!(base, stable_config_key(&model, &unbucketed), "bucketing");
        // Model fields: a different preset flips the numeric dims; a pure
        // rename flips only the name bytes.
        assert_ne!(base, stable_config_key(&presets::megatron("18.4B"), &plan(4, 2, 2, 1, 8)));
        let renamed = model.clone().with_name("renamed");
        assert_ne!(base, stable_config_key(&renamed, &plan(4, 2, 2, 1, 8)), "name");
    }
}
