//! Per-layer timings taken from outside the program: each public entry
//! point of a layer is called and timed on the workload's own plans.
//!
//! The estimator's graph options and communication model are private,
//! so the graph- and network-level probes rebuild them from the
//! scenario the same way `EstimatorBuilder::build` does.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use vtrain::graph::{build_op_graph, plan_signatures, CompKind, GraphOptions, Op};
use vtrain::prelude::*;
use vtrain::profile::{CommModel, Profiler};

use crate::report::{median, object, RunResult};

/// Nanoseconds `f` takes, median over `reps` calls.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The graph options an estimator built from `scenario` lowers with.
fn graph_options(scenario: &Scenario, cluster: &ClusterSpec) -> GraphOptions {
    match scenario.topology().expect("workload scenarios resolve") {
        None => GraphOptions { gpus_per_node: cluster.gpus_per_node, ..GraphOptions::default() },
        Some(topo) => GraphOptions {
            gpus_per_node: if topo.gpus_per_node() == usize::MAX {
                cluster.gpus_per_node
            } else {
                topo.gpus_per_node()
            },
            nodes_per_rack: (topo.num_tiers() == 3).then(|| topo.nodes_per_rack()),
            ..GraphOptions::default()
        },
    }
}

/// The fair-sharing communication model of `scenario`'s estimator.
fn fair_comm_model(scenario: &Scenario, cluster: &ClusterSpec) -> CommModel {
    let alpha = scenario.alpha();
    let comm = match scenario.topology().expect("workload scenarios resolve") {
        None => CommModel::new(cluster, alpha),
        Some(topo) => CommModel::with_topology(cluster, alpha, topo),
    };
    comm.with_backend(NetworkBackend::FairSharing)
}

/// Sums over the sampled plans; turned into per-unit metrics by
/// [`PlanLayers::report`].
#[derive(Default)]
pub struct PlanLayers {
    plans: u64,
    tasks: u64,
    nodes: u64,
    sigs: u64,
    misses: u64,
    flows: u64,
    refills: u64,
    signatures_ns: f64,
    build_ns: f64,
    lower_ns: f64,
    simulate_ns: f64,
    summarize_ns: f64,
    floor_ns: f64,
    fair_replay_ns: f64,
    resolve_warm_ns: f64,
    resolve_cold_ns: f64,
}

impl PlanLayers {
    /// Times every layer on `plans` of `scenario`: sub-microsecond calls
    /// are repeated and their median taken, graph-sized calls run once.
    pub fn measure(&mut self, scenario: &Scenario, plans: &[ParallelConfig]) {
        let model = scenario.model().expect("workload scenarios resolve");
        let cluster = scenario.cluster().expect("workload scenarios resolve");
        let opts = graph_options(scenario, &cluster);
        let comm = fair_comm_model(scenario, &cluster);
        let profiler = Profiler::new(cluster.gpu.clone());
        let cache = Arc::new(ProfileCache::new());
        let estimator = scenario.estimator_with(Arc::clone(&cache)).expect("scenario resolves");
        let mut fair_scenario = scenario.clone();
        fair_scenario.network = Some(NetworkSection { backend: "fair-sharing".to_owned() });
        let fair = fair_scenario.estimator_with(Arc::clone(&cache)).expect("scenario resolves");

        for plan in plans {
            self.plans += 1;
            let sigs = plan_signatures(&model, plan, &opts);
            self.signatures_ns += time_ns(9, || plan_signatures(&model, plan, &opts));
            let profiled: Vec<_> =
                sigs.iter().filter(|s| s.kind != CompKind::WeightUpdate).copied().collect();
            let cold = ProfileCache::new();
            self.resolve_cold_ns += time_ns(1, || cold.resolve(&profiler, profiled.iter()));
            self.misses += cold.stats().misses;
            self.resolve_warm_ns += time_ns(9, || cold.resolve(&profiler, profiled.iter()));
            self.sigs += profiled.len() as u64;

            let t = Instant::now();
            let graph = build_op_graph(&model, plan, &opts);
            let build_ns = t.elapsed().as_nanos() as f64;
            self.build_ns += build_ns;
            self.nodes += graph.num_nodes() as u64;
            self.flows += graph
                .nodes()
                .iter()
                .filter(|n| matches!(&n.op, Op::Comm(c) if comm.flow_program(c).is_some()))
                .count() as u64;
            drop(graph);

            // Warm the shared cache so `lower` times lowering, not profiling.
            drop(estimator.lower(&model, plan));
            let t = Instant::now();
            let tasks = estimator.lower(&model, plan);
            let lower_ns = t.elapsed().as_nanos() as f64;
            self.tasks += tasks.len() as u64;
            let t = Instant::now();
            let report = estimator.simulate(&tasks, SimMode::Predicted);
            self.simulate_ns += t.elapsed().as_nanos() as f64;
            let summarize_ns = time_ns(9, || estimator.summarize(&model, plan, &report));
            self.lower_ns += lower_ns;
            self.summarize_ns += summarize_ns;
            drop(tasks);
            self.floor_ns += time_ns(9, || estimator.lower_bound(&model, plan));

            // Fair replay: the fair estimate minus the stages it shares
            // with the closed form (build, lower, summarize).
            let t = Instant::now();
            fair.estimate(&model, plan).expect("sampled plans are feasible");
            let fair_ns = t.elapsed().as_nanos() as f64;
            self.fair_replay_ns += (fair_ns - build_ns - lower_ns - summarize_ns).max(0.0);
            // The refill counter only counts while the registry is on;
            // that run is not timed.
            let refills = vtrain::obs::global().counter("net.refills");
            let before = refills.get();
            vtrain::obs::set_enabled(true);
            fair.estimate(&model, plan).expect("sampled plans are feasible");
            vtrain::obs::set_enabled(false);
            self.refills += refills.get() - before;
        }
    }

    pub fn report(&self, out: &mut RunResult) {
        let per = |total: f64, n: u64| total / n.max(1) as f64;
        let plans = self.plans;
        out.metric("core.tasks_per_plan", per(self.tasks as f64, plans), "count");
        out.metric("core.lower_ns_per_task", per(self.lower_ns, self.tasks), "ns");
        out.metric("core.simulate_ns_per_task", per(self.simulate_ns, self.tasks), "ns");
        out.metric("core.summarize_ns_per_plan", per(self.summarize_ns, plans), "ns");
        out.metric("core.fair_replay_ns_per_task", per(self.fair_replay_ns, self.tasks), "ns");
        out.metric("bounds.floor_ns_per_plan", per(self.floor_ns, plans), "ns");
        out.metric("net.refills_per_point", per(self.refills as f64, plans), "count");
        out.metric("net.flows_per_point", per(self.flows as f64, plans), "count");
        out.metric("graph.signatures_ns_per_plan", per(self.signatures_ns, plans), "ns");
        out.metric("graph.build_ns_per_node", per(self.build_ns, self.nodes), "ns");
        out.metric("graph.nodes_per_plan", per(self.nodes as f64, plans), "count");
        out.metric("profile.resolve_ns_per_sig", per(self.resolve_warm_ns, self.sigs), "ns");
        out.metric("profile.miss_us", per(self.resolve_cold_ns, self.misses) / 1e3, "us");
        out.info(
            "layer_sample",
            object([
                ("plans", self.plans.to_value()),
                ("tasks", self.tasks.to_value()),
                ("nodes", self.nodes.to_value()),
                ("signatures", self.sigs.to_value()),
                ("cold_misses", self.misses.to_value()),
                ("flows", self.flows.to_value()),
                ("refills", self.refills.to_value()),
            ]),
        );
    }
}
