//! The closed-form Predicted replay: prices a plan by walking each
//! stage's pipeline schedule slot by slot, with no nodes, edges or CSR.
//!
//! The graph builder emits, per stage, one program-order chain on the
//! compute stream (forward and backward slots, then the weight update)
//! and one on the comm stream (pipeline sends, then DP All-Reduces).
//! Inside a slot every compute node's only parent is its chain
//! predecessor, so on the stream-chained graph `sim.rs` proves
//! `start(u) = max(parent finishes)` and a slot occupies the compute
//! stream for exactly the integer sum of its nodes' durations. The only
//! cross edges are the ones the walk follows explicitly:
//!
//! * a slot starts at the later of its stage's compute-ready time and
//!   its upstream send's finish (forward: the previous stage's send of
//!   that micro-batch; backward: the next stage's);
//! * a send starts at the later of its slot's finish and the stage's
//!   comm-ready time;
//! * a DP All-Reduce starts at the later of the comm-ready time and its
//!   bucket's gradient anchor inside the final backward slot;
//! * the weight update starts at the later of the compute-ready time and
//!   the last All-Reduce.
//!
//! Busy totals, `device_busy` and `tasks_executed` are order-independent
//! sums, so they come out in closed form per stage. Every duration is a
//! sum of slot-table values ([`visit_plan_slots`]) in exact `u64`
//! arithmetic, so the report is **bit-identical** to the task-graph
//! replay, `simulate(&TaskGraph::lower_fused(..), SimMode::Predicted)`,
//! which is its oracle in the equivalence tests below.
//!
//! Measured mode keys noise on task ids and fair sharing prices
//! communication by contention; both need the task graph, so this path is
//! Predicted and closed-form only by construction.

use std::collections::VecDeque;

use vtrain_graph::{
    visit_dp_buckets, visit_plan_slots, CompKind, DpBucket, GraphOptions, OpSignature, SlotIndex,
    SlotOp,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_parallel::{layer_partition, ParallelConfig, Pass};
use vtrain_profile::CommModel;

use crate::sim::{BusyBreakdown, SimReport};
use crate::task_graph::MissingProfile;

/// Resolves compute-operator signatures to `(total latency, kernel
/// count)` while the slot table is priced. Implemented by the estimator
/// over the shared profile cache (with per-sweep hit/miss attribution)
/// and by profile-set adapters in tests.
pub(crate) trait ProfileSource {
    /// The profiled `(total latency, kernel count)` of `sig`, or `None`
    /// if the signature cannot be resolved.
    fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)>;
}

#[cfg(test)]
impl ProfileSource for vtrain_profile::ProfileSet {
    fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)> {
        self.lookup(sig)
    }
}

/// Buffers of the slot pricing and the walk, reused point to point by a
/// sweep worker.
#[derive(Default)]
pub(crate) struct SlotScratch {
    /// Latency of each slot of the canonical enumeration.
    values: Vec<TimeNs>,
    /// The plan's DP All-Reduces, stage-major.
    buckets: Vec<DpBucket>,
    /// Per-stage slot durations and walk state.
    costs: Vec<StageCosts>,
    stages: Vec<StageWalk>,
    /// Per stage: blocked on an upstream send that has not been produced.
    waiting: Vec<bool>,
    /// Send finish times crossing each boundary, tagged with their
    /// micro-batch, in production order: forward (stage `b` → `b + 1`)
    /// and backward (stage `b + 1` → `b`). Producer and consumer visit
    /// micro-batches in the same order under both schedules, so each
    /// boundary is a FIFO.
    fwd_sends: Vec<VecDeque<(usize, TimeNs)>>,
    bwd_sends: Vec<VecDeque<(usize, TimeNs)>>,
    /// Stages that can advance.
    ready: Vec<usize>,
}

/// One stage's cursor into its schedule program and stream clocks.
#[derive(Clone, Copy, Default)]
struct StageWalk {
    /// Next program slot to execute.
    cursor: usize,
    /// Backward slots executed so far.
    bwd_seen: usize,
    /// Finish of the last compute-stream node.
    compute_ready: TimeNs,
    /// Finish of the last comm-stream node.
    comm_ready: TimeNs,
    /// Start of the final backward slot (its gradient anchors are offsets
    /// from here).
    final_bwd_start: TimeNs,
}

/// `value · count` in exact integer nanoseconds.
fn times(value: TimeNs, count: usize) -> TimeNs {
    TimeNs::from_nanos(value.as_nanos() * count as u64)
}

/// Prices every slot of the plan's canonical enumeration and collects its
/// DP buckets — the walk's "lower" stage.
///
/// # Errors
///
/// Returns [`MissingProfile`] if `profiles` cannot resolve a compute
/// signature.
pub(crate) fn price_slots<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut SlotScratch,
) -> Result<(), MissingProfile> {
    let values = &mut scratch.values;
    values.clear();
    let mut missing = false;
    visit_plan_slots(model, plan, opts, |op| {
        values.push(match op {
            SlotOp::Compute(sig) => match profiles.op_latency(&sig) {
                Some((total, _)) => total,
                None => {
                    missing = true;
                    TimeNs::ZERO
                }
            },
            SlotOp::Comm(c) => comm.latency(&c),
        });
    });
    if missing {
        return Err(MissingProfile);
    }
    scratch.buckets.clear();
    visit_dp_buckets(model, plan, opts, |bucket| scratch.buckets.push(bucket));
    Ok(())
}

/// The per-stage slot durations the walk advances by, summed from the
/// slot table.
struct StageCosts {
    /// Compute-kernel time of one forward / backward slot.
    fwd_compute: TimeNs,
    bwd_compute: TimeNs,
    /// TP All-Reduce time of one forward or backward slot (same count in
    /// both passes).
    slot_tp: TimeNs,
    /// Backward time before the first layer (the LM head on the last
    /// stage) and of one layer (kernels + TP All-Reduces): gradient
    /// anchors sit at `final start + head + k · layer`.
    bwd_head: TimeNs,
    layer_bwd: TimeNs,
    /// Forward / backward send times (zero where the stage sends none).
    fwd_send: TimeNs,
    bwd_send: TimeNs,
    weight_update: TimeNs,
    /// Tasks of one forward / backward slot, sends included.
    fwd_tasks: usize,
    bwd_tasks: usize,
}

impl StageCosts {
    fn new(values: &[TimeNs], slots: SlotIndex, stage: usize, p: usize, layers: usize) -> Self {
        let v = |kind| values[SlotIndex::compute(kind) as usize];
        let (first, last) = (stage == 0, stage == p - 1);
        let when = |cond: bool, t: TimeNs| if cond { t } else { TimeNs::ZERO };
        let tp = slots.tp_all_reduce().map_or(TimeNs::ZERO, |s| values[s as usize]);
        let tp_per_layer = if slots.tp_all_reduce().is_some() { 2 } else { 0 };
        let layer_tasks = 2 + tp_per_layer;
        let bwd_head = when(last, v(CompKind::LmHeadBwd));
        StageCosts {
            fwd_compute: when(first, v(CompKind::EmbeddingFwd))
                + times(v(CompKind::MhaFwd) + v(CompKind::FfnFwd), layers)
                + when(last, v(CompKind::LmHeadFwd)),
            bwd_compute: bwd_head
                + times(v(CompKind::FfnBwd) + v(CompKind::MhaBwd), layers)
                + when(first, v(CompKind::EmbeddingBwd)),
            slot_tp: times(tp, tp_per_layer * layers),
            bwd_head,
            layer_bwd: v(CompKind::FfnBwd) + v(CompKind::MhaBwd) + times(tp, tp_per_layer),
            fwd_send: if last { TimeNs::ZERO } else { values[slots.send(stage) as usize] },
            bwd_send: if first { TimeNs::ZERO } else { values[slots.send(stage - 1) as usize] },
            weight_update: values[slots.weight_update(stage) as usize],
            // Embedding or LM head, the layers, then a send or the LM
            // head / embedding at the other end.
            fwd_tasks: usize::from(first) + layers * layer_tasks + 1,
            bwd_tasks: usize::from(last) + layers * layer_tasks + 1,
        }
    }
}

/// Walks the plan's schedule over the slot table priced by
/// [`price_slots`] — the walk's "simulate" stage — writing the replay
/// result into `report` (whose `device_busy` vector is reused).
///
/// Stages advance through their programs until a slot's upstream send
/// has not been produced yet; the send that unblocks a stage puts it back
/// on the ready list. Start times are fixed by the max-plus recurrence
/// alone, so the visiting order cannot change any of them.
///
/// # Panics
///
/// Panics if `scratch` was priced for a different plan, or if the walk
/// deadlocks (a bug, caught by the equivalence tests).
pub(crate) fn walk(
    model: &ModelConfig,
    plan: &ParallelConfig,
    scratch: &mut SlotScratch,
    report: &mut SimReport,
) {
    let p = plan.pipeline();
    let n = plan.num_micro_batches();
    let schedule = plan.schedule();
    let slots = SlotIndex::of(plan);
    let partition = layer_partition(model.num_layers(), p);
    let SlotScratch { values, buckets, costs, stages, waiting, fwd_sends, bwd_sends, ready } =
        scratch;

    costs.clear();
    costs.extend((0..p).map(|s| StageCosts::new(values, slots, s, p, partition[s].len())));
    stages.clear();
    stages.resize(p, StageWalk::default());
    waiting.clear();
    waiting.resize(p, false);
    for queues in [&mut *fwd_sends, &mut *bwd_sends] {
        queues.iter_mut().for_each(VecDeque::clear);
        queues.resize_with(p - 1, VecDeque::new);
    }
    ready.clear();
    ready.extend((0..p).rev());

    report.busy = BusyBreakdown::default();
    report.device_busy.clear();
    report.device_busy.resize(p, TimeNs::ZERO);
    let mut iteration_time = TimeNs::ZERO;
    let mut tasks = 0;
    let mut finished = 0;
    while let Some(s) = ready.pop() {
        let c = &costs[s];
        let st = &mut stages[s];
        while st.cursor < 2 * n {
            let slot = schedule.stage_slot(s, p, n, st.cursor);
            let forward = slot.pass == Pass::Forward;
            let upstream = if forward {
                s.checked_sub(1).map(|b| &mut fwd_sends[b])
            } else {
                (s + 1 < p).then(|| &mut bwd_sends[s])
            };
            let dep = match upstream.map(VecDeque::pop_front) {
                None => TimeNs::ZERO,
                Some(Some((mb, finish))) => {
                    debug_assert_eq!(mb, slot.micro_batch, "boundary FIFO out of order");
                    finish
                }
                Some(None) => {
                    waiting[s] = true;
                    break;
                }
            };
            st.cursor += 1;
            let start = st.compute_ready.max(dep);
            let (duration, send) = if forward {
                (c.fwd_compute + c.slot_tp, c.fwd_send)
            } else {
                st.bwd_seen += 1;
                if st.bwd_seen == n {
                    st.final_bwd_start = start;
                }
                (c.bwd_compute + c.slot_tp, c.bwd_send)
            };
            st.compute_ready = start + duration;
            let (queue, consumer) = match (forward, s) {
                (true, _) if s + 1 < p => (&mut fwd_sends[s], s + 1),
                (false, 1..) => (&mut bwd_sends[s - 1], s - 1),
                _ => continue,
            };
            st.comm_ready = st.compute_ready.max(st.comm_ready) + send;
            iteration_time = iteration_time.max(st.comm_ready);
            queue.push_back((slot.micro_batch, st.comm_ready));
            // A send can only unblock the stage that consumes it.
            if std::mem::take(&mut waiting[consumer]) {
                ready.push(consumer);
            }
        }
        if waiting[s] {
            continue;
        }

        // The program is done: DP gradient All-Reduces on the comm
        // stream, then the weight update after the last of them.
        // Stages finish in any order, so their buckets (stage-major)
        // are found by stage, not by arrival.
        let layers = partition[s].len();
        let first_bucket = buckets.partition_point(|b| b.stage < s);
        let mut dp = TimeNs::ZERO;
        let mut last_ar = TimeNs::ZERO;
        for bucket in buckets[first_bucket..].iter().take_while(|b| b.stage == s) {
            let anchor = if bucket.lo == 0 {
                st.compute_ready
            } else {
                st.final_bwd_start + c.bwd_head + times(c.layer_bwd, layers - bucket.lo)
            };
            let duration = values[bucket.slot as usize];
            st.comm_ready = st.comm_ready.max(anchor) + duration;
            last_ar = st.comm_ready;
            dp += duration;
            tasks += 1;
        }
        let wu_finish = st.compute_ready.max(last_ar) + c.weight_update;
        iteration_time = iteration_time.max(wu_finish).max(st.comm_ready);

        // Closed-form busy totals: every slot of a pass costs the same.
        let compute = times(c.fwd_compute + c.bwd_compute, n) + c.weight_update;
        let tp = times(c.slot_tp, 2 * n);
        report.busy.compute += compute;
        report.busy.tp_comm += tp;
        report.busy.dp_comm += dp;
        report.busy.pp_comm += times(c.fwd_send + c.bwd_send, n);
        report.device_busy[s] = compute + tp;
        tasks += n * (c.fwd_tasks + c.bwd_tasks) + 1;
        finished += 1;
    }
    assert_eq!(finished, p, "slot walk deadlocked: {finished} of {p} stages finished");
    report.iteration_time = iteration_time;
    report.tasks_executed = tasks;
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use vtrain_model::presets;
    use vtrain_net::{TierSpec, Topology};
    use vtrain_parallel::{ClusterSpec, GpuSpec, PipelineSchedule};
    use vtrain_profile::{ProfileCache, ProfileSet, Profiler};

    use super::*;
    use crate::sim::{simulate, SimMode};
    use crate::task_graph::TaskGraph;

    /// The p4d network, or one GPU per node behind 0.5 GB/s links: every
    /// group then crosses nodes, sends outlast their slots and DP
    /// buckets outlast their layers, so comm-stream queueing decides
    /// start times.
    fn network(slow: bool, recompute: bool) -> (GraphOptions, CommModel) {
        let cluster = ClusterSpec::aws_p4d(512);
        if !slow {
            let opts = GraphOptions { recompute, ..GraphOptions::default() };
            return (opts, CommModel::new(&cluster, 1.0));
        }
        let opts = GraphOptions { gpus_per_node: 1, recompute, ..GraphOptions::default() };
        let link = TierSpec::new(0.5e9, TimeNs::from_micros(20), 1.0);
        (opts, CommModel::with_topology(&cluster, 1.0, Topology::two_tier(1, link, link)))
    }

    /// Prices `plan` with the slot walk and with the full lowering +
    /// Predicted replay, asserting bit-identical reports.
    fn compare_point(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        comm: &CommModel,
        scratch: &mut SlotScratch,
    ) {
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let mut profiles = ProfileCache::new().resolve(&profiler, &sigs);

        let full = TaskGraph::lower_fused(model, plan, opts, &mut profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);
        drop(full);

        let mut report = SimReport::default();
        price_slots(model, plan, opts, &mut profiles, comm, scratch).unwrap();
        walk(model, plan, scratch, &mut report);
        assert_eq!(report, expect, "{plan} under {opts:?}");
    }

    fn plan(
        (t, d, p, m, n_micro): (usize, usize, usize, usize, usize),
        schedule: PipelineSchedule,
        bucketing: bool,
    ) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(d * m * n_micro)
            .schedule(schedule)
            .gradient_bucketing(bucketing)
            .build()
            .unwrap()
    }

    #[test]
    fn walk_matches_full_replay_on_grid_corners() {
        let model = presets::megatron("1.7B");
        let mut scratch = SlotScratch::default();
        for slow in [false, true] {
            let (opts, comm) = network(slow, true);
            for shape in [
                (1, 1, 1, 1, 4),
                (2, 2, 2, 1, 4),
                (2, 4, 3, 2, 2),
                (1, 8, 1, 1, 2),
                (4, 1, 6, 1, 6),
            ] {
                for schedule in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
                    for bucketing in [true, false] {
                        let plan = plan(shape, schedule, bucketing);
                        compare_point(&model, &plan, &opts, &comm, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn walk_matches_full_replay_on_mt_nlg_at_full_depth() {
        // The deepest pipeline of the paper's Fig. 10 space: one layer
        // per stage, 105 stages, 1920 micro-batches in flight.
        let model = presets::mt_nlg_530b();
        let plan = plan((8, 1, 105, 1, 1920), PipelineSchedule::OneFOneB, true);
        let (opts, comm) = network(false, true);
        compare_point(&model, &plan, &opts, &comm, &mut SlotScratch::default());
    }

    #[test]
    fn missing_profile_reported() {
        let model = presets::megatron("1.7B");
        let plan = ParallelConfig::builder().global_batch(4).build().unwrap();
        let comm = CommModel::new(&ClusterSpec::aws_p4d(8), 1.0);
        let err = price_slots(
            &model,
            &plan,
            &GraphOptions::default(),
            &mut ProfileSet::default(),
            &comm,
            &mut SlotScratch::default(),
        )
        .unwrap_err();
        assert_eq!(err, MissingProfile);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Golden equivalence: the slot walk reproduces the full lowering
        /// + Predicted replay bit for bit on sampled design points — both
        /// schedules, bucketing, recompute, uneven partitions (24 layers
        /// over 5 or 7 stages), comm-bound links and up to 1920
        /// micro-batches. One scratch serves every case, as in a sweep
        /// worker.
        #[test]
        fn walk_is_bit_identical_to_full_replay(
            cases in proptest::collection::vec(
                (0usize..=2, 0usize..=2, 1usize..=7, 0usize..=1, 0u32..16, 1usize..=1920),
                1..3,
            ),
        ) {
            let model = presets::megatron("1.7B");
            let mut scratch = SlotScratch::default();
            for (t_exp, d_exp, p, m_exp, flags, n_micro) in cases {
                let (gpipe, bucketing, recompute, slow) =
                    (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
                let schedule =
                    if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
                let shape = (1 << t_exp, 1 << d_exp, p, 1 << m_exp, n_micro);
                let (opts, comm) = network(slow, recompute);
                let plan = plan(shape, schedule, bucketing);
                compare_point(&model, &plan, &opts, &comm, &mut scratch);
            }
        }
    }
}
