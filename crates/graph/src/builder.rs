//! Constructs the operator-granularity execution graph from a model and a
//! 3D-parallelism plan (paper §III-B, Figs. 5/6/8).

use std::collections::HashSet;

use vtrain_model::{Bytes, ModelConfig, TimeNs};
use vtrain_net::{GroupPlacement, TierSpec, Topology};
use vtrain_parallel::{layer_partition, ParallelConfig, Pass, ProcessGroups};

use crate::graph::{OpGraph, OpNode, StreamKind};
use crate::ops::{CommKind, CommOp, CommScope, CompKind, ComputeOp, Op, OpSignature};

/// Receives the nodes and edges of graph construction.
///
/// [`OpGraph`] is the canonical sink; consumers that only need a derived
/// artifact (e.g. a lowered task graph) can implement this to skip
/// materializing the operator graph entirely.
pub trait GraphSink {
    /// Appends a node, returning its index (dense, starting at 0).
    fn push(&mut self, node: OpNode) -> u32;
    /// [`GraphSink::push`] with the node's *latency slot* attached: the
    /// index into the plan's canonical slot enumeration
    /// ([`visit_plan_slots`]) identifying which latency source prices
    /// this node. The builder routes every node through this method;
    /// sinks that don't track slots inherit the default, which forwards
    /// to `push`.
    fn push_slotted(&mut self, node: OpNode, slot: u32) -> u32 {
        let _ = slot;
        self.push(node)
    }
    /// Adds a dependency edge `from → to` between already-pushed nodes.
    fn add_edge(&mut self, from: u32, to: u32);
}

impl GraphSink for OpGraph {
    fn push(&mut self, node: OpNode) -> u32 {
        OpGraph::push(self, node)
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        OpGraph::add_edge(self, from, to)
    }
}

/// Tunables of graph construction.
#[derive(Clone, Debug)]
pub struct GraphOptions {
    /// GPUs per server node (decides which collectives cross nodes).
    pub gpus_per_node: usize,
    /// Nodes per rack, when the cluster has a rack tier (`None` places
    /// every node in one rack). Only affects the [`CommOp::placement`]
    /// geometry consumed by topology-aware communication models.
    pub nodes_per_rack: Option<usize>,
    /// Target gradient-bucket payload for DP bucketing (PyTorch DDP defaults
    /// to 25 MiB).
    pub dp_bucket_bytes: Bytes,
    /// Whether activation recomputation replays the forward inside each
    /// backward block.
    pub recompute: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            gpus_per_node: 8,
            nodes_per_rack: None,
            dp_bucket_bytes: Bytes::from_mib(25),
            recompute: true,
        }
    }
}

impl GraphOptions {
    /// The shape-only topology placements are computed against (tier
    /// bandwidths are irrelevant to geometry and set to placeholders).
    fn shape_topology(&self) -> Topology {
        let unit = TierSpec::new(1.0, TimeNs::ZERO, 1.0);
        let topo = Topology::two_tier(self.gpus_per_node, unit, unit);
        match self.nodes_per_rack {
            Some(npr) => topo.with_rack_tier(npr, unit),
            None => topo,
        }
    }
}

/// Builds the execution graph of one training iteration for one pipeline
/// replica (TP ranks and DP replicas are symmetric; DP is represented by
/// its gradient All-Reduce operators).
///
/// # Panics
///
/// Panics if the plan's pipeline depth exceeds the model's layer count
/// (call [`ParallelConfig::validate`] first).
pub fn build_op_graph(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> OpGraph {
    let mut graph = OpGraph::new(plan.pipeline() as u32);
    build_op_graph_into(model, plan, opts, &mut graph);
    debug_assert!(graph.is_acyclic(), "execution graph must be a DAG");
    graph
}

/// Streams one training iteration's nodes and edges into `sink` without
/// requiring an [`OpGraph`] — the allocation-free entry point for fused
/// lowering (the estimator maps nodes straight to tasks).
///
/// Emission order, node indices, and per-node edge order are identical to
/// [`build_op_graph`].
///
/// # Panics
///
/// Same conditions as [`build_op_graph`].
pub fn build_op_graph_into<S: GraphSink>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    sink: &mut S,
) {
    Builder::new(model, plan, opts, sink).build();
}

/// The deduplicated *necessary operator* set of `(model, plan)` — exactly
/// the compute signatures [`build_op_graph`] emits — computed in O(p)
/// without constructing the graph (paper §III-C).
///
/// This is what lets a design-space sweep ask a shared profile cache for
/// only the signatures it is missing before any per-plan lowering work.
pub fn plan_signatures(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
) -> HashSet<OpSignature> {
    let sigs = SigFactory { model, plan, opts };
    let p = plan.pipeline();
    let partition = layer_partition(model.num_layers(), p);
    let mut out = HashSet::new();
    for (stage, layers) in partition.iter().enumerate() {
        if stage == 0 {
            out.insert(sigs.vocab(CompKind::EmbeddingFwd));
            out.insert(sigs.vocab(CompKind::EmbeddingBwd));
        }
        if stage == p - 1 {
            out.insert(sigs.vocab(CompKind::LmHeadFwd));
            out.insert(sigs.vocab(CompKind::LmHeadBwd));
        }
        if !layers.is_empty() {
            out.insert(sigs.layer(CompKind::MhaFwd));
            out.insert(sigs.layer(CompKind::FfnFwd));
            out.insert(sigs.layer(CompKind::MhaBwd));
            out.insert(sigs.layer(CompKind::FfnBwd));
        }
        out.insert(sigs.weight_update(sigs.stage_local_params(stage, layers.len())));
    }
    out
}

/// One entry of a plan's canonical latency-slot enumeration: the operator
/// a slot prices (see [`visit_plan_slots`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SlotOp {
    /// A compute-operator slot (priced via the profile cache).
    Compute(OpSignature),
    /// A communication-operator slot (priced analytically).
    Comm(CommOp),
}

/// Where each latency source of a plan sits in its canonical slot
/// enumeration ([`visit_plan_slots`]) — the one numbering the builder
/// stamps on nodes and slot-table consumers index by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotIndex {
    pipeline: u32,
    tensor_parallel: bool,
}

impl SlotIndex {
    /// Number of fixed layer/vocab compute slots heading every
    /// enumeration.
    const FIXED_COMPUTE: u32 = 8;

    /// The slot numbering of `plan`.
    pub fn of(plan: &ParallelConfig) -> SlotIndex {
        SlotIndex { pipeline: plan.pipeline() as u32, tensor_parallel: plan.tensor() > 1 }
    }

    /// Slot of a fixed layer/vocab compute kind.
    ///
    /// # Panics
    ///
    /// Panics for [`CompKind::WeightUpdate`], whose slots are per stage
    /// ([`SlotIndex::weight_update`]).
    pub fn compute(kind: CompKind) -> u32 {
        match kind {
            CompKind::EmbeddingFwd => 0,
            CompKind::LmHeadFwd => 1,
            CompKind::MhaFwd => 2,
            CompKind::FfnFwd => 3,
            CompKind::EmbeddingBwd => 4,
            CompKind::LmHeadBwd => 5,
            CompKind::MhaBwd => 6,
            CompKind::FfnBwd => 7,
            CompKind::WeightUpdate => panic!("weight updates use per-stage slots"),
        }
    }

    /// Slot of `stage`'s weight update.
    pub fn weight_update(self, stage: usize) -> u32 {
        Self::FIXED_COMPUTE + stage as u32
    }

    /// Slot of the TP All-Reduce, `None` when `t == 1`.
    pub fn tp_all_reduce(self) -> Option<u32> {
        self.tensor_parallel.then_some(Self::FIXED_COMPUTE + self.pipeline)
    }

    /// Slot of the pipeline send crossing `boundary` (between stages
    /// `boundary` and `boundary + 1`).
    pub fn send(self, boundary: usize) -> u32 {
        Self::FIXED_COMPUTE + self.pipeline + u32::from(self.tensor_parallel) + boundary as u32
    }

    /// Slot of the plan's first DP gradient All-Reduce; the rest follow
    /// consecutively in [`visit_dp_buckets`] order.
    pub fn first_dp(self) -> u32 {
        self.send(self.pipeline.saturating_sub(1) as usize)
    }
}

/// Enumerates the plan's latency slots in canonical order, calling `f`
/// with the operator each slot prices.
///
/// A *slot* is one distinct latency source of the lowered graph: every
/// node the builder emits carries a slot id (via
/// [`GraphSink::push_slotted`]) that indexes into this enumeration, so
/// pricing a plan only needs this enumeration, never the graph.
///
/// Canonical order ([`SlotIndex`], `p = plan.pipeline()`):
/// 1. the 8 fixed layer/vocab compute kinds ([`SlotIndex::compute`]),
/// 2. `p` per-stage `WeightUpdate` signatures,
/// 3. the TP All-Reduce (only when `t > 1`),
/// 4. `p - 1` pipeline sends, by boundary,
/// 5. the DP gradient All-Reduces in [`visit_dp_buckets`] order (only
///    when `d > 1`).
///
/// # Panics
///
/// Panics if the pipeline is deeper than the model's layer count (call
/// [`ParallelConfig::validate`] first).
pub fn visit_plan_slots<F: FnMut(SlotOp)>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    mut f: F,
) {
    let sigs = SigFactory { model, plan, opts };
    let comms = CommFactory::new(model, plan, opts);
    let p = plan.pipeline();
    let partition = layer_partition(model.num_layers(), p);
    f(SlotOp::Compute(sigs.vocab(CompKind::EmbeddingFwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::LmHeadFwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::MhaFwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::FfnFwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::EmbeddingBwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::LmHeadBwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::MhaBwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::FfnBwd)));
    for (stage, layers) in partition.iter().enumerate() {
        f(SlotOp::Compute(sigs.weight_update(sigs.stage_local_params(stage, layers.len()))));
    }
    if let Some(op) = comms.tp_all_reduce {
        f(SlotOp::Comm(op));
    }
    for boundary in 0..p.saturating_sub(1) {
        f(SlotOp::Comm(comms.pp_send(plan, boundary)));
    }
    visit_dp_buckets(model, plan, opts, |bucket| {
        f(SlotOp::Comm(comms.dp_all_reduce(bucket.bytes)));
    });
}

/// One DP gradient All-Reduce of a pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DpBucket {
    /// The stage whose gradients the All-Reduce synchronizes.
    pub stage: usize,
    /// The shallowest local layer of the bucket. The All-Reduce waits
    /// until the stage's final backward slot has finished that layer;
    /// with `lo == 0` it waits for the whole final backward slot
    /// (embedding backward included on stage 0).
    pub lo: usize,
    /// Gradient payload per rank.
    pub bytes: Bytes,
    /// Latency slot ([`visit_plan_slots`]).
    pub slot: u32,
}

/// Visits the plan's DP gradient All-Reduces stage-major, each stage's in
/// emission order, with their latency slots: the one definition of bucket
/// geometry and DP slot numbering the builder, [`visit_plan_slots`] and
/// slot-table consumers share.
///
/// Nothing is visited when `d == 1`. Under gradient bucketing a stage
/// yields its bucket sequence (deepest layers first); without it, one
/// All-Reduce over all of the stage's gradients (`lo == 0`, Fig. 5(b)).
///
/// # Panics
///
/// Same conditions as [`visit_plan_slots`].
pub fn visit_dp_buckets<F: FnMut(DpBucket)>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    mut f: F,
) {
    if plan.data() == 1 {
        return;
    }
    let sigs = SigFactory { model, plan, opts };
    let mut slot = SlotIndex::of(plan).first_dp();
    let partition = layer_partition(model.num_layers(), plan.pipeline());
    for (stage, layers) in partition.iter().enumerate() {
        let mut emit = |lo: usize, bytes: Bytes| {
            f(DpBucket { stage, lo, bytes, slot });
            slot += 1;
        };
        if plan.gradient_bucketing() {
            for (lo, bytes) in DpBuckets::new(model, plan, opts, &sigs, stage, layers.len()) {
                emit(lo, bytes);
            }
        } else {
            emit(0, unbucketed_dp_bytes(model, plan, opts, stage, layers.len()));
        }
    }
}

/// Shared constructor of compute-operator signatures, used by both the
/// graph builder and [`plan_signatures`] so the two can never disagree.
struct SigFactory<'a> {
    model: &'a ModelConfig,
    plan: &'a ParallelConfig,
    opts: &'a GraphOptions,
}

/// One pipeline stage's communication workload, exactly as
/// [`build_op_graph`] emits it — the communication analogue of
/// [`plan_signatures`], shared with analytic consumers (the sweep's
/// admissible iteration-time bounds) so the two can never disagree.
#[derive(Clone, Debug)]
pub struct StageCommOps {
    /// The TP All-Reduce operator (compute stream), `None` when `t == 1`.
    pub tp_all_reduce: Option<CommOp>,
    /// TP All-Reduces emitted per micro-batch on this stage (forward +
    /// backward slots combined).
    pub tp_per_micro_batch: usize,
    /// The forward activation send (comm stream), `None` on the last stage.
    pub fwd_send: Option<CommOp>,
    /// The backward gradient send (comm stream), `None` on stage 0.
    pub bwd_send: Option<CommOp>,
    /// The DP gradient All-Reduce sequence (comm stream), in emission
    /// order; empty when `d == 1`.
    pub dp_all_reduces: Vec<CommOp>,
}

/// The communication operators [`build_op_graph`] emits for `stage` of
/// `(model, plan)` — shapes, scopes, and placements included.
///
/// # Panics
///
/// Panics if `stage >= plan.pipeline()` or the pipeline is deeper than the
/// model (call [`ParallelConfig::validate`] first).
pub fn stage_comm_ops(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    stage: usize,
) -> StageCommOps {
    let p = plan.pipeline();
    assert!(stage < p, "stage {stage} out of range {p}");
    let comms = CommFactory::new(model, plan, opts);
    let layers_here = layer_partition(model.num_layers(), p)[stage].len();
    let dp_all_reduces = if plan.data() > 1 {
        let sigs = SigFactory { model, plan, opts };
        if plan.gradient_bucketing() {
            DpBuckets::new(model, plan, opts, &sigs, stage, layers_here)
                .map(|(_, bytes)| comms.dp_all_reduce(bytes))
                .collect()
        } else {
            vec![comms.dp_all_reduce(unbucketed_dp_bytes(model, plan, opts, stage, layers_here))]
        }
    } else {
        Vec::new()
    };
    StageCommOps {
        tp_all_reduce: comms.tp_all_reduce,
        tp_per_micro_batch: 4 * layers_here,
        fwd_send: (stage + 1 < p).then(|| comms.pp_send(plan, stage)),
        bwd_send: (stage > 0).then(|| comms.pp_send(plan, stage - 1)),
        dp_all_reduces,
    }
}

/// Total gradient bytes of one stage's single unbucketed DP All-Reduce.
fn unbucketed_dp_bytes(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    stage: usize,
    layers_here: usize,
) -> Bytes {
    let sigs = SigFactory { model, plan, opts };
    let t = plan.tensor() as u64;
    let grad_bytes_per_layer = 2 * model.params_per_layer() / t;
    let endpoint_extra = sigs.stage_local_params(stage, layers_here)
        - layers_here as u64 * model.params_per_layer() / t;
    Bytes::from_bytes(grad_bytes_per_layer * layers_here as u64 + 2 * endpoint_extra)
}

/// The gradient-bucket sequence of one stage under DP bucketing, yielding
/// `(shallowest local layer of the bucket, payload bytes)` in emission
/// (deepest-first) order. Shared by the builder's gradient-sync emission
/// and [`stage_comm_ops`] so bucket shapes can never diverge.
struct DpBuckets {
    layer: usize,
    per_bucket: usize,
    grad_bytes_per_layer: u64,
    endpoint_grad_bytes: u64,
}

impl DpBuckets {
    fn new(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        sigs: &SigFactory<'_>,
        stage: usize,
        layers_here: usize,
    ) -> Self {
        let t = plan.tensor() as u64;
        let grad_bytes_per_layer = 2 * model.params_per_layer() / t;
        let endpoint_extra = sigs.stage_local_params(stage, layers_here)
            - layers_here as u64 * model.params_per_layer() / t;
        let per_bucket =
            (opts.dp_bucket_bytes.as_u64() / grad_bytes_per_layer.max(1)).max(1) as usize;
        DpBuckets {
            layer: layers_here,
            per_bucket,
            grad_bytes_per_layer,
            endpoint_grad_bytes: 2 * endpoint_extra,
        }
    }
}

impl Iterator for DpBuckets {
    type Item = (usize, Bytes);

    fn next(&mut self) -> Option<(usize, Bytes)> {
        if self.layer == 0 {
            return None;
        }
        let lo = self.layer.saturating_sub(self.per_bucket);
        let n_layers = self.layer - lo;
        let mut bytes = Bytes::from_bytes(self.grad_bytes_per_layer * n_layers as u64);
        if lo == 0 {
            bytes += Bytes::from_bytes(self.endpoint_grad_bytes);
        }
        self.layer = lo;
        Some((lo, bytes))
    }
}

/// Shared constructor of communication operators, used by both the graph
/// builder and [`stage_comm_ops`] so the two can never disagree. The TP
/// All-Reduce (one shape per plan) is precomputed; pipeline sends and DP
/// All-Reduces are derived per boundary / payload.
struct CommFactory {
    topo: Topology,
    data_placement: GroupPlacement,
    boundary_bytes: Bytes,
    tensor: usize,
    data: usize,
    gpus_per_node: usize,
    /// The plan's TP All-Reduce operator, `None` when `t == 1`.
    tp_all_reduce: Option<CommOp>,
}

impl CommFactory {
    fn new(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> Self {
        let topo = opts.shape_topology();
        let groups = ProcessGroups::new(plan, &topo);
        let boundary_bytes = model.boundary_activation_bytes(plan.micro_batch());
        let t = plan.tensor();
        let tp_all_reduce = (t > 1).then_some(CommOp {
            kind: CommKind::TpAllReduce,
            bytes: boundary_bytes,
            ranks: t,
            scope: CommScope::IntraNode,
            placement: groups.tensor,
            overlappable: false,
            concurrent_groups: 1,
        });
        CommFactory {
            topo,
            data_placement: groups.data,
            boundary_bytes,
            tensor: t,
            data: plan.data(),
            gpus_per_node: opts.gpus_per_node,
            tp_all_reduce,
        }
    }

    /// The pipeline send crossing `boundary` (between stages `boundary`
    /// and `boundary + 1`).
    fn pp_send(&self, plan: &ParallelConfig, boundary: usize) -> CommOp {
        let tier = ProcessGroups::pipeline_boundary_tier(plan, &self.topo, boundary);
        CommOp {
            kind: CommKind::PpSendRecv,
            bytes: self.boundary_bytes,
            ranks: 2,
            scope: if tier > 0 { CommScope::InterNode } else { CommScope::IntraNode },
            placement: GroupPlacement::pair(tier),
            overlappable: false,
            concurrent_groups: 1,
        }
    }

    fn dp_all_reduce(&self, bytes: Bytes) -> CommOp {
        let inter_node = self.tensor * self.data > self.gpus_per_node;
        CommOp {
            kind: CommKind::DpAllReduce,
            bytes,
            ranks: self.data,
            scope: if inter_node { CommScope::InterNode } else { CommScope::IntraNode },
            placement: self.data_placement,
            overlappable: true,
            concurrent_groups: if inter_node {
                self.gpus_per_node / self.tensor.min(self.gpus_per_node)
            } else {
                1
            },
        }
    }
}

impl SigFactory<'_> {
    fn layer(&self, kind: CompKind) -> OpSignature {
        let recompute = self.opts.recompute && matches!(kind, CompKind::MhaBwd | CompKind::FfnBwd);
        OpSignature {
            kind,
            hidden: self.model.hidden_size(),
            heads: self.model.num_heads(),
            seq: self.model.seq_len(),
            micro_batch: self.plan.micro_batch(),
            tensor: self.plan.tensor(),
            ffn_expansion: self.model.ffn_expansion(),
            vocab: 0,
            params: 0,
            recompute,
        }
    }

    fn vocab(&self, kind: CompKind) -> OpSignature {
        OpSignature { vocab: self.model.vocab_size(), ..self.layer(kind) }
    }

    fn weight_update(&self, params: u64) -> OpSignature {
        OpSignature { params, ..self.layer(CompKind::WeightUpdate) }
    }

    /// Parameters held by one GPU of `stage` (layer share + endpoint
    /// extras), matching the weight-update and DP-gradient volume.
    fn stage_local_params(&self, stage: usize, num_layers_here: usize) -> u64 {
        stage_params_with_layers(self.model, self.plan, stage, num_layers_here)
    }
}

/// Parameters held by one GPU of `stage` under `plan` — exactly the
/// weight-update (and DP-gradient) volume [`build_op_graph`] prices.
/// Public so analytic consumers (the sweep's iteration-time bounds) can
/// never disagree with the builder's accounting.
///
/// # Panics
///
/// Panics if `stage >= plan.pipeline()` or the pipeline is deeper than
/// the model's layer count.
pub fn stage_weight_params(model: &ModelConfig, plan: &ParallelConfig, stage: usize) -> u64 {
    let layers_here = layer_partition(model.num_layers(), plan.pipeline())[stage].len();
    stage_params_with_layers(model, plan, stage, layers_here)
}

/// [`stage_weight_params`] with the stage's layer count precomputed (the
/// builder walks the partition once and passes lengths in).
fn stage_params_with_layers(
    model: &ModelConfig,
    plan: &ParallelConfig,
    stage: usize,
    num_layers_here: usize,
) -> u64 {
    let t = plan.tensor() as u64;
    let mut params = num_layers_here as u64 * model.params_per_layer() / t;
    if stage == 0 {
        params += model.embedding_params() / t;
    }
    if stage == plan.pipeline() - 1 {
        params += 2 * model.hidden_size() as u64;
    }
    params
}

struct Builder<'a, S: GraphSink> {
    model: &'a ModelConfig,
    plan: &'a ParallelConfig,
    sigs: SigFactory<'a>,
    sink: &'a mut S,
    slots: SlotIndex,
    /// Shared communication-operator constructor (placement geometry
    /// computed once, not per node).
    comms: CommFactory,
    /// Precomputed pipeline sends, indexed by boundary (`p - 1` entries).
    pp_sends: Vec<CommOp>,
    /// The per-layer forward/backward emission patterns
    /// (`[Mha, TpAR?, Ffn, TpAR?]` and `[FfnBwd, TpAR?, MhaBwd, TpAR?]`
    /// with their latency slots), precomputed so layer loops build no
    /// signatures.
    fwd_layer: Vec<(Op, u32)>,
    bwd_layer: Vec<(Op, u32)>,
    /// The plan's DP All-Reduces, stage-major ([`visit_dp_buckets`]).
    dp_buckets: Vec<DpBucket>,
    /// Last node per (device, stream) for program-order chaining.
    last_compute: Vec<Option<u32>>,
    last_comm: Vec<Option<u32>>,
}

/// Per-stage bookkeeping for cross-stage edges.
#[derive(Clone, Default)]
struct StageRecord {
    /// First node of each micro-batch's forward slot.
    fwd_first: Vec<Option<u32>>,
    /// The forward activation send of each micro-batch (stages < p-1).
    fwd_send: Vec<Option<u32>>,
    /// First node of each micro-batch's backward slot.
    bwd_first: Vec<Option<u32>>,
    /// The backward gradient send of each micro-batch (stages > 0).
    bwd_send: Vec<Option<u32>>,
    /// Node after which each local layer's gradient is final (recorded
    /// while walking the final backward slot), indexed by position within
    /// the stage.
    grad_ready: Vec<Option<u32>>,
    /// Embedding-backward node (stage 0 only).
    embedding_bwd: Option<u32>,
    /// DP All-Reduce nodes of this stage.
    dp_all_reduces: Vec<u32>,
}

impl<'a, S: GraphSink> Builder<'a, S> {
    fn new(
        model: &'a ModelConfig,
        plan: &'a ParallelConfig,
        opts: &'a GraphOptions,
        sink: &'a mut S,
    ) -> Self {
        let p = plan.pipeline();
        let comms = CommFactory::new(model, plan, opts);
        let pp_sends = (0..p.saturating_sub(1)).map(|b| comms.pp_send(plan, b)).collect();
        let sigs = SigFactory { model, plan, opts };
        let slots = SlotIndex::of(plan);
        let layer_pattern = |a: CompKind, b: CompKind| {
            let mut pattern = Vec::with_capacity(4);
            for kind in [a, b] {
                let sig = sigs.layer(kind);
                pattern.push((Op::Compute(ComputeOp { sig }), SlotIndex::compute(kind)));
                if let (Some(tp), Some(slot)) = (comms.tp_all_reduce, slots.tp_all_reduce()) {
                    pattern.push((Op::Comm(tp), slot));
                }
            }
            pattern
        };
        let fwd_layer = layer_pattern(CompKind::MhaFwd, CompKind::FfnFwd);
        let bwd_layer = layer_pattern(CompKind::FfnBwd, CompKind::MhaBwd);
        let mut dp_buckets = Vec::new();
        visit_dp_buckets(model, plan, opts, |bucket| dp_buckets.push(bucket));
        Builder {
            model,
            plan,
            sigs,
            sink,
            slots,
            comms,
            pp_sends,
            fwd_layer,
            bwd_layer,
            dp_buckets,
            last_compute: vec![None; p],
            last_comm: vec![None; p],
        }
    }

    /// Appends a node with its latency slot, chaining it after the
    /// previous node on the same (device, stream) to enforce program
    /// order.
    fn emit(&mut self, device: usize, stream: StreamKind, op: Op, latency_slot: u32) -> u32 {
        let idx =
            self.sink.push_slotted(OpNode { device: device as u32, stream, op }, latency_slot);
        let slot = match stream {
            StreamKind::Compute => &mut self.last_compute[device],
            StreamKind::Comm => &mut self.last_comm[device],
        };
        if let Some(prev) = slot.replace(idx) {
            self.sink.add_edge(prev, idx);
        }
        idx
    }

    /// Emits a fixed layer/vocab compute node (slot from the kind).
    fn compute(&mut self, device: usize, sig: OpSignature) -> u32 {
        let slot = SlotIndex::compute(sig.kind);
        self.emit(device, StreamKind::Compute, Op::Compute(ComputeOp { sig }), slot)
    }

    /// Emits one layer's forward or backward pattern on the compute
    /// stream, chained like [`Builder::emit`] does; returns `(first node,
    /// last node)`.
    fn layer(&mut self, device: usize, backward: bool) -> (u32, u32) {
        let pattern = if backward { &self.bwd_layer } else { &self.fwd_layer };
        let mut prev = self.last_compute[device];
        let mut first = None;
        for &(op, slot) in pattern {
            let node = OpNode { device: device as u32, stream: StreamKind::Compute, op };
            let idx = self.sink.push_slotted(node, slot);
            if let Some(p) = prev {
                self.sink.add_edge(p, idx);
            }
            first.get_or_insert(idx);
            prev = Some(idx);
        }
        self.last_compute[device] = prev;
        first.zip(prev).expect("layer patterns are non-empty")
    }

    fn pp_send(&mut self, device: usize, boundary: usize) -> u32 {
        let op = self.pp_sends[boundary];
        let slot = self.slots.send(boundary);
        self.emit(device, StreamKind::Comm, Op::Comm(op), slot)
    }

    fn build(mut self) {
        let p = self.plan.pipeline();
        let n_micro = self.plan.num_micro_batches();
        let partition = layer_partition(self.model.num_layers(), p);
        let mut records: Vec<StageRecord> = (0..p)
            .map(|s| StageRecord {
                fwd_first: vec![None; n_micro],
                fwd_send: vec![None; n_micro],
                bwd_first: vec![None; n_micro],
                bwd_send: vec![None; n_micro],
                grad_ready: vec![None; partition[s].len()],
                ..StageRecord::default()
            })
            .collect();

        // Pass 1: per-stage programs with intra-stage edges.
        for stage in 0..p {
            let layers_here = partition[stage].len();
            let record = &mut records[stage];
            let mut bwd_seen = 0usize;
            for slot in self.plan.schedule().stage_program(stage, p, n_micro) {
                match slot.pass {
                    Pass::Forward => {
                        let (first, send) = self.emit_forward_slot(stage, layers_here, p);
                        record.fwd_first[slot.micro_batch] = Some(first);
                        record.fwd_send[slot.micro_batch] = send;
                    }
                    Pass::Backward => {
                        bwd_seen += 1;
                        let is_final_bwd = bwd_seen == n_micro;
                        let (first, send) =
                            self.emit_backward_slot(stage, layers_here, p, is_final_bwd, record);
                        record.bwd_first[slot.micro_batch] = Some(first);
                        record.bwd_send[slot.micro_batch] = send;
                    }
                }
            }
            self.emit_gradient_sync_and_update(stage, layers_here, record);
        }

        // Pass 2: cross-stage pipeline edges (same micro-batch precedence,
        // Fig. 7 / §III-B).
        let endpoint = |v: &[Option<u32>], i: usize| v[i].expect("cross-stage endpoint exists");
        for stage in 1..p {
            let (sends, firsts) = (&records[stage - 1].fwd_send, &records[stage].fwd_first);
            for mb in 0..n_micro {
                self.sink.add_edge(endpoint(sends, mb), endpoint(firsts, mb));
            }
        }
        for stage in 0..p.saturating_sub(1) {
            let (sends, firsts) = (&records[stage + 1].bwd_send, &records[stage].bwd_first);
            for mb in 0..n_micro {
                self.sink.add_edge(endpoint(sends, mb), endpoint(firsts, mb));
            }
        }
    }

    /// Emits one forward slot; returns (first node, optional activation
    /// send).
    fn emit_forward_slot(
        &mut self,
        stage: usize,
        layers_here: usize,
        p: usize,
    ) -> (u32, Option<u32>) {
        let mut first = None;
        if stage == 0 {
            let idx = self.compute(stage, self.sigs.vocab(CompKind::EmbeddingFwd));
            first.get_or_insert(idx);
        }
        for _ in 0..layers_here {
            let (idx, _) = self.layer(stage, false);
            first.get_or_insert(idx);
        }
        let send = if stage == p - 1 {
            self.compute(stage, self.sigs.vocab(CompKind::LmHeadFwd));
            None
        } else {
            // The send waits for the last compute node via an explicit edge
            // (it lives on the comm stream).
            let last_compute = self.last_compute[stage].expect("forward emitted compute");
            let send = self.pp_send(stage, stage);
            self.sink.add_edge(last_compute, send);
            Some(send)
        };
        (first.expect("forward slot emits at least one node"), send)
    }

    /// Emits one backward slot; returns (first node, optional gradient
    /// send). When `is_final_bwd`, records per-layer gradient-ready nodes.
    fn emit_backward_slot(
        &mut self,
        stage: usize,
        layers_here: usize,
        p: usize,
        is_final_bwd: bool,
        record: &mut StageRecord,
    ) -> (u32, Option<u32>) {
        let mut first = None;
        if stage == p - 1 {
            let idx = self.compute(stage, self.sigs.vocab(CompKind::LmHeadBwd));
            first.get_or_insert(idx);
        }
        // Backward visits layers deepest-first; the final backward slot
        // records each layer's gradient anchor for its DP bucket.
        for local_layer in (0..layers_here).rev() {
            let (idx, last) = self.layer(stage, true);
            first.get_or_insert(idx);
            if is_final_bwd {
                record.grad_ready[local_layer] = Some(last);
            }
        }
        let send = if stage == 0 {
            let idx = self.compute(stage, self.sigs.vocab(CompKind::EmbeddingBwd));
            first.get_or_insert(idx);
            if is_final_bwd {
                record.embedding_bwd = Some(idx);
            }
            None
        } else {
            let last_compute = self.last_compute[stage].expect("backward emitted compute");
            let send = self.pp_send(stage, stage - 1);
            self.sink.add_edge(last_compute, send);
            Some(send)
        };
        (first.expect("backward slot emits at least one node"), send)
    }

    /// Emits the stage's DP gradient All-Reduces (bucketed or single,
    /// Fig. 5) and its weight-update node.
    fn emit_gradient_sync_and_update(
        &mut self,
        stage: usize,
        layers_here: usize,
        record: &mut StageRecord,
    ) {
        // Buckets are stage-major: this stage's form one contiguous run.
        let first = self.dp_buckets.partition_point(|b| b.stage < stage);
        let end = self.dp_buckets.partition_point(|b| b.stage <= stage);
        for i in first..end {
            let bucket = self.dp_buckets[i];
            let op = Op::Comm(self.comms.dp_all_reduce(bucket.bytes));
            if self.plan.gradient_bucketing() {
                // Buckets group layers in gradient-readiness order
                // (deepest local layer first).
                let ar = self.emit(stage, StreamKind::Comm, op, bucket.slot);
                // Ready when the shallowest layer of the bucket is done.
                let ready = record.grad_ready[bucket.lo].expect("final backward recorded");
                self.sink.add_edge(ready, ar);
                if bucket.lo == 0 {
                    if let Some(emb) = record.embedding_bwd {
                        self.sink.add_edge(emb, ar);
                    }
                }
                record.dp_all_reduces.push(ar);
            } else {
                // Unbucketed: a single All-Reduce strictly after the entire
                // backward pass (Fig. 5(b)).
                let last_compute = self.last_compute[stage].expect("stage has compute nodes");
                let ar = self.emit(stage, StreamKind::Comm, op, bucket.slot);
                self.sink.add_edge(last_compute, ar);
                record.dp_all_reduces.push(ar);
            }
        }

        let params = self.sigs.stage_local_params(stage, layers_here);
        let sig = self.sigs.weight_update(params);
        let wu = self.emit(
            stage,
            StreamKind::Compute,
            Op::Compute(ComputeOp { sig }),
            self.slots.weight_update(stage),
        );
        for &ar in &record.dp_all_reduces {
            self.sink.add_edge(ar, wu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_model::presets;
    use vtrain_parallel::PipelineSchedule as Sched;

    fn plan(t: usize, d: usize, p: usize, m: usize, b: usize, sched: Sched) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .schedule(sched)
            .build()
            .unwrap()
    }

    fn count_kind(g: &OpGraph, kind: CompKind) -> usize {
        g.nodes().iter().filter(|n| n.op.signature().is_some_and(|s| s.kind == kind)).count()
    }

    fn count_comm(g: &OpGraph, kind: CommKind) -> usize {
        g.nodes().iter().filter(|n| n.op.comm().is_some_and(|c| c.kind == kind)).count()
    }

    #[test]
    fn single_gpu_graph_shape() {
        let model = presets::megatron("1.7B"); // 24 layers
        let p = plan(1, 1, 1, 2, 8, Sched::OneFOneB); // 4 micro-batches
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        assert!(g.is_acyclic());
        // 4 micro-batches × 24 layers of MHA fwd.
        assert_eq!(count_kind(&g, CompKind::MhaFwd), 96);
        assert_eq!(count_kind(&g, CompKind::MhaBwd), 96);
        assert_eq!(count_kind(&g, CompKind::EmbeddingFwd), 4);
        assert_eq!(count_kind(&g, CompKind::LmHeadFwd), 4);
        assert_eq!(count_kind(&g, CompKind::WeightUpdate), 1);
        // No parallelism ⇒ no communication at all.
        assert_eq!(count_comm(&g, CommKind::TpAllReduce), 0);
        assert_eq!(count_comm(&g, CommKind::DpAllReduce), 0);
        assert_eq!(count_comm(&g, CommKind::PpSendRecv), 0);
    }

    #[test]
    fn tensor_parallel_inserts_two_all_reduces_per_layer_per_pass() {
        let model = presets::megatron("1.7B");
        let p = plan(2, 1, 1, 2, 4, Sched::OneFOneB); // 2 micro-batches
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        // 2 mb × 24 layers × 2 passes × 2 All-Reduces (Fig. 6).
        assert_eq!(count_comm(&g, CommKind::TpAllReduce), 2 * 24 * 2 * 2);
    }

    #[test]
    fn pipeline_inserts_send_recv_at_boundaries() {
        let model = presets::megatron("1.7B");
        let p = plan(1, 1, 3, 1, 6, Sched::OneFOneB); // 6 micro-batches, 3 stages
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        // fwd: stages 0,1 send (2 boundaries × 6 mb); bwd: stages 2,1 send.
        assert_eq!(count_comm(&g, CommKind::PpSendRecv), 2 * 6 + 2 * 6);
        assert!(g.is_acyclic());
    }

    #[test]
    fn data_parallel_bucketing_bounds_bucket_count() {
        let model = presets::megatron("1.7B");
        let with = plan(1, 4, 1, 1, 8, Sched::OneFOneB);
        let g = build_op_graph(&model, &with, &GraphOptions::default());
        let buckets = count_comm(&g, CommKind::DpAllReduce);
        assert!((1..=24).contains(&buckets), "buckets = {buckets}");
        // Disabling bucketing collapses to exactly one All-Reduce (Fig. 5b).
        let without = ParallelConfig::builder()
            .data(4)
            .global_batch(8)
            .gradient_bucketing(false)
            .build()
            .unwrap();
        let g2 = build_op_graph(&model, &without, &GraphOptions::default());
        assert_eq!(count_comm(&g2, CommKind::DpAllReduce), 1);
    }

    #[test]
    fn necessary_operators_independent_of_scale() {
        let small = presets::megatron("1.7B");
        let big = {
            // Same shape hyperparameters, more layers.
            vtrain_model::ModelConfig::builder()
                .name("deep")
                .hidden_size(small.hidden_size())
                .num_layers(96)
                .num_heads(small.num_heads())
                .seq_len(small.seq_len())
                .vocab_size(small.vocab_size())
                .build()
                .unwrap()
        };
        let p_small = plan(2, 2, 2, 1, 8, Sched::OneFOneB);
        let p_big = plan(2, 2, 2, 1, 32, Sched::OneFOneB);
        let ops_small =
            build_op_graph(&small, &p_small, &GraphOptions::default()).necessary_operators();
        let ops_big = build_op_graph(&big, &p_big, &GraphOptions::default()).necessary_operators();
        // Layer ops share signatures; only WeightUpdate params differ.
        let non_wu = |s: &OpSignature| s.kind != CompKind::WeightUpdate;
        let a: std::collections::HashSet<_> = ops_small.iter().copied().filter(non_wu).collect();
        let b: std::collections::HashSet<_> = ops_big.iter().copied().filter(non_wu).collect();
        assert_eq!(a, b, "layer signatures must be scale-invariant");
        assert!(ops_small.len() <= 12);
    }

    #[test]
    fn gpipe_and_1f1b_have_identical_node_multisets() {
        let model = presets::megatron("1.7B");
        let a =
            build_op_graph(&model, &plan(2, 2, 2, 1, 16, Sched::GPipe), &GraphOptions::default());
        let b = build_op_graph(
            &model,
            &plan(2, 2, 2, 1, 16, Sched::OneFOneB),
            &GraphOptions::default(),
        );
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert!(a.is_acyclic() && b.is_acyclic());
    }

    #[test]
    fn dp_scope_follows_rank_layout() {
        let model = presets::megatron("1.7B");
        // t·d = 4 ≤ 8 ⇒ DP stays intra-node.
        let intra =
            build_op_graph(&model, &plan(2, 2, 1, 1, 4, Sched::OneFOneB), &GraphOptions::default());
        let scope = intra
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap()
            .scope;
        assert_eq!(scope, CommScope::IntraNode);
        // t·d = 32 > 8 ⇒ inter-node, with 8/8 = 1… use t = 2, d = 16:
        // 4 concurrent DP groups per node.
        let inter = build_op_graph(
            &model,
            &plan(2, 16, 1, 1, 16, Sched::OneFOneB),
            &GraphOptions::default(),
        );
        let op = inter
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(op.scope, CommScope::InterNode);
        assert_eq!(op.concurrent_groups, 4);
    }

    #[test]
    fn comm_placements_follow_the_rack_shape() {
        let model = presets::megatron("1.7B");
        let cfg = plan(8, 8, 1, 1, 8, Sched::OneFOneB);
        // 8 GPUs per node, 4 nodes per rack: each DP replica owns a node,
        // the 8 replicas span 2 racks.
        let opts = GraphOptions { nodes_per_rack: Some(4), ..GraphOptions::default() };
        let g = build_op_graph(&model, &cfg, &opts);
        let dp = g
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(
            dp.placement,
            vtrain_net::GroupPlacement { ranks_per_node: 1, nodes_per_rack: 4, racks: 2 }
        );
        let tp = g
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::TpAllReduce))
            .unwrap();
        assert_eq!(tp.placement, vtrain_net::GroupPlacement::intra_node(8));
        // Without a rack tier the same plan spans one logical rack.
        let flat = build_op_graph(&model, &cfg, &GraphOptions::default());
        let dp_flat = flat
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(dp_flat.placement.racks, 1);
        assert_eq!(dp_flat.placement.nodes_per_rack, 8);
    }

    #[test]
    fn pp_placement_tier_matches_scope() {
        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 3, 1, 6, Sched::OneFOneB); // 4-rank stages
        let g = build_op_graph(&model, &cfg, &GraphOptions::default());
        for n in g.nodes() {
            if let Some(c) = n.op.comm().filter(|c| c.kind == CommKind::PpSendRecv) {
                match c.scope {
                    CommScope::IntraNode => assert_eq!(c.placement.top_tier(), 0),
                    CommScope::InterNode => assert!(c.placement.top_tier() >= 1),
                }
            }
        }
    }

    #[test]
    fn weight_update_params_cover_model() {
        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 4, 1, 8, Sched::OneFOneB);
        let g = build_op_graph(&model, &cfg, &GraphOptions::default());
        let total: u64 = g
            .nodes()
            .iter()
            .filter_map(|n| n.op.signature())
            .filter(|s| s.kind == CompKind::WeightUpdate)
            .map(|s| s.params)
            .sum();
        // Sum over stages × t ranks ≈ full model.
        let covered = total * cfg.tensor() as u64;
        let full = model.num_parameters();
        let rel = (covered as f64 - full as f64).abs() / full as f64;
        assert!(rel < 0.01, "weight updates cover {covered} of {full}");
    }

    #[test]
    fn plan_signatures_match_built_graph_exactly() {
        // The cheap precomputation must agree with the graph's necessary
        // operators on every grid corner: schedules, batch splits, uneven
        // layer partitions, recompute on/off.
        let models = [presets::megatron("1.7B"), presets::megatron("18.4B")];
        for model in &models {
            for (t, d, p, m, b) in [
                (1, 1, 1, 1, 4),
                (2, 2, 2, 2, 8),
                (4, 1, 3, 1, 6), // uneven partition candidate (24 % 3 == 0 but shapes differ)
                (2, 4, 5, 1, 8), // 24 and 40 layers both leave a remainder stage for p = 5
                (8, 2, 4, 2, 16),
            ] {
                if model.num_layers() < p {
                    continue;
                }
                for sched in [Sched::OneFOneB, Sched::GPipe] {
                    for recompute in [true, false] {
                        let cfg = plan(t, d, p, m, b, sched);
                        let opts = GraphOptions { recompute, ..GraphOptions::default() };
                        let built = build_op_graph(model, &cfg, &opts).necessary_operators();
                        let cheap = plan_signatures(model, &cfg, &opts);
                        assert_eq!(
                            cheap,
                            built,
                            "signature sets diverge for t={t} d={d} p={p} m={m} {sched:?} \
                             recompute={recompute} on {}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_slots_resolve_to_the_canonical_enumeration() {
        // Every node's latency slot must price exactly the operator the
        // builder emitted there, across grid corners covering all slot
        // families (fixed kinds, per-stage WU, TP, sends, DP buckets).
        #[derive(Default)]
        struct SlotRecorder {
            ops: Vec<(Op, u32)>,
        }
        impl crate::GraphSink for SlotRecorder {
            fn push(&mut self, _node: OpNode) -> u32 {
                panic!("builder must route every node through push_slotted");
            }
            fn push_slotted(&mut self, node: OpNode, slot: u32) -> u32 {
                let idx = self.ops.len() as u32;
                self.ops.push((node.op, slot));
                idx
            }
            fn add_edge(&mut self, _from: u32, _to: u32) {}
        }

        let models = [presets::megatron("1.7B"), presets::megatron("18.4B")];
        for model in &models {
            for (t, d, p, m, b) in [
                (1, 1, 1, 1, 4),
                (2, 2, 2, 2, 8),
                (4, 1, 3, 1, 6),
                (2, 4, 5, 1, 8),
                (8, 2, 4, 2, 16),
                (1, 8, 1, 1, 16),
                // Deep micro-batch counts: long replicated trains in both
                // schedules (GPipe F/B-trains, 1F1B steady state).
                (1, 1, 4, 1, 24),
                (2, 1, 3, 1, 32),
            ] {
                if model.num_layers() < p {
                    continue;
                }
                for sched in [Sched::OneFOneB, Sched::GPipe] {
                    for bucketing in [true, false] {
                        let cfg = ParallelConfig::builder()
                            .tensor(t)
                            .data(d)
                            .pipeline(p)
                            .micro_batch(m)
                            .global_batch(b)
                            .schedule(sched)
                            .gradient_bucketing(bucketing)
                            .build()
                            .unwrap();
                        let opts = GraphOptions::default();
                        let mut slots = Vec::new();
                        visit_plan_slots(model, &cfg, &opts, |op| slots.push(op));
                        let mut rec = SlotRecorder::default();
                        build_op_graph_into(model, &cfg, &opts, &mut rec);
                        let ctx = format!(
                            "t={t} d={d} p={p} m={m} {sched:?} bucketing={bucketing} on {}",
                            model.name()
                        );
                        let mut used = vec![false; slots.len()];
                        for (i, &(op, slot)) in rec.ops.iter().enumerate() {
                            let expect = slots.get(slot as usize).unwrap_or_else(|| {
                                panic!("node {i} slot {slot} out of range ({ctx})")
                            });
                            let actual = match op {
                                Op::Compute(c) => SlotOp::Compute(c.sig),
                                Op::Comm(c) => SlotOp::Comm(c),
                            };
                            assert_eq!(actual, *expect, "node {i} slot {slot} mismatch ({ctx})");
                            used[slot as usize] = true;
                        }
                        assert!(
                            used.iter().all(|&u| u),
                            "every slot must price at least one node ({ctx})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sink_stream_receives_same_nodes_and_edges_as_op_graph() {
        #[derive(Default)]
        struct Recorder {
            nodes: Vec<(u32, StreamKind)>,
            edges: Vec<(u32, u32)>,
        }
        impl crate::GraphSink for Recorder {
            fn push(&mut self, node: OpNode) -> u32 {
                let idx = self.nodes.len() as u32;
                self.nodes.push((node.device, node.stream));
                idx
            }
            fn add_edge(&mut self, from: u32, to: u32) {
                self.edges.push((from, to));
            }
        }

        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 2, 1, 8, Sched::OneFOneB);
        let opts = GraphOptions::default();
        let graph = build_op_graph(&model, &cfg, &opts);
        let mut rec = Recorder::default();
        build_op_graph_into(&model, &cfg, &opts, &mut rec);

        assert_eq!(rec.nodes.len(), graph.num_nodes());
        assert_eq!(rec.edges.len(), graph.num_edges());
        for (i, &(device, stream)) in rec.nodes.iter().enumerate() {
            let n = graph.node(i as u32);
            assert_eq!((n.device, n.stream), (device, stream));
        }
        // Edge multiset and per-node ordering must agree: group recorder
        // edges by source in insertion order and compare child lists.
        let mut children = vec![Vec::new(); rec.nodes.len()];
        for &(from, to) in &rec.edges {
            children[from as usize].push(to);
        }
        for i in 0..rec.nodes.len() as u32 {
            assert_eq!(children[i as usize].as_slice(), graph.children(i));
        }
    }
}
