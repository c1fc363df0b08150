//! Pipeline-parallel schedules: GPipe and 1F1B (paper Fig. 7).
//!
//! A schedule determines, for each pipeline stage, the order in which
//! forward and backward passes of micro-batches execute on that stage's
//! GPUs, and therefore both the pipeline-bubble overhead and the peak number
//! of in-flight micro-batches (activation memory pressure).

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Direction of a pass through one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pass {
    /// Forward pass of a micro-batch.
    Forward,
    /// Backward pass of a micro-batch.
    Backward,
}

/// One entry of a stage's execution program: which micro-batch, which pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageSlot {
    /// Micro-batch index, `0..num_micro_batches`.
    pub micro_batch: usize,
    /// Forward or backward.
    pub pass: Pass,
}

impl StageSlot {
    fn fwd(micro_batch: usize) -> Self {
        StageSlot { micro_batch, pass: Pass::Forward }
    }
    fn bwd(micro_batch: usize) -> Self {
        StageSlot { micro_batch, pass: Pass::Backward }
    }
}

/// The pipeline scheduling policy (paper Fig. 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineSchedule {
    /// GPipe: all forwards, then all backwards (in reverse micro-batch
    /// order). Activations of every micro-batch are simultaneously live.
    GPipe,
    /// One-forward-one-backward (PipeDream-flush): warm up, then alternate,
    /// bounding in-flight micro-batches by the pipeline depth.
    #[default]
    OneFOneB,
}

impl PipelineSchedule {
    /// The per-stage execution program for `stage` (0-indexed from the
    /// input side) of a `pipeline_depth`-stage pipeline processing
    /// `num_micro_batches` micro-batches.
    ///
    /// The returned slots are the *intra-GPU* order the paper's operator
    /// graph enforces (Fig. 7); cross-stage precedence is added separately
    /// when the execution graph is built.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= pipeline_depth` or either count is zero.
    pub fn stage_program(
        self,
        stage: usize,
        pipeline_depth: usize,
        num_micro_batches: usize,
    ) -> Vec<StageSlot> {
        (0..2 * num_micro_batches)
            .map(|i| self.stage_slot(stage, pipeline_depth, num_micro_batches, i))
            .collect()
    }

    /// Entry `index` of [`PipelineSchedule::stage_program`], in O(1) and
    /// without materializing the program — for walks that advance every
    /// stage's program with a cursor.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= pipeline_depth`, either count is zero, or
    /// `index >= 2 * num_micro_batches`.
    #[inline]
    pub fn stage_slot(
        self,
        stage: usize,
        pipeline_depth: usize,
        num_micro_batches: usize,
        index: usize,
    ) -> StageSlot {
        assert!(pipeline_depth > 0 && num_micro_batches > 0, "counts must be positive");
        assert!(stage < pipeline_depth, "stage {stage} out of range {pipeline_depth}");
        let n = num_micro_batches;
        assert!(index < 2 * n, "slot {index} out of range {}", 2 * n);
        match self {
            // All forwards, then all backwards in reverse order.
            PipelineSchedule::GPipe if index < n => StageSlot::fwd(index),
            PipelineSchedule::GPipe => StageSlot::bwd(2 * n - 1 - index),
            PipelineSchedule::OneFOneB => {
                // Warm-up forwards, then forward/backward pairs, then the
                // drain of the remaining backwards.
                let warmup = (pipeline_depth - 1 - stage).min(n);
                let steady_end = warmup + 2 * (n - warmup);
                if index < warmup {
                    StageSlot::fwd(index)
                } else if index < steady_end {
                    let pair = (index - warmup) / 2;
                    if (index - warmup).is_multiple_of(2) {
                        StageSlot::fwd(warmup + pair)
                    } else {
                        StageSlot::bwd(pair)
                    }
                } else {
                    StageSlot::bwd(n - warmup + (index - steady_end))
                }
            }
        }
    }

    /// Peak number of micro-batches whose forward activations are live
    /// simultaneously on the most loaded stage (stage 0).
    ///
    /// GPipe keeps all of them; 1F1B bounds this by the pipeline depth —
    /// the memory-footprint advantage PipeDream is cited for (§II-B).
    pub fn max_in_flight(self, pipeline_depth: usize, num_micro_batches: usize) -> usize {
        match self {
            PipelineSchedule::GPipe => num_micro_batches,
            PipelineSchedule::OneFOneB => pipeline_depth.min(num_micro_batches),
        }
    }
}

/// Splits `num_layers` decoder layers into `pipeline_depth` contiguous
/// stages as evenly as possible (earlier stages take the remainder).
///
/// # Panics
///
/// Panics if `pipeline_depth == 0` or exceeds `num_layers`.
pub fn layer_partition(num_layers: usize, pipeline_depth: usize) -> Vec<Range<usize>> {
    assert!(pipeline_depth > 0, "pipeline depth must be positive");
    assert!(
        pipeline_depth <= num_layers,
        "cannot split {num_layers} layers into {pipeline_depth} stages"
    );
    let base = num_layers / pipeline_depth;
    let extra = num_layers % pipeline_depth;
    let mut ranges = Vec::with_capacity(pipeline_depth);
    let mut start = 0;
    for stage in 0..pipeline_depth {
        let len = base + usize::from(stage < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Validates the fundamental schedule invariants for any stage program.
    fn check_program(program: &[StageSlot], n: usize) {
        let mut fwd_seen = vec![false; n];
        let mut bwd_seen = vec![false; n];
        for slot in program {
            match slot.pass {
                Pass::Forward => {
                    assert!(!fwd_seen[slot.micro_batch], "duplicate forward");
                    fwd_seen[slot.micro_batch] = true;
                }
                Pass::Backward => {
                    assert!(fwd_seen[slot.micro_batch], "backward before forward");
                    assert!(!bwd_seen[slot.micro_batch], "duplicate backward");
                    bwd_seen[slot.micro_batch] = true;
                }
            }
        }
        assert!(fwd_seen.iter().all(|&x| x) && bwd_seen.iter().all(|&x| x));
        assert_eq!(program.len(), 2 * n);
    }

    #[test]
    fn one_f_one_b_matches_figure_7b() {
        // 2-way pipeline, 4 micro-batches; GPU 1 (last stage) strictly
        // alternates F0 B0 F1 B1 ...
        let last = PipelineSchedule::OneFOneB.stage_program(1, 2, 4);
        assert_eq!(
            last,
            vec![
                StageSlot::fwd(0),
                StageSlot::bwd(0),
                StageSlot::fwd(1),
                StageSlot::bwd(1),
                StageSlot::fwd(2),
                StageSlot::bwd(2),
                StageSlot::fwd(3),
                StageSlot::bwd(3),
            ]
        );
        // GPU 0 warms up with one forward.
        let first = PipelineSchedule::OneFOneB.stage_program(0, 2, 4);
        assert_eq!(first[0], StageSlot::fwd(0));
        assert_eq!(first[1], StageSlot::fwd(1));
        assert_eq!(first[2], StageSlot::bwd(0));
    }

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let program = PipelineSchedule::GPipe.stage_program(0, 4, 3);
        assert_eq!(
            program,
            vec![
                StageSlot::fwd(0),
                StageSlot::fwd(1),
                StageSlot::fwd(2),
                StageSlot::bwd(2),
                StageSlot::bwd(1),
                StageSlot::bwd(0),
            ]
        );
    }

    /// The 1F1B program as a warm-up / steady / drain loop — the
    /// formulation [`PipelineSchedule::stage_slot`] indexes in closed form.
    fn one_f_one_b_loop(stage: usize, depth: usize, n: usize) -> Vec<StageSlot> {
        let warmup = (depth - 1 - stage).min(n);
        let mut program: Vec<StageSlot> = (0..warmup).map(StageSlot::fwd).collect();
        let (mut next_fwd, mut next_bwd) = (warmup, 0);
        while next_fwd < n {
            program.push(StageSlot::fwd(next_fwd));
            program.push(StageSlot::bwd(next_bwd));
            next_fwd += 1;
            next_bwd += 1;
        }
        program.extend((next_bwd..n).map(StageSlot::bwd));
        program
    }

    #[test]
    fn stage_slot_matches_the_loop_formulation() {
        for depth in 1..10 {
            for n in 1..24 {
                for stage in 0..depth {
                    let program = PipelineSchedule::OneFOneB.stage_program(stage, depth, n);
                    assert_eq!(program, one_f_one_b_loop(stage, depth, n), "{stage}/{depth} n={n}");
                }
            }
        }
    }

    #[test]
    fn in_flight_bounds() {
        assert_eq!(PipelineSchedule::GPipe.max_in_flight(4, 16), 16);
        assert_eq!(PipelineSchedule::OneFOneB.max_in_flight(4, 16), 4);
        assert_eq!(PipelineSchedule::OneFOneB.max_in_flight(8, 3), 3);
    }

    #[test]
    fn partition_is_contiguous_and_complete() {
        let parts = layer_partition(105, 35);
        assert_eq!(parts.len(), 35);
        assert!(parts.iter().all(|r| r.len() == 3));
        let parts = layer_partition(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn partition_rejects_too_deep_pipeline() {
        let _ = layer_partition(4, 5);
    }

    proptest! {
        #[test]
        fn any_program_satisfies_invariants(
            depth in 1usize..12,
            stage_frac in 0.0f64..1.0,
            n in 1usize..40,
            gpipe in proptest::bool::ANY,
        ) {
            let stage = ((depth as f64 - 1.0) * stage_frac) as usize;
            let schedule = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let program = schedule.stage_program(stage, depth, n);
            check_program(&program, n);
        }

        #[test]
        fn one_f_one_b_in_flight_never_exceeds_depth(
            depth in 1usize..12,
            n in 1usize..40,
        ) {
            for stage in 0..depth {
                let program = PipelineSchedule::OneFOneB.stage_program(stage, depth, n);
                let mut live = 0i64;
                let mut peak = 0i64;
                for slot in program {
                    match slot.pass {
                        Pass::Forward => { live += 1; peak = peak.max(live); }
                        Pass::Backward => { live -= 1; }
                    }
                }
                prop_assert!(peak as usize <= PipelineSchedule::OneFOneB.max_in_flight(depth, n));
            }
        }

        #[test]
        fn partition_covers_all_layers(layers in 1usize..300, depth_frac in 0.0f64..1.0) {
            let depth = 1 + ((layers - 1) as f64 * depth_frac) as usize;
            let parts = layer_partition(layers, depth);
            prop_assert_eq!(parts.len(), depth);
            let mut expected_start = 0;
            for r in &parts {
                prop_assert_eq!(r.start, expected_start);
                expected_start = r.end;
                prop_assert!(!r.is_empty());
            }
            prop_assert_eq!(expected_start, layers);
            // Heaviest and lightest stages differ by at most one layer.
            let max = parts.iter().map(|r| r.len()).max().unwrap();
            let min = parts.iter().map(|r| r.len()).min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
