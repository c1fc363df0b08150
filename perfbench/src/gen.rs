//! Seeded input generators: the two fixed sweep scenarios and the
//! `serve-mix` frame stream.
//!
//! Every input is plain JSON text built here from the seed; the program
//! under test only ever sees those bytes. Nothing in this module calls
//! into the program, so a change to the program cannot change the
//! inputs it is measured on.

use serde::Serialize;
use vtrain::api::RequestKind;

/// SplitMix64: a tiny, well-mixed, reproducible generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// `mtnlg-grid`: the paper's Fig. 10 design space of MT-NLG 530B.
pub const MTNLG_GRID: &str = concat!(
    r#"{"cluster":{"preset":"dgx-a100-80gb","total_gpus":53760},"#,
    r#""model":{"preset":"mt-nlg-530b"},"#,
    r#""sweep":{"global_batch":1920,"goal":"exhaustive","threads":1,"#,
    r#""limits":{"max_tensor":16,"max_data":32,"max_pipeline":105,"max_micro_batch":2}}}"#
);

/// `fair-sweep`: Megatron 18.4B on 512 GPUs in racks of 8 nodes, priced
/// by the fair-sharing network replay.
pub const FAIR_SWEEP: &str = concat!(
    r#"{"cluster":{"preset":"aws-p4d","total_gpus":512},"#,
    r#""model":{"preset":"megatron-18.4B"},"#,
    r#""network":{"backend":"fair-sharing"},"#,
    r#""topology":{"rack":{"nodes_per_rack":8}},"#,
    r#""sweep":{"global_batch":512,"goal":"exhaustive","threads":1,"#,
    r#""limits":{"max_tensor":8,"max_data":16,"max_pipeline":8,"max_micro_batch":2}}}"#
);

/// One wire frame (newline-terminated) carrying `scenario`.
pub fn frame(id: &str, kind: RequestKind, scenario: &str) -> String {
    format!("{{\"id\":\"{id}\",\"kind\":\"{kind:?}\",\"scenario\":{scenario},\"v\":1}}\n")
}

/// Megatron-family plans `(size, t, d, p, m)` at global batch 256, each
/// on a cluster of exactly `t·d·p` GPUs (all fit A100-40GB memory).
const MEGATRON_PLANS: [(&str, usize, usize, usize, usize); 42] = [
    ("1.7B", 2, 2, 4, 1),
    ("1.7B", 2, 4, 8, 1),
    ("1.7B", 2, 8, 8, 1),
    ("1.7B", 2, 16, 8, 1),
    ("1.7B", 2, 32, 8, 1),
    ("1.7B", 4, 4, 1, 1),
    ("1.7B", 4, 8, 1, 1),
    ("1.7B", 4, 16, 1, 1),
    ("1.7B", 4, 32, 1, 1),
    ("1.7B", 8, 2, 2, 1),
    ("1.7B", 8, 4, 2, 1),
    ("1.7B", 8, 8, 2, 1),
    ("1.7B", 8, 16, 2, 1),
    ("3.6B", 2, 4, 2, 1),
    ("3.6B", 2, 16, 2, 1),
    ("3.6B", 4, 4, 1, 1),
    ("3.6B", 4, 16, 1, 1),
    ("3.6B", 8, 2, 1, 1),
    ("3.6B", 8, 8, 1, 1),
    ("3.6B", 8, 32, 1, 1),
    ("7.5B", 2, 4, 4, 1),
    ("7.5B", 2, 16, 4, 1),
    ("7.5B", 4, 2, 4, 1),
    ("7.5B", 4, 8, 1, 1),
    ("7.5B", 4, 16, 2, 1),
    ("7.5B", 4, 32, 4, 1),
    ("7.5B", 8, 4, 1, 1),
    ("7.5B", 8, 8, 2, 1),
    ("7.5B", 8, 16, 4, 1),
    ("18.4B", 2, 2, 8, 2),
    ("18.4B", 2, 16, 4, 1),
    ("18.4B", 4, 2, 4, 1),
    ("18.4B", 4, 4, 8, 2),
    ("18.4B", 4, 16, 4, 1),
    ("18.4B", 8, 2, 1, 2),
    ("18.4B", 8, 4, 1, 2),
    ("18.4B", 8, 8, 1, 2),
    ("18.4B", 8, 16, 1, 2),
    ("18.4B", 8, 32, 2, 2),
    ("39.1B", 4, 8, 8, 2),
    ("39.1B", 8, 2, 8, 2),
    ("39.1B", 8, 8, 4, 4),
];

/// The Table I MT-NLG plans `(t, d, p)` at micro-batch 1, batch 1920.
const MTNLG_PLANS: [(usize, usize, usize); 6] =
    [(8, 8, 35), (8, 10, 35), (8, 12, 35), (8, 12, 21), (8, 16, 21), (8, 20, 21)];

/// One generated `serve-mix` request.
pub struct MixFrame {
    pub kind: RequestKind,
    /// Whether the scenario carries a never-seen explicit model.
    pub novel: bool,
    /// Whether it predicts a Table I MT-NLG plan (the heavy requests).
    pub mtnlg: bool,
    /// Position of the request in its block before shuffling.
    pub slot: u64,
    /// The scenario JSON (the frame minus its id).
    pub scenario: String,
    /// The whole wire frame, newline-terminated.
    pub text: String,
}

/// Frames per block of the `serve-mix` stream.
pub const BLOCK: u64 = 200;

/// The `index`-th frame of the `serve-mix` stream of `seed`.
///
/// The stream is a sequence of blocks of [`BLOCK`] frames. The contents
/// of block `b` depend on `b` alone, and the seed shuffles the order
/// within each block. So any run that answers whole blocks does exactly
/// the same work under every seed (equal work counters and output
/// digests), while the order requests arrive in — which decides which
/// request pays a cache miss and which requests overlap — follows the
/// seed. Novel models are new in every block.
pub fn mix_frame(seed: u64, index: u64) -> MixFrame {
    let (block, pos) = (index / BLOCK, index % BLOCK);
    let mut order: Vec<u64> = (0..BLOCK).collect();
    let mut rng = Rng::new(seed ^ block.wrapping_mul(0xA076_1D64_78BD_642F));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let slot = block * BLOCK + order[pos as usize];
    let (kind, novel, mtnlg, scenario) = block_frame(slot);
    let text = frame(&format!("mix-{seed}-{index}"), kind, &scenario);
    MixFrame { kind, novel, mtnlg, slot, scenario, text }
}

/// The request at `slot` (block-major position before shuffling):
/// `(kind, novel model, MT-NLG predict, scenario)`.
fn block_frame(slot: u64) -> (RequestKind, bool, bool, String) {
    let mut rng = Rng::new(slot.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    rng.next_u64();
    let roll = rng.below(100);
    let novel = rng.below(5) == 0;
    let novel_name = format!("novel-{slot}");
    if roll < 60 {
        let mtnlg = !novel && rng.below(5) == 0;
        let scenario = if novel {
            novel_predict(&mut rng, &novel_name)
        } else if mtnlg {
            mtnlg_predict(&mut rng)
        } else {
            megatron_predict(&mut rng)
        };
        (RequestKind::Predict, novel, mtnlg, scenario)
    } else if roll < 85 {
        let scenario = small_sweep(&mut rng, novel.then_some(&novel_name));
        (RequestKind::Sweep, novel, false, scenario)
    } else {
        let scenario = match (rng.below(2), novel) {
            (0, true) => novel_predict(&mut rng, &novel_name),
            (0, false) => megatron_predict(&mut rng),
            (_, novel) => small_sweep(&mut rng, novel.then_some(&novel_name)),
        };
        (RequestKind::Validate, novel, false, scenario)
    }
}

fn megatron_predict(rng: &mut Rng) -> String {
    let (size, t, d, p, m) = rng.pick(&MEGATRON_PLANS);
    let gpus = t * d * p;
    format!(
        r#"{{"cluster":{{"preset":"aws-p4d","total_gpus":{gpus}}},"model":{{"preset":"megatron-{size}"}},"parallelism":{{"data":{d},"global_batch":256,"micro_batch":{m},"pipeline":{p},"tensor":{t}}}}}"#
    )
}

fn mtnlg_predict(rng: &mut Rng) -> String {
    let (t, d, p) = rng.pick(&MTNLG_PLANS);
    let gpus = t * d * p;
    format!(
        r#"{{"cluster":{{"preset":"dgx-a100-80gb","total_gpus":{gpus}}},"model":{{"preset":"mt-nlg-530b"}},"parallelism":{{"data":{d},"global_batch":1920,"micro_batch":1,"pipeline":{p},"tensor":{t}}}}}"#
    )
}

/// Hyperparameters `(h, L, n, s, V)` of a small random GPT: up to ~5B
/// parameters, so some plan of a 64-GPU cluster fits it.
fn novel_model(rng: &mut Rng) -> (usize, usize, usize, usize, usize) {
    let heads = rng.pick(&[8, 16, 24, 32]);
    let hidden = heads * rng.pick(&[64, 80, 96, 112, 128]);
    let layers = rng.pick(&[8, 12, 16, 20, 24]);
    let seq = rng.pick(&[512, 1024, 1536, 2048]);
    let vocab = 32_000 + 128 * rng.below(160) as usize;
    (hidden, layers, heads, seq, vocab)
}

fn novel_model_json(name: &str, (h, l, n, s, v): (usize, usize, usize, usize, usize)) -> String {
    format!(
        r#"{{"hidden_size":{h},"name":"{name}","num_heads":{n},"num_layers":{l},"seq_len":{s},"vocab_size":{v}}}"#
    )
}

fn novel_predict(rng: &mut Rng, name: &str) -> String {
    let model = novel_model(rng);
    let (h, l, ..) = model;
    let weights = 12 * l * h * h;
    // Rejection-sample a plan whose weight shard keeps the Adam state
    // (16 bytes per parameter) under 16 GB of an A100-40GB.
    let (t, p) = loop {
        let t = rng.pick(&[1, 2, 4, 8]);
        let p = rng.pick(&[1, 2, 4]);
        if l % p == 0 && weights / (t * p) <= 1_000_000_000 {
            break (t, p);
        }
    };
    let d = rng.pick(&[1, 2, 4, 8]);
    let m = rng.pick(&[1, 2]);
    let gpus = t * d * p;
    format!(
        r#"{{"cluster":{{"preset":"aws-p4d","total_gpus":{gpus}}},"model":{},"parallelism":{{"data":{d},"global_batch":64,"micro_batch":{m},"pipeline":{p},"tensor":{t}}}}}"#,
        novel_model_json(name, model)
    )
}

fn small_sweep(rng: &mut Rng, novel: Option<&str>) -> String {
    let model = match novel {
        Some(name) => novel_model_json(name, novel_model(rng)),
        None => format!(r#"{{"preset":"megatron-{}"}}"#, rng.pick(&["1.7B", "3.6B", "7.5B"])),
    };
    let goal = rng.pick(&["front", "best", "exhaustive"]);
    let batch = rng.pick(&[64, 128]);
    let max_data = rng.pick(&[4, 8]);
    let max_pipeline = rng.pick(&[4, 8]);
    let max_micro_batch = rng.pick(&[1, 2]);
    let placements = if rng.below(4) == 0 {
        r#","placements":[{"nodes_per_rack":2},{"nodes_per_rack":4}]"#
    } else {
        ""
    };
    format!(
        r#"{{"cluster":{{"preset":"aws-p4d","total_gpus":64}},"model":{model},"sweep":{{"global_batch":{batch},"goal":"{goal}","limits":{{"max_data":{max_data},"max_micro_batch":{max_micro_batch},"max_pipeline":{max_pipeline},"max_tensor":8}}{placements}}}}}"#
    )
}

/// Measured composition of a range of the stream.
#[derive(Serialize)]
pub struct Shares {
    frames: u64,
    predict: f64,
    sweep: f64,
    validate: f64,
    novel_model: f64,
    mtnlg_predict: f64,
}

/// Measured composition of a range of the stream: the kind shares, the
/// novel-model share and the heavy MT-NLG-predict share.
pub fn mix_shares(seed: u64, range: std::ops::Range<u64>) -> Shares {
    let frames = range.end.saturating_sub(range.start);
    let mut counts = [0u64; 5];
    for i in range {
        let f = mix_frame(seed, i);
        counts[match f.kind {
            RequestKind::Predict => 0,
            RequestKind::Sweep => 1,
            _ => 2,
        }] += 1;
        counts[3] += u64::from(f.novel);
        counts[4] += u64::from(f.mtnlg);
    }
    let [predict, sweep, validate, novel_model, mtnlg_predict] =
        counts.map(|c| c as f64 / frames.max(1) as f64);
    Shares { frames, predict, sweep, validate, novel_model, mtnlg_predict }
}
