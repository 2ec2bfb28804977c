//! What every workload shares: the run context, the report it fills in,
//! and readers for the program's own counters and timing spans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

/// How many times a workload with a cheap set-up sets itself up; `setup_s`
/// is the median. A set-up of a few milliseconds swings by tens of percent
/// from one repetition to the next, so the median needs many. `sweep`,
/// whose set-up trains four networks, uses [`SETUP_REPEATS_TRAINED`].
pub const SETUP_REPEATS: usize = 9;

/// Set-up repetitions when set-up means training several networks.
pub const SETUP_REPEATS_TRAINED: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the timed part runs, at least one full operation.
    pub seconds: f64,
    /// Whether to add the traced run after the untraced one.
    pub trace: bool,
    /// Scratch directory for run stores, inside the working directory.
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        dir
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Operations completed per second of the timed part.
    pub throughput: f64,
    /// Latency samples of the workload's operation, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Failures worth printing (they are already counted in `failed`).
    pub failures: Vec<String>,
    /// The workload's own end-to-end figures, by their descriptive names,
    /// for the human-readable table.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metric values from the traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The program's counters and span timings over one window of the run
/// (the difference of two snapshots).
#[derive(Debug, Default, Clone)]
pub struct ObsWindow {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, (u64, f64)>,
}

impl ObsWindow {
    /// Everything recorded since the last `obs::reset`.
    pub fn now() -> Self {
        let reg = obs::snapshot();
        let timing = obs::timing_snapshot();
        Self {
            counters: reg.counters().clone(),
            spans: timing
                .spans
                .iter()
                .map(|(k, s)| (k.clone(), (s.count, s.total_nanos as f64 * 1e-9)))
                .collect(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &ObsWindow) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, &(n, t))| {
                let (n0, t0) = earlier.spans.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (n - n0, t - t0))
            })
            .collect();
        Self { counters, spans }
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total seconds spent in the program's spans called `name`.
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1)
    }

    /// Mean seconds of one span called `name` (0 when none ran).
    pub fn span_mean_s(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(n, t)| ratio(t, n as f64))
    }

    /// Fills the per-layer metrics that come from the program's own
    /// counters and spans. `compute_s` is the time the MAC count is
    /// divided by.
    pub fn program_layers(&self, compute_s: f64, layers: &mut BTreeMap<&'static str, f64>) {
        let c = |n: &str| self.counter(n) as f64;
        let hits = c("tensor/prepack_hits");
        let misses = c("tensor/prepack_misses");
        let sparse = c("tensor/event_gemm_sparse");
        let dense = c("tensor/event_gemm_dense");
        let macs = c("tensor/gemm_macs");
        layers.insert("nn.train_epoch_s", self.span_mean_s("train/epoch"));
        layers.insert("nn.prepack_hit_ratio", ratio(hits, hits + misses));
        layers.insert("tensor.gemm_macs", macs);
        layers.insert("tensor.gmacs_per_s", ratio(macs / 1e9, compute_s));
        layers.insert("tensor.pool_dispatches", c("tensor/pool_dispatches"));
        layers.insert("tensor.event_sparse_share", ratio(sparse, sparse + dense));
        layers.insert(
            "snn.spikes_per_window",
            ratio(c("snn/spikes_emitted"), c("snn/forward_windows")),
        );
        layers.insert(
            "attacks.pgd_iter_ms",
            self.span_mean_s("attack/pgd_iter") * 1e3,
        );
        layers.insert("attacks.eps_eval_s", self.span_mean_s("sweep/epsilon"));
    }
}

/// The workload's data: the preset's training split, and a held-out test
/// split drawn from the workload seed.
///
/// Only the test split (the images that are evaluated and attacked)
/// follows the seed. The training split and the per-cell training seeds
/// stay the preset's, so every seed trains the same networks with the same
/// work: the cost of event-driven training follows the spike density of the
/// training data, and a seed-drawn training set would change the amount of
/// work from one seed to the next. At the preset's own seed this is exactly
/// `pipeline::prepare_data`.
pub fn split_data(config: &explore::ExperimentConfig, seed: u64) -> explore::pipeline::SplitData {
    let mut data = explore::pipeline::prepare_data(config);
    data.test = dataset::synth::SynthDigits::new(config.image_hw)
        .samples_per_class(config.test_per_class)
        .seed(seed.wrapping_add(0x5EED))
        .generate();
    data
}

/// Times `RunStore::save_trained`, `load_trained`, and a cell claim plus
/// release for each checkpoint, on a shared probe store in `dir` (so the
/// probe never disturbs a workload's own store), and fills the `store.*`
/// per-layer metrics with the median of each.
pub fn probe_store(
    checkpoints: &[(String, nn::Params, store::CellMeta)],
    dir: &Path,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let fingerprint = store::Fingerprint::builder()
        .section("armor-bench", b"store probe")
        .finish();
    let probe = store::RunStore::open_shared(dir, &fingerprint, "{}")
        .expect("the probe store opens in a fresh directory")
        .store;
    for (op, (cell, params, meta)) in checkpoints.iter().enumerate() {
        let op = op as u64;
        let _ = crate::trace::timed("store", "save_trained", op, || {
            probe.save_trained(cell, params, meta)
        });
        let _ = crate::trace::timed("store", "load_trained", op, || probe.load_trained(cell));
        let _span = crate::trace::span("store", "claim_release", op);
        if let Ok(Some(lease)) = probe.claim_cell(cell, 30_000) {
            probe.release_cell(lease);
        }
    }
    let spans = crate::trace::spans();
    let median_ms =
        |name| crate::stats::median(&crate::trace::durations_s(&spans, name)).unwrap_or(0.0) * 1e3;
    layers.insert("store.checkpoint_save_ms", median_ms("save_trained"));
    layers.insert("store.checkpoint_load_ms", median_ms("load_trained"));
    layers.insert("store.claim_release_ms", median_ms("claim_release"));
}

/// Runs `f` with the program's recording on, from a clean slate.
pub fn with_obs<T>(f: impl FnOnce() -> T) -> T {
    obs::reset();
    obs::enable(false);
    let out = f();
    obs::disable();
    out
}

/// Appends to `report.mismatches` when two digests differ.
pub fn check_digest(report: &mut Report, what: &str, got: u64, want: u64) {
    if got != want {
        report
            .mismatches
            .push(format!("{what}: digest {got:016x}, expected {want:016x}"));
    }
}

/// FNV-1a over a sequence of 32-bit words (float bit patterns and sizes).
pub fn digest_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u32::to_le_bytes).collect();
    store::format::fnv1a(&bytes)
}

/// Peak resident set size of this process image, in MiB (`VmHWM`).
///
/// Read from `/proc/self/status` rather than `getrusage`: `ru_maxrss`
/// keeps the high-water mark of the image before `exec`, so under
/// `cargo run` it would report cargo's own memory.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks per second).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}
