//! `sweep`: the curve stage of fig9 on frozen models — SNNs at V_th = 1.75
//! with T ∈ {4, 12, 24} plus the CNN baseline, each PGD-swept over the
//! paper's seven-point ε axis, in repeated passes. No training, optimizer
//! steps or store writes happen in the timed part, so the prepack cache
//! should hit; a training-path change should leave this workload alone.

use std::time::Instant;

use explore::{algorithm, pipeline, presets, runs, ExperimentConfig};
use nn::AdversarialTarget;
use snn::StructuralParams;

use crate::common::{self, secs, Ctx, ObsWindow, Report, SETUP_REPEATS_TRAINED, THREADS};
use crate::trace;

/// The fig9 preset's own seed: its sweep digest is pinned below.
pub const DEFAULT_SEED: u64 = 11;
/// Digest of one pass at [`DEFAULT_SEED`] (see [`pass_digest`]).
const REFERENCE_DIGEST: u64 = 0x07d7_1dd9_8fb9_c5c5;

const V_TH: f32 = 1.75;
const WINDOWS: [usize; 3] = [4, 12, 24];

struct Models {
    data: pipeline::SplitData,
    snns: Vec<(StructuralParams, pipeline::Trained<snn::SpikingCnn>)>,
    cnn: pipeline::Trained<nn::Cnn>,
}

impl Models {
    fn train(config: &ExperimentConfig, seed: u64) -> Self {
        let data = trace::timed("dataset", "prepare_data", 0, || {
            common::split_data(config, seed)
        });
        let snns = WINDOWS
            .iter()
            .map(|&t| {
                let sp = StructuralParams::new(V_TH, t);
                (
                    sp,
                    trace::timed("explore", "train_snn", 0, || {
                        pipeline::train_snn(config, &data, sp)
                    }),
                )
            })
            .collect();
        let cnn = trace::timed("explore", "train_cnn", 0, || {
            pipeline::train_cnn(config, &data)
        });
        Self { data, snns, cnn }
    }

    fn targets(&self) -> Vec<&(dyn AdversarialTarget + Sync)> {
        let mut out: Vec<&(dyn AdversarialTarget + Sync)> =
            self.snns.iter().map(|(_, t)| &t.classifier as _).collect();
        out.push(&self.cnn.classifier);
        out
    }
}

type Pass = Vec<Vec<(f32, f32)>>;

/// One pass: every model swept over every ε.
fn pass(config: &ExperimentConfig, models: &Models, eps: &[f32], op: u64) -> Pass {
    models
        .targets()
        .into_iter()
        .map(|target| {
            trace::timed("explore", "sweep_attack", op, || {
                algorithm::sweep_attack(config, &models.data, target, eps)
            })
        })
        .collect()
}

/// Bit-exact digest of one pass.
fn pass_digest(pass: &Pass) -> u64 {
    common::digest_words(
        pass.iter()
            .flat_map(|curve| curve.iter().flat_map(|&(e, r)| [e.to_bits(), r.to_bits()])),
    )
}

pub fn run(ctx: &Ctx) -> Report {
    let (mut config, eps) = presets::fig9();
    config.threads = THREADS;
    let mut report = Report::default();

    // Set-up: data, three SNNs and the CNN, then one untimed pass. The first
    // pass in a process pays one-off costs (pool start-up, allocator growth,
    // page faults) that a long-running process pays once, so it belongs to
    // set-up, not to the steady pass rate.
    let mut models = None;
    for _ in 0..SETUP_REPEATS_TRAINED {
        let t = Instant::now();
        let m = Models::train(&config, ctx.seed);
        let _ = pass(&config, &m, &eps, 0);
        report.setup_s.push(secs(t));
        models = Some(m);
    }
    let models = models.expect("at least one set-up ran");
    let examples_per_pass = (models.targets().len() * eps.len() * config.attack_samples) as f64;

    let mut pass_walls = Vec::new();
    let mut first: Option<Pass> = None;
    let started = Instant::now();
    while pass_walls.is_empty() || secs(started) < ctx.seconds {
        let t = Instant::now();
        let c = common::cpu_s();
        let curves = pass(&config, &models, &eps, 0);
        let (wall, cpu) = (secs(t), common::cpu_s() - c);
        pass_walls.push(wall);
        eprintln!(
            "  pass {}: {wall:.3} s wall, {cpu:.3} s cpu",
            pass_walls.len()
        );
        match &first {
            Some(f) if pass_digest(f) != pass_digest(&curves) => report
                .mismatches
                .push(format!("pass {} differs from pass 0", pass_walls.len() - 1)),
            Some(_) => {}
            None => first = Some(curves),
        }
    }
    let wall: f64 = pass_walls.iter().sum();
    report.latency_ms = pass_walls.iter().map(|w| w * 1e3).collect();
    report.attempted = (models.targets().len() * eps.len() * pass_walls.len()) as u64;
    report.throughput = examples_per_pass * pass_walls.len() as f64 / wall;
    report.named.push((
        "sweep_examples_per_s".into(),
        report.throughput,
        "examples/s",
    ));
    report
        .named
        .push(("sweep_pass_s".into(), wall / pass_walls.len() as f64, "s"));

    let first = first.expect("at least one pass ran");
    let got = pass_digest(&first);
    eprintln!("sweep digest: {got:016x}");
    if ctx.seed == DEFAULT_SEED {
        common::check_digest(
            &mut report,
            "sweep at the default seed",
            got,
            REFERENCE_DIGEST,
        );
    } else {
        // Independent path: serial ε loops, the SNNs through
        // `explore_trained` (the grid's per-cell attack stage).
        let serial = ExperimentConfig {
            threads: 1,
            ..config.clone()
        };
        let mut reference: Pass = models
            .snns
            .iter()
            .map(|(sp, trained)| {
                algorithm::explore_trained(&serial, &models.data, *sp, trained, &eps).robustness
            })
            .collect();
        reference.push(algorithm::sweep_attack(
            &serial,
            &models.data,
            &models.cnn.classifier,
            &eps,
        ));
        common::check_digest(
            &mut report,
            "sweep against the serial path",
            got,
            pass_digest(&reference),
        );
    }

    if ctx.trace {
        let untraced = crate::stats::median(&pass_walls).unwrap_or(f64::NAN);
        trace::set_enabled(true);
        let (setup, window, traced) = common::with_obs(|| {
            let traced_models = Models::train(&config, ctx.seed);
            let _ = pass(&config, &traced_models, &eps, 0);
            let setup = ObsWindow::now();
            let mut walls = Vec::new();
            for op in 1..=pass_walls.len().clamp(1, 4) as u64 {
                let t = Instant::now();
                let _ = pass(&config, &models, &eps, op);
                walls.push(secs(t));
            }
            let window = ObsWindow::now().since(&setup);
            (
                setup,
                window,
                crate::stats::median(&walls).unwrap_or(f64::NAN),
            )
        });
        // Forward passes alone, on the attack set, through each SNN.
        let attack_set = models.data.test.subset(config.attack_samples);
        for (_, trained) in &models.snns {
            for _ in 0..5 {
                let _ = trace::timed("nn", "logits", 0, || {
                    trained.classifier.logits(attack_set.images())
                });
            }
        }
        let spans = trace::spans();
        let layers = &mut report.layers;
        window.program_layers(window.span_total_s("sweep/epsilon"), layers);
        layers.insert("nn.train_epoch_s", setup.span_mean_s("train/epoch"));
        layers.insert(
            "dataset.prepare_s",
            trace::durations_s(&spans, "prepare_data")[0],
        );
        layers.insert(
            "snn.forward_ms",
            crate::stats::median(&trace::durations_s(&spans, "logits")).unwrap_or(0.0) * 1e3,
        );
        layers.insert("obs.trace_overhead_share", (traced - untraced) / untraced);
        let meta = |accuracy: f32| store::CellMeta {
            clean_accuracy: accuracy,
            learnable: accuracy >= config.accuracy_threshold,
        };
        let mut checkpoints: Vec<_> = models
            .snns
            .iter()
            .map(|(sp, t)| {
                let params = t.classifier.params().clone();
                (runs::cell_key(*sp), params, meta(t.clean_accuracy))
            })
            .collect();
        checkpoints.push((
            pipeline::CNN_BASELINE_KEY.to_string(),
            models.cnn.classifier.params().clone(),
            meta(models.cnn.clean_accuracy),
        ));
        common::probe_store(&checkpoints, &ctx.fresh_dir("sweep-probe"), layers);
        trace::set_enabled(false);
    }
    report
}
