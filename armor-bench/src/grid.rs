//! `grid`: the CLI `heatmap` default — twelve (V_th, T) cells trained and
//! PGD-attacked by `grid::run_grid_stored` at two threads into a fresh run
//! store. Training is about 96% of the work, so training-path and
//! scheduler changes show here.

use std::collections::BTreeMap;
use std::time::Instant;

use explore::{algorithm, grid, presets, runs, GridResult, GridSpec};
use store::{Event, RunStore};

use crate::common::{self, secs, Ctx, ObsWindow, Report, SETUP_REPEATS, THREADS};
use crate::trace;

/// The heat-map preset's own seed: its grid digest is pinned below.
pub const DEFAULT_SEED: u64 = 11;
/// Digest of the grid result at [`DEFAULT_SEED`] (see [`grid_digest`]).
const REFERENCE_DIGEST: u64 = 0x2592_1c96_0816_5cc3;

/// The reduced 4×3 grid the CLI `heatmap` command runs by default.
pub fn spec() -> GridSpec {
    GridSpec::new(vec![0.25, 1.0, 1.75, 2.5], vec![4, 12, 24])
}

/// Bit-exact digest of a grid result.
pub fn grid_digest(result: &GridResult) -> u64 {
    let mut words = vec![result.outcomes.len() as u32];
    for o in &result.outcomes {
        words.extend([
            o.structural.v_th.to_bits(),
            o.structural.time_window as u32,
            o.clean_accuracy.to_bits(),
            u32::from(o.learnable),
            o.robustness.len() as u32,
        ]);
        for &(e, r) in &o.robustness {
            words.extend([e.to_bits(), r.to_bits()]);
        }
    }
    common::digest_words(words)
}

/// Per-cell compute time in milliseconds (training plus its attacks), from
/// the run store's journal.
pub fn cell_millis(store: &RunStore) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for event in store::journal::read_events(store.journal_path()).unwrap_or_default() {
        let (cell, millis) = match event {
            Event::CellTrained { cell, millis, .. } => (cell, millis),
            Event::AttackEvaluated { cell, millis, .. } => (cell, millis),
            _ => continue,
        };
        *out.entry(cell).or_insert(0.0) += millis as f64;
    }
    out
}

/// The trained checkpoints a run left in `store`, for the store probe.
pub fn checkpoints(
    store: &RunStore,
    spec: &GridSpec,
) -> Vec<(String, nn::Params, store::CellMeta)> {
    spec.cells()
        .map(runs::cell_key)
        .filter_map(|key| {
            let (params, meta) = store.load_trained(&key).ok().flatten()?;
            Some((key, params, meta))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let (config, _, eps) = presets::heatmap_grid();
    let spec = spec();
    let cells = spec.len() as f64;
    let mut report = Report::default();

    let mut data = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        data = Some(common::split_data(&config, ctx.seed));
        drop(runs::open(
            &ctx.fresh_dir(&format!("setup-{i}")),
            "heatmap",
            &config,
            Some(&spec),
            &eps,
            false,
        ));
        report.setup_s.push(secs(t));
    }
    let data = data.expect("at least one set-up ran");

    // Timed part: whole grids, each into a fresh store, until time is up.
    let mut walls = Vec::new();
    let mut first: Option<GridResult> = None;
    let started = Instant::now();
    while walls.is_empty() || secs(started) < ctx.seconds {
        let dir = ctx.fresh_dir(&format!("grid-{}", walls.len()));
        let opened = runs::open(&dir, "heatmap", &config, Some(&spec), &eps, false)
            .expect("a fresh run store opens");
        let t = Instant::now();
        let c = common::cpu_s();
        let result =
            grid::run_grid_stored(&config, &data, &spec, &eps, THREADS, Some(&opened.store));
        let (wall, cpu) = (secs(t), common::cpu_s() - c);
        walls.push(wall);
        eprintln!("  grid {}: {wall:.3} s wall, {cpu:.3} s cpu", walls.len());
        match &first {
            Some(f) if grid_digest(f) != grid_digest(&result) => report
                .mismatches
                .push(format!("grid {} differs from grid 0", walls.len() - 1)),
            Some(_) => {}
            None => first = Some(result),
        }
    }
    let wall: f64 = walls.iter().sum();
    report.latency_ms = walls.iter().map(|w| w * 1e3).collect();
    report.attempted = (cells as u64) * walls.len() as u64;
    report.throughput = cells * walls.len() as f64 / wall;
    report
        .named
        .push(("grid_cells_per_s".into(), report.throughput, "cells/s"));
    report
        .named
        .push(("grid_wall_s".into(), wall / walls.len() as f64, "s"));

    let result = first.expect("at least one grid ran");
    let got = grid_digest(&result);
    eprintln!("grid digest: {got:016x}");
    if ctx.seed == DEFAULT_SEED {
        common::check_digest(
            &mut report,
            "grid at the default seed",
            got,
            REFERENCE_DIGEST,
        );
    } else {
        // Independent path: each cell through `explore_one` (no store, no
        // grid scheduler), split over two threads.
        let serial = explore::ExperimentConfig {
            threads: 1,
            ..config.clone()
        };
        let all: Vec<_> = spec.cells().collect();
        let halves: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|k| {
                    let (serial, data, eps, all) = (&serial, &data, &eps, &all);
                    s.spawn(move || {
                        all.iter()
                            .enumerate()
                            .filter(|(i, _)| i % THREADS == k)
                            .map(|(i, &cell)| (i, algorithm::explore_one(serial, data, cell, eps)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a check thread panicked"))
                .collect()
        });
        let mut outcomes: Vec<_> = halves.into_iter().flatten().collect();
        outcomes.sort_by_key(|(i, _)| *i);
        let reference = GridResult {
            spec: spec.clone(),
            epsilons: eps.clone(),
            outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
        };
        common::check_digest(
            &mut report,
            "grid against explore_one",
            got,
            grid_digest(&reference),
        );
    }

    if ctx.trace {
        let untraced = crate::stats::median(&walls).unwrap_or(f64::NAN);
        trace::set_enabled(true);
        let data = trace::timed("dataset", "prepare_data", 0, || {
            common::split_data(&config, ctx.seed)
        });
        let dir = ctx.fresh_dir("grid-traced");
        let opened = trace::timed("explore", "runs_open", 0, || {
            runs::open(&dir, "heatmap", &config, Some(&spec), &eps, false)
                .expect("a fresh run store opens")
        });
        let t = Instant::now();
        let window = common::with_obs(|| {
            trace::timed("explore", "run_grid_stored", 0, || {
                grid::run_grid_stored(&config, &data, &spec, &eps, THREADS, Some(&opened.store))
            });
            ObsWindow::now()
        });
        let traced = secs(t);
        let layers = &mut report.layers;
        let cell_s: Vec<f64> = cell_millis(&opened.store)
            .into_values()
            .map(|m| m / 1e3)
            .collect();
        let cell_total = window.span_total_s("grid/cell");
        window.program_layers(cell_total, layers);
        layers.insert(
            "dataset.prepare_s",
            trace::durations_s(&trace::spans(), "prepare_data")[0],
        );
        layers.insert(
            "explore.cell_p50_s",
            crate::stats::median(&cell_s).unwrap_or(0.0),
        );
        layers.insert(
            "explore.cell_max_s",
            cell_s.iter().copied().fold(0.0, f64::max),
        );
        layers.insert(
            "explore.grid_efficiency",
            common::ratio(cell_total, traced * THREADS as f64),
        );
        layers.insert(
            "store.journal_events_per_cell",
            window.counter("store/journal_events") as f64 / cells,
        );
        layers.insert("obs.trace_overhead_share", (traced - untraced) / untraced);
        common::probe_store(
            &checkpoints(&opened.store, &spec),
            &ctx.fresh_dir("grid-probe"),
            layers,
        );
        trace::set_enabled(false);
    }
    report
}
