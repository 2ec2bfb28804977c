//! `fleet`: two in-process `run_worker` loops share one `runs::open_grid`
//! store over a dense 10 × 20 tiny-preset grid (the paper's V_th axis ×
//! T 2..=21), with the default `WorkerOptions`; `reduce_grid` publishes the
//! result. Cells take milliseconds, so the time goes to the store's lease,
//! claim, journal and checkpoint paths.

use std::time::Instant;

use explore::worker::WorkerOptions;
use explore::{grid, pipeline, presets, reduce, runs, GridSpec};
use store::RunStore;

use crate::audit::{self, FleetAudit};
use crate::common::{self, secs, Ctx, ObsWindow, Report, SETUP_REPEATS, THREADS};
use crate::grid::{checkpoints, grid_digest};
use crate::trace;

/// The paper's threshold axis × T 2..=21.
fn spec() -> GridSpec {
    GridSpec::new(GridSpec::paper_v_ths(), (2..=21).collect())
}

/// Whether the store's public loaders find every artifact of `cell`.
fn artifacts_ok(store: &RunStore, cell: &str, eps: &[f32]) -> Result<(), String> {
    match store.load_trained(cell) {
        Ok(Some(_)) => {}
        Ok(None) => return Err("checkpoint missing".into()),
        Err(e) => return Err(format!("checkpoint unreadable: {e}")),
    }
    for (k, &e) in eps.iter().enumerate() {
        match store.load_attack(cell, k, e) {
            Ok(Some(_)) => {}
            Ok(None) => return Err(format!("attack-cache entry {k} missing")),
            Err(err) => return Err(format!("attack-cache entry {k} unreadable: {err}")),
        }
    }
    match store.load_cell_outcome(cell) {
        Ok(Some(json)) => reduce::decode_outcome(&json).map(drop),
        Ok(None) => Err("outcome missing".into()),
        Err(e) => Err(format!("outcome unreadable: {e}")),
    }
}

/// One distributed grid run into `store`: its reduced result (or why it
/// failed), the audit, and the workers' summed polls and busy claims.
struct FleetRun {
    reduced: Result<explore::GridResult, String>,
    audit: FleetAudit,
    polls: u64,
    busy: u64,
}

fn fleet_run(
    config: &explore::ExperimentConfig,
    data: &pipeline::SplitData,
    spec: &GridSpec,
    eps: &[f32],
    store: &RunStore,
) -> FleetRun {
    let opts = WorkerOptions::default();
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|op| {
                let opts = &opts;
                s.spawn(move || {
                    trace::timed("explore", "run_worker", op, || {
                        explore::run_worker(config, data, spec, eps, store, opts)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a grid worker panicked"))
            .collect()
    });
    let reduced = trace::timed("explore", "reduce_grid", 0, || {
        reduce::reduce_grid(store, spec, eps)
    })
    .map_err(|e| e.to_string());
    let cells: Vec<String> = spec.cells().map(runs::cell_key).collect();
    let events = store::journal::read_events(store.journal_path()).unwrap_or_default();
    let errors = reports.iter().filter(|r| r.is_err()).count() as u64;
    let audit = audit::audit(&cells, &events, errors, |cell| {
        artifacts_ok(store, cell, eps)
    });
    let ok: Vec<_> = reports.into_iter().flatten().collect();
    FleetRun {
        reduced,
        audit,
        polls: ok.iter().map(|r| r.polls).sum(),
        busy: ok.iter().map(|r| r.busy).sum(),
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let (mut config, _, eps) = presets::tiny_grid();
    config.threads = 1;
    let spec = spec();
    let cells = spec.len() as f64;
    let open = |dir: &std::path::Path| {
        runs::open_grid(dir, "heatmap", &config, &spec, &eps)
            .expect("a fresh grid store opens")
            .store
    };
    let mut report = Report::default();

    let mut data = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        data = Some(common::split_data(&config, ctx.seed));
        drop(open(&ctx.fresh_dir(&format!("setup-{i}"))));
        report.setup_s.push(secs(t));
    }
    let data = data.expect("at least one set-up ran");

    let mut walls = Vec::new();
    let mut results = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || secs(started) < ctx.seconds {
        let store = open(&ctx.fresh_dir(&format!("fleet-{}", walls.len())));
        let t = Instant::now();
        let run = fleet_run(&config, &data, &spec, &eps, &store);
        walls.push(secs(t));
        report.attempted += run.audit.attempted;
        report.failed += run.audit.failed;
        report.failures.extend(
            run.audit
                .problems
                .iter()
                .map(|p| format!("fleet {}: {p}", walls.len() - 1)),
        );
        results.push(run);
    }
    let wall: f64 = walls.iter().sum();
    report.latency_ms = walls.iter().map(|w| w * 1e3).collect();
    report.throughput = cells * walls.len() as f64 / wall;
    report
        .named
        .push(("fleet_cells_per_s".into(), report.throughput, "cells/s"));
    report.named.push((
        "fleet_duplicate_completions".into(),
        results
            .iter()
            .map(|r| r.audit.duplicate_completions as f64)
            .sum(),
        "count",
    ));

    // Every reduced grid must equal the serial single-process grid.
    let reference = grid_digest(&grid::run_grid(&config, &data, &spec, &eps, 1));
    for (i, run) in results.iter().enumerate() {
        match &run.reduced {
            Ok(g) => common::check_digest(
                &mut report,
                &format!("fleet {i} against run_grid"),
                grid_digest(g),
                reference,
            ),
            Err(e) => report
                .mismatches
                .push(format!("fleet {i} did not reduce: {e}")),
        }
    }

    if ctx.trace {
        let untraced = crate::stats::median(&walls).unwrap_or(f64::NAN);
        trace::set_enabled(true);
        let data = trace::timed("dataset", "prepare_data", 0, || {
            common::split_data(&config, ctx.seed)
        });
        let store = open(&ctx.fresh_dir("fleet-traced"));
        let t = Instant::now();
        let (run, window) = common::with_obs(|| {
            let run = fleet_run(&config, &data, &spec, &eps, &store);
            (run, ObsWindow::now())
        });
        let traced = secs(t);
        let layers = &mut report.layers;
        window.program_layers(
            window.span_total_s("train/epoch") + window.span_total_s("sweep/epsilon"),
            layers,
        );
        layers.insert(
            "dataset.prepare_s",
            trace::durations_s(&trace::spans(), "prepare_data")[0],
        );
        layers.insert(
            "store.journal_events_per_cell",
            window.counter("store/journal_events") as f64 / cells,
        );
        layers.insert("obs.trace_overhead_share", (traced - untraced) / untraced);
        common::probe_store(
            &checkpoints(&store, &spec),
            &ctx.fresh_dir("fleet-probe"),
            layers,
        );
        report
            .named
            .push(("explore.fleet_polls".into(), run.polls as f64, "count"));
        report
            .named
            .push(("explore.fleet_busy_claims".into(), run.busy as f64, "count"));
        report.named.push((
            "store.duplicate_cells".into(),
            run.audit.duplicate_completions as f64,
            "count",
        ));
        trace::set_enabled(false);
    }
    report
}
