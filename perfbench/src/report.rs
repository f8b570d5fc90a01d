//! `report-100k`: the paper-reproduction path `repro` runs — paired
//! 2016/2020 worlds plus the hospital vertical, row measurement of all
//! three, both dependency graphs, then all 22 experiments rendered.

use std::time::{Duration, Instant};

use webdeps_core::{DepGraph, MetricOptions, ReachIndex};
use webdeps_measure::{measure_world, ColumnarDataset};
use webdeps_model::timing;
use webdeps_reports::{all_experiment_ids, run_experiment, Workspace};
use webdeps_worldgen::verticals::hospital_world;
use webdeps_worldgen::{World, WorldPair};

use crate::probe;
use crate::util::{allocations, median, peak_rss_mb, release_freed_memory, timed, Digest};
use crate::{Outcome, Params};

/// World generations timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 5;

/// The generated inputs: both snapshots and the hospital world.
struct Worlds {
    y2016: World,
    y2020: World,
    hospitals: World,
}

/// What one pipeline pass took and produced.
struct Pass {
    total: Duration,
    measure: Duration,
    graph: Duration,
    experiments: Duration,
    per_experiment: Vec<(&'static str, Duration)>,
    digest: String,
}

/// Measure, graph and render every experiment; the workspace is
/// returned so its teardown happens outside the timer.
fn pass(worlds: Worlds, seed: u64, scale: usize) -> (Pass, Workspace) {
    let start = Instant::now();
    let ((ds16, ds20, ds_hospitals), measure) = timed(|| {
        (
            measure_world(&worlds.y2016),
            measure_world(&worlds.y2020),
            measure_world(&worlds.hospitals),
        )
    });
    let ((graph16, graph20), graph) =
        timed(|| (DepGraph::from_dataset(&ds16), DepGraph::from_dataset(&ds20)));
    let ws = Workspace {
        seed,
        scale,
        world16: worlds.y2016,
        world20: worlds.y2020,
        ds16,
        ds20,
        graph16,
        graph20,
        hospitals: worlds.hospitals,
        ds_hospitals,
    };
    let mut digest = Digest::default();
    let mut per_experiment = Vec::new();
    let experiments_start = Instant::now();
    for id in all_experiment_ids() {
        let (text, took) = timed(|| run_experiment(&ws, id).map(|r| r.render()));
        digest.write_str(id);
        digest.write_str(text.as_deref().unwrap_or("<missing experiment>"));
        per_experiment.push((id, took));
    }
    let experiments = experiments_start.elapsed();
    let p = Pass {
        total: start.elapsed(),
        measure,
        graph,
        experiments,
        per_experiment,
        digest: digest.hex(),
    };
    (p, ws)
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: generation, several times; each previous world is dropped
    // before the next timer starts. The traced run records the
    // generator's spans on the last repetition.
    let mut setups = Vec::new();
    let mut worlds: Option<Worlds> = None;
    for rep in 0..SETUP_REPS {
        drop(worlds.take());
        release_freed_memory();
        if p.trace && rep + 1 == SETUP_REPS {
            let _ = timing::drain();
            timing::enable();
        }
        let (w, took) = timed(|| {
            let pair = WorldPair::generate(p.seed, p.sites);
            Worlds {
                y2016: pair.y2016,
                y2020: pair.y2020,
                hospitals: hospital_world(p.seed),
            }
        });
        timing::disable();
        setups.push(took.as_secs_f64());
        worlds = Some(w);
    }
    probe::record_spans(&mut out);
    let mut worlds = worlds.expect("at least one set-up");

    // Pipeline passes until the budget is spent (at least two, so every
    // run checks that the report is reproducible). The traced run makes
    // exactly two: untraced, then traced, for the tracing overhead.
    let budget = Duration::from_secs_f64(p.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let ws = loop {
        // The previous pass's datasets and graphs were dropped untimed.
        release_freed_memory();
        let traced = p.trace && passes.len() == 1;
        if traced {
            timing::enable();
        }
        let (done, ws) = pass(worlds, p.seed, p.sites);
        timing::disable();
        passes.push(done);
        let enough = if p.trace {
            passes.len() == 2
        } else {
            passes.len() >= 2 && started.elapsed() >= budget
        };
        if enough {
            break ws;
        }
        // Teardown of this pass's datasets and graphs, untimed.
        let Workspace {
            world16,
            world20,
            hospitals,
            ..
        } = ws;
        worlds = Worlds {
            y2016: world16,
            y2020: world20,
            hospitals,
        };
    };

    let digests: Vec<String> = passes.iter().map(|d| d.digest.clone()).collect();
    crate::check_digests(&mut out, "report-100k", p, &digests);
    // The 22 rendered experiments of every pass are operations too.
    out.attempted += (passes.len() * all_experiment_ids().len()) as u64;

    if p.trace {
        record_layers(&mut out, &passes, &setups, &ws, p);
    } else {
        let totals: Vec<f64> = passes.iter().map(|d| d.total.as_secs_f64()).collect();
        out.set("setup_s", median(&setups));
        out.set("pipeline_s", median(&totals));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("throughput", measured_sites(&ws) as f64 / median(&totals));
    }
    out
}

/// Sites one pass measures: both snapshots and the hospitals.
fn measured_sites(ws: &Workspace) -> usize {
    ws.world16.listings().len() + ws.world20.listings().len() + ws.hospitals.listings().len()
}

fn record_layers(out: &mut Outcome, passes: &[Pass], setups: &[f64], ws: &Workspace, p: &Params) {
    let (plain, traced) = (&passes[0], &passes[1]);
    probe::record_spans(out);
    out.set("worldgen.generate_s", median(setups));
    let measured_sites =
        ws.world16.listings().len() + ws.world20.listings().len() + ws.hospitals.listings().len();
    out.set("measure.row_s", traced.measure.as_secs_f64());
    out.set(
        "measure.us_per_site",
        traced.measure.as_secs_f64() * 1e6 / measured_sites as f64,
    );
    // Allocations are counted in a measure call of their own, so that
    // neither timed pass pays for the counting.
    let (calls, bytes) = allocations(|| {
        (
            measure_world(&ws.world16),
            measure_world(&ws.world20),
            measure_world(&ws.hospitals),
        )
    });
    out.set("measure.alloc_calls", calls as f64);
    out.set("measure.alloc_bytes", bytes as f64);
    out.set("core.graph_ms", traced.graph.as_secs_f64() * 1e3);
    let dataset_bytes = ColumnarDataset::from_rows(&ws.ds20).heap_bytes();
    probe::core_layers(&ws.graph20, dataset_bytes, p.sites, out);
    let index = ReachIndex::build(&ws.graph20, true, &MetricOptions::full());
    probe::impact_queries(&index, p.seed, out);
    out.set("reports.experiments_s", traced.experiments.as_secs_f64());
    let exp_ms = |id: &str| {
        traced
            .per_experiment
            .iter()
            .find(|(e, _)| *e == id)
            .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3)
    };
    out.set("reports.validation_ms", exp_ms("validation"));
    out.set("reports.figure6_ms", exp_ms("figure6"));
    out.set("chaos.incidents_ms", exp_ms("incidents"));
    probe::substrate(&ws.world20, out);
    out.set(
        "trace_overhead_pct",
        100.0 * (traced.total.as_secs_f64() / plain.total.as_secs_f64() - 1.0),
    );
}
