//! `scale-500k`: the million-site path cut to a size that fits a shared
//! box — one 2020 world, columnar measurement, the CSR graph, both
//! reach indexes and the DNS/CDN/CA provider rankings.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use webdeps_core::{DepGraph, MetricOptions, Metrics, ProviderScore, ReachIndex};
use webdeps_measure::{measure_world_columnar, ColumnarDataset};
use webdeps_model::timing;
use webdeps_worldgen::{SnapshotYear, World, WorldConfig};

use crate::probe::{self, KINDS};
use crate::util::{allocations, median, peak_rss_mb, release_freed_memory, timed, Digest};
use crate::{Outcome, Params};

/// World generations timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 2;

/// What one pipeline pass took and produced.
struct Pass {
    total: Duration,
    measure: Duration,
    graph: Duration,
    reach: Duration,
    rank: Duration,
    digest: String,
}

/// Digest of every dataset column and every ranking row.
fn digest(cds: &ColumnarDataset, rankings: &[Vec<ProviderScore>]) -> String {
    let mut d = Digest::default();
    let mut line = String::new();
    for i in 0..cds.len() {
        line.clear();
        let _ = write!(
            line,
            "{:?} {:?} {:?} {:?}",
            cds.site_id(i),
            cds.dns_state(i),
            cds.cdn_state(i),
            cds.ca_state(i)
        );
        for &n in cds.dns_providers_of(i) {
            let _ = write!(line, " d:{}", cds.name(n));
        }
        for &n in cds.cdn_providers_of(i) {
            let _ = write!(line, " c:{}", cds.name(n));
        }
        if let Some(n) = cds.ca_provider_of(i) {
            let _ = write!(line, " a:{}", cds.name(n));
        }
        d.write_str(&line);
    }
    for rows in rankings {
        for row in rows {
            d.write_str(&format!("{row:?}"));
        }
    }
    d.hex()
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let config = WorldConfig {
        seed: p.seed,
        n_sites: p.sites,
        year: SnapshotYear::Y2020,
    };

    let mut setups = Vec::new();
    let mut world: Option<World> = None;
    for rep in 0..SETUP_REPS {
        drop(world.take());
        release_freed_memory();
        if p.trace && rep + 1 == SETUP_REPS {
            let _ = timing::drain();
            timing::enable();
        }
        let (w, took) = timed(|| World::generate(config));
        timing::disable();
        setups.push(took.as_secs_f64());
        world = Some(w);
    }
    probe::record_spans(&mut out);
    let world = world.expect("at least one set-up");

    let opts = MetricOptions::full();
    let budget = Duration::from_secs_f64(p.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let bytes = loop {
        // The previous pass's indexes, graph and dataset were dropped
        // untimed.
        release_freed_memory();
        let traced = p.trace && passes.len() == 1;
        if traced {
            timing::enable();
        }
        let start = Instant::now();
        let (cds, measure) = timed(|| measure_world_columnar(&world));
        let (graph, graph_t) = timed(|| DepGraph::from_columnar(&cds));
        let ((full, crit), reach) = timed(|| {
            (
                ReachIndex::build(&graph, false, &opts),
                ReachIndex::build(&graph, true, &opts),
            )
        });
        let metrics = Metrics::new(&graph);
        let (rankings, rank) = timed(|| {
            KINDS
                .iter()
                .map(|&k| metrics.ranking(k, &opts))
                .collect::<Vec<_>>()
        });
        let total = start.elapsed();
        timing::disable();
        passes.push(Pass {
            total,
            measure,
            graph: graph_t,
            reach,
            rank,
            digest: digest(&cds, &rankings),
        });
        let enough = if p.trace {
            passes.len() == 2
        } else {
            passes.len() >= 2 && started.elapsed() >= budget
        };
        if enough {
            if p.trace {
                probe::impact_queries(&crit, p.seed, &mut out);
            }
            break (
                cds.heap_bytes(),
                graph.heap_bytes(),
                full.heap_bytes() + crit.heap_bytes(),
            );
        }
        // Teardown of this pass's indexes, graph and dataset, untimed.
    };

    let digests: Vec<String> = passes.iter().map(|d| d.digest.clone()).collect();
    crate::check_digests(&mut out, "scale-500k", p, &digests);

    if p.trace {
        let (plain, traced) = (&passes[0], &passes[1]);
        probe::record_spans(&mut out);
        let per_site = |b: usize| b as f64 / p.sites as f64;
        out.set("worldgen.generate_s", median(&setups));
        out.set("measure.columnar_s", traced.measure.as_secs_f64());
        out.set(
            "measure.us_per_site",
            traced.measure.as_secs_f64() * 1e6 / p.sites as f64,
        );
        // Allocations are counted in a measure call of their own, so
        // that neither timed pass pays for the counting.
        let (calls, alloc_bytes) = allocations(|| measure_world_columnar(&world));
        out.set("measure.alloc_calls", calls as f64);
        out.set("measure.alloc_bytes", alloc_bytes as f64);
        out.set("core.graph_ms", traced.graph.as_secs_f64() * 1e3);
        out.set("core.reach_ms", traced.reach.as_secs_f64() * 1e3);
        out.set("core.rank_ms", traced.rank.as_secs_f64() * 1e3);
        out.set("core.dataset_bytes_per_site", per_site(bytes.0));
        out.set("core.graph_bytes_per_site", per_site(bytes.1));
        out.set("core.reach_bytes_per_site", per_site(bytes.2));
        probe::substrate(&world, &mut out);
        out.set(
            "trace_overhead_pct",
            100.0 * (traced.total.as_secs_f64() / plain.total.as_secs_f64() - 1.0),
        );
    } else {
        let totals: Vec<f64> = passes.iter().map(|d| d.total.as_secs_f64()).collect();
        out.set("setup_s", median(&setups));
        out.set("pipeline_s", median(&totals));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("throughput", p.sites as f64 / median(&totals));
    }
    out
}
