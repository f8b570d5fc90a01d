//! Measurements shared by several workloads: the traced substrate
//! probe, the core-layer timings, the in-process impact queries and the
//! mapping of the program's own timing spans to metric names.

use std::time::{Duration, Instant};

use webdeps_core::{DepGraph, MetricOptions, Metrics, NodeId, ReachIndex};
use webdeps_measure::pipeline::measure_world_columnar_with;
use webdeps_measure::MeasureConfig;
use webdeps_model::{timing, DetRng, ServiceKind};
use webdeps_web::Crawler;
use webdeps_worldgen::World;

use crate::util::{quantile, timed, Digest};
use crate::Outcome;

/// Sites crawled by the substrate probe (the top of the ranking).
const PROBE_SITES: usize = 2_000;

/// Seconds of impact queries in a traced batch run.
const QUERY_SECONDS: f64 = 2.0;

/// Resolver cache bound, as in the measurement pipeline.
const PROBE_CACHE_BOUND: usize = 1 << 16;

/// The three service kinds the paper ranks providers for.
pub const KINDS: [ServiceKind; 3] = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca];

/// Drains the program's timing spans into the metrics they feed.
/// Labels the path did not record stay absent (and report 0).
pub fn record_spans(out: &mut Outcome) {
    for s in timing::drain() {
        let name = match s.label {
            "gen/plan" => "worldgen.plan_ms",
            "gen/sites" => "worldgen.sites_ms",
            "measure/observe" => "measure.observe_ms",
            "measure/classify" => "measure.classify_ms",
            "measure/assemble" => "measure.assemble_ms",
            _ => continue,
        };
        let ms = s.elapsed.as_secs_f64() * 1e3;
        let prev = out.metrics.get(name).copied().unwrap_or(0.0);
        out.set(name, prev + ms);
    }
}

/// Crawls the top sites with one client (cache bounded as in the
/// pipeline) and measures the same sites once more through the
/// single-threaded columnar pipeline, so per-site crawl cost and
/// per-site classify cost share one base.
pub fn substrate(world: &World, out: &mut Outcome) {
    let listings = world.listings();
    let sample = &listings[..PROBE_SITES.min(listings.len())];
    let n = sample.len() as f64;

    let mut client = world.client();
    client.resolver_mut().bound_cache(PROBE_CACHE_BOUND);
    let mut https = 0usize;
    let mut stapled = 0usize;
    let (_, crawl) = timed(|| {
        for l in sample {
            let report = Crawler::crawl(&mut client, &l.domain, &l.document_hosts, l.https);
            if l.https && report.reachable() {
                https += 1;
                stapled += usize::from(report.ocsp_stapled());
            }
        }
    });
    let stats = client.resolver().stats();
    let lookups = stats.cache_hits + stats.successes + stats.failures;
    out.set("dns.queries_per_site", stats.queries_sent as f64 / n);
    out.set(
        "dns.cache_hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("tls.stapled_share", stapled as f64 / https.max(1) as f64);
    let crawl_us = crawl.as_secs_f64() * 1e6 / n;
    out.set("web.crawl_us", crawl_us);

    let mut resolver = world.resolver();
    resolver.bound_cache(PROBE_CACHE_BOUND);
    let (_, resolve) = timed(|| {
        for l in sample {
            let _ = std::hint::black_box(resolver.resolve_addresses(&l.domain));
        }
    });
    out.set("dns.resolve_ns", resolve.as_secs_f64() * 1e9 / n);

    // The classify pass crawls and classifies each site; what the crawl
    // does not explain is classification proper.
    let was_tracing = timing::is_enabled();
    let _ = timing::drain();
    timing::enable();
    let config = MeasureConfig {
        max_sites: Some(sample.len()),
        threads: 1,
        ..MeasureConfig::for_world(world)
    };
    drop(std::hint::black_box(measure_world_columnar_with(
        world, config,
    )));
    if !was_tracing {
        timing::disable();
    }
    let classify_us = timing::drain()
        .iter()
        .find(|s| s.label == "measure/classify")
        .map_or(0.0, |s| s.elapsed.as_secs_f64() * 1e6 / n);
    out.set("measure.classify_us_per_site", classify_us);
    out.set(
        "measure.classify_residual_pct",
        100.0 * (classify_us - crawl_us) / classify_us.max(f64::MIN_POSITIVE),
    );
}

/// Times the full and critical-only reach builds and the three provider
/// rankings over `graph`, and records the memory of the graph and both
/// indexes per site. `dataset_bytes` is the columnar dataset's heap.
pub fn core_layers(graph: &DepGraph, dataset_bytes: usize, sites: usize, out: &mut Outcome) {
    let opts = MetricOptions::full();
    let ((full, crit), reach) = timed(|| {
        (
            ReachIndex::build(graph, false, &opts),
            ReachIndex::build(graph, true, &opts),
        )
    });
    let metrics = Metrics::new(graph);
    let (_, rank) = timed(|| {
        for kind in KINDS {
            std::hint::black_box(metrics.ranking(kind, &opts));
        }
    });
    let per_site = |bytes: usize| bytes as f64 / sites.max(1) as f64;
    out.set("core.reach_ms", reach.as_secs_f64() * 1e3);
    out.set("core.rank_ms", rank.as_secs_f64() * 1e3);
    out.set("core.dataset_bytes_per_site", per_site(dataset_bytes));
    out.set("core.graph_bytes_per_site", per_site(graph.heap_bytes()));
    out.set(
        "core.reach_bytes_per_site",
        per_site(full.heap_bytes() + crit.heap_bytes()),
    );
}

/// Asks "which sites break if provider Y fails?" against the
/// critical-only index for [`QUERY_SECONDS`] from one closed-loop thread,
/// drawing providers uniformly from the ranked kinds. An answer is the
/// dependent count plus the first 24 site ids (the daemon's `SITES`
/// reply); it must agree with the index's count. Records the median
/// answer time as `core.query_us` and counts every answer as a checked
/// operation.
pub fn impact_queries(index: &ReachIndex<'_>, seed: u64, out: &mut Outcome) {
    let graph = index.graph();
    let providers: Vec<NodeId> = KINDS.iter().flat_map(|&k| graph.providers_of(k)).collect();
    assert!(!providers.is_empty(), "the world has no providers to query");
    let budget = Duration::from_secs_f64(QUERY_SECONDS);
    let mut rng = DetRng::new(seed);
    let mut lat = Vec::new();
    let mut wrong = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..64 {
            let p = providers[rng.below(providers.len())];
            let q = Instant::now();
            let (count, head) = match index.dependent_set(p) {
                Some(set) => {
                    let mut d = Digest::default();
                    for site in set.iter().take(24) {
                        d.write(&site.0.to_le_bytes());
                    }
                    (set.count(), d)
                }
                None => (0, Digest::default()),
            };
            lat.push(q.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(head);
            wrong += u64::from(count != index.dependent_count(p));
        }
    }
    out.set("core.query_us", quantile(&lat, 0.50));
    out.attempted += lat.len() as u64;
    out.failed += wrong;
    if wrong > 0 {
        eprintln!("check failed: {wrong} impact answers disagreed with the index");
    }
}
