//! `perfbench` — end-to-end and per-layer benchmark of the webdeps
//! workspace.
//!
//! ```text
//! perfbench --workload <report-100k|scale-500k|serve-100k> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --smoke
//! ```
//!
//! One run builds its inputs from the seed, measures for about
//! `--seconds`, checks the outputs, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). The line before it records the machine the run came from.
//! `--smoke` runs every workload at toy size in both modes and checks
//! that each metric is emitted with its unit. See `README.md` beside
//! this file for what each workload and metric means.

// The repository's counting allocator, shared with its bench harness.
#[path = "../../crates/bench/benches/support/alloc_probe.rs"]
mod alloc_probe;
mod probe;
mod report;
mod scale;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// One metric the benchmark emits.
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Per-layer (traced run) rather than end-to-end.
    pub layer: bool,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: true,
    }
}

/// Every metric, end-to-end first. Each workload reports all of them;
/// a layer that does no work on a workload's path reports 0 there.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("pipeline_s", "s"),
    e2e("peak_rss_mb", "MB"),
    e2e("throughput", "1/s"),
    layer("worldgen.generate_s", "s"),
    layer("worldgen.plan_ms", "ms"),
    layer("worldgen.sites_ms", "ms"),
    layer("measure.row_s", "s"),
    layer("measure.columnar_s", "s"),
    layer("measure.us_per_site", "us"),
    layer("measure.observe_ms", "ms"),
    layer("measure.classify_ms", "ms"),
    layer("measure.assemble_ms", "ms"),
    layer("measure.alloc_calls", "count"),
    layer("measure.alloc_bytes", "B"),
    layer("measure.classify_us_per_site", "us"),
    layer("measure.classify_residual_pct", "%"),
    layer("dns.queries_per_site", "count"),
    layer("dns.cache_hit_ratio", "ratio"),
    layer("dns.resolve_ns", "ns"),
    layer("web.crawl_us", "us"),
    layer("tls.stapled_share", "ratio"),
    layer("core.graph_ms", "ms"),
    layer("core.reach_ms", "ms"),
    layer("core.rank_ms", "ms"),
    layer("core.query_us", "us"),
    layer("core.dataset_bytes_per_site", "B"),
    layer("core.graph_bytes_per_site", "B"),
    layer("core.reach_bytes_per_site", "B"),
    layer("reports.experiments_s", "s"),
    layer("reports.validation_ms", "ms"),
    layer("reports.figure6_ms", "ms"),
    layer("chaos.incidents_ms", "ms"),
    layer("serve.engine_build_s", "s"),
    layer("serve.p50_us", "us"),
    layer("serve.p99_us", "us"),
    layer("serve.rank_p99_us", "us"),
    layer("serve.sites_p99_us", "us"),
    layer("serve.churn_p99_us", "us"),
    layer("serve.service_p50_us", "us"),
    layer("serve.service_p99_us", "us"),
    layer("serve.lateness_p99_us", "us"),
    layer("serve.busy", "count"),
    layer("serve.deadline", "count"),
    layer("serve.patched_share", "ratio"),
    layer("serve.outage_ms", "ms"),
    layer("trace_overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pipeline passes, queries, requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Sets every per-layer metric not yet recorded to 0: that layer
    /// does no work on this workload's path.
    pub fn zero_absent_layers(&mut self) {
        for m in METRICS.iter().filter(|m| m.layer) {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }
}

/// Inputs shared by every workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Site population.
    pub sites: usize,
    /// Worker threads the workload may use (`nproc`).
    pub jobs: usize,
}

/// The three workloads with their full and smoke-test sizes and default
/// seeds.
const WORKLOADS: &[(&str, usize, usize, u64)] = &[
    ("report-100k", 100_000, 2_000, 42),
    ("scale-500k", 500_000, 5_000, 7),
    ("serve-100k", 100_000, 2_000, 42),
];

/// Output digests pinned for known inputs, one `workload seed sites
/// digest` line each (see `digests.txt`).
const PINNED: &str = include_str!("../digests.txt");

/// Checks a run's pipeline-pass digests: every pass must match the
/// first, and the first must match the digest pinned for this workload,
/// seed and size, if one is. Prints the run's own `digests.txt` line.
pub fn check_digests(out: &mut Outcome, workload: &str, p: &Params, digests: &[String]) {
    let first = &digests[0];
    eprintln!("digest {workload} {} {} {first}", p.seed, p.sites);
    for (i, d) in digests.iter().enumerate() {
        out.check(
            d == first,
            &format!("{workload} digest of pass {i} differs from pass 0"),
        );
    }
    let key = [
        workload.to_string(),
        p.seed.to_string(),
        p.sites.to_string(),
    ];
    let pinned = PINNED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[..3] == key).then(|| f[3])
    });
    if let Some(pinned) = pinned {
        out.check(
            first == pinned,
            &format!("{workload} digest {first} differs from the pinned {pinned}"),
        );
    }
}

fn run_workload(name: &str, p: &Params) -> Outcome {
    let mut out = match name {
        "report-100k" => report::run(p),
        "scale-500k" => scale::run(p),
        "serve-100k" => serve::run(p),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    out.zero_absent_layers();
    out
}

/// Renders the result line: exactly the metrics of the run's mode, in
/// registry order. A missing metric is a benchmark bug.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in METRICS.iter().filter(|m| m.layer == trace) {
        let v = out
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build a result came from.
fn meta_json(workload: &str, p: &Params) -> String {
    // Only a checkout that is itself a git work tree names its commit;
    // git must not look for one in the directories above it.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {}, \"sites\": {}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"webdeps_jobs\": {}, \
         \"rustc\": \"{}\", \"commit\": \"{commit}\"}}}}",
        p.seed,
        p.sites,
        p.seconds,
        p.trace,
        nproc(),
        p.jobs,
        command_line("rustc", &["-V"]),
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|(name, ..)| *name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload or --smoke is required".into());
    }
    Ok(args)
}

/// Runs every workload at toy size, untraced and traced, and checks the
/// emitted metric names and units against the registry and, when
/// present, against `BENCHMARK.json`.
fn smoke(jobs: usize) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json").ok();
    for &(name, _, toy, seed) in WORKLOADS {
        if let Some(json) = &declared {
            if !json.contains(&format!("\"{name}\"")) {
                return Err(format!("workload {name} is not declared in BENCHMARK.json"));
            }
        }
        for trace in [false, true] {
            let p = Params {
                seed,
                seconds: 1.0,
                trace,
                sites: toy,
                jobs,
            };
            let out = run_workload(name, &p);
            let line = result_json(&out, trace)?;
            for m in METRICS.iter().filter(|m| m.layer == trace) {
                let needle = format!("\"{}\": {{\"value\": ", m.name);
                let unit = format!("\"unit\": \"{}\"", m.unit);
                if !line.contains(&needle) || !line.contains(&unit) {
                    return Err(format!(
                        "{name}: {} not emitted with unit {}",
                        m.name, m.unit
                    ));
                }
                if let Some(json) = &declared {
                    let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                    if !json.contains(&entry) {
                        return Err(format!(
                            "{} ({}) is not declared in BENCHMARK.json",
                            m.name, m.unit
                        ));
                    }
                }
            }
            if out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{name} (trace {trace}): {} of {} operations failed",
                    out.failed, out.attempted
                ));
            }
            eprintln!(
                "smoke {name} trace={trace}: ok ({} operations)",
                out.attempted
            );
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Pin the library's worker count to the machine before any worker
    // starts, so every run on one box uses the same parallelism, and arm
    // the allocation probe for the untimed counting calls.
    let jobs = nproc();
    std::env::set_var("WEBDEPS_JOBS", jobs.to_string());
    std::env::set_var("WEBDEPS_BENCH_ALLOC", "1");

    if args.smoke {
        return match smoke(jobs) {
            Ok(()) => {
                println!("smoke: every workload emitted every metric");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let name = args.workload.expect("checked in parse_args");
    let &(_, sites, _, default_seed) = WORKLOADS
        .iter()
        .find(|(w, ..)| *w == name)
        .expect("checked in parse_args");
    let p = Params {
        seed: args.seed.unwrap_or(default_seed),
        seconds: args.seconds,
        trace: args.trace,
        sites,
        jobs,
    };
    println!("{}", meta_json(&name, &p));
    let out = run_workload(&name, &p);
    match result_json(&out, p.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
