//! `serve-100k`: the resident daemon on a 100k-site world, driven by an
//! open-loop generator — one thread, pipelined connections, every
//! request timed from the instant it was due.
//!
//! The mix is about 45% `SITES`, 25% `RANK` (dns/cdn), 10% `PING` and
//! 20% `CHURN`, sent as `ADD-SITE`/`RM-SITE` pairs on one edge and one
//! connection so the index returns to its start state. The untraced run
//! saturates the daemon for its throughput; the traced run offers one
//! fixed rate for the client-side latency quantiles.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdeps_core::DepGraph;
use webdeps_measure::{measure_world, ColumnarDataset};
use webdeps_model::{timing, DetRng, ServiceKind, SiteId};
use webdeps_serve::{
    connect, roundtrip, spawn, Engine, Outcome as EngineOutcome, Request, ServerConfig,
    ServerHandle, ServerStats,
};
use webdeps_worldgen::{SnapshotYear, World, WorldConfig};

use crate::probe;
use crate::util::{allocations, median, peak_rss_mb, quantile, release_freed_memory, timed};
use crate::{Outcome, Params};

/// Seed of the served world. A daemon serves one dataset while its
/// clients' requests vary, so `--seed` draws the request stream and the
/// world stays the same: from one world to the next the cost of the mix
/// moves by about 10%, which would otherwise add to the run-to-run
/// spread of `throughput`.
const WORLD_SEED: u64 = 42;

/// World generations timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Of those set-ups, the last this many also bring the daemon up; the
/// median bring-up is `pipeline_s`.
const BUILD_REPS: usize = 3;

/// Offered rate of the fixed-rate phase, requests per second: about
/// half the saturated throughput (about 65 000/s on two vCPUs) on the
/// commit that introduced this benchmark, frozen so later commits are
/// measured at the same load.
const FIXED_RATE: f64 = 32_000.0;

/// Requests per saturation burst: one burst keeps the pipeline full
/// for about 0.1 s.
const BURST: usize = 8_192;

/// Fresh daemon instances the fixed-rate phase is split over.
const FIXED_SEGMENTS: usize = 3;

/// Provider keys per kind the mix draws from: the most depended-on.
const MIX_KEYS: usize = 256;

/// Pipelined client connections of the generator at the fixed rate.
const CONNECTIONS: usize = 2;

/// Replies are small; a frame above this is a protocol error.
const MAX_FRAME: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Sites,
    Rank,
    Ping,
    Churn,
}

/// One scheduled request.
struct Slot {
    at: Duration,
    conn: usize,
    verb: Verb,
    payload: String,
}

/// Inputs the mix draws from.
struct MixInputs {
    dns_keys: Vec<String>,
    cdn_keys: Vec<String>,
    sites: Vec<SiteId>,
}

/// Draws one arrival of the mix for connection `conn` of `conns`: one
/// request, or a churn pair. Arrival shares 50/27.8/11.1/11.1 give
/// request shares of about 45% `SITES`, 25% `RANK`, 10% `PING` and 20%
/// `CHURN`, since a pair is two requests. Sites are split by index
/// between the connections so concurrent pairs never touch the same
/// edge.
fn arrival(inputs: &MixInputs, rng: &mut DetRng, conn: usize, conns: usize) -> Vec<(Verb, String)> {
    let kind_keys = |rng: &mut DetRng| {
        if rng.below(2) == 0 {
            ("dns", &inputs.dns_keys)
        } else {
            ("cdn", &inputs.cdn_keys)
        }
    };
    let draw = rng.unit();
    if draw < 0.5 {
        let (kind, keys) = kind_keys(rng);
        let key = &keys[rng.below(keys.len())];
        vec![(Verb::Sites, format!("SITES {kind} {key}"))]
    } else if draw < 0.5 + 0.25 / 0.9 {
        let kind = if rng.below(2) == 0 { "dns" } else { "cdn" };
        vec![(Verb::Rank, format!("RANK {kind} 10"))]
    } else if draw < 0.5 + 0.35 / 0.9 {
        vec![(Verb::Ping, "PING".to_string())]
    } else {
        let site = inputs.sites[rng.below(inputs.sites.len() / conns) * conns + conn].0;
        let (kind, keys) = kind_keys(rng);
        let key = &keys[rng.below(keys.len())];
        let crit = if rng.below(2) == 0 {
            "critical"
        } else {
            "shared"
        };
        ["ADD-SITE", "RM-SITE"]
            .iter()
            .map(|op| {
                (
                    Verb::Churn,
                    format!("CHURN {op} {site} {kind} {key} {crit}"),
                )
            })
            .collect()
    }
}

/// Builds an open-loop schedule of `rate` requests per second for
/// `seconds` over [`CONNECTIONS`] connections, with exponential gaps; a
/// churn pair takes two gaps.
fn schedule(inputs: &MixInputs, rng: &mut DetRng, rate: f64, seconds: f64) -> Vec<Slot> {
    let mut slots = Vec::new();
    let mut t = 0.0f64;
    let mut conn = 0usize;
    while t < seconds {
        let at = Duration::from_secs_f64(t);
        for (verb, payload) in arrival(inputs, rng, conn, CONNECTIONS) {
            slots.push(Slot {
                at,
                conn,
                verb,
                payload,
            });
            t += exp_gap(rng, rate);
        }
        conn = (conn + 1) % CONNECTIONS;
    }
    slots
}

/// `n` or so requests of the mix over `conns` connections, all due at
/// once.
fn burst(inputs: &MixInputs, rng: &mut DetRng, n: usize, conns: usize) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(n + 1);
    let mut conn = 0usize;
    while slots.len() < n {
        for (verb, payload) in arrival(inputs, rng, conn, conns) {
            slots.push(Slot {
                at: Duration::ZERO,
                conn,
                verb,
                payload,
            });
        }
        conn = (conn + 1) % conns;
    }
    slots
}

fn exp_gap(rng: &mut DetRng, rate: f64) -> f64 {
    -(1.0 - rng.unit()).ln() / rate
}

/// Client-side results of driving one schedule.
#[derive(Default)]
struct Drive {
    /// `(verb, latency µs from the due time)` of every answered request.
    latencies: Vec<(Verb, f64)>,
    /// Generator lateness per request, µs.
    lateness: Vec<f64>,
    /// Replies that were not `OK` (BUSY, DEADLINE, ERR) or never came.
    misses: u64,
    sent: u64,
}

impl Drive {
    fn latencies(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, l)| l).collect()
    }
}

/// What a saturation phase sent, missed and measured.
#[derive(Default)]
struct Saturation {
    sent: u64,
    misses: u64,
    /// `OK` replies per second of each burst.
    rates: Vec<f64>,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<(Instant, Verb)>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = connect(handle.addr(), 5_000).expect("connect to the daemon");
        stream
            .set_nonblocking(true)
            .expect("non-blocking client socket");
        Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        }
    }

    fn push(&mut self, payload: &str, due: Instant, verb: Verb) {
        self.out
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.out.extend_from_slice(payload.as_bytes());
        self.inflight.push_back((due, verb));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived and settles every complete reply.
    fn receive(&mut self, drive: &mut Drive) -> std::io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        let mut at = 0;
        while self.inbuf.len() - at >= 4 {
            let len =
                u32::from_be_bytes(self.inbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                return Err(ErrorKind::InvalidData.into());
            }
            if self.inbuf.len() - at < 4 + len {
                break;
            }
            let ok = self.inbuf[at + 4..at + 4 + len].starts_with(b"OK ");
            at += 4 + len;
            let Some((due, verb)) = self.inflight.pop_front() else {
                return Err(ErrorKind::InvalidData.into());
            };
            if ok {
                drive
                    .latencies
                    .push((verb, now.duration_since(due).as_secs_f64() * 1e6));
            } else {
                drive.misses += 1;
            }
        }
        self.inbuf.drain(..at);
        Ok(())
    }
}

/// Sends `slots` on schedule from one thread over `connections`
/// pipelined connections and collects every reply. Replies still
/// missing two seconds after the last send count as misses.
fn drive(handle: &ServerHandle, slots: &[Slot], connections: usize) -> Drive {
    let mut conns: Vec<Conn> = (0..connections).map(|_| Conn::open(handle)).collect();
    let mut d = Drive::default();
    let t0 = Instant::now() + Duration::from_millis(1);
    let end = t0 + slots.last().map_or(Duration::ZERO, |s| s.at);
    let give_up = end + Duration::from_secs(2);
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < slots.len() && t0 + slots[next].at <= now {
            let s = &slots[next];
            let due = t0 + s.at;
            conns[s.conn].push(&s.payload, due, s.verb);
            d.lateness.push(now.duration_since(due).as_secs_f64() * 1e6);
            d.sent += 1;
            next += 1;
        }
        for c in conns.iter_mut() {
            if c.flush().and_then(|()| c.receive(&mut d)).is_err() {
                d.misses += c.inflight.len() as u64;
                c.inflight.clear();
                c.out.clear();
            }
        }
        let pending: usize = conns.iter().map(|c| c.inflight.len()).sum();
        if next == slots.len() && pending == 0 {
            return d;
        }
        let now = Instant::now();
        if now >= give_up {
            d.misses += pending as u64;
            return d;
        }
        let until = match slots.get(next) {
            Some(s) => (t0 + s.at).saturating_duration_since(now),
            None => give_up - now,
        };
        if !until.is_zero() {
            wait(&conns, until);
        }
    }
}

mod sys {
    //! The Linux calls std lacks: waiting on several sockets with a
    //! sub-millisecond timeout, and exact timer wake-ups.
    use std::os::raw::{c_int, c_long, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Waits until a socket is ready or `timeout` passes.
fn wait(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
            revents: 0,
        })
        .collect();
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // structs with the C `pollfd` layout, `ts` outlives the call, and a
    // null signal mask leaves the mask unchanged. An error or early
    // wake-up only ends the wait early, which the caller's loop allows.
    unsafe {
        sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null());
    }
}

/// Asks the kernel for exact timer wake-ups on this thread, so the
/// generator sends on time instead of up to 50 µs late.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes
    // only the calling thread; the other arguments are ignored.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Synchronous query on its own connection, reply minus the epoch.
fn ask(handle: &ServerHandle, query: &str) -> String {
    let mut s = connect(handle.addr(), 5_000).expect("connect to the daemon");
    let reply = roundtrip(&mut s, query, MAX_FRAME).expect("daemon reply");
    let text = String::from_utf8_lossy(&reply).to_string();
    // `OK <epoch> …`: the epoch moves with churn, the answer must not.
    let mut parts = text.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("OK"), Some(_epoch), Some(rest)) => format!("OK {rest}"),
        _ => text,
    }
}

/// The `limit` providers of `kind` with the most dependent sites, most
/// first, as the engine's own `RANK` reply orders them
/// (`OK <epoch> RANK <kind> <n> key=impact/conc ...`).
fn ranked_keys(engine: &Engine, kind: ServiceKind, limit: usize) -> Vec<String> {
    let reply = match engine.execute(
        &Request::Rank { kind, top: limit },
        Instant::now() + Duration::from_secs(600),
        &ServerStats::new(),
    ) {
        EngineOutcome::Ok(reply) => reply,
        _ => panic!("RANK {kind:?} {limit} did not complete"),
    };
    reply
        .split(' ')
        .skip(5)
        .filter_map(|row| row.rsplit_once('=').map(|(key, _)| key.to_string()))
        .collect()
}

fn server_config(jobs: usize) -> ServerConfig {
    ServerConfig {
        workers: jobs,
        queue_cap: 64,
        deadline_ms: 2_000,
        read_timeout_ms: 60_000,
        ..ServerConfig::default()
    }
}

/// Builds the engine on `world`, serves it and waits for the first
/// `PING`. Returns ready and build times with the engine and the
/// world's site ids; the daemon stops after the timer.
fn bring_up(
    world: World,
    p: &Params,
    probe_layers: Option<&mut Outcome>,
) -> (f64, f64, Arc<Engine>, Vec<SiteId>) {
    let sites: Vec<SiteId> = world.listings().iter().map(|l| l.id).collect();
    if let Some(out) = probe_layers {
        probe::record_spans(out);
        layer_probe(&world, p, out);
    }
    let start = Instant::now();
    let (engine, build) = timed(|| Arc::new(Engine::from_world(world, false, false)));
    let handle = spawn(Arc::clone(&engine), server_config(p.jobs)).expect("bind the daemon");
    let pong = ask(&handle, "PING");
    assert!(pong.starts_with("OK"), "first PING answered {pong:?}");
    let ready = start.elapsed();
    handle.shutdown();
    (ready.as_secs_f64(), build.as_secs_f64(), engine, sites)
}

/// The layers `Engine::from_world` runs internally, timed from outside
/// on the same world: row measure, graph, reach, rank, plus the
/// substrate probe.
fn layer_probe(world: &World, p: &Params, out: &mut Outcome) {
    // Allocations are counted in a measure call of their own, so that
    // the timed call does not pay for the counting.
    let (calls, bytes) = allocations(|| measure_world(world));
    let (ds, measure) = timed(|| measure_world(world));
    out.set("measure.alloc_calls", calls as f64);
    out.set("measure.alloc_bytes", bytes as f64);
    out.set("measure.row_s", measure.as_secs_f64());
    out.set(
        "measure.us_per_site",
        measure.as_secs_f64() * 1e6 / p.sites as f64,
    );
    let (graph, graph_t) = timed(|| DepGraph::from_dataset(&ds));
    out.set("core.graph_ms", graph_t.as_secs_f64() * 1e3);
    let dataset_bytes = ColumnarDataset::from_rows(&ds).heap_bytes();
    drop(ds);
    probe::core_layers(&graph, dataset_bytes, p.sites, out);
    drop(graph);
    probe::substrate(world, out);
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    tighten_timer_slack();

    // Set-up repetitions: generation (`setup_s`), then on the last
    // [`BUILD_REPS`] engine build to first PING (`pipeline_s`). The
    // traced run probes the layers on the last world and records spans
    // while the last engine builds.
    let config = WorldConfig {
        seed: WORLD_SEED,
        n_sites: p.sites,
        year: SnapshotYear::Y2020,
    };
    let mut gens = Vec::new();
    let mut readies = Vec::new();
    let mut builds = Vec::new();
    let mut live = None;
    let mut layers = Outcome::default();
    for rep in 0..SETUP_REPS {
        // The previous world's or engine's teardown, untimed.
        drop(live.take());
        release_freed_memory();
        let traced = p.trace && rep + 1 == SETUP_REPS;
        if traced {
            let _ = timing::drain();
            timing::enable();
        }
        let (world, gen) = timed(|| World::generate(config));
        gens.push(gen.as_secs_f64());
        if rep + BUILD_REPS < SETUP_REPS {
            // Generation only; the world's teardown is untimed.
            drop(world);
            continue;
        }
        let (ready, build, engine, sites) = bring_up(world, p, traced.then_some(&mut layers));
        timing::disable();
        readies.push(ready);
        builds.push(build);
        live = Some((engine, sites));
    }
    let (engine, sites) = live.expect("at least one set-up");

    let inputs = MixInputs {
        dns_keys: ranked_keys(&engine, ServiceKind::Dns, MIX_KEYS),
        cdn_keys: ranked_keys(&engine, ServiceKind::Cdn, MIX_KEYS),
        sites,
    };
    assert!(
        !inputs.dns_keys.is_empty() && !inputs.cdn_keys.is_empty(),
        "the world has DNS and CDN providers"
    );
    // Before/after checks: both rankings and the four most depended-on
    // providers of each kind.
    let checks: Vec<String> = ["RANK dns 10".to_string(), "RANK cdn 10".to_string()]
        .into_iter()
        .chain(
            inputs
                .dns_keys
                .iter()
                .take(4)
                .map(|k| format!("SITES dns {k}")),
        )
        .chain(
            inputs
                .cdn_keys
                .iter()
                .take(4)
                .map(|k| format!("SITES cdn {k}")),
        )
        .collect();

    let mut rng = DetRng::new(p.seed);
    if !p.trace {
        // Saturation: the generator thread and the daemon's workers
        // together take `nproc` threads, one connection per worker, so
        // the rate measures the daemon rather than the scheduler.
        let workers = p.jobs.saturating_sub(1).max(1);
        let daemon = spawn(Arc::clone(&engine), server_config(workers)).expect("bind the daemon");
        let before: Vec<String> = checks.iter().map(|q| ask(&daemon, q)).collect();
        let load = saturate(&daemon, &inputs, &mut rng, p.seconds, workers);
        let after: Vec<String> = checks.iter().map(|q| ask(&daemon, q)).collect();
        let stats = daemon.stats();
        daemon.shutdown();
        check_load(
            &mut out,
            (load.sent, load.misses),
            &checks,
            &before,
            &after,
            &[stats],
        );
        out.set("setup_s", median(&gens));
        out.set("pipeline_s", median(&readies));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("throughput", median(&load.rates));
        return out;
    }

    // The fixed rate runs on fresh daemon instances, one per segment:
    // where an instance's worker threads settle relative to the
    // generator shifts its median by several microseconds, and pooling
    // three instances averages that out of `serve.p50_us`.
    let mut d = Drive::default();
    let mut daemons: Vec<Arc<ServerStats>> = Vec::new();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for segment in 0..FIXED_SEGMENTS {
        let daemon = spawn(Arc::clone(&engine), server_config(p.jobs)).expect("bind the daemon");
        if segment == 0 {
            before = checks.iter().map(|q| ask(&daemon, q)).collect();
        }
        let slots = schedule(
            &inputs,
            &mut rng,
            FIXED_RATE,
            p.seconds / FIXED_SEGMENTS as f64,
        );
        let part = drive(&daemon, &slots, CONNECTIONS);
        d.latencies.extend(part.latencies);
        d.lateness.extend(part.lateness);
        d.misses += part.misses;
        d.sent += part.sent;
        if segment + 1 == FIXED_SEGMENTS {
            after = checks.iter().map(|q| ask(&daemon, q)).collect();
        }
        daemons.push(daemon.stats());
        daemon.shutdown();
    }
    let total = |counter: fn(&ServerStats) -> &AtomicU64| -> f64 {
        daemons
            .iter()
            .map(|s| ServerStats::read(counter(s)))
            .sum::<u64>() as f64
    };
    let service = |q: f64| -> f64 {
        let per: Vec<f64> = daemons
            .iter()
            .map(|s| s.latency.quantile_micros(q) as f64)
            .collect();
        median(&per)
    };
    check_load(
        &mut out,
        (d.sent, d.misses),
        &checks,
        &before,
        &after,
        &daemons,
    );

    let all = d.latencies();
    out = merge(out, layers);
    probe::record_spans(&mut out);
    let verb_p99 = |v: Verb| {
        let l: Vec<f64> = d
            .latencies
            .iter()
            .filter(|(w, _)| *w == v)
            .map(|&(_, l)| l)
            .collect();
        quantile(&l, 0.99)
    };
    out.set("worldgen.generate_s", median(&gens));
    out.set("serve.engine_build_s", median(&builds));
    out.set("serve.p50_us", quantile(&all, 0.50));
    out.set("serve.p99_us", quantile(&all, 0.99));
    out.set("serve.rank_p99_us", verb_p99(Verb::Rank));
    out.set("serve.sites_p99_us", verb_p99(Verb::Sites));
    out.set("serve.churn_p99_us", verb_p99(Verb::Churn));
    out.set("serve.service_p50_us", service(0.50));
    out.set("serve.service_p99_us", service(0.99));
    out.set("serve.lateness_p99_us", quantile(&d.lateness, 0.99));
    out.set("serve.busy", total(|s| &s.sheds));
    out.set("serve.deadline", total(|s| &s.deadlines));
    let patched = total(|s| &s.churn_patched);
    let rebuilt = total(|s| &s.churn_rebuilt);
    out.set(
        "serve.patched_share",
        patched / (patched + rebuilt).max(1.0),
    );
    let top_dns = inputs.dns_keys[0].clone();
    let (outage, took) = timed(|| {
        engine.execute(
            &Request::Outage { key: top_dns },
            Instant::now() + Duration::from_secs(600),
            &ServerStats::new(),
        )
    });
    out.check(
        matches!(outage, EngineOutcome::Ok(_)),
        "OUTAGE of the top DNS provider did not complete",
    );
    out.set("serve.outage_ms", took.as_secs_f64() * 1e3);
    out.set(
        "trace_overhead_pct",
        100.0 * (readies[readies.len() - 1] / median(&readies[..readies.len() - 1]) - 1.0),
    );
    out
}

/// Counts the load's requests and checks its outcome: every request
/// answered `OK`, the check queries answered the same after the load as
/// before it, and no panic contained by any daemon instance.
fn check_load(
    out: &mut Outcome,
    (sent, misses): (u64, u64),
    checks: &[String],
    before: &[String],
    after: &[String],
    daemons: &[Arc<ServerStats>],
) {
    out.attempted += sent;
    out.failed += misses;
    if misses > 0 {
        eprintln!("check failed: {misses} requests were not answered OK");
    }
    for (q, (b, a)) in checks.iter().zip(before.iter().zip(after)) {
        out.check(
            b == a && b.starts_with("OK"),
            &format!("{q:?} answered {b:?} before the load and {a:?} after"),
        );
    }
    let panics: u64 = daemons
        .iter()
        .map(|s| ServerStats::read(&s.contained_panics))
        .sum();
    out.check(panics == 0, "the daemon contained a panic");
}

fn merge(mut out: Outcome, layers: Outcome) -> Outcome {
    out.attempted += layers.attempted;
    out.failed += layers.failed;
    out.metrics.extend(layers.metrics);
    out
}

/// Saturates the daemon with bursts of [`BURST`] requests over
/// `conns` connections, all due at once, until `seconds` pass. Returns
/// the requests sent and missed, with the `OK` replies per second of
/// each burst in `rates`; building a burst is not timed.
fn saturate(
    handle: &ServerHandle,
    inputs: &MixInputs,
    rng: &mut DetRng,
    seconds: f64,
    conns: usize,
) -> Saturation {
    let start = Instant::now();
    let mut load = Saturation::default();
    while start.elapsed().as_secs_f64() < seconds {
        let slots = burst(inputs, rng, BURST, conns);
        let (d, took) = timed(|| drive(handle, &slots, conns));
        load.rates
            .push(d.latencies.len() as f64 / took.as_secs_f64());
        load.sent += d.sent;
        load.misses += d.misses;
    }
    load
}
