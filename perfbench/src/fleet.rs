//! `fleet-cold`: a `wasmperf-fleet up --shards 2 --workers 1` subprocess
//! fleet, its shards persisting results (`--results`, the deployed
//! topology), driven by one closed-loop keep-alive connection to its
//! router. Each request is a distinct generated program, so every request
//! compiles, executes, and writes both caches and the result store.
//!
//! One connection, because with two a trial's p50 on short named kernels
//! ranged from 2.56 to 3.21 ms while one connection held it within 3%: on
//! a two-core host, a second client mostly measures the scheduler.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wasmperf_benchsuite::Size;
use wasmperf_browsix::AppendPolicy;
use wasmperf_harness::farm::encode_result;
use wasmperf_harness::{execute_with_fuel, prepare, RunResult, DEFAULT_FUEL};
use wasmperf_serve::exec::Target;
use wasmperf_serve::{fuel_for_deadline, Client, Registry, Response, RunRequest};
use wasmperf_trace::Json;

use crate::hostspeed::Probe;
use crate::stats::{band_mean, median, Rng};
use crate::trace::Tracer;
use crate::{layers, procfs, Args, Report, ENGINES};

/// Fleet set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Short named test-size kernels, one request each per engine, that warm
/// every fleet up in set-up. Their jobs share no key with the pool, so no
/// timed request can hit a cache they filled, and set-up times real work
/// rather than process-spawn jitter alone.
const WARM_UP_KERNELS: [&str; 7] = [
    "io.fsmeta",
    "ludcmp",
    "cholesky",
    "lu",
    "durbin",
    "trisolv",
    "gesummv",
];

/// Generated programs screened per second of measurement; a run whose
/// pool runs out ends its timed phase early.
const COLD_POOL_PER_SECOND: f64 = 800.0;

/// Requests of a traced run alternate between untraced and traced blocks
/// of this size, so `trace.overhead_ratio` compares like with like.
const TRACE_BLOCK: usize = 50;

/// `peak_rss_mb` is read after this many requests. The caches grow with
/// every request, so reading at a fixed request count instead
/// of at the end keeps the metric independent of throughput.
const RSS_AFTER: usize = 2000;

/// Window over which rates and percentiles are taken, seconds.
const WINDOW_S: f64 = 1.0;

/// The client runs the host speed probe after every this many requests;
/// each request's latency is normalised by the probes on either side of
/// its block.
const PROBE_EVERY: usize = 10;

/// The in-process replay covers this many requests, and the exact
/// simulated counts sum over this many programs of the pool.
const COLD_REPLAY: usize = 300;

// ---------------------------------------------------------------------
// The fleet process

/// A running `wasmperf-fleet up`: the supervisor (which hosts the router)
/// and its shard subprocesses. Dropping it drains the fleet, kills
/// whatever did not exit, waits for every process, and removes its
/// result-store directory.
struct Fleet {
    child: Child,
    stdout_thread: Option<JoinHandle<()>>,
    router: String,
    shard_pids: Vec<u32>,
    results: PathBuf,
    done: bool,
}

impl Fleet {
    fn up(bin: &Path, results: PathBuf) -> Result<Fleet, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["up", "--shards", "2", "--workers", "1", "--port", "0"]);
        cmd.arg("--results").arg(&results);
        // Its own process group, so a fleet that will not drain can be
        // killed whole, shards included, even before their pids are known.
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        let stdout_thread = std::thread::spawn(move || {
            // Forward the contract lines, then keep the pipe drained until
            // the supervisor exits.
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut fleet = Fleet {
            child,
            stdout_thread: Some(stdout_thread),
            router: String::new(),
            shard_pids: Vec::new(),
            results,
            done: false,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while fleet.router.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "wasmperf-fleet up printed no router address".to_string())?;
            let (shard_pid, router) = parse_up_line(&line);
            fleet.shard_pids.extend(shard_pid);
            if let Some(addr) = router {
                fleet.router = addr;
            }
        }
        if fleet.shard_pids.len() != 2 {
            return Err(format!("expected 2 shard pids, got {:?}", fleet.shard_pids));
        }
        while fleet.live_shards()? != 2 {
            if Instant::now() >= deadline {
                return Err("shards never became live".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(fleet)
    }

    fn live_shards(&self) -> Result<u64, String> {
        let health = get_json(&self.router, "/healthz")?;
        health
            .get("live")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/healthz without live count: {}", health.render()))
    }

    fn metrics(&self) -> Result<CacheCounters, String> {
        let m = get_json(&self.router, "/metrics")?;
        CacheCounters::from_metrics(&m).ok_or_else(|| "/metrics without a cache section".into())
    }

    /// Peak resident memory summed over the supervisor and the shards.
    fn peak_rss_kb(&self) -> Result<u64, String> {
        let mut total = 0;
        for pid in std::iter::once(self.child.id()).chain(self.shard_pids.iter().copied()) {
            if !procfs::alive(pid) {
                return Err(format!("fleet process {pid} exited during the run"));
            }
            total += procfs::vm_hwm_kb(&pid.to_string())?;
        }
        Ok(total)
    }

    /// Bytes in the result-store directory.
    fn store_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.results)
    }

    /// Drains the fleet through the router and reaps every process. A
    /// fleet that does not drain in time is killed; the error says so.
    fn shut_down(&mut self) -> Result<(), String> {
        if std::mem::replace(&mut self.done, true) {
            return Ok(());
        }
        let mut problems = Vec::new();
        if !self.router.is_empty() {
            if let Err(e) =
                Client::connect(&self.router).and_then(|mut c| c.request("POST", "/shutdown", b""))
            {
                problems.push(format!("shutdown request: {e}"));
            }
        }
        let group = self.child.id();
        let deadline = Instant::now() + Duration::from_secs(20);
        while matches!(self.child.try_wait(), Ok(None)) {
            if Instant::now() >= deadline {
                problems.push("supervisor did not exit; killed the fleet".into());
                procfs::kill_group(group);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.wait();
        let left = procfs::wait_gone(&self.shard_pids, Duration::from_secs(10));
        if !left.is_empty() {
            problems.push(format!("shards {left:?} did not exit; killed"));
            procfs::kill_group(group);
            procfs::wait_gone(&left, Duration::from_secs(10));
        }
        if let Some(thread) = self.stdout_thread.take() {
            let _ = thread.join();
        }
        if let Err(e) = std::fs::remove_dir_all(&self.results) {
            if e.kind() != std::io::ErrorKind::NotFound {
                problems.push(format!("removing {}: {e}", self.results.display()));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Err(e) = self.shut_down() {
            eprintln!("perfbench: fleet clean-up: {e}");
        }
    }
}

/// Parses one stdout line of `wasmperf-fleet up`: a shard line yields its
/// pid, the router line its address.
fn parse_up_line(line: &str) -> (Option<u32>, Option<String>) {
    if let Some(rest) = line.strip_prefix("wasmperf-fleet router listening on ") {
        return (None, Some(rest.trim().to_string()));
    }
    if line.starts_with("wasmperf-fleet shard ") {
        let pid = line
            .rsplit_once(" pid ")
            .and_then(|(_, p)| p.trim().parse().ok());
        return (pid, None);
    }
    (None, None)
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let resp = Client::connect(addr)
        .and_then(|mut c| c.get(path))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    resp.body_json()
}

/// The cache counters of a `/metrics` snapshot (summed across shards by
/// the router).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CacheCounters {
    artifact_builds: u64,
    artifact_hits: u64,
    result_hits: u64,
    result_misses: u64,
    store_hits: u64,
}

impl CacheCounters {
    fn from_metrics(m: &Json) -> Option<CacheCounters> {
        let cache = m.get("cache")?;
        let field = |name: &str| cache.get(name).and_then(Json::as_u64);
        Some(CacheCounters {
            artifact_builds: field("artifact_builds")?,
            artifact_hits: field("artifact_hits")?,
            result_hits: field("result_hits")?,
            result_misses: field("result_misses")?,
            store_hits: field("store_hits")?,
        })
    }

    /// Counter growth from `earlier` to `self`; `None` if any counter
    /// went backwards (a shard restarted in between).
    fn since(&self, earlier: &CacheCounters) -> Option<CacheCounters> {
        Some(CacheCounters {
            artifact_builds: self.artifact_builds.checked_sub(earlier.artifact_builds)?,
            artifact_hits: self.artifact_hits.checked_sub(earlier.artifact_hits)?,
            result_hits: self.result_hits.checked_sub(earlier.result_hits)?,
            result_misses: self.result_misses.checked_sub(earlier.result_misses)?,
            store_hits: self.store_hits.checked_sub(earlier.store_hits)?,
        })
    }

    fn artifact_hit_ratio(&self) -> f64 {
        ratio(
            self.artifact_hits,
            self.artifact_hits + self.artifact_builds,
        )
    }

    fn result_hit_ratio(&self) -> f64 {
        ratio(self.result_hits, self.result_hits + self.result_misses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------
// Workload inputs

/// One distinct request of the workload, with the in-process result its
/// response must reproduce byte for byte.
struct Cell {
    body: Vec<u8>,
    engine: usize,
    req: RunRequest,
    /// Filled by the screen, before the timed phase.
    expected: Option<RunResult>,
}

fn request(target: Target, engine: usize, deadline_ms: Option<f64>) -> Cell {
    let mut fields = Vec::new();
    match &target {
        Target::Named(name) => {
            fields.push(("bench".to_string(), Json::Str(name.clone())));
            fields.push(("size".to_string(), Json::Str("test".into())));
        }
        Target::Source(src) => fields.push(("source".to_string(), Json::Str(src.clone()))),
    }
    fields.push(("engine".to_string(), Json::Str(ENGINES[engine].into())));
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Json::Num(ms)));
    }
    let body = Json::Obj(fields).render().into_bytes();
    Cell {
        body,
        engine,
        req: RunRequest {
            target,
            engine: ENGINES[engine].to_string(),
            size: Size::Test,
            deadline_ms,
        },
        expected: None,
    }
}

/// Runs a request in process exactly as a shard would: the same registry
/// resolution, `prepare`, and `execute_with_fuel`.
fn run_in_process(registry: &Registry, req: &RunRequest) -> Result<RunResult, String> {
    let (bench, engine) = registry.resolve(req).map_err(|e| e.to_json().render())?;
    let fuel = req.deadline_ms.map_or(DEFAULT_FUEL, fuel_for_deadline);
    let artifact = prepare(&bench, &engine).map_err(|e| e.to_string())?;
    execute_with_fuel(&bench, &engine, &artifact, AppendPolicy::Chunked4K, fuel)
        .map_err(|e| e.to_string())
}

/// The set-up warm-up requests: every warm-up kernel × engine.
fn warm_up_cells() -> Vec<Cell> {
    WARM_UP_KERNELS
        .iter()
        .flat_map(|k| (0..ENGINES.len()).map(move |e| (k, e)))
        .map(|(k, e)| request(Target::Named(k.to_string()), e, None))
        .collect()
}

/// Runs one generated program in process on `engine`; `None` if it fails
/// or traps (the generator traps on purpose now and then, which the
/// service answers with a 422).
fn run_source(registry: &Registry, src: &str, engine: usize) -> Option<RunResult> {
    let req = request(Target::Source(src.to_string()), engine, None).req;
    run_in_process(registry, &req).ok()
}

/// One program of the pool: its source, the engine it is sent
/// to, and its in-process result there.
type Screened = (String, usize, RunResult);

/// The workload's pool: `want` distinct generated programs, drawn from
/// the workload seed, each assigned an engine in turn and kept only if
/// it returns normally there, with that result. Also returns how many
/// candidates the screen rejected.
fn cold_pool(registry: &Registry, seed: u64, want: usize) -> (Vec<Screened>, usize) {
    let mut rng = Rng::new(seed);
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(want);
    let mut rejected = 0;
    let mut candidates = 0usize;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    while pool.len() < want {
        let need = want - pool.len();
        let mut batch = Vec::new();
        while batch.len() < need + need / 2 + 8 {
            let src = wasmperf_difftest::generate(rng.next_u64()).render();
            if seen.insert(src.clone()) {
                batch.push((src, candidates % ENGINES.len()));
                candidates += 1;
            }
        }
        let chunk = batch.len().div_ceil(workers);
        let screened: Vec<Option<RunResult>> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|(src, e)| run_source(registry, src, *e))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("screening thread panicked"))
                .collect()
        });
        for ((src, e), result) in batch.into_iter().zip(screened) {
            match result {
                None => rejected += 1,
                Some(r) if pool.len() < want => pool.push((src, e, r)),
                Some(_) => {}
            }
        }
    }
    (pool, rejected)
}

// ---------------------------------------------------------------------
// The run

struct Sample {
    cell: usize,
    latency_s: f64,
    /// `latency_s` at the reference host speed (`hostspeed`).
    norm_latency_s: f64,
    /// When the response arrived, seconds into the timed phase.
    done_s: f64,
    traced: bool,
    response: Response,
}

/// What the timed phase measured.
struct Timed {
    samples: Vec<Sample>,
    timed_s: f64,
    /// The fleet's summed peak RSS (KiB) once `RSS_AFTER` requests were
    /// served, or at the end if fewer were.
    peak_rss_kb: u64,
}

/// Sends `order` (indices into `cells`) over one keep-alive connection,
/// each request after the previous response, until `seconds` pass or the
/// order runs out. After every `PROBE_EVERY` requests the client runs the
/// host speed probe, on the CPU the fleet shares, and normalises those
/// requests' latencies by it and the probe before them. With a tracer,
/// every other block of requests records a `client.request` span.
fn closed_loop(
    fleet: &Fleet,
    cells: &[Cell],
    order: &[usize],
    seconds: f64,
    probe: &mut Probe,
    mut tracer: Option<&mut Tracer>,
) -> Result<Timed, String> {
    let router = &fleet.router;
    let mut client = Client::connect(router).map_err(|e| format!("connect {router}: {e}"))?;
    let mut samples = Vec::with_capacity(order.len());
    let mut normalised = 0;
    let mut peak_rss_kb = None;
    let t0 = Instant::now();
    for (i, &c) in order.iter().enumerate() {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = tracer.is_some() && (i / TRACE_BLOCK) % 2 == 1;
        let span = match (&mut tracer, traced) {
            (Some(tr), true) => Some(tr.open("client.request", None, i as u64)),
            _ => None,
        };
        let t = Instant::now();
        let response = client
            .request("POST", "/run", &cells[c].body)
            .map_err(|e| format!("request {i}: {e}"))?;
        let latency_s = t.elapsed().as_secs_f64();
        if let (Some(tr), Some(id)) = (&mut tracer, span) {
            tr.close(id);
        }
        samples.push(Sample {
            cell: c,
            latency_s,
            norm_latency_s: 0.0,
            done_s: t0.elapsed().as_secs_f64(),
            traced,
            response,
        });
        if samples.len() - normalised == PROBE_EVERY {
            normalise(&mut samples[normalised..], probe);
            normalised = samples.len();
        }
        if i + 1 == RSS_AFTER {
            peak_rss_kb = Some(fleet.peak_rss_kb()?);
        }
    }
    normalise(&mut samples[normalised..], probe);
    let timed_s = t0.elapsed().as_secs_f64();
    let peak_rss_kb = match peak_rss_kb {
        Some(kb) => kb,
        None => fleet.peak_rss_kb()?,
    };
    Ok(Timed {
        samples,
        timed_s,
        peak_rss_kb,
    })
}

/// Normalises `block`, the samples since the last probe, by that probe
/// and one run now.
fn normalise(block: &mut [Sample], probe: &mut Probe) {
    if block.is_empty() {
        return;
    }
    let scale = probe.normalise(1.0);
    for s in block {
        s.norm_latency_s = s.latency_s * scale;
    }
}

/// What a 200 response reported about itself.
struct Served {
    cached: bool,
    queue_us: u64,
    exec_us: u64,
    result: String,
}

fn parse_served(resp: &Response) -> Result<Served, String> {
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let body = resp.body_json()?;
    let num = |k: &str| body.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
    Ok(Served {
        cached: matches!(body.get("cached"), Some(Json::Bool(true))),
        queue_us: num("queue_us")?,
        exec_us: num("exec_us")?,
        result: body.get("result").ok_or("no result")?.render(),
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let registry = Registry::load();

    // Inputs, all from the seed. The pool is screened up front so the
    // expected bodies exist before any request is sent.
    let want = ((COLD_POOL_PER_SECOND * args.seconds).ceil() as usize).max(COLD_REPLAY);
    let (pool, rejected) = cold_pool(&registry, args.seed, want);
    report.note(format!(
        "pool of {want} programs; {rejected} screened-out seeds (trap or fail on their engine)"
    ));
    let mut cells = Vec::with_capacity(pool.len());
    let mut sources = Vec::with_capacity(pool.len());
    for (src, e, res) in pool {
        let mut cell = request(Target::Source(src.clone()), e, None);
        cell.expected = Some(res);
        cells.push(cell);
        sources.push(src);
    }
    let order: Vec<usize> = (0..cells.len()).collect();

    // Everything from here on, the fleet included, shares one CPU: each
    // request's hops become context switches on one core instead of
    // cross-core wake-ups, whose cost on a shared two-vCPU VM varies far
    // more from run to run than the program does.
    let cpu = procfs::pin_to_one_cpu()?;
    report.note(format!("client and fleet pinned to cpu {cpu}"));

    // Set-up, several times: each fleet is brought up in fresh result
    // directories, warmed with one request per warm-up kernel × engine,
    // and all but the last drained again. Each set-up is normalised by
    // the host speed probes on either side of it.
    let warm_up = warm_up_cells();
    let mut probe = Probe::new();
    let mut setup_times = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = fleet.take() {
            old.shut_down()?;
        }
        let results = args
            .work_dir
            .join(format!("results-{}-{}", std::process::id(), rep));
        let _ = std::fs::remove_dir_all(&results);
        let t = Instant::now();
        let f = Fleet::up(&args.fleet_bin, results)?;
        {
            let mut client = Client::connect(&f.router).map_err(|e| e.to_string())?;
            for cell in &warm_up {
                let resp = client
                    .request("POST", "/run", &cell.body)
                    .map_err(|e| format!("warm-up: {e}"))?;
                parse_served(&resp).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        setup_times.push(probe.normalise(t.elapsed().as_secs_f64()));
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("SETUP_REPS > 0");

    let before = fleet.metrics()?;
    let store_before = fleet.store_bytes();
    let mut tracer = Tracer::new();
    let Timed {
        samples,
        timed_s,
        peak_rss_kb,
    } = closed_loop(
        &fleet,
        &cells,
        &order,
        args.seconds,
        &mut probe,
        args.trace.then_some(&mut tracer),
    )?;
    if samples.len() < RSS_AFTER {
        report.note(format!(
            "only {} requests: peak_rss_mb read at the end",
            samples.len()
        ));
    }
    let after = fleet.metrics()?;
    let store_growth = fleet.store_bytes().saturating_sub(store_before);
    fleet.shut_down()?;
    drop(fleet);
    if samples.len() == order.len() {
        report.note(format!("input pool exhausted after {timed_s:.2} s"));
    }

    // Correctness: every response against the in-process run of the same
    // request.
    let expected: Vec<Option<String>> = cells
        .iter()
        .map(|c| c.expected.as_ref().map(|r| encode_result(r).render()))
        .collect();
    let mut served = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        report.attempted += 1;
        match parse_served(&s.response) {
            Err(e) => report.fail(format!("request {i}: {e}")),
            Ok(v) => {
                if v.cached {
                    report.guard(format!("request {i} was answered from the result cache"));
                }
                if Some(&v.result) != expected[s.cell].as_ref() {
                    report.fail(format!(
                        "request {i}: result differs from the in-process run"
                    ));
                }
                served.push((i, s, v));
            }
        }
    }

    // Cache guard: the workload's defining property is that every
    // request misses every cache.
    let delta = after
        .since(&before)
        .ok_or("cache counters went backwards during the run")?;
    if delta.artifact_hits + delta.result_hits + delta.store_hits > 0 {
        report.guard(format!("fleet-cold saw cache hits: {delta:?}"));
    }

    let latencies: Vec<f64> = served.iter().map(|(_, s, _)| s.latency_s).collect();
    let mean_us = |f: fn(&Served) -> u64| {
        served.iter().map(|(_, _, v)| f(v)).sum::<u64>() as f64 / served.len().max(1) as f64
    };
    report.note(format!(
        "mean per request: latency {:.1} us, queue {:.1} us, worker {:.1} us",
        latencies.iter().sum::<f64>() / latencies.len().max(1) as f64 * 1e6,
        mean_us(|v| v.queue_us),
        mean_us(|v| v.exec_us)
    ));
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_times).expect("SETUP_REPS > 0"));
    m.insert("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    let windows = per_window(&served, &cells, timed_s);
    m.insert("pass_s", window_median(&windows, Window::pass_s));
    m.insert(
        "sim_mips",
        window_median(&windows, |w| Some(w.instructions / w.busy_s)) / 1e6,
    );
    m.insert(
        "p50_ms",
        window_median(&windows, |w| band_mean(&w.latencies, 40.0, 60.0)) * 1e3,
    );
    m.insert(
        "p90_ms",
        window_median(&windows, |w| band_mean(&w.latencies, 85.0, 95.0)) * 1e3,
    );
    m.insert(
        "rps",
        window_median(&windows, |w| Some(w.requests / w.busy_s)),
    );
    m.insert("farm.artifact_hit_ratio", delta.artifact_hit_ratio());
    m.insert("serve.result_hit_ratio", delta.result_hit_ratio());
    m.insert("farm.store_bytes", ratio(store_growth, served.len() as u64));
    report.note(format!(
        "{} requests in {timed_s:.2} s over one connection, {:.3} s of latency measured, \
         {:.3} s normalised; setup reps {setup_times:.3?}; cache delta {delta:?}",
        samples.len(),
        latencies.iter().sum::<f64>(),
        served.iter().map(|(_, s, _)| s.norm_latency_s).sum::<f64>()
    ));

    if args.trace {
        traced(
            args,
            &mut report,
            &registry,
            &cells,
            &sources,
            &served,
            tracer,
        )?;
    }
    Ok(report)
}

/// The traced run's per-layer split. Serving layers come from the traced
/// requests' own `queue_us`/`exec_us`; the worker's time is split by
/// replaying the same requests in process through the layer functions.
fn traced(
    args: &Args,
    report: &mut Report,
    registry: &Registry,
    cells: &[Cell],
    sources: &[String],
    served: &[(usize, &Sample, Served)],
    mut tr: Tracer,
) -> Result<(), String> {
    // Serving layers: client span = queue + worker + everything else.
    let spans: BTreeMap<u64, usize> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "client.request")
        .map(|(id, s)| (s.req, id))
        .collect();
    let (mut traced_lat, mut untraced_lat) = (Vec::new(), Vec::new());
    for &(i, s, ref v) in served {
        if !s.traced {
            untraced_lat.push(s.latency_s);
            continue;
        }
        traced_lat.push(s.latency_s);
        let Some(&root) = spans.get(&(i as u64)) else {
            continue;
        };
        let start = tr.spans[root].start_ns;
        let q_end = start + v.queue_us * 1000;
        tr.record("serve.queue", Some(root), i as u64, start, q_end);
        tr.record(
            "serve.worker",
            Some(root),
            i as u64,
            q_end,
            q_end + v.exec_us * 1000,
        );
    }
    let n = traced_lat.len().max(1) as f64;
    let st = tr.self_times();
    let per_req_ms = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / n / 1e6;
    let queue_ms = per_req_ms("serve.queue");
    let worker_ms = per_req_ms("serve.worker");
    let overhead_ms = per_req_ms("client.request");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let m = &mut report.metrics;
    m.insert("serve.queue_ms", queue_ms);
    m.insert("serve.worker_ms", worker_ms);
    m.insert("fleet.overhead_ms", overhead_ms);
    m.insert(
        "trace.overhead_ratio",
        mean(&traced_lat) / mean(&untraced_lat),
    );

    // Worker split: the same requests replayed in process, layer by layer.
    let mut lt = Tracer::new();
    let mut bytes = layers::CodeBytes::default();
    let mut instructions = 0u64;
    let replay: Vec<usize> = served
        .iter()
        .map(|(_, s, _)| s.cell)
        .take(COLD_REPLAY)
        .collect();
    for &c in &replay {
        let (bench, engine) = registry
            .resolve(&cells[c].req)
            .map_err(|e| e.to_json().render())?;
        let req = c as u64;
        lt.time("harness.execute", None, req, || {
            run_in_process(registry, &cells[c].req)
        })?;
        let root = lt.open("compile", None, req);
        let compiled = layers::compile(&mut lt, Some(root), req, &bench, &engine)?;
        lt.close(root);
        let root = lt.open("layers", None, req);
        let out = layers::execute(&mut lt, Some(root), req, &bench, &compiled.module)?;
        lt.close(root);
        check_layered(report, &cells[c], out.checksum, out.counters);
        layers::machine_setup(&mut lt, req, &compiled.module);
        instructions += out.counters.instructions_retired;
        bytes.add(&engine, &compiled);
    }
    let ops = replay.len();
    let ops_f = ops.max(1) as f64;
    crate::layer_times(report, &lt, ops_f, instructions);
    let exec_s = crate::span_total_s(&lt, "harness.execute");
    let parts_s = crate::span_total_s(&lt, "compile") + crate::span_total_s(&lt, "layers");
    let m = &mut report.metrics;
    m.insert("harness.plumbing_ms", (exec_s - parts_s) / ops_f * 1e3);
    bytes.insert(report);

    // Exact simulated counts over the first programs of the pool, each on
    // its own engine; slowdowns over those of them that return normally
    // on all three engines (the screen ran each on its own only).
    let first = &cells[..cells.len().min(COLD_REPLAY)];
    let runs: Vec<&RunResult> = first.iter().filter_map(|c| c.expected.as_ref()).collect();
    let triples: Vec<[RunResult; 3]> = sources[..first.len()]
        .iter()
        .filter_map(|src| {
            let on = |e| run_source(registry, src, e);
            Some([on(0)?, on(1)?, on(2)?])
        })
        .collect();
    let triples: Vec<[&RunResult; 3]> = triples.iter().map(|t| [&t[0], &t[1], &t[2]]).collect();
    crate::insert_counts(report, &runs, &triples);

    // Reconcile the traced requests' layers (queue + worker + everything
    // else) with the untraced requests of the interleaved blocks. The
    // in-process replay that splits the worker's time runs in another
    // process state (warm caches, a different heap) than a shard, so its
    // total is reported beside the served worker time, not gated.
    crate::reconcile(
        report,
        queue_ms + worker_ms + overhead_ms,
        mean(&untraced_lat) * 1e3,
        "untraced mean latency",
    );
    report.note(format!(
        "worker split replayed in process: {:.4} ms per request against {worker_ms:.4} ms served",
        exec_s / ops_f * 1e3
    ));
    // Replay spans follow the request spans; rebase their parents.
    let offset = tr.spans.len();
    tr.spans.extend(lt.spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    crate::write_spans(args, &tr)
}

/// One whole `WINDOW_S` slice of the timed phase (the whole phase if it
/// was shorter than two windows).
/// One window of the timed phase. Every time in it is normalised to the
/// reference host speed.
struct Window {
    requests: f64,
    instructions: f64,
    /// The window's requests' latencies, summed: on one closed-loop
    /// connection, the time the fleet spent serving them, without the
    /// client's probes.
    busy_s: f64,
    latencies: Vec<f64>,
    /// Latencies by the engine the request ran on.
    by_engine: Vec<Vec<f64>>,
}

impl Window {
    /// One request per engine at the window's median latencies; `None`
    /// unless the window saw every engine.
    fn pass_s(&self) -> Option<f64> {
        self.by_engine.iter().map(|g| median(g)).sum()
    }
}

/// Splits the served requests into windows by completion time. Rates
/// and percentiles are taken per window and then the median over
/// windows, so a burst of host interference inside a run moves the
/// result less than a whole-run statistic would.
fn per_window(served: &[(usize, &Sample, Served)], cells: &[Cell], timed_s: f64) -> Vec<Window> {
    let count = ((timed_s / WINDOW_S).floor() as usize).max(1);
    let width = if count == 1 { timed_s } else { WINDOW_S };
    let mut out: Vec<Window> = (0..count)
        .map(|_| Window {
            requests: 0.0,
            instructions: 0.0,
            busy_s: 0.0,
            latencies: Vec::new(),
            by_engine: vec![Vec::new(); ENGINES.len()],
        })
        .collect();
    for (_, s, _) in served {
        let Some(w) = out.get_mut((s.done_s / width) as usize) else {
            continue;
        };
        w.requests += 1.0;
        w.instructions += cells[s.cell]
            .expected
            .as_ref()
            .map_or(0, |r| r.counters.instructions_retired) as f64;
        w.busy_s += s.norm_latency_s;
        w.latencies.push(s.norm_latency_s);
        w.by_engine[cells[s.cell].engine].push(s.norm_latency_s);
    }
    out.retain(|w| w.requests > 0.0);
    out
}

/// Median over windows of a per-window statistic.
fn window_median(windows: &[Window], f: impl Fn(&Window) -> Option<f64>) -> f64 {
    median(&windows.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn check_layered(
    report: &mut Report,
    cell: &Cell,
    checksum: i32,
    counters: wasmperf_cpu::PerfCounters,
) {
    let ok = cell
        .expected
        .as_ref()
        .is_some_and(|r| r.checksum == checksum && r.counters == counters);
    if !ok {
        report.fail(format!(
            "{:?}: layered run differs from the served result",
            cell.req.engine
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_lines_yield_shard_pids_and_router_address() {
        assert_eq!(
            parse_up_line("wasmperf-fleet shard shard-0 listening on 127.0.0.1:4000 pid 123"),
            (Some(123), None)
        );
        assert_eq!(
            parse_up_line("wasmperf-fleet router listening on 127.0.0.1:4002"),
            (None, Some("127.0.0.1:4002".into()))
        );
        assert_eq!(parse_up_line("something else"), (None, None));
    }

    #[test]
    fn metrics_deltas_and_ratios() {
        let snap = |builds: u64, hits: u64, rhits: u64| {
            Json::parse(&format!(
                "{{\"requests\":{{}},\"cache\":{{\"artifact_builds\":{builds},\"artifact_hits\":{hits},\
                 \"result_hits\":{rhits},\"result_misses\":7,\"store_hits\":0}}}}"
            ))
            .unwrap()
        };
        let a = CacheCounters::from_metrics(&snap(21, 0, 0)).unwrap();
        let b = CacheCounters::from_metrics(&snap(21, 300, 0)).unwrap();
        let d = b.since(&a).unwrap();
        assert_eq!(d.artifact_builds, 0);
        assert_eq!(d.artifact_hit_ratio(), 1.0);
        // No lookups at all reads as a 0 hit ratio, not NaN.
        assert_eq!(d.result_hit_ratio(), 0.0);
        // A counter going backwards (shard restart) is not a delta.
        assert_eq!(a.since(&b), None);
        assert_eq!(
            CacheCounters::from_metrics(&Json::parse("{}").unwrap()),
            None
        );
        let partial = Json::parse("{\"cache\":{\"artifact_builds\":1}}").unwrap();
        assert_eq!(CacheCounters::from_metrics(&partial), None);
    }

    #[test]
    fn same_seed_gives_same_programs() {
        let registry = Registry::load();
        let (a, rejected_a) = cold_pool(&registry, 11, 12);
        let (b, rejected_b) = cold_pool(&registry, 11, 12);
        let (c, _) = cold_pool(&registry, 12, 12);
        let sources = |p: &[Screened]| p.iter().map(|(s, _, _)| s.clone()).collect::<Vec<_>>();
        assert_eq!(sources(&a), sources(&b));
        assert_eq!(rejected_a, rejected_b);
        assert_ne!(sources(&a), sources(&c));
        let distinct: std::collections::HashSet<String> = sources(&a).into_iter().collect();
        assert_eq!(distinct.len(), a.len());
        // Engines are dealt in turn over the candidates, so a small pool
        // still sends programs to every engine.
        let mut engines: Vec<usize> = a.iter().map(|(_, e, _)| *e).collect();
        engines.sort_unstable();
        engines.dedup();
        assert_eq!(engines, (0..ENGINES.len()).collect::<Vec<_>>());
    }

    #[test]
    fn request_bodies_parse_as_the_service_parses_them() {
        let cell = request(Target::Named("lu".into()), 1, Some(5000.0));
        let parsed =
            RunRequest::from_json(&Json::parse(std::str::from_utf8(&cell.body).unwrap()).unwrap())
                .unwrap();
        assert_eq!(parsed, cell.req);
        let cell = request(Target::Source("int main() { return 1; }".into()), 0, None);
        let parsed =
            RunRequest::from_json(&Json::parse(std::str::from_utf8(&cell.body).unwrap()).unwrap())
                .unwrap();
        assert_eq!(parsed, cell.req);
    }
}
