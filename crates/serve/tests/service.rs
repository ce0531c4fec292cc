//! End-to-end tests over a real listening socket: every request here
//! crosses the TCP loopback through the full HTTP codec, router, exec
//! service, and worker pool — the same path `wasmperf-loadgen` drives.

use std::path::PathBuf;
use std::time::Duration;

use wasmperf_benchsuite::Size;
use wasmperf_browsix::AppendPolicy;
use wasmperf_farm::Json;
use wasmperf_harness::farm::encode_result;
use wasmperf_harness::{execute, prepare, Engine};
use wasmperf_serve::loadgen::{self, spin_source, Mode, Options};
use wasmperf_serve::{start, Client, ServerConfig};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wasmperf-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve(workers: usize, queue: usize) -> (wasmperf_serve::ServerHandle, String) {
    let handle = start(ServerConfig {
        workers,
        queue_capacity: queue,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn shutdown(handle: wasmperf_serve::ServerHandle, addr: &str) {
    let mut c = Client::connect(addr).unwrap();
    let resp = c.request("POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    handle.join();
}

fn run_body(bench: &str, engine: &str) -> Json {
    Json::Obj(vec![
        ("bench".into(), Json::Str(bench.into())),
        ("engine".into(), Json::Str(engine.into())),
        ("size".into(), Json::Str("test".into())),
    ])
}

#[test]
fn health_metrics_and_routing() {
    let (handle, addr) = serve(1, 8);
    let mut c = Client::connect(&addr).unwrap();

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let body = health.body_json().unwrap();
    assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(body.get("draining"), Some(&Json::Bool(false)));

    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let m = metrics.body_json().unwrap();
    assert!(m.get("latency").is_some());
    assert!(m.get("pool").is_some());

    // Unknown path and wrong method, all on the same kept-alive
    // connection.
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.request("GET", "/run", b"").unwrap().status, 405);
    assert_eq!(c.request("POST", "/healthz", b"").unwrap().status, 405);

    // Malformed JSON and malformed run requests are 400s.
    assert_eq!(c.request("POST", "/run", b"{not json").unwrap().status, 400);
    let missing_engine = Json::Obj(vec![("bench".into(), Json::Str("gemm".into()))]);
    assert_eq!(c.post_json("/run", &missing_engine).unwrap().status, 400);
    let unknown_bench = run_body("not-a-bench", "native");
    assert_eq!(c.post_json("/run", &unknown_bench).unwrap().status, 400);
    let unknown_engine = run_body("gemm", "safari");
    assert_eq!(c.post_json("/run", &unknown_engine).unwrap().status, 400);

    shutdown(handle, &addr);
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    // A million `[` would overflow an uncapped parser's stack on the
    // connection thread, aborting the whole server, not just the request.
    let (handle, addr) = serve(1, 8);
    let mut c = Client::connect(&addr).unwrap();
    let deep = "[".repeat(1_000_000);
    assert_eq!(
        c.request("POST", "/run", deep.as_bytes()).unwrap().status,
        400
    );
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    shutdown(handle, &addr);
}

#[test]
fn run_results_are_byte_identical_to_direct_runs() {
    let (handle, addr) = serve(2, 8);
    let mut c = Client::connect(&addr).unwrap();

    for engine_name in ["native", "chrome"] {
        let resp = c.post_json("/run", &run_body("gemm", engine_name)).unwrap();
        assert_eq!(resp.status, 200, "{engine_name}");
        let body = resp.body_json().unwrap();
        assert_eq!(body.get("cached"), Some(&Json::Bool(false)));
        assert!(body.get("id").and_then(Json::as_str).is_some());

        // The contract: the served result subtree renders to exactly the
        // bytes a direct in-process run encodes to.
        let bench = wasmperf_benchsuite::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "gemm")
            .unwrap();
        let engine = Engine::parse(engine_name).unwrap();
        let artifact = prepare(&bench, &engine).unwrap();
        let local = execute(&bench, &engine, &artifact, AppendPolicy::Chunked4K).unwrap();
        assert_eq!(
            body.get("result").unwrap().render(),
            encode_result(&local).render(),
            "served result diverged from direct run for {engine_name}"
        );
    }

    // The identical submission is now served from the result cache.
    let again = c.post_json("/run", &run_body("gemm", "native")).unwrap();
    assert_eq!(again.status, 200);
    let body = again.body_json().unwrap();
    assert_eq!(body.get("cached"), Some(&Json::Bool(true)));

    shutdown(handle, &addr);
}

#[test]
fn adhoc_source_runs_and_bad_source_is_422() {
    let (handle, addr) = serve(1, 8);
    let mut c = Client::connect(&addr).unwrap();

    let adhoc = Json::Obj(vec![
        ("source".into(), Json::Str(spin_source(10))),
        ("engine".into(), Json::Str("native".into())),
    ]);
    let resp = c.post_json("/run", &adhoc).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_json().unwrap();
    let result = body.get("result").unwrap();
    // sum 0..9
    assert_eq!(result.get("checksum").and_then(Json::as_u64), Some(45));
    assert_eq!(result.get("bench").and_then(Json::as_str), Some("adhoc"));

    let broken = Json::Obj(vec![
        ("source".into(), Json::Str("fn main( { nope".into())),
        ("engine".into(), Json::Str("native".into())),
    ]);
    let resp = c.post_json("/run", &broken).unwrap();
    assert_eq!(resp.status, 422);
    assert!(resp
        .body_json()
        .unwrap()
        .get("error")
        .and_then(Json::as_str)
        .is_some());

    shutdown(handle, &addr);
}

#[test]
fn tight_deadline_is_a_504_with_sim_cause() {
    let (handle, addr) = serve(1, 8);
    let mut c = Client::connect(&addr).unwrap();

    let body = Json::Obj(vec![
        ("bench".into(), Json::Str("gemm".into())),
        ("engine".into(), Json::Str("native".into())),
        // ~35 retired instructions of budget.
        ("deadline_ms".into(), Json::Num(1e-5)),
    ]);
    let resp = c.post_json("/run", &body).unwrap();
    assert_eq!(resp.status, 504);
    let err = resp.body_json().unwrap();
    assert_eq!(err.get("deadline").and_then(Json::as_str), Some("sim"));
    assert!(err.get("fuel").and_then(Json::as_u64).is_some());

    // The same request without the deadline succeeds afterwards.
    let ok = c.post_json("/run", &run_body("gemm", "native")).unwrap();
    assert_eq!(ok.status, 200);

    shutdown(handle, &addr);
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    // One worker, one queue slot: with one run executing and one queued,
    // every further run must shed.
    let (handle, addr) = serve(1, 1);

    // Distinct sources so the result cache can't absorb them; each is a
    // few seconds of simulated work — a wide window for the burst.
    let slow = |tag: u64| {
        Json::Obj(vec![
            ("source".into(), Json::Str(spin_source(4_000_000 + tag))),
            ("engine".into(), Json::Str("native".into())),
        ])
    };
    let pool_gauge = |addr: &str, field: &str| -> u64 {
        let mut c = Client::connect(addr).unwrap();
        let m = c.get("/metrics").unwrap().body_json().unwrap();
        m.get("pool")
            .unwrap()
            .get(field)
            .and_then(Json::as_u64)
            .unwrap()
    };
    let wait_for = |addr: &str, field: &str, want: u64| {
        let t0 = std::time::Instant::now();
        while pool_gauge(addr, field) < want {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "pool never reached {field} {want}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let (okays, sheds) = std::thread::scope(|scope| {
        let mut admitted = Vec::new();
        for i in 0..2u64 {
            let conn_addr = addr.clone();
            let body = slow(i);
            admitted.push(scope.spawn(move || {
                let mut c = Client::connect(&conn_addr).unwrap();
                c.post_json("/run", &body).unwrap().status
            }));
            // First run executing, second run sitting in the queue —
            // only then is the queue provably full.
            wait_for(&addr, if i == 0 { "active" } else { "queued" }, 1);
        }
        // Worker busy + queue full: these must be rejected immediately,
        // not hang and not drop the connection.
        let mut sheds = Vec::new();
        for i in 0..3u64 {
            let mut c = Client::connect(&addr).unwrap();
            let t0 = std::time::Instant::now();
            let resp = c.post_json("/run", &slow(100 + i)).unwrap();
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "shedding should be immediate"
            );
            assert_eq!(resp.status, 429);
            // The hint is derived (depth × mean service time ÷ workers),
            // so its value depends on what ran before; it must always
            // parse as whole seconds >= 1.
            let retry: u64 = resp
                .header("retry-after")
                .expect("429 must carry Retry-After")
                .parse()
                .expect("Retry-After must be an integer");
            assert!(retry >= 1, "Retry-After {retry} < 1");
            let err = resp.body_json().unwrap();
            assert!(err.get("depth").and_then(Json::as_u64).unwrap() >= 2);
            assert_eq!(
                err.get("retry_after_s").and_then(Json::as_u64),
                Some(retry),
                "body hint and header disagree"
            );
            sheds.push(resp.status);
        }
        let okays: Vec<u16> = admitted.into_iter().map(|h| h.join().unwrap()).collect();
        (okays, sheds)
    });
    assert_eq!(okays, vec![200, 200], "admitted runs must complete");
    assert_eq!(sheds.len(), 3);

    // The metrics agree that shedding happened.
    let mut c = Client::connect(&addr).unwrap();
    let m = c.get("/metrics").unwrap().body_json().unwrap();
    assert_eq!(m.get("shed").and_then(Json::as_u64), Some(3), "{m:?}");

    shutdown(handle, &addr);
}

#[test]
fn metrics_track_requests_and_caches() {
    let (handle, addr) = serve(1, 8);
    let mut c = Client::connect(&addr).unwrap();

    let mut run_syscalls = Vec::new();
    for _ in 0..3 {
        let resp = c.post_json("/run", &run_body("gemm", "native")).unwrap();
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        let sys = body.get("syscalls").expect("response syscalls section");
        run_syscalls.push((
            sys.get("count").and_then(Json::as_u64).unwrap(),
            sys.get("kernel_cycles").and_then(Json::as_u64).unwrap(),
            sys.get("kernel_bytes").and_then(Json::as_u64).unwrap(),
        ));
    }
    // Cached replays report the same per-run accounting.
    assert_eq!(run_syscalls[0], run_syscalls[1]);
    assert_eq!(run_syscalls[0], run_syscalls[2]);
    let m = c.get("/metrics").unwrap().body_json().unwrap();
    assert_eq!(
        m.get("requests")
            .unwrap()
            .get("POST /run 200")
            .and_then(Json::as_u64),
        Some(3)
    );
    let cache = m.get("cache").unwrap();
    // One build, then result-cache hits (no second compile, no second
    // execution).
    assert_eq!(cache.get("artifact_builds").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("result_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("result_misses").and_then(Json::as_u64), Some(1));
    let lat = m.get("latency").unwrap();
    // /run requests plus this test's own /metrics fetches so far.
    assert!(lat.get("count").and_then(Json::as_u64).unwrap() >= 3);
    // Only the single executed run feeds the syscall aggregates; the two
    // cache hits add nothing.
    let sys = m.get("syscalls").unwrap();
    assert_eq!(sys.get("runs_executed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        sys.get("count").and_then(Json::as_u64),
        Some(run_syscalls[0].0)
    );
    assert_eq!(
        sys.get("kernel_cycles").and_then(Json::as_u64),
        Some(run_syscalls[0].1)
    );
    assert_eq!(
        sys.get("kernel_bytes").and_then(Json::as_u64),
        Some(run_syscalls[0].2)
    );

    shutdown(handle, &addr);
}

#[test]
fn silent_connections_get_408_and_are_cut() {
    use std::io::{Read, Write};

    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // A client that connects and never sends a request must be told why
    // it's being cut (408) and then disconnected — not pin a connection
    // slot until drain.
    let mut silent = std::net::TcpStream::connect(&addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    silent.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("idle timeout"), "{text}");

    // Stalling mid-request (declared body never arrives) is the same
    // idle cut, not a hang.
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled
        .write_all(b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        .unwrap();
    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    // A keep-alive connection that goes quiet after a served request is
    // cut the same way, and the server stays healthy for new clients.
    let mut quiet = std::net::TcpStream::connect(&addr).unwrap();
    quiet
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    quiet.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    quiet.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.contains("HTTP/1.1 408"),
        "no 408 after going quiet: {text}"
    );

    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    shutdown(handle, &addr);
}

#[test]
fn report_endpoint_builds_a_slowdown_matrix() {
    let (handle, addr) = serve(2, 8);
    let mut c = Client::connect(&addr).unwrap();

    let body = Json::Obj(vec![
        (
            "benchmarks".into(),
            Json::Arr(vec![Json::Str("gemm".into())]),
        ),
        (
            "engines".into(),
            Json::Arr(vec![Json::Str("chrome".into())]),
        ),
        ("size".into(), Json::Str("test".into())),
    ]);
    let resp = c.post_json("/report", &body).unwrap();
    assert_eq!(resp.status, 200);
    let report = resp.body_json().unwrap();
    let rows = report.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.get("bench").and_then(Json::as_str), Some("gemm"));
    let slowdown = row.get("slowdown").unwrap();
    assert_eq!(slowdown.get("native").and_then(Json::as_f64), Some(1.0));
    // The paper's central observation, visible over the wire: wasm is
    // slower than native.
    assert!(slowdown.get("chrome").and_then(Json::as_f64).unwrap() > 1.0);

    shutdown(handle, &addr);
}

#[test]
fn graceful_drain_finishes_work_then_refuses() {
    let tmp = TempDir::new("drain");
    let log_path = tmp.0.join("access.jsonl");
    let trace_dir = tmp.0.join("traces");
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        log_path: Some(log_path.clone()),
        trace_dir: Some(trace_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(
        c.post_json("/run", &run_body("gemm", "native"))
            .unwrap()
            .status,
        200
    );

    // Shutdown drains: the response arrives, then the listener dies.
    let resp = c.request("POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    handle.join();

    // New connections are refused once the drain completes.
    assert!(
        Client::connect(&addr).is_err(),
        "listener survived the drain"
    );

    // The access log recorded both requests with threaded request ids.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<Json> = log.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 2, "{log}");
    assert_eq!(lines[0].get("path").and_then(Json::as_str), Some("/run"));
    assert_eq!(lines[0].get("status").and_then(Json::as_u64), Some(200));
    let id0 = lines[0].get("id").and_then(Json::as_str).unwrap();
    assert!(id0.starts_with('r'), "{id0}");

    // The trace export exists and carries the same request ids.
    let trace = std::fs::read_to_string(trace_dir.join("serve.trace.json")).unwrap();
    assert!(trace.contains(&format!("{id0}/POST /run")), "{trace}");

    drop(tmp);
}

#[test]
fn loadgen_closed_loop_with_check_passes_end_to_end() {
    let (handle, addr) = serve(2, 16);

    let report = loadgen::run(&Options {
        addr: addr.clone(),
        mode: Mode::Closed { conns: 3 },
        requests: 18,
        benches: vec!["gemm".into()],
        engines: vec!["native".into(), "chrome".into()],
        size: Size::Test,
        check: true,
        verify_metrics: true,
        ..Options::default()
    });
    assert!(report.ok(), "loadgen gates failed: {}", report.render());
    assert_eq!(report.requests, 18);
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.status_counts.get(&200), Some(&18));
    assert_eq!(report.checked, 2);
    assert!(report.mismatches.is_empty());
    assert!(report.p50_us > 0);
    assert!(report.p99_us >= report.p50_us);

    // The report round-trips through its JSON schema.
    let j = report.to_json();
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("wasmperf-loadgen/1")
    );
    assert_eq!(
        Json::parse(&j.render())
            .unwrap()
            .get("checked")
            .and_then(Json::as_u64),
        Some(2)
    );

    shutdown(handle, &addr);
}
