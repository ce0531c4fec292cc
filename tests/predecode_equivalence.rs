//! Differential equivalence of the two interpreter loops.
//!
//! The direct-threaded superblock engine ([`ExecMode::Threaded`], built
//! over the predecoded micro-op stream) must be an unobservable
//! optimization: every result, trap location, counter, and output byte
//! must match the legacy per-instruction interpreter
//! ([`ExecMode::Legacy`]) exactly. These tests replay the entire
//! regression corpus, a report-style benchmark × engine matrix, and the
//! checked-in replay recordings through both loops and compare
//! everything — including trap and out-of-fuel outcomes, where the
//! threaded tier's batched fuel accounting must roll back to the exact
//! per-instruction trap location.

use std::sync::Arc;
use wasmperf_benchsuite::{Benchmark, Size};
use wasmperf_browsix::AppendPolicy;
use wasmperf_cpu::machine::ExecError;
use wasmperf_cpu::{ExecMode, Machine, NullHost, PerfCounters};
use wasmperf_harness::engine::{execute_with_mode, run_one_traced, Artifact, Engine};
use wasmperf_harness::{prepare, Error, RunResult, TraceConfig, DEFAULT_FUEL};
use wasmperf_isa::Module;
use wasmperf_wasmjit::EngineProfile;

/// Same bound the difftest fuzzer uses for machine pipelines.
const FUEL: u64 = 50_000_000;

/// Everything observable about a hostless run: the outcome (or the full
/// trap, location and detail included) plus the final counters.
type Observation = (Result<(u64, Option<i32>), ExecError>, PerfCounters);

fn observe(module: &Module, mode: ExecMode) -> Observation {
    let entry = module
        .entry
        .or_else(|| module.func_by_name("main"))
        .expect("module has an entry");
    let mut m = Machine::new(module, NullHost);
    m.set_exec_mode(mode);
    let res = m.run(entry, &[], FUEL).map(|out| (out.ret, out.exit_code));
    (res, m.counters())
}

fn assert_modes_agree(module: &Module, what: &str) {
    let slow = observe(module, ExecMode::Legacy);
    let fast = observe(module, ExecMode::Threaded);
    assert_eq!(fast, slow, "{what}: threaded and legacy runs diverged");
}

/// Runs `artifact` through the harness under both loops with `fuel`,
/// requires byte-identical outcomes (errors included), and returns the
/// legacy one.
fn harness_modes_agree(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    fuel: u64,
) -> Result<RunResult, Error> {
    let run =
        |mode| execute_with_mode(bench, engine, artifact, AppendPolicy::Chunked4K, mode, fuel);
    let slow = run(ExecMode::Legacy);
    assert_eq!(
        run(ExecMode::Threaded),
        slow,
        "{}/{}/fuel={fuel}: threaded diverged from legacy",
        bench.name,
        engine.name()
    );
    slow
}

/// Replays every corpus case — each a shrunk program that once exposed a
/// real semantics divergence, several of which trap by design — through
/// all four machine-code pipelines, under both interpreter loops.
#[test]
fn corpus_replays_identically_under_all_loops() {
    let mut cases = 0;
    let mut paths: Vec<_> = std::fs::read_dir("corpus")
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "clite"))
        .collect();
    paths.sort();
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("readable case");
        let name = path.display();
        let prog = wasmperf_cir::compile(&src).expect("corpus case compiles");

        let native = wasmperf_clanglite::compile(&prog, &Default::default());
        assert_modes_agree(&native, &format!("{name} (native)"));

        let wasm = wasmperf_emcc::compile(&prog);
        for profile in [
            EngineProfile::chrome(),
            EngineProfile::firefox(),
            EngineProfile::chrome_asmjs(),
            EngineProfile::firefox_asmjs(),
        ] {
            let jit = wasmperf_wasmjit::compile(&wasm, &profile).expect("jit compiles");
            assert_modes_agree(&jit.module, &format!("{name} ({})", profile.name));
        }
        cases += 1;
    }
    assert!(cases >= 7, "corpus shrank? replayed only {cases} cases");
}

/// A report-style sweep: real benchmarks (compute-bound kernels and
/// I/O-heavy SPEC analogs) on the paper's engine set, comparing the
/// full [`wasmperf_harness::RunResult`] — checksum, every counter,
/// syscall count, and output file bytes — across both loops.
#[test]
fn report_matrix_is_byte_identical_across_loops() {
    let want = ["gemm", "durbin", "401.bzip2", "464.h264ref"];
    let benches: Vec<Benchmark> = wasmperf_benchsuite::all(Size::Test)
        .into_iter()
        .filter(|b| want.contains(&b.name.as_str()))
        .collect();
    assert_eq!(benches.len(), want.len());
    for bench in &benches {
        for engine in Engine::headline() {
            let artifact = prepare(bench, &engine).expect("compiles");
            harness_modes_agree(bench, &engine, &artifact, DEFAULT_FUEL).expect("runs");
        }
    }
}

/// Every checked-in replay recording — compute-bound (`gemm`), I/O-bound
/// (`io.rwmix`), and mixed (`401.bzip2`) — replays byte-identically under
/// both loops, on the native pipeline and a wasm JIT. The replay
/// kernel answers syscalls from the recording, so this exercises the
/// threaded tier's host-call side exits against recorded workloads.
#[test]
fn recordings_replay_identically_across_loops() {
    let recs = wasmperf_replay::load_dir(std::path::Path::new("recordings")).expect("corpus");
    assert!(
        recs.len() >= 3,
        "expected >= 3 recordings, got {}",
        recs.len()
    );
    for rec in recs {
        let bench = wasmperf_benchsuite::replay::from_recording(Arc::new(rec));
        for engine in [Engine::Native, Engine::Jit(EngineProfile::chrome())] {
            let artifact = prepare(&bench, &engine).expect("compiles");
            harness_modes_agree(&bench, &engine, &artifact, DEFAULT_FUEL).expect("replays");
        }
    }
}

/// A torn recording traps mid-run with a replay-divergence error; the
/// error (benchmark, engine, and message, including the trap location)
/// must be identical under both loops.
#[test]
fn truncated_recording_traps_identically_across_loops() {
    let recs = wasmperf_replay::load_dir(std::path::Path::new("recordings")).expect("corpus");
    let mut rec = recs
        .into_iter()
        .find(|r| r.name == "io.rwmix")
        .expect("io.rwmix recording");
    rec.records.pop();
    let bench = wasmperf_benchsuite::replay::from_recording(Arc::new(rec));
    let engine = Engine::Native;
    let artifact = prepare(&bench, &engine).expect("compiles");
    let msg = harness_modes_agree(&bench, &engine, &artifact, DEFAULT_FUEL)
        .expect_err("truncated recording must not replay cleanly")
        .to_string();
    assert!(
        msg.contains("replay") || msg.contains("divergence"),
        "unhelpful truncation error: {msg}"
    );
}

/// Out-of-fuel runs through the full harness: at several budgets — some
/// tiny, some mid-run — both loops report the identical
/// [`wasmperf_harness::Error::OutOfFuel`]. The threaded tier batches fuel
/// per superblock, so this pins its side-exit rollback at harness level.
#[test]
fn out_of_fuel_is_identical_across_loops() {
    let bench = wasmperf_benchsuite::all(Size::Test)
        .into_iter()
        .find(|b| b.name == "gemm")
        .expect("known benchmark");
    for engine in [Engine::Native, Engine::Jit(EngineProfile::chrome())] {
        let artifact = prepare(&bench, &engine).expect("compiles");
        let full = harness_modes_agree(&bench, &engine, &artifact, DEFAULT_FUEL).expect("runs");
        let total = full.counters.instructions_retired;
        for fuel in [1, 97, total / 2, total - 1] {
            let err = harness_modes_agree(&bench, &engine, &artifact, fuel)
                .expect_err("budget chosen below the benchmark's run length");
            assert!(matches!(err, Error::OutOfFuel { .. }), "{err}");
        }
    }
}

/// Profiled runs are pinned to the legacy loop so `wasmperf-trace`
/// attribution stays exact per instruction — but their results must
/// still match the threaded loop, and the profile must cover every
/// retired instruction and cycle.
#[test]
fn traced_legacy_run_matches_optimized_runs() {
    let bench = wasmperf_benchsuite::all(Size::Test)
        .into_iter()
        .find(|b| b.name == "401.bzip2")
        .expect("known benchmark");
    let engine = Engine::Jit(EngineProfile::chrome());

    let config = TraceConfig {
        profile: true,
        ..TraceConfig::off()
    };
    let (traced, session) =
        run_one_traced(&bench, &engine, AppendPolicy::Chunked4K, config).expect("traced run");

    let artifact = prepare(&bench, &engine).expect("compiles");
    let fast = execute_with_mode(
        &bench,
        &engine,
        &artifact,
        AppendPolicy::Chunked4K,
        ExecMode::Threaded,
        DEFAULT_FUEL,
    )
    .expect("runs");
    assert_eq!(traced, fast, "traced (legacy) vs threaded diverged");
    assert_eq!(
        session
            .expect("tracing on")
            .profile
            .expect("profile collected")
            .total_instructions(),
        fast.counters.instructions_retired
    );
}
