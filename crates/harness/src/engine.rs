//! Engines under test, the compile/execute split, and the single-run
//! entry points.
//!
//! Compilation and execution are separate stages so the farm's
//! content-addressed artifact cache can share one compiled [`Artifact`]
//! across every trial, append policy, and experiment that needs it:
//!
//! - [`prepare`] compiles a benchmark for an engine (the cir frontend,
//!   then [`compile`]: clanglite, or emcc → wasmjit) and returns the
//!   artifact;
//! - [`execute`] stages inputs into a fresh Browsix kernel and runs an
//!   artifact, producing a [`RunResult`];
//! - [`run_one`] / [`run_one_traced`] glue the two together for callers
//!   that don't cache.
//!
//! Every execution entry point — plain, fuel-bounded, pinned to an
//! [`ExecMode`], recorded, or traced — is a few lines over one private
//! function that builds the [`Machine`], runs it, maps traps to
//! [`Error`]s, and assembles the [`RunResult`]. The entry points differ
//! only in the host they hand it (a live Browsix kernel, a recorder, or a
//! replay kernel), the interpreter loop, the fuel budget, and what
//! tracing collects.

use wasmperf_benchsuite::{Benchmark, Size};
use wasmperf_browsix::{AppendPolicy, Kernel, KernelStats};
use wasmperf_cir::hir::HProgram;
use wasmperf_clanglite::CompileOptions;
use wasmperf_cpu::{ExecMode, HostEnv, HostOutcome, Machine, Memory, PerfCounters};
use wasmperf_farm::hash::fnv1a;
use wasmperf_isa::{Module, TrapKind};
use wasmperf_replay::{Recorder, Recording, ReplayKernel};
use wasmperf_trace::{SpanLog, StraceLog, SymbolMap, TraceConfig, TraceSession};
use wasmperf_wasmjit::{EngineProfile, SandboxModel, Tier, PKU_SWITCH_CYCLES};

use crate::error::Error;

/// An execution engine (compiler pipeline + runtime conventions).
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Clang-like native compilation.
    Native,
    /// Native with custom options (ablations).
    NativeWith(CompileOptions),
    /// A browser JIT profile (wasm or asm.js, any tier).
    Jit(EngineProfile),
}

impl Engine {
    /// Display name. Ablation configurations carry a short fingerprint
    /// suffix so two different [`Engine::NativeWith`] engines never share
    /// a name in result rows, labels, or trace keys.
    pub fn name(&self) -> String {
        match self {
            Engine::Native => "native".to_string(),
            Engine::NativeWith(_) => {
                format!("native-custom-{:08x}", self.fingerprint() as u32)
            }
            Engine::Jit(p) => p.name.clone(),
        }
    }

    /// A stable hash of the **full** engine configuration — register
    /// pools, tier, safety checks, compile options — used as the
    /// artifact-cache key component. Two profiles that differ in any
    /// knob (even sharing a display name) fingerprint differently.
    pub fn fingerprint(&self) -> u64 {
        // Engine (and everything inside it) derives a total Debug
        // representation; FNV over it is stable across processes.
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// Parses the display name of a standard engine configuration — the
    /// inverse of [`Engine::name`] for every engine a remote client can
    /// name over the wasmperf-serve wire protocol (native-compile
    /// ablation engines are constructed programmatically, not by name).
    /// The wasm profiles accept a `+bounds` / `+pku` sandbox-ablation
    /// suffix (`chrome+bounds`, `firefox+pku`, ...); the unsuffixed name
    /// is the guard-page baseline.
    pub fn parse(name: &str) -> Option<Engine> {
        if let Some((base, suffix)) = name.split_once('+') {
            let model = match suffix {
                "bounds" => SandboxModel::Bounds,
                "pku" => SandboxModel::Pku {
                    switch_cycles: PKU_SWITCH_CYCLES,
                },
                _ => return None,
            };
            let profile = match base {
                "chrome" => EngineProfile::chrome(),
                "firefox" => EngineProfile::firefox(),
                _ => return None,
            };
            return Some(Engine::Jit(profile.with_sandbox(model)));
        }
        match name {
            "native" => Some(Engine::Native),
            "chrome" => Some(Engine::Jit(EngineProfile::chrome())),
            "firefox" => Some(Engine::Jit(EngineProfile::firefox())),
            "chrome-asmjs" => Some(Engine::Jit(EngineProfile::chrome_asmjs())),
            "firefox-asmjs" => Some(Engine::Jit(EngineProfile::firefox_asmjs())),
            _ => None,
        }
    }

    /// The sandbox-ablation set for `report sandbox`: native, the
    /// guard-page baseline, and the two alternative protection
    /// strategies on the Chrome profile.
    pub fn sandbox_set() -> Vec<Engine> {
        vec![
            Engine::Native,
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::chrome().with_sandbox(SandboxModel::Bounds)),
            Engine::Jit(EngineProfile::chrome().with_sandbox(SandboxModel::Pku {
                switch_cycles: PKU_SWITCH_CYCLES,
            })),
        ]
    }

    /// The paper's engine set for the headline SPEC comparison.
    pub fn headline() -> Vec<Engine> {
        vec![
            Engine::Native,
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::firefox()),
        ]
    }

    /// Engines for the asm.js comparison (Figures 5/6).
    pub fn asmjs_set() -> Vec<Engine> {
        vec![
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::firefox()),
            Engine::Jit(EngineProfile::chrome_asmjs()),
            Engine::Jit(EngineProfile::firefox_asmjs()),
        ]
    }

    /// Tiered engines for the Figure 1 vintages.
    pub fn vintages() -> Vec<(u32, Vec<Engine>)> {
        let years = [
            (2017, Tier::Y2017),
            (2018, Tier::Y2018),
            (2019, Tier::Y2019),
        ];
        years
            .into_iter()
            .map(|(y, t)| {
                (
                    y,
                    vec![
                        Engine::Jit(EngineProfile::chrome().at_tier(t)),
                        Engine::Jit(EngineProfile::firefox().at_tier(t)),
                    ],
                )
            })
            .collect()
    }
}

/// Result of one (benchmark, engine) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Benchmark name.
    pub bench: String,
    /// Engine name.
    pub engine: String,
    /// The program's returned checksum.
    pub checksum: i32,
    /// Performance counters of the run.
    pub counters: PerfCounters,
    /// Kernel (Browsix) statistics.
    pub kernel_syscalls: u64,
    /// Payload bytes marshalled through the kernel's auxiliary buffer.
    pub kernel_bytes: u64,
    /// Output file contents, for cross-engine `cmp` validation.
    pub outputs: Vec<(String, Vec<u8>)>,
    /// Modeled compile cost in cycles (Table 2); see [`Artifact`].
    pub compile_cycles: u64,
    /// Emitted machine-code bytes.
    pub code_bytes: u64,
}

/// A compiled, executable build of one benchmark on one engine.
///
/// This is the unit the farm's content-addressed cache shares (behind an
/// `Arc`): immutable once built, reusable by any number of concurrent
/// executions.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The executable x86-64 module.
    pub module: Module,
    /// Per-function wasm instruction texts (JIT pipeline only), for
    /// trace symbolization.
    pub func_texts: Vec<Vec<String>>,
    /// Modeled compile cost in cycles (see below).
    pub compile_cycles: u64,
}

/// Modeled AOT compile cost per emitted code byte. The clanglite
/// pipeline runs graph-coloring allocation, unrolling, and fusion — the
/// slow, thorough path (paper Table 2: tens of seconds for SPEC).
const NATIVE_COMPILE_CYCLES_PER_BYTE: u64 = 60_000;

/// Modeled JIT compile cost per emitted code byte: single pass, linear
/// scan — roughly 15× cheaper than the AOT pipeline, matching Table 2's
/// contrast. The model is deterministic (a pure function of the emitted
/// module) so compile-time tables are byte-reproducible and resumable,
/// where the previous wall-clock measurement changed on every run.
const JIT_COMPILE_CYCLES_PER_BYTE: u64 = 4_000;

/// Default execution fuel (retired-instruction budget): generous; runs
/// are bounded by workload size. wasmperf-serve maps per-request
/// deadlines onto smaller budgets via [`execute_with_fuel`].
pub const DEFAULT_FUEL: u64 = 20_000_000_000;

/// Compiles `bench` for `engine`.
pub fn prepare(bench: &Benchmark, engine: &Engine) -> Result<Artifact, Error> {
    prepare_traced(bench, engine, None).map(|(a, _)| a)
}

/// [`prepare`] with optional compile-stage spans, also returning the HIR
/// program (needed to symbolize traces).
pub fn prepare_traced(
    bench: &Benchmark,
    engine: &Engine,
    mut spans: Option<&mut SpanLog>,
) -> Result<(Artifact, HProgram), Error> {
    let compile_err = |message: String| Error::Compile {
        bench: bench.name.to_string(),
        message,
    };
    let prog = in_span(spans.as_deref_mut(), "cir/frontend", || {
        wasmperf_cir::compile(&bench.source)
    })
    .map_err(compile_err)?;
    let artifact = compile(&prog, engine, spans).map_err(compile_err)?;
    Ok((artifact, prog))
}

/// Compiles a typed program for `engine`: clanglite for the native
/// engines, emcc → validate → wasmjit for the JIT profiles. The error is
/// the failing stage's message.
pub fn compile(
    prog: &HProgram,
    engine: &Engine,
    mut spans: Option<&mut SpanLog>,
) -> Result<Artifact, String> {
    let opts = match engine {
        Engine::Native => CompileOptions::default(),
        Engine::NativeWith(opts) => opts.clone(),
        Engine::Jit(profile) => {
            // The wasm module ships to the browser; only JIT cost counts
            // (the paper measures Chrome's compile time, not
            // Emscripten's).
            let wasm = in_span(spans.as_deref_mut(), "emcc/compile", || {
                wasmperf_emcc::compile(prog)
            });
            wasmperf_wasm::validate(&wasm).map_err(|e| format!("{e:?}"))?;
            let out = in_span(spans, "wasmjit/compile", || {
                wasmperf_wasmjit::compile(&wasm, profile)
            })?;
            return Ok(Artifact {
                compile_cycles: JIT_COMPILE_CYCLES_PER_BYTE * out.module.code_bytes(),
                module: out.module,
                func_texts: out.func_texts,
            });
        }
    };
    let module = wasmperf_clanglite::compile_traced(prog, &opts, spans);
    Ok(Artifact {
        compile_cycles: NATIVE_COMPILE_CYCLES_PER_BYTE * module.code_bytes(),
        module,
        func_texts: Vec::new(),
    })
}

/// Runs `f` inside a `compile` span named `name` when a span log is
/// attached, else just runs it.
fn in_span<T>(spans: Option<&mut SpanLog>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(log) => log.scope("compile", name, f),
        None => f(),
    }
}

/// Runs a compiled artifact: stages inputs into a fresh Browsix kernel,
/// executes, and collects counters and output files.
pub fn execute(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
) -> Result<RunResult, Error> {
    execute_with_fuel(bench, engine, artifact, policy, DEFAULT_FUEL)
}

/// [`execute`] with an explicit fuel budget. A run that exhausts `fuel`
/// before `main` returns yields [`Error::OutOfFuel`] — the simulated-time
/// half of wasmperf-serve's request deadlines.
pub fn execute_with_fuel(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
    fuel: u64,
) -> Result<RunResult, Error> {
    execute_with_mode(bench, engine, artifact, policy, ExecMode::Threaded, fuel)
}

/// [`execute_with_fuel`] pinned to a specific interpreter loop.
/// `wasmperf-bench` times the threaded loop against the legacy reference
/// on identical workloads, and the differential tests compare the two;
/// results, traps, and out-of-fuel errors must match byte for byte.
pub fn execute_with_mode(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
    mode: ExecMode,
    fuel: u64,
) -> Result<RunResult, Error> {
    let host = RunHost::for_bench(bench, policy, false);
    run(bench, engine, artifact, host, mode, fuel, Trace::off()).map(|(r, ..)| r)
}

/// Runs `bench` natively while recording its complete nondeterminism
/// boundary. Returns the run's result (byte-identical to an un-recorded
/// [`execute`] — recording is observation-only) and the captured
/// [`Recording`], ready to [`wasmperf_replay::save`] and replay on every
/// pipeline.
pub fn execute_recorded(
    bench: &Benchmark,
    artifact: &Artifact,
    policy: AppendPolicy,
    size: Size,
) -> Result<(RunResult, Recording), Error> {
    let engine = Engine::Native;
    let host = RunHost::Record(Box::new(Recorder::new(policy)));
    let (result, host, _) = run(
        bench,
        &engine,
        artifact,
        host,
        ExecMode::Threaded,
        DEFAULT_FUEL,
        Trace::off(),
    )?;
    let RunHost::Record(recorder) = host else {
        unreachable!("run returns the host it was given")
    };
    let recording = recorder
        .into_recording(
            &bench.name,
            size.as_str(),
            &bench.source,
            bench.inputs.clone(),
            result.checksum,
        )
        .map_err(|e| Error::Exec {
            bench: bench.name.to_string(),
            engine: engine.name(),
            message: e.to_string(),
        })?;
    Ok((result, recording))
}

/// Compiles and runs `bench` on `engine`, with inputs staged in a fresh
/// Browsix kernel using the given append policy. Uncached — the farm
/// path ([`crate::Session`]) shares compiled artifacts instead.
pub fn run_one(
    bench: &Benchmark,
    engine: &Engine,
    policy: AppendPolicy,
) -> Result<RunResult, Error> {
    run_one_traced(bench, engine, policy, TraceConfig::off()).map(|(r, _)| r)
}

/// [`run_one`] with observability: per the config, attributes cycles to
/// instruction addresses, records every Browsix syscall, and wraps compile
/// stages and execution in wall-clock spans.
///
/// Tracing is observation-only: the returned [`RunResult`] is identical to
/// an untraced run's, counter for counter and byte for byte. With
/// [`TraceConfig::off`] no [`TraceSession`] is returned and no collection
/// work happens.
pub fn run_one_traced(
    bench: &Benchmark,
    engine: &Engine,
    policy: AppendPolicy,
    config: TraceConfig,
) -> Result<(RunResult, Option<TraceSession>), Error> {
    let mut spans = config.spans.then(SpanLog::new);
    let (artifact, prog) = prepare_traced(bench, engine, spans.as_mut())?;
    let host = RunHost::for_bench(bench, policy, config.strace);
    let trace = Trace {
        config,
        prog: Some(&prog),
        spans,
    };
    run(
        bench,
        engine,
        &artifact,
        host,
        ExecMode::Threaded,
        DEFAULT_FUEL,
        trace,
    )
    .map(|(r, _, t)| (r, t))
}

/// What one run observes beyond its [`RunResult`]. [`Trace::off`]
/// collects nothing and allocates nothing.
struct Trace<'a> {
    config: TraceConfig,
    /// The source program, for source-line symbolization of a profile.
    prog: Option<&'a HProgram>,
    /// The span log compile stages were recorded into; execution appends
    /// its `exec/run` span.
    spans: Option<SpanLog>,
}

impl Trace<'_> {
    fn off() -> Trace<'static> {
        Trace {
            config: TraceConfig::off(),
            prog: None,
            spans: None,
        }
    }
}

/// The one execution path: stages `bench`'s inputs into `host`, runs
/// `artifact` from its entry under `mode` with `fuel`, maps traps to
/// [`Error`]s, validates the host's end state, and assembles the
/// [`RunResult`]. Returns the host (a recorder's capture lives there) and,
/// when `trace` asks for anything, the [`TraceSession`].
fn run(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    mut host: RunHost,
    mode: ExecMode,
    fuel: u64,
    trace: Trace<'_>,
) -> Result<(RunResult, RunHost, Option<TraceSession>), Error> {
    let exec_err = |message: String| Error::Exec {
        bench: bench.name.to_string(),
        engine: engine.name(),
        message,
    };
    if let Some(kernel) = host.kernel_mut() {
        for (path, data) in &bench.inputs {
            kernel
                .fs
                .write_all(path, data)
                .map_err(|e| exec_err(format!("staging {path}: {e:?}")))?;
        }
    }

    let module = &artifact.module;
    let entry = module.entry.ok_or_else(|| exec_err("no main".into()))?;
    let Trace {
        config,
        prog,
        mut spans,
    } = trace;
    let mut machine = Machine::new(module, host);
    machine.set_exec_mode(mode);
    if config.profile {
        machine.enable_profile();
    }
    let open = spans.as_ref().map(SpanLog::enter);
    let out = machine.run(entry, &[], fuel);
    if let (Some(log), Some(open)) = (spans.as_mut(), open) {
        log.exit(open, "exec", "run");
    }
    let profile = machine.take_profile();
    let mut host = machine.into_host();

    let out = out.map_err(|e| {
        if e.kind == TrapKind::OutOfFuel {
            Error::OutOfFuel {
                bench: bench.name.to_string(),
                engine: engine.name(),
                fuel,
            }
        } else if let Some(msg) = host.divergence() {
            exec_err(format!("replay divergence: {msg}"))
        } else {
            exec_err(format!("{e:?}"))
        }
    })?;
    let checksum = out.ret as u32 as i32;
    let outputs = host.finish(bench, checksum).map_err(exec_err)?;
    let result = RunResult {
        bench: bench.name.to_string(),
        engine: engine.name(),
        checksum,
        counters: out.counters,
        kernel_syscalls: host.stats().syscalls,
        kernel_bytes: host.stats().bytes_marshalled,
        outputs,
        compile_cycles: artifact.compile_cycles,
        code_bytes: module.code_bytes(),
    };

    let session = if config.is_off() {
        None
    } else {
        let mut t = TraceSession::new(&result.bench, &result.engine);
        t.spans = spans.map(|l| l.spans).unwrap_or_default();
        t.strace = host.take_strace();
        t.profile = profile;
        if config.profile {
            let mut symbols = SymbolMap::from_module(module);
            if let Some(prog) = prog {
                symbols.attach_source(&wasmperf_clanglite::source_table(prog));
            }
            if !artifact.func_texts.is_empty() {
                symbols.attach_wasm_texts(module, &artifact.func_texts);
            }
            t.symbols = Some(symbols);
        }
        let c = &result.counters;
        t.totals = vec![
            ("instructions_retired", c.instructions_retired),
            ("cycles", c.cycles),
            ("icache_misses", c.icache_misses),
            ("dcache_misses", c.dcache_misses),
            ("branch_mispredicts", c.branch_mispredicts),
            ("host_calls", c.host_calls),
            ("host_cycles", c.host_cycles),
            ("total_cycles", c.total_cycles()),
        ];
        Some(t)
    };
    Ok((result, host, session))
}

/// The host behind one execution: a live Browsix kernel, a recorder
/// wrapping one ([`execute_recorded`]), or a replay kernel answering
/// syscalls from a recording ([`Suite::Replay`] benchmarks).
///
/// [`Suite::Replay`]: wasmperf_benchsuite::Suite::Replay
enum RunHost {
    Live(Box<Kernel>),
    Record(Box<Recorder>),
    Replay(ReplayKernel),
}

impl RunHost {
    /// The host for `bench`: a replay kernel when the benchmark carries a
    /// recording, else a fresh kernel (inputs are staged by [`run`]).
    fn for_bench(bench: &Benchmark, policy: AppendPolicy, strace: bool) -> RunHost {
        let strace = strace.then(StraceLog::default);
        match &bench.replay {
            Some(rec) => {
                let mut k = ReplayKernel::new(rec.clone());
                k.strace = strace;
                RunHost::Replay(k)
            }
            None => {
                let mut k = Kernel::new(policy);
                k.strace = strace;
                RunHost::Live(Box::new(k))
            }
        }
    }

    /// The live kernel behind a live or recording host.
    fn kernel_mut(&mut self) -> Option<&mut Kernel> {
        match self {
            RunHost::Live(k) => Some(k),
            RunHost::Record(r) => Some(&mut r.kernel),
            RunHost::Replay(_) => None,
        }
    }

    fn stats(&self) -> &KernelStats {
        match self {
            RunHost::Live(k) => &k.stats,
            RunHost::Record(r) => &r.kernel.stats,
            RunHost::Replay(k) => &k.stats,
        }
    }

    /// The syscall trace, if one was asked for. A recorder's strace log
    /// is its capture, so it stays with the recorder.
    fn take_strace(&mut self) -> Option<StraceLog> {
        match self {
            RunHost::Live(k) => k.strace.take(),
            RunHost::Record(_) => None,
            RunHost::Replay(k) => k.strace.take(),
        }
    }

    /// Post-run validation and output collection. A replay host must have
    /// consumed its recording exactly and reproduced the recorded
    /// checksum; a live host yields the benchmark's declared output
    /// files.
    fn finish(&self, bench: &Benchmark, checksum: i32) -> Result<Vec<(String, Vec<u8>)>, String> {
        let kernel = match self {
            RunHost::Live(k) => k,
            RunHost::Record(r) => &r.kernel,
            RunHost::Replay(k) => {
                k.finish().map_err(|e| e.to_string())?;
                let rec = bench
                    .replay
                    .as_ref()
                    .expect("replay host without recording");
                if checksum != rec.checksum {
                    return Err(format!(
                        "replay checksum {checksum} != recorded {}",
                        rec.checksum
                    ));
                }
                return Ok(Vec::new());
            }
        };
        bench
            .outputs
            .iter()
            .map(|path| {
                kernel
                    .fs
                    .read_all(path)
                    .map(|data| (path.clone(), data))
                    .map_err(|e| format!("output {path}: {e:?}"))
            })
            .collect()
    }

    /// The divergence message, if this is a replay host that strayed
    /// from its recording (the cause behind an `Abort` trap).
    fn divergence(&self) -> Option<&str> {
        match self {
            RunHost::Replay(k) => k.divergence(),
            _ => None,
        }
    }
}

impl HostEnv for RunHost {
    fn call(
        &mut self,
        id: u32,
        args: &[u64; 6],
        mem: &mut Memory,
    ) -> Result<HostOutcome, TrapKind> {
        match self {
            RunHost::Live(k) => k.call(id, args, mem),
            RunHost::Record(r) => r.call(id, args, mem),
            RunHost::Replay(k) => k.call(id, args, mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasmperf_benchsuite::{spec, Size};

    #[test]
    fn parse_inverts_name_for_standard_engines() {
        for e in Engine::headline()
            .iter()
            .chain(Engine::asmjs_set().iter())
            .chain(Engine::sandbox_set().iter())
        {
            assert_eq!(Engine::parse(&e.name()).as_ref(), Some(e), "{}", e.name());
        }
        assert_eq!(Engine::parse("safari"), None);
        assert_eq!(Engine::parse(""), None);
        assert_eq!(Engine::parse("chrome+guard"), None);
        assert_eq!(Engine::parse("chrome-asmjs+bounds"), None);
        assert_eq!(Engine::parse("native+pku"), None);
        // Ablation engines are not nameable over the wire.
        let ablation = Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        });
        assert_eq!(Engine::parse(&ablation.name()), None);
    }

    #[test]
    fn fuel_budget_bounds_execution() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let e = Engine::Native;
        let artifact = prepare(&b, &e)?;
        // A generous budget matches the default-fuel path byte for byte.
        let full = execute_with_fuel(&b, &e, &artifact, AppendPolicy::Chunked4K, DEFAULT_FUEL)?;
        assert_eq!(full, execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?);
        // A budget below the run's retired instructions is a structured
        // deadline error, not a stringly Exec failure.
        let tiny = execute_with_fuel(&b, &e, &artifact, AppendPolicy::Chunked4K, 1_000);
        assert_eq!(
            tiny.unwrap_err(),
            Error::OutOfFuel {
                bench: "401.bzip2".into(),
                engine: "native".into(),
                fuel: 1_000,
            }
        );
        Ok(())
    }

    #[test]
    fn engines_have_distinct_names() {
        let names: Vec<String> = Engine::headline()
            .iter()
            .chain(Engine::asmjs_set().iter())
            .map(Engine::name)
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        // headline ∩ asmjs_set share chrome/firefox.
        assert!(dedup.len() >= 5, "{names:?}");
    }

    #[test]
    fn distinct_ablation_configs_share_neither_name_nor_result_key() {
        let a = Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        });
        let b = Engine::NativeWith(CompileOptions {
            fuse_addressing: false,
            ..CompileOptions::default()
        });
        // Result rows, labels, and trace keys use the display name, so a
        // shared "native-custom" would silently merge two ablations.
        assert_ne!(a.name(), b.name());
        assert!(a.name().starts_with("native-custom-"), "{}", a.name());
        let bench = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let key = |e: &Engine| {
            crate::farm::job_spec(&bench, e, Size::Test, AppendPolicy::Chunked4K, 0).key()
        };
        assert_ne!(key(&a), key(&b));
        // Name and key stay deterministic run to run.
        assert_eq!(a.name(), a.name());
        assert_eq!(key(&a), key(&a));
    }

    #[test]
    fn fingerprints_distinguish_every_configuration() {
        let mut engines: Vec<Engine> = Engine::headline();
        engines.extend(Engine::asmjs_set());
        for (_, vintage) in Engine::vintages() {
            engines.extend(vintage);
        }
        engines.push(Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        }));
        engines.push(Engine::Jit(EngineProfile {
            stack_check: false,
            ..EngineProfile::chrome()
        }));
        engines.push(Engine::Jit(
            EngineProfile::chrome().with_sandbox(SandboxModel::Bounds),
        ));
        engines.push(Engine::Jit(EngineProfile::firefox().with_sandbox(
            SandboxModel::Pku {
                switch_cycles: PKU_SWITCH_CYCLES,
            },
        )));
        let mut prints: Vec<u64> = engines.iter().map(Engine::fingerprint).collect();
        let before = prints.len();
        prints.sort();
        prints.dedup();
        // headline ∩ asmjs_set ∩ vintages share chrome/firefox at Y2019
        // (identical configurations fingerprint identically); everything
        // configured differently must differ.
        assert_eq!(prints.len(), before - 2, "{engines:?}");
        // Determinism: same configuration, same fingerprint.
        assert_eq!(Engine::Native.fingerprint(), Engine::Native.fingerprint());
    }

    #[test]
    fn one_io_benchmark_runs_on_all_headline_engines() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let mut checksums = Vec::new();
        for e in Engine::headline() {
            let r = run_one(&b, &e, AppendPolicy::Chunked4K)?;
            assert!(r.counters.instructions_retired > 0);
            assert!(r.kernel_syscalls > 0);
            assert!(!r.outputs[0].1.is_empty());
            checksums.push((r.checksum, r.outputs));
        }
        // Every engine agrees on checksum and output bytes (the cmp step).
        for w in checksums.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        Ok(())
    }

    #[test]
    fn prepare_execute_split_matches_run_one() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let e = Engine::Jit(EngineProfile::chrome());
        let artifact = prepare(&b, &e)?;
        assert!(artifact.compile_cycles > 0);
        let split = execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?;
        let fused = run_one(&b, &e, AppendPolicy::Chunked4K)?;
        assert_eq!(split, fused);
        // The artifact is reusable: a second execution is identical.
        let again = execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?;
        assert_eq!(split, again);
        Ok(())
    }

    #[test]
    fn compile_cost_model_contrasts_aot_and_jit() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let native = prepare(&b, &Engine::Native)?;
        let jit = prepare(&b, &Engine::Jit(EngineProfile::chrome()))?;
        // Table 2's shape: the AOT pipeline is far more expensive than
        // the JIT, even though the JIT emits more code.
        assert!(native.compile_cycles > 3 * jit.compile_cycles);
        Ok(())
    }
}
