//! One operation replayed layer by layer, timing each call from outside.
//!
//! `harness::engine::prepare` and `execute` are compositions of public
//! crate functions. The traced run calls those functions one at a time,
//! under spans named after their crates, and checks that the pieces
//! reproduce the composed result exactly. Register allocation runs inside
//! the clanglite and wasmjit backends and cannot be split from outside.

use wasmperf_benchsuite::Benchmark;
use wasmperf_browsix::{AppendPolicy, Kernel};
use wasmperf_clanglite::CompileOptions;
use wasmperf_cpu::{Cache, HostEnv, Machine, PerfCounters, Predecoded, Threaded, TimingModel};
use wasmperf_harness::{Engine, DEFAULT_FUEL};
use wasmperf_isa::Module;
use wasmperf_replay::ReplayKernel;

use crate::trace::Tracer;
use crate::Report;

/// A module compiled layer by layer, with the byte counts of its stages.
pub struct Compiled {
    pub module: Module,
    /// Size of the encoded wasm binary (0 on the native pipeline).
    pub wasm_bytes: u64,
    /// Emitted machine-code bytes.
    pub code_bytes: u64,
}

/// Emitted bytes summed over several layered compiles.
#[derive(Default)]
pub struct CodeBytes {
    wasm: u64,
    jit: u64,
    native: u64,
}

impl CodeBytes {
    pub fn add(&mut self, engine: &Engine, compiled: &Compiled) {
        match engine {
            Engine::Native => self.native += compiled.code_bytes,
            _ => {
                self.wasm += compiled.wasm_bytes;
                self.jit += compiled.code_bytes;
            }
        }
    }

    pub fn insert(&self, report: &mut Report) {
        let m = &mut report.metrics;
        m.insert("emcc.wasm_bytes", self.wasm as f64);
        m.insert("wasmjit.code_bytes", self.jit as f64);
        m.insert("clanglite.code_bytes", self.native as f64);
    }
}

/// cir → clanglite, or cir → emcc → validate → wasmjit, one span each.
pub fn compile(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
    bench: &Benchmark,
    engine: &Engine,
) -> Result<Compiled, String> {
    let prog = tr.time("cir.compile", parent, req, || {
        wasmperf_cir::compile(&bench.source)
    })?;
    match engine {
        Engine::Native => {
            let module = tr.time("clanglite.compile", parent, req, || {
                wasmperf_clanglite::compile_traced(&prog, &CompileOptions::default(), None)
            });
            let code_bytes = module.code_bytes();
            Ok(Compiled {
                module,
                wasm_bytes: 0,
                code_bytes,
            })
        }
        Engine::Jit(profile) => {
            let wasm = tr.time("emcc.compile", parent, req, || {
                wasmperf_emcc::compile(&prog)
            });
            tr.time("wasm.validate", parent, req, || {
                wasmperf_wasm::validate(&wasm)
            })
            .map_err(|e| format!("{e:?}"))?;
            let out = tr.time("wasmjit.compile", parent, req, || {
                wasmperf_wasmjit::compile(&wasm, profile)
            })?;
            let code_bytes = out.module.code_bytes();
            Ok(Compiled {
                module: out.module,
                wasm_bytes: wasmperf_wasm::binary::encode(&wasm).len() as u64,
                code_bytes,
            })
        }
        Engine::NativeWith(_) => Err("ablation engines are not part of any workload".into()),
    }
}

/// What a layer-by-layer execution returns for cross-checking against
/// the composed `execute`.
pub struct Executed {
    pub checksum: i32,
    pub counters: PerfCounters,
}

/// Host staging (a Browsix kernel with the inputs written, or a replay
/// kernel), `Machine::new`, and `Machine::run`, one span each. Replayed
/// benchmarks run under `replay.run`, live ones under `cpu.run`.
pub fn execute(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
    bench: &Benchmark,
    module: &Module,
) -> Result<Executed, String> {
    match &bench.replay {
        Some(rec) => {
            let host = tr.time("browsix.stage", parent, req, || {
                ReplayKernel::new(rec.clone())
            });
            run(tr, parent, req, "replay.run", module, host)
        }
        None => {
            let host = tr.time("browsix.stage", parent, req, || {
                let mut kernel = Kernel::new(AppendPolicy::Chunked4K);
                for (path, data) in &bench.inputs {
                    kernel
                        .fs
                        .write_all(path, data)
                        .map_err(|e| format!("staging {path}: {e:?}"))?;
                }
                Ok::<_, String>(kernel)
            })?;
            run(tr, parent, req, "cpu.run", module, host)
        }
    }
}

fn run<H: HostEnv>(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
    run_span: &'static str,
    module: &Module,
    host: H,
) -> Result<Executed, String> {
    let entry = module.entry.ok_or("no main")?;
    let mut machine = tr.time("cpu.machine_new", parent, req, || {
        Machine::new(module, host)
    });
    let out = tr
        .time(run_span, parent, req, || {
            machine.run(entry, &[], DEFAULT_FUEL)
        })
        .map_err(|e| format!("{e:?}"))?;
    Ok(Executed {
        checksum: out.ret as u32 as i32,
        counters: out.counters,
    })
}

/// The two halves of machine set-up timed on their own: predecoding
/// (which `Machine::new` performs) and superblock formation (which the
/// first threaded `Machine::run` performs).
pub fn machine_setup(tr: &mut Tracer, req: u64, module: &Module) {
    let line = Cache::l1().line_bytes();
    let pre = tr.time("cpu.predecode", None, req, || {
        Predecoded::new(module, &TimingModel::default(), line)
    });
    let threaded = tr.time("cpu.superblock", None, req, || Threaded::new(&pre, line));
    std::hint::black_box(threaded);
}
