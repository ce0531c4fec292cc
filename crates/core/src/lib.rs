//! wasmperf: the public facade for the WebAssembly-vs-native pipeline.
//!
//! This crate re-exports the whole stack and offers a one-stop
//! [`Pipeline`] API for the common workflow: take a CLite program, compile
//! it natively and for every browser engine, execute each build on the
//! performance-model CPU with a Browsix kernel, and compare.
//!
//! ```
//! use wasmperf_core::{Pipeline, EngineKind};
//!
//! let src = "
//!     fn main() -> i32 {
//!         var s: i32 = 0;
//!         var i: i32 = 0;
//!         for (i = 1; i <= 100; i += 1) { s += i * i; }
//!         return s;
//!     }";
//! let pipeline = Pipeline::new(src).unwrap();
//! let native = pipeline.run(EngineKind::Native).unwrap();
//! let chrome = pipeline.run(EngineKind::Chrome).unwrap();
//! assert_eq!(native.checksum, chrome.checksum);
//! assert!(chrome.counters.instructions_retired > native.counters.instructions_retired);
//! ```
//!
//! The individual subsystems remain available under their own names:
//! [`isa`], [`cpu`], [`wasm`], [`cir`], [`regalloc`], [`clanglite`],
//! [`emcc`], [`wasmjit`], [`browsix`], [`benchsuite`], [`harness`],
//! [`trace`].

pub use wasmperf_benchsuite as benchsuite;
pub use wasmperf_browsix as browsix;
pub use wasmperf_cir as cir;
pub use wasmperf_clanglite as clanglite;
pub use wasmperf_cpu as cpu;
pub use wasmperf_emcc as emcc;
pub use wasmperf_harness as harness;
pub use wasmperf_isa as isa;
pub use wasmperf_regalloc as regalloc;
pub use wasmperf_trace as trace;
pub use wasmperf_wasm as wasm;
pub use wasmperf_wasmjit as wasmjit;

use wasmperf_browsix::{AppendPolicy, Kernel};
use wasmperf_cpu::{Machine, PerfCounters};
use wasmperf_harness::{Engine, DEFAULT_FUEL};
use wasmperf_wasmjit::EngineProfile;

/// The engines a [`Pipeline`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Clang-like ahead-of-time native compilation.
    Native,
    /// Chrome-profile WebAssembly JIT.
    Chrome,
    /// Firefox-profile WebAssembly JIT.
    Firefox,
    /// Chrome running asm.js.
    ChromeAsmjs,
    /// Firefox running asm.js.
    FirefoxAsmjs,
}

impl EngineKind {
    /// The harness engine this kind names.
    fn engine(self) -> Engine {
        match self {
            EngineKind::Native => Engine::Native,
            EngineKind::Chrome => Engine::Jit(EngineProfile::chrome()),
            EngineKind::Firefox => Engine::Jit(EngineProfile::firefox()),
            EngineKind::ChromeAsmjs => Engine::Jit(EngineProfile::chrome_asmjs()),
            EngineKind::FirefoxAsmjs => Engine::Jit(EngineProfile::firefox_asmjs()),
        }
    }
}

/// Outcome of one pipeline execution.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The program's returned value.
    pub checksum: i32,
    /// Performance counters (the `perf` view).
    pub counters: PerfCounters,
    /// Bytes written to stdout via the Browsix kernel.
    pub stdout: Vec<u8>,
    /// Emitted machine-code size in bytes.
    pub code_bytes: u64,
}

/// A compiled CLite program ready to run on any engine.
///
/// Compilation goes through [`harness::compile`], the same code path the
/// harness and the farm use. Execution keeps its own [`Machine`] rather
/// than calling [`harness::execute`]: [`Execution::stdout`] needs the live
/// kernel after the run, which a [`harness::RunResult`] does not carry.
pub struct Pipeline {
    prog: wasmperf_cir::HProgram,
    /// Files staged into the kernel before each run.
    pub input_files: Vec<(String, Vec<u8>)>,
}

impl Pipeline {
    /// Parses and typechecks `source` (CLite).
    pub fn new(source: &str) -> Result<Pipeline, String> {
        Ok(Pipeline {
            prog: wasmperf_cir::compile(source)?,
            input_files: Vec::new(),
        })
    }

    /// Stages a file into the Browsix filesystem for subsequent runs.
    pub fn with_input(mut self, path: &str, data: Vec<u8>) -> Pipeline {
        self.input_files.push((path.to_string(), data));
        self
    }

    /// The typed program (for inspection).
    pub fn program(&self) -> &wasmperf_cir::HProgram {
        &self.prog
    }

    /// Compiles for `engine` and executes `main` under a fresh Browsix
    /// kernel.
    pub fn run(&self, engine: EngineKind) -> Result<Execution, String> {
        let module = wasmperf_harness::compile(&self.prog, &engine.engine(), None)?.module;
        let mut kernel = Kernel::new(AppendPolicy::Chunked4K);
        for (path, data) in &self.input_files {
            kernel
                .fs
                .write_all(path, data)
                .map_err(|e| format!("staging {path}: {e:?}"))?;
        }
        let entry = module.entry.ok_or("program has no main")?;
        let mut machine = Machine::new(&module, kernel);
        let out = machine
            .run(entry, &[], DEFAULT_FUEL)
            .map_err(|e| e.to_string())?;
        let kernel = machine.into_host();
        Ok(Execution {
            checksum: out.ret as u32 as i32,
            counters: out.counters,
            stdout: kernel.stdout,
            code_bytes: module.code_bytes(),
        })
    }

    /// Runs every engine and checks they agree on the checksum; returns
    /// the results keyed by engine.
    pub fn run_all(&self) -> Result<Vec<(EngineKind, Execution)>, String> {
        let engines = [
            EngineKind::Native,
            EngineKind::Chrome,
            EngineKind::Firefox,
            EngineKind::ChromeAsmjs,
            EngineKind::FirefoxAsmjs,
        ];
        let mut out = Vec::new();
        for e in engines {
            out.push((e, self.run(e)?));
        }
        let first = out[0].1.checksum;
        for (e, r) in &out {
            if r.checksum != first {
                return Err(format!("{e:?} disagrees: {} vs {first}", r.checksum));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_all_engines_consistently() {
        let src = "
            array i32 A[128];
            fn main() -> i32 {
                var i: i32 = 0;
                var s: i32 = 0;
                for (i = 0; i < 128; i += 1) { A[i] = i * 7 % 11; }
                for (i = 0; i < 128; i += 1) { s = s * 31 + A[i]; }
                return s;
            }";
        let p = Pipeline::new(src).unwrap();
        let all = p.run_all().unwrap();
        assert_eq!(all.len(), 5);
        let native = &all[0].1;
        let chrome = &all[1].1;
        assert!(chrome.counters.cycles > native.counters.cycles);
        assert!(chrome.counters.instructions_retired > native.counters.instructions_retired);
    }

    #[test]
    fn inputs_are_staged() {
        let src = "
            array u8 buf[16];
            array u8 path = \"/in\\0\";
            fn main() -> i32 {
                var fd: i32 = syscall(5, path, 0, 0);
                var n: i32 = syscall(3, fd, buf, 16);
                return n * 1000 + buf[0];
            }";
        let p = Pipeline::new(src)
            .unwrap()
            .with_input("/in", b"abc".to_vec());
        let r = p.run(EngineKind::Native).unwrap();
        assert_eq!(r.checksum, 3 * 1000 + b'a' as i32);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Pipeline::new("fn main( {").is_err());
    }
}
