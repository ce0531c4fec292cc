//! BROWSIX-SPEC: the measurement harness.
//!
//! The paper's harness (§3) launches browsers via Selenium, serves
//! benchmark assets, attaches `perf` to the right browser thread, collects
//! counters, and validates outputs with `cmp`. This crate is its analog
//! for the simulated platform:
//!
//! - [`engine`]: the engines under test — native (clanglite), the wasm
//!   JITs (Chrome/Firefox profiles at any tier), and the asm.js modes —
//!   with a uniform "compile, stage inputs, execute, collect counters"
//!   entry point;
//! - [`session`]: the front end of the **farm** — submits (benchmark ×
//!   engine) jobs to a worker pool, compiles each pair exactly once via a
//!   content-addressed artifact cache, resumes recorded jobs from a
//!   persistent result store, and *validates* that every engine produced
//!   the same checksum and output files (the `cmp` step);
//! - [`farm`]: the bridge to `wasmperf-farm` — content hashing of
//!   benchmarks/engines into job specs, and the lossless result codec
//!   used by the store;
//! - [`error`]: the structured [`Error`] every stage surfaces instead of
//!   panicking;
//! - [`stats`]: mean/standard-error/geomean/median, plus the seeded
//!   measurement-noise model that gives the paper's "± stderr of 5 runs"
//!   columns meaning in a deterministic simulator;
//! - [`experiments`]: one function per paper table and figure, each
//!   returning both raw series and a rendered table;
//! - the `report` binary, which regenerates any or all of them.

pub mod engine;
pub mod error;
pub mod experiments;
pub mod farm;
pub mod render;
pub mod session;
pub mod stats;

pub use engine::{
    compile, execute, execute_recorded, execute_with_fuel, execute_with_mode, prepare, run_one,
    run_one_traced, Artifact, Engine, RunResult, DEFAULT_FUEL,
};
pub use error::Error;
pub use session::{FarmStats, Session};
pub use wasmperf_trace::{TraceConfig, TraceSession};
