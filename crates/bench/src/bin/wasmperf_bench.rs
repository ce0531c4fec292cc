//! Simulator-throughput harness: how many *simulated* instructions per
//! host second the interpreter loops sustain.
//!
//! Runs a fixed benchmark × engine matrix through the direct-threaded
//! superblock loop ([`ExecMode::Threaded`]) and the legacy
//! per-instruction loop ([`ExecMode::Legacy`]), asserts both produce
//! byte-identical results (the unobservable contract), and writes one
//! JSON report (see docs/PERFORMANCE.md for the schema). With
//! `--check <baseline.json>` it exits non-zero if any per-benchmark
//! threaded-over-legacy speedup regressed more than 20% against the
//! checked-in baseline, naming the offending row — a host-independent
//! ratio, so CI machines of any speed can gate on it.
//!
//! Usage:
//!
//! ```text
//! wasmperf-bench [--quick] [--filter SUBSTR] [--out OUT.json]
//!                [--check BASELINE.json [--gate-threaded]] [--sandbox]
//! ```
//!
//! `--filter SUBSTR` keeps only benchmarks whose name contains SUBSTR
//! (applied after `--quick`'s matrix selection). `--gate-threaded`
//! exits non-zero unless the threaded geomean speedup is at least the
//! geomean of the baseline's recorded `predecoded_speedup` over the rows
//! this run measured (the retired predecoded loop's speedup, which
//! `BENCH_PR8.json` records); a measured row without that field fails
//! the gate. `--sandbox` extends the engine matrix with the
//! heap-protection ablations (`chrome+bounds`, `chrome+pku`, see
//! docs/SANDBOX.md) so interpreter-throughput effects of the extra check
//! instructions are measurable; `--check` skips rows its baseline lacks.

use std::time::Instant;

use wasmperf_benchsuite::{Benchmark, Size};
use wasmperf_browsix::AppendPolicy;
use wasmperf_cpu::ExecMode;
use wasmperf_farm::Json;
use wasmperf_harness::engine::{execute_with_mode, prepare, Artifact, Engine, RunResult};
use wasmperf_harness::DEFAULT_FUEL;
use wasmperf_wasmjit::EngineProfile;

/// One measured matrix cell: simulated MIPS under each loop.
struct Row {
    bench: String,
    engine: String,
    instructions: u64,
    legacy_mips: f64,
    threaded_mips: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.threaded_mips / self.legacy_mips
    }
}

/// The regression gate: fail `--check` if a row's speedup drops below
/// 80% of the baseline's.
const REGRESSION_TOLERANCE: f64 = 0.8;

fn benchmarks(quick: bool, filter: Option<&str>) -> Vec<Benchmark> {
    let names: &[&str] = if quick {
        &["gemm", "401.bzip2"]
    } else {
        &["gemm", "lu", "fdtd-2d", "401.bzip2", "458.sjeng"]
    };
    wasmperf_benchsuite::all(Size::Test)
        .into_iter()
        .filter(|b| names.contains(&b.name.as_str()))
        .filter(|b| filter.is_none_or(|f| b.name.contains(f)))
        .collect()
}

fn engines(quick: bool, sandbox: bool) -> Vec<Engine> {
    let mut engines = if quick {
        vec![Engine::Native, Engine::Jit(EngineProfile::chrome())]
    } else {
        Engine::headline()
    };
    if sandbox {
        for e in Engine::sandbox_set() {
            if !engines.contains(&e) {
                engines.push(e);
            }
        }
    }
    engines
}

/// Times `reps` executions and returns the best simulated-MIPS figure
/// (min wall time, like any throughput benchmark) plus one result for
/// the equivalence check.
fn measure(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    mode: ExecMode,
    reps: u32,
) -> (f64, RunResult) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = execute_with_mode(
            bench,
            engine,
            artifact,
            AppendPolicy::Chunked4K,
            mode,
            DEFAULT_FUEL,
        )
        .unwrap_or_else(|e| panic!("{}/{}: {e:?}", bench.name, engine.name()));
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    let result = result.expect("at least one rep");
    let mips = result.counters.instructions_retired as f64 / best / 1e6;
    (mips, result)
}

fn row_json(r: &Row) -> Json {
    Json::Obj(vec![
        ("bench".into(), Json::Str(r.bench.clone())),
        ("engine".into(), Json::Str(r.engine.clone())),
        ("instructions".into(), Json::u64(r.instructions)),
        ("legacy_mips".into(), Json::Num(r.legacy_mips)),
        ("threaded_mips".into(), Json::Num(r.threaded_mips)),
        ("threaded_speedup".into(), Json::Num(r.speedup())),
    ])
}

/// `field` of the baseline row for `row`'s (bench, engine), if the
/// baseline has that row and the row has that numeric field.
fn baseline_field(baseline: &Json, row: &Row, field: &str) -> Option<f64> {
    baseline
        .get("rows")?
        .as_arr()?
        .iter()
        .find(|b| {
            b.get("bench").and_then(Json::as_str) == Some(&row.bench)
                && b.get("engine").and_then(Json::as_str) == Some(&row.engine)
        })?
        .get(field)?
        .as_f64()
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = vals.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// `--check`: every measured row the baseline also has must keep at
/// least 80% of the baseline's threaded speedup. Returns the failures;
/// a baseline sharing no row with this run is itself a failure.
fn regressions(rows: &[Row], baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for row in rows {
        // The baseline may cover a different matrix (--quick, --sandbox).
        let Some(base) = baseline_field(baseline, row, "threaded_speedup") else {
            continue;
        };
        matched += 1;
        let speedup = row.speedup();
        if speedup < base * REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}/{}: speedup {speedup:.2}x < {:.2}x (80% of baseline {base:.2}x)",
                row.bench,
                row.engine,
                base * REGRESSION_TOLERANCE
            ));
        }
    }
    if matched == 0 {
        failures.push(
            "no baseline row with threaded_speedup matches this run — check is vacuous".into(),
        );
    }
    failures
}

/// `--gate-threaded`'s floor: the geomean of the baseline's
/// `predecoded_speedup` over exactly the rows this run measured, or the
/// first measured row that lacks one.
fn predecoded_floor(rows: &[Row], baseline: &Json) -> Result<f64, String> {
    let mut floors = Vec::new();
    for row in rows {
        match baseline_field(baseline, row, "predecoded_speedup") {
            Some(f) => floors.push(f),
            None => {
                return Err(format!(
                    "{}/{}: baseline has no predecoded_speedup for this row",
                    row.bench, row.engine
                ))
            }
        }
    }
    Ok(geomean(floors.into_iter()))
}

fn main() {
    let mut out_path = "BENCH_PR8.json".to_string();
    let mut check_path: Option<String> = None;
    let mut quick = false;
    let mut filter: Option<String> = None;
    let mut gate_threaded = false;
    let mut sandbox = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            "--quick" => quick = true,
            "--filter" => filter = Some(args.next().expect("--filter needs a substring")),
            "--gate-threaded" => gate_threaded = true,
            "--sandbox" => sandbox = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    if gate_threaded && check_path.is_none() {
        eprintln!("--gate-threaded reads its floor from the --check baseline; pass --check");
        std::process::exit(2);
    }
    let reps = if quick { 2 } else { 3 };

    let benches = benchmarks(quick, filter.as_deref());
    if benches.is_empty() {
        eprintln!("no benchmarks match the filter");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for bench in &benches {
        for engine in &engines(quick, sandbox) {
            let artifact = prepare(bench, engine)
                .unwrap_or_else(|e| panic!("{}/{}: {e:?}", bench.name, engine.name()));
            let (legacy_mips, legacy) = measure(bench, engine, &artifact, ExecMode::Legacy, reps);
            let (threaded_mips, threaded) =
                measure(bench, engine, &artifact, ExecMode::Threaded, reps);
            // The threaded loop is an unobservable optimization:
            // byte-identical results, counters, traps, and output files.
            assert_eq!(
                threaded,
                legacy,
                "{}/{}: threaded and legacy runs diverged",
                bench.name,
                engine.name()
            );
            let row = Row {
                bench: bench.name.to_string(),
                engine: engine.name(),
                instructions: legacy.counters.instructions_retired,
                legacy_mips,
                threaded_mips,
            };
            eprintln!(
                "{:>12} {:>10}  legacy {:>7.1} sim-MIPS | threaded {:>7.1} ({:.2}x)",
                row.bench,
                row.engine,
                row.legacy_mips,
                row.threaded_mips,
                row.speedup()
            );
            rows.push(row);
        }
    }

    let g = geomean(rows.iter().map(Row::speedup));
    eprintln!("geomean threaded speedup: {g:.2}x over {} rows", rows.len());

    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("wasmperf-bench/3".into())),
        ("quick".into(), Json::Bool(quick)),
        (
            "geomeans".into(),
            Json::Obj(vec![("threaded".into(), Json::Num(g))]),
        ),
        (
            "rows".into(),
            Json::Arr(rows.iter().map(row_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    let Some(path) = check_path else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("read baseline");
    let baseline = Json::parse(&text).expect("parse baseline");
    if gate_threaded {
        match predecoded_floor(&rows, &baseline) {
            Ok(floor) if g >= floor => {
                eprintln!("--gate-threaded: threaded {g:.2}x >= predecoded floor {floor:.3}x")
            }
            Ok(floor) => {
                eprintln!(
                    "--gate-threaded: threaded geomean {g:.2}x < predecoded floor {floor:.3}x"
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("--gate-threaded: {e} (in {path})");
                std::process::exit(1);
            }
        }
    }
    let failures = regressions(&rows, &baseline);
    if !failures.is_empty() {
        eprintln!("throughput regression vs {path}:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    eprintln!("no regression vs {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &str, engine: &str, speedup: f64) -> Row {
        Row {
            bench: bench.into(),
            engine: engine.into(),
            instructions: 1,
            legacy_mips: 1.0,
            threaded_mips: speedup,
        }
    }

    #[test]
    fn gates_fail_closed_on_missing_baseline_fields() {
        let baseline = Json::parse(
            r#"{"rows":[
                {"bench":"gemm","engine":"native","predecoded_speedup":2.5,"threaded_speedup":3.0},
                {"bench":"gemm","engine":"chrome","threaded_speedup":3.0}]}"#,
        )
        .unwrap();
        let native = row("gemm", "native", 2.9);
        let floor = predecoded_floor(std::slice::from_ref(&native), &baseline).unwrap();
        assert!((floor - 2.5).abs() < 1e-12, "{floor}");
        // A measured row the baseline has no predecoded figure for fails
        // the gate instead of dropping out of the floor.
        let both = [native, row("gemm", "chrome", 3.0)];
        assert!(predecoded_floor(&both, &baseline)
            .unwrap_err()
            .contains("gemm/chrome"));
        assert!(regressions(&both, &baseline).is_empty());
        // A 20%+ drop is a named regression; no shared row is vacuous.
        let slow = [row("gemm", "native", 2.3)];
        assert!(regressions(&slow, &baseline)[0].contains("gemm/native"));
        assert!(regressions(&[row("lu", "native", 3.0)], &baseline)[0].contains("vacuous"));
    }
}
