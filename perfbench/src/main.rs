//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload sim-suite|fleet-cold --seed N --seconds S
//!           --trace 0|1 --fleet-bin PATH --work-dir DIR
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate traced
//! measurement. `perfbench/run.py` builds the binaries and supplies the
//! last two flags. See `perfbench/README.md` for what each metric means.

mod fleet;
mod hostspeed;
mod layers;
mod procfs;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use trace::Tracer;
use wasmperf_harness::RunResult;

/// The engines every workload cycles through.
pub const ENGINES: [&str; 3] = ["native", "chrome", "firefox"];

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("sim_mips", "MIPS"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rps", "1/s"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload never enters reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("cir.compile_ms", "ms"),
    ("emcc.compile_ms", "ms"),
    ("emcc.wasm_bytes", "bytes"),
    ("wasm.validate_ms", "ms"),
    ("wasmjit.compile_ms", "ms"),
    ("wasmjit.code_bytes", "bytes"),
    ("clanglite.compile_ms", "ms"),
    ("clanglite.code_bytes", "bytes"),
    ("cpu.machine_new_ms", "ms"),
    ("cpu.predecode_ms", "ms"),
    ("cpu.superblock_ms", "ms"),
    ("browsix.stage_ms", "ms"),
    ("harness.plumbing_ms", "ms"),
    ("cpu.run_ms", "ms"),
    ("cpu.ns_per_inst", "ns"),
    ("replay.run_ms", "ms"),
    ("cpu.instructions", "count"),
    ("cpu.cycles", "count"),
    ("cpu.icache_misses", "count"),
    ("cpu.dcache_misses", "count"),
    ("cpu.branch_mispredicts", "count"),
    ("browsix.syscalls", "count"),
    ("browsix.host_cycles", "count"),
    ("sim.slowdown.chrome", "x"),
    ("sim.slowdown.firefox", "x"),
    ("serve.queue_ms", "ms"),
    ("serve.worker_ms", "ms"),
    ("fleet.overhead_ms", "ms"),
    ("farm.artifact_hit_ratio", "ratio"),
    ("serve.result_hit_ratio", "ratio"),
    ("farm.store_bytes", "bytes/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.reconcile_ratio", "ratio"),
];

/// Layer timings from the traced run must sum to the untraced end-to-end
/// time of the same work within this share: `trace.reconcile_ratio` must
/// lie in `[1 - RECONCILE_TOLERANCE, 1 + RECONCILE_TOLERANCE]`.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fleet_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What one run found: operations attempted and failed, the metrics, and
/// human-readable notes (printed before the result line).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// A workload's defining property did not hold (a guard tripped).
    pub broken: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(format!("FAIL {why}"));
    }

    /// Marks the run incorrect without counting an operation.
    pub fn guard(&mut self, why: String) {
        self.broken = true;
        self.note(format!("GUARD {why}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Per-operation mean times of the standard layer spans, and host time
/// per simulated instruction over the runs the trace covers.
pub fn layer_times(report: &mut Report, tr: &Tracer, ops: f64, instructions: u64) {
    let st = tr.self_times();
    let ms = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / ops / 1e6;
    for (span, metric) in [
        ("cir.compile", "cir.compile_ms"),
        ("emcc.compile", "emcc.compile_ms"),
        ("wasm.validate", "wasm.validate_ms"),
        ("wasmjit.compile", "wasmjit.compile_ms"),
        ("clanglite.compile", "clanglite.compile_ms"),
        ("cpu.machine_new", "cpu.machine_new_ms"),
        ("cpu.predecode", "cpu.predecode_ms"),
        ("cpu.superblock", "cpu.superblock_ms"),
        ("browsix.stage", "browsix.stage_ms"),
        ("cpu.run", "cpu.run_ms"),
        ("replay.run", "replay.run_ms"),
    ] {
        report.metrics.insert(metric, ms(span));
    }
    let run_ns =
        st.get("cpu.run").copied().unwrap_or(0) + st.get("replay.run").copied().unwrap_or(0);
    let per_inst = if instructions == 0 {
        0.0
    } else {
        run_ns as f64 / instructions as f64
    };
    report.metrics.insert("cpu.ns_per_inst", per_inst);
}

/// The exact simulated counts summed over `runs`, and the chrome and
/// firefox slowdowns: geomeans of simulated total cycles over native, one
/// ratio per `[native, chrome, firefox]` triple.
pub fn insert_counts(report: &mut Report, runs: &[&RunResult], triples: &[[&RunResult; 3]]) {
    let sum = |f: fn(&RunResult) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let m = &mut report.metrics;
    m.insert("cpu.instructions", sum(|r| r.counters.instructions_retired));
    m.insert("cpu.cycles", sum(|r| r.counters.cycles));
    m.insert("cpu.icache_misses", sum(|r| r.counters.icache_misses));
    m.insert("cpu.dcache_misses", sum(|r| r.counters.dcache_misses));
    m.insert(
        "cpu.branch_mispredicts",
        sum(|r| r.counters.branch_mispredicts),
    );
    m.insert("browsix.syscalls", sum(|r| r.kernel_syscalls));
    m.insert("browsix.host_cycles", sum(|r| r.counters.host_cycles));
    for (e, key) in [(1, "sim.slowdown.chrome"), (2, "sim.slowdown.firefox")] {
        let ratios: Vec<f64> = triples
            .iter()
            .map(|t| t[e].counters.total_cycles() as f64 / t[0].counters.total_cycles() as f64)
            .collect();
        m.insert(key, stats::geomean(&ratios).unwrap_or(0.0));
    }
}

/// Total duration of every span named `name`, in seconds.
pub fn span_total_s(tr: &Tracer, name: &str) -> f64 {
    tr.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Records the reconciliation ratio (traced layer total over the untraced
/// end-to-end figure, in the same unit) and fails the run outside
/// tolerance.
pub fn reconcile(report: &mut Report, traced: f64, untraced: f64, what: &str) {
    let ratio = traced / untraced;
    report.metrics.insert("trace.reconcile_ratio", ratio);
    report.note(format!(
        "reconcile {what}: {ratio:.4} (tolerance ±{RECONCILE_TOLERANCE})"
    ));
    if !ratio.is_finite() || (ratio - 1.0).abs() > RECONCILE_TOLERANCE {
        report.guard(format!(
            "layer times do not reconcile with {what}: {ratio:.4}"
        ));
    }
}

/// Writes the traced run's spans as JSONL under the work directory.
pub fn write_spans(args: &Args, tr: &Tracer) -> Result<(), String> {
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tr.write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--fleet-bin",
            "--work-dir",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name} is required"))
    };
    let workload = get("--workload")?.to_string();
    if !["sim-suite", "fleet-cold"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
        },
        fleet_bin: get("--fleet-bin")?.into(),
        work_dir: get("--work-dir")?.into(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "sim-suite" => sim::run(&args),
        _ => fleet::run(&args),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let Some(v) = report.metrics.get(name).filter(|v| v.is_finite()) else {
            eprintln!("perfbench: {} did not measure {name}", args.workload);
            std::process::exit(1);
        };
        println!("{name:<26} {v:>16.6} {unit}");
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && !report.broken,
        report.attempted,
        report.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload fleet-cold --seed 9 --seconds 2.5 --trace 1 --fleet-bin f --work-dir w",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0 --fleet-bin f --work-dir w",
            "--workload fleet-exec --seed 1 --seconds 1 --trace 0 --fleet-bin f --work-dir w",
            "--workload sim-suite --seed 1 --seconds 0 --trace 0 --fleet-bin f --work-dir w",
            "--workload sim-suite --seed 1 --seconds 1 --trace 2 --fleet-bin f --work-dir w",
            "--workload sim-suite --seed x --seconds 1 --trace 0 --fleet-bin f --work-dir w",
            "--workload sim-suite --seconds 1 --trace 0 --fleet-bin f --work-dir w",
            "--workload sim-suite --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = wasmperf_trace::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
