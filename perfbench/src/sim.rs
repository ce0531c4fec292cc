//! `sim-suite`: every test-size benchmark (PolyBench, SPEC, I/O and the
//! `recordings/` replays) on native, chrome and firefox, in process.
//!
//! Set-up builds every artifact with `harness::engine::prepare`. The
//! timed phase makes whole passes of `harness::engine::execute` over all
//! cells, in a seed-shuffled order per pass, and keeps each cell's
//! median. Every execution and every set-up is normalised by the host
//! speed probes run right before and after it (`hostspeed`). Set-up is repeated
//! between passes, so its samples spread over the run as the cells' do.
//! Nothing here touches the farm, serve or fleet crates.

use std::time::Instant;

use wasmperf_benchsuite::{Benchmark, Size, Suite};
use wasmperf_browsix::AppendPolicy;
use wasmperf_harness::{execute, prepare, Artifact, Engine, RunResult};

use crate::hostspeed::Probe;
use crate::layers;
use crate::stats::{band_mean, median, quartiles, Rng};
use crate::trace::Tracer;
use crate::{procfs, Args, Report, ENGINES};

/// Least number of set-ups per run, one before the timed phase and one
/// after each whole pass; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Cells {
    benches: Vec<Benchmark>,
    engines: Vec<Engine>,
    /// Indexed by cell: `bench * engines.len() + engine`.
    artifacts: Vec<Artifact>,
}

impl Cells {
    fn cells(&self) -> usize {
        self.artifacts.len()
    }

    fn cell(&self, c: usize) -> (&Benchmark, &Engine, &Artifact) {
        let n = self.engines.len();
        (
            &self.benches[c / n],
            &self.engines[c % n],
            &self.artifacts[c],
        )
    }
}

fn set_up() -> Result<Cells, String> {
    let mut benches = wasmperf_benchsuite::all(Size::Test);
    benches.extend(wasmperf_benchsuite::replay::all(Size::Test));
    if !benches.iter().any(|b| b.suite == Suite::Replay) {
        return Err("no replay benchmarks found under ./recordings".into());
    }
    let engines: Vec<Engine> = ENGINES
        .iter()
        .map(|e| Engine::parse(e).expect("workload engines parse"))
        .collect();
    let mut artifacts = Vec::with_capacity(benches.len() * engines.len());
    for b in &benches {
        for e in &engines {
            artifacts.push(prepare(b, e).map_err(|err| err.to_string())?);
        }
    }
    Ok(Cells {
        benches,
        engines,
        artifacts,
    })
}

/// `set_up`, with its normalised duration appended to `times`.
fn timed_set_up(probe: &mut Probe, times: &mut Vec<f64>) -> Result<Cells, String> {
    let t = Instant::now();
    let cells = set_up()?;
    times.push(probe.normalise(t.elapsed().as_secs_f64()));
    Ok(cells)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();

    let mut probe = Probe::new();
    let mut setup_times = Vec::new();
    let suite = timed_set_up(&mut probe, &mut setup_times)?;
    let cells = suite.cells();

    // Timed phase: seed-shuffled passes over every cell until the time is
    // spent. The first pass always completes; the last may be partial, so
    // each cell has ⌊k⌋ or ⌈k⌉ samples for k passes' worth of time.
    let mut rng = Rng::new(args.seed);
    // Normalised execution times per cell, and the raw sum for the notes.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut raw_s = 0.0;
    let mut first: Vec<Option<RunResult>> = vec![None; cells];
    let mut order: Vec<usize> = (0..cells).collect();
    let mut passes = 0;
    let t0 = Instant::now();
    'timed: loop {
        rng.shuffle(&mut order);
        for &c in &order {
            if passes > 0 && t0.elapsed().as_secs_f64() >= args.seconds {
                break 'timed;
            }
            let (bench, engine, artifact) = suite.cell(c);
            let t = Instant::now();
            let out = execute(bench, engine, artifact, AppendPolicy::Chunked4K);
            let dt = t.elapsed().as_secs_f64();
            let norm = probe.normalise(dt);
            report.attempted += 1;
            match out {
                Ok(r) => {
                    samples[c].push(norm);
                    raw_s += dt;
                    match &first[c] {
                        None => first[c] = Some(r),
                        // Counters, checksum and outputs must repeat
                        // exactly: the simulator is deterministic.
                        Some(f) if *f != r => report.fail(format!(
                            "{}/{}: result changed between repetitions",
                            bench.name,
                            engine.name()
                        )),
                        Some(_) => {}
                    }
                }
                Err(e) => report.fail(format!("{}/{}: {e}", bench.name, engine.name())),
            }
        }
        passes += 1;
        timed_set_up(&mut probe, &mut setup_times)?;
    }
    let timed_s = t0.elapsed().as_secs_f64();
    while setup_times.len() < SETUP_REPS {
        timed_set_up(&mut probe, &mut setup_times)?;
    }

    // Checksums and output files must agree across engines. Replay rows
    // already failed in `execute` if they missed their recorded checksum.
    let n = suite.engines.len();
    for (b, bench) in suite.benches.iter().enumerate() {
        let rows: Vec<&RunResult> = (0..n).filter_map(|e| first[b * n + e].as_ref()).collect();
        for r in rows.iter().skip(1) {
            if (r.checksum, &r.outputs) != (rows[0].checksum, &rows[0].outputs) {
                report.fail(format!(
                    "{}: {} disagrees with {}",
                    bench.name, r.engine, rows[0].engine
                ));
            }
        }
    }

    let cell_times: Vec<f64> = samples.iter().filter_map(|s| median(s)).collect();
    let pass_s: f64 = cell_times.iter().sum();
    let instructions: u64 = first
        .iter()
        .flatten()
        .map(|r| r.counters.instructions_retired)
        .sum();
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_times).expect("SETUP_REPS > 0"));
    m.insert("pass_s", pass_s);
    m.insert("sim_mips", instructions as f64 / pass_s / 1e6);
    // The cells are unlike one another (0.3 to 100+ ms), so a plain order
    // statistic over 135 of them jumps when neighbours swap rank; a band
    // of ranks around each percentile smooths that out.
    m.insert(
        "p50_ms",
        band_mean(&cell_times, 40.0, 60.0).unwrap_or(0.0) * 1e3,
    );
    m.insert(
        "p90_ms",
        band_mean(&cell_times, 85.0, 95.0).unwrap_or(0.0) * 1e3,
    );
    // Cells per second at the median cell times: the same statistic as
    // pass_s, so one noisy pass does not move it either.
    m.insert("rps", cells as f64 / pass_s);
    report.note(format!(
        "{} executions ({passes} whole passes) over {cells} cells in {timed_s:.2} s; \
         {raw_s:.3} s of them measured, {:.3} s normalised; setup reps {setup_times:.3?}",
        report.attempted,
        samples.iter().flatten().sum::<f64>()
    ));
    if let Some(q) = quartiles(&cell_times) {
        report.note(format!(
            "cell median quartiles (ms): {:.3?}",
            q.map(|x| x * 1e3)
        ));
    }

    count_layers(&mut report, &suite, &first);
    if args.trace {
        traced_pass(args, &mut report, &suite, &mut rng, &first)?;
    }
    report
        .metrics
        .insert("peak_rss_mb", procfs::vm_hwm_kb("self")? as f64 / 1024.0);
    Ok(report)
}

/// The exact simulated counts over one pass, and the slowdowns over SPEC.
fn count_layers(report: &mut Report, suite: &Cells, first: &[Option<RunResult>]) {
    let runs: Vec<&RunResult> = first.iter().flatten().collect();
    let triples: Vec<[&RunResult; 3]> = suite
        .benches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.suite == Suite::Spec)
        .filter_map(|(b, _)| {
            let cell = |e: usize| first[b * ENGINES.len() + e].as_ref();
            Some([cell(0)?, cell(1)?, cell(2)?])
        })
        .collect();
    crate::insert_counts(report, &runs, &triples);
}

/// One extra pass with every layer called on its own. Per-layer times
/// are means per cell; compile layers are means per artifact build. The
/// layers must add up to an untraced `execute` of the same cell run just
/// before them: runs a pass apart can see different host speeds.
fn traced_pass(
    args: &Args,
    report: &mut Report,
    suite: &Cells,
    rng: &mut Rng,
    first: &[Option<RunResult>],
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut order: Vec<usize> = (0..suite.cells()).collect();
    rng.shuffle(&mut order);
    let mut bytes = layers::CodeBytes::default();
    let mut untraced_s = 0.0;
    for &c in &order {
        let (bench, engine, artifact) = suite.cell(c);
        let req = c as u64;
        let root = tr.open("compile", None, req);
        let compiled = layers::compile(&mut tr, Some(root), req, bench, engine)?;
        tr.close(root);
        if compiled.module.code_bytes() != artifact.module.code_bytes() {
            report.fail(format!(
                "{}/{}: layered compile differs from prepare",
                bench.name,
                engine.name()
            ));
        }
        bytes.add(engine, &compiled);

        // The same cell untraced, traced, and layer by layer, back to back,
        // so the comparisons below see one host speed.
        let t = Instant::now();
        execute(bench, engine, artifact, AppendPolicy::Chunked4K).map_err(|e| e.to_string())?;
        untraced_s += t.elapsed().as_secs_f64();
        tr.time("harness.execute", None, req, || {
            execute(bench, engine, artifact, AppendPolicy::Chunked4K)
        })
        .map_err(|e| e.to_string())?;
        let root = tr.open("layers", None, req);
        let out = layers::execute(&mut tr, Some(root), req, bench, &artifact.module)?;
        tr.close(root);
        let expect = first[c].as_ref().ok_or("cell never completed")?;
        if (out.checksum, out.counters) != (expect.checksum, expect.counters) {
            report.fail(format!(
                "{}/{}: layered run differs from execute",
                bench.name,
                engine.name()
            ));
        }
        layers::machine_setup(&mut tr, req, &artifact.module);
    }
    bytes.insert(report);
    let instructions = first
        .iter()
        .flatten()
        .map(|r| r.counters.instructions_retired)
        .sum();
    crate::layer_times(report, &tr, suite.cells() as f64, instructions);
    // `execute` minus the layers it is made of is the harness's own
    // plumbing: result assembly, output collection, host hand-off.
    let exec_s = crate::span_total_s(&tr, "harness.execute");
    let layers_s = crate::span_total_s(&tr, "layers");
    report.metrics.insert(
        "harness.plumbing_ms",
        (exec_s - layers_s) / suite.cells() as f64 * 1e3,
    );
    report
        .metrics
        .insert("trace.overhead_ratio", exec_s / untraced_s);
    crate::reconcile(report, layers_s, untraced_s, "untraced execute");
    // No serving layers in process.
    for name in [
        "serve.queue_ms",
        "serve.worker_ms",
        "fleet.overhead_ms",
        "farm.artifact_hit_ratio",
        "serve.result_hit_ratio",
        "farm.store_bytes",
    ] {
        report.metrics.insert(name, 0.0);
    }
    crate::write_spans(args, &tr)
}
