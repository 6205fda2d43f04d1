//! Performance baseline for the serving substrate: ds-par
//! sequential-vs-parallel cases, frozen-vs-mutable inference cases, the
//! HTTP serving case and the ds-obs overhead cases.
//!
//! ```text
//! perf [--smoke] [--threads N[,N...]] [--out results/BENCH_perf.json]
//! ```
//!
//! Runs every case of `ds_bench::gates::GATES` once per requested
//! worker-team size, asserts the numeric contracts (bit-identity for
//! parallel paths, 1e-4 probability tolerance and zero decision flips for
//! frozen paths, bitwise streaming-vs-batch parity), and writes one sweep
//! entry per thread count. `regress` judges the written report. `--threads` defaults to the ambient `DS_PAR_THREADS`
//! resolution; `--smoke` shrinks the workloads for CI; `--trace-smoke`
//! shrinks them much further (numbers are meaningless) so a
//! `DS_OBS=trace` + `DS_TRACE=path.json` run finishes in seconds while
//! still exercising every span across the worker team. When `DS_TRACE`
//! is set the exported trace is re-parsed and structurally validated,
//! and a `trace ok: ...` line is printed for CI to grep.

use ds_bench::perf::{render, run_sweep, PerfScale};
use ds_bench::{faultsmoke, report};
use ds_timeseries::faults::FaultPlan;

fn main() {
    ds_obs::install_panic_hook();
    let mut smoke = false;
    let mut trace_smoke = false;
    let mut out_path = String::from("results/BENCH_perf.json");
    let mut thread_counts: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace-smoke" => {
                smoke = true;
                trace_smoke = true;
            }
            "--out" => {
                if let Some(p) = args.next() {
                    out_path = p;
                }
            }
            "--threads" => {
                let spec = args.next().unwrap_or_default();
                for part in spec.split(',').filter(|p| !p.is_empty()) {
                    match part.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => thread_counts.push(n),
                        _ => {
                            eprintln!("invalid --threads entry {part:?} (want N[,N...])");
                            std::process::exit(2);
                        }
                    }
                }
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    if thread_counts.is_empty() {
        thread_counts.push(ds_par::threads());
    }
    let scale = if trace_smoke {
        // Tiny: this configuration exists to produce a trace quickly,
        // not to publish numbers.
        PerfScale {
            batch: 8,
            window: 96,
            iters: 1,
        }
    } else if smoke {
        PerfScale::smoke()
    } else {
        PerfScale::full()
    };
    if let Err(e) = ds_obs::init_sink("results/perf_obs.jsonl") {
        eprintln!("cannot open event sink: {e}");
    }
    // Fault-injection smoke: when DS_FAULT is set, assert the degradation
    // contract (no panic, missing → Unknown, clean windows bit-identical)
    // before timing anything. A malformed spec is a loud startup error.
    match FaultPlan::from_env() {
        Ok(Some(plan)) => println!("{}", faultsmoke::run(&plan).render()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("invalid DS_FAULT: {e}");
            std::process::exit(2);
        }
    }
    // The SIMD dispatch decision; ci.sh greps it to confirm a
    // `DS_SIMD=off` twin really dispatched the scalar kernels.
    println!("simd: {}", ds_neural::simd::label());
    let report = {
        let _run = ds_obs::span!("perf");
        run_sweep(scale, smoke, &thread_counts)
    };
    print!("{}", render(&report));
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    report::write_json(&report, &out_path)
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
    ds_obs::flush_sink();
    if ds_obs::enabled() {
        eprintln!("{}", ds_obs::render_summary());
    }
    if let Some((path, result)) = ds_obs::export_trace_from_env() {
        let stats = result.unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
        match ds_obs::validate_chrome_trace(&path) {
            Ok(check) => println!(
                "trace ok: {} events across {} threads (max depth {}, {} dropped) -> {}",
                check.events,
                check.threads,
                check.max_depth,
                stats.dropped_spans,
                path.display()
            ),
            Err(e) => {
                eprintln!("trace INVALID at {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
