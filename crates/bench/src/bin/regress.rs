//! Perf-regression sentinel CLI.
//!
//! ```text
//! regress --fresh target/ci_perf_smoke.json \
//!         [--baseline results/BENCH_perf.json] \
//!         [--out target/regress.json]
//! ```
//!
//! Judges a fresh perf report against the committed baseline with the
//! bounds in [`ds_bench::gates::GATES`], prints the check table, writes
//! the machine-readable verdict JSON, and exits nonzero on regression —
//! so a plain `set -e` CI stage fails on any degraded case.

use ds_bench::perf::PerfReport;
use ds_bench::{regress, report};

fn load(path: &str, what: &str) -> PerfReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {what} report {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {what} report {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut baseline_path = String::from("results/BENCH_perf.json");
    let mut fresh_path: Option<String> = None;
    let mut out_path = String::from("target/regress.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().unwrap_or(baseline_path),
            "--fresh" => fresh_path = args.next(),
            "--out" => out_path = args.next().unwrap_or(out_path),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: regress --fresh <report.json> [--baseline <report.json>] [--out <verdict.json>]");
                std::process::exit(2);
            }
        }
    }
    let Some(fresh_path) = fresh_path else {
        eprintln!("regress needs --fresh <report.json> (a just-produced perf report)");
        std::process::exit(2);
    };

    let baseline = load(&baseline_path, "baseline");
    let fresh = load(&fresh_path, "fresh");
    let verdict = regress::judge(&baseline, &fresh);
    print!("{}", regress::render(&verdict));

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    report::write_json(&verdict, &out_path)
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
    if !verdict.pass {
        std::process::exit(1);
    }
}
