//! Perf-regression sentinel: judges a fresh perf run against the
//! committed `results/BENCH_perf.json` baseline with the bounds in
//! [`crate::gates::GATES`] and renders a machine-readable verdict.
//!
//! Sweeps pair by thread count. Within a paired sweep every gate row is
//! one case, and it is held to:
//!
//! - **correctness**, absolute: `bit_identical` holds and
//!   `decision_flips` is zero in the fresh run;
//! - **the speedup floor**: the row's absolute floor for the fresh run's
//!   SIMD label, raised to its relative fraction of the baseline speedup
//!   when both reports ran under the same label;
//! - **the allocation ceiling** of the row;
//! - **the serving SLOs** (`req/s` floor, p99 ceiling) where the row has
//!   them; a fresh case missing its serving stats fails them.
//!
//! A row missing from the fresh sweep fails (silent coverage loss must
//! not read as a pass), and so does a fresh case with no row (an ungated
//! case is one nobody decided how to judge). Thread counts in only one
//! report are skipped with a note: CI's smoke sweeps one team size
//! against a two-sweep baseline by design. Re-judging the committed
//! baseline against itself must pass; that self-check is a unit test
//! below.

use serde::Serialize;

use crate::gates::{Allocs, Gate, GATES};
use crate::perf::{PerfCase, PerfReport, PerfSweep};

/// One threshold evaluation on one `(threads, case)` pair.
#[derive(Debug, Clone, Serialize)]
pub struct RegressCheck {
    /// Worker-team size of the compared sweeps.
    pub threads: usize,
    /// Case name.
    pub case: String,
    /// Which threshold this row applied.
    pub check: String,
    /// Baseline value the threshold was derived from.
    pub baseline: f64,
    /// Fresh-run value under test.
    pub fresh: f64,
    /// The derived limit the fresh value was held to.
    pub limit: f64,
    pub pass: bool,
}

/// The sentinel's full verdict, serialized for CI and humans alike.
#[derive(Debug, Clone, Serialize)]
pub struct RegressVerdict {
    /// True iff every check passed.
    pub pass: bool,
    /// `(threads, case)` pairs compared.
    pub compared: usize,
    /// Every threshold evaluation, failures included.
    pub checks: Vec<RegressCheck>,
    /// Coverage notes: skipped thread counts, missing cases.
    pub notes: Vec<String>,
}

/// Accumulates checks for one `(threads, case)` pair.
struct CaseChecks<'a> {
    checks: &'a mut Vec<RegressCheck>,
    threads: usize,
    case: &'a str,
}

impl CaseChecks<'_> {
    fn push(&mut self, check: &str, baseline: f64, fresh: f64, limit: f64, pass: bool) {
        self.checks.push(RegressCheck {
            threads: self.threads,
            case: self.case.to_string(),
            check: check.to_string(),
            baseline,
            fresh,
            limit,
            pass,
        });
    }
}

/// Judge one gate row: `fresh` is the fresh run's case, `base` the
/// baseline's. When the baseline predates the case, the relative speedup
/// floor is skipped and a relative allocation ceiling counts from zero.
fn judge_case(
    gate: &Gate,
    base: Option<&PerfCase>,
    fresh: &PerfCase,
    fresh_simd: &str,
    comparable: bool,
    out: &mut CaseChecks,
) {
    let base_or = |f: fn(&PerfCase) -> f64| base.map_or(0.0, f);
    out.push(
        "bit_identical",
        1.0,
        if fresh.bit_identical { 1.0 } else { 0.0 },
        1.0,
        fresh.bit_identical,
    );
    out.push(
        "decision_flips == 0",
        base_or(|c| c.decision_flips as f64),
        fresh.decision_flips as f64,
        0.0,
        fresh.decision_flips == 0,
    );

    let relative = match base {
        Some(b) if comparable => b.speedup * gate.relative,
        _ => 0.0,
    };
    let floor = gate.floor(fresh_simd).max(relative);
    out.push(
        "speedup floor",
        base_or(|c| c.speedup),
        fresh.speedup,
        floor,
        fresh.speedup >= floor,
    );

    let base_allocs = base_or(|c| c.allocs_per_window);
    let ceiling = match gate.allocs {
        Allocs::Ceiling(c) => c,
        Allocs::Relative => (base_allocs * 1.5).max(base_allocs + 4.0),
    };
    out.push(
        "allocs ceiling",
        base_allocs,
        fresh.allocs_per_window,
        ceiling,
        fresh.allocs_per_window <= ceiling,
    );

    let base_serve = base.and_then(|c| c.serve.as_ref());
    if let Some(min) = gate.min_req_per_sec {
        let fresh_rps = fresh.serve.as_ref().map_or(0.0, |s| s.req_per_sec);
        out.push(
            "req/s floor",
            base_serve.map_or(0.0, |s| s.req_per_sec),
            fresh_rps,
            min,
            fresh_rps >= min,
        );
    }
    if let Some(max) = gate.max_p99_ms {
        let fresh_p99 = fresh.serve.as_ref().map_or(f64::INFINITY, |s| s.p99_ms);
        out.push(
            "p99 within SLO",
            base_serve.map_or(0.0, |s| s.p99_ms),
            fresh_p99,
            max,
            fresh_p99 <= max,
        );
    }
}

fn find<'a>(sweep: &'a PerfSweep, name: &str) -> Option<&'a PerfCase> {
    sweep.cases.iter().find(|c| c.name == name)
}

/// Judge `fresh` against `baseline`. See the module docs for the policy.
pub fn judge(baseline: &PerfReport, fresh: &PerfReport) -> RegressVerdict {
    let mut checks = Vec::new();
    let mut notes = Vec::new();
    let mut compared = 0usize;

    let comparable = fresh.simd == baseline.simd;
    if !comparable {
        notes.push(format!(
            "simd dispatch differs (baseline {:?}, fresh {:?}); absolute floors only",
            baseline.simd, fresh.simd
        ));
    }
    if fresh.host_cores > 0 {
        notes.push(format!(
            "fresh run host: {} core(s), ds-par team {}, simd {:?}",
            fresh.host_cores, fresh.par_threads, fresh.simd
        ));
    }
    for base_sweep in &baseline.sweeps {
        if !fresh.sweeps.iter().any(|s| s.threads == base_sweep.threads) {
            notes.push(format!(
                "baseline sweep at {} thread(s) not present in fresh run; skipped",
                base_sweep.threads
            ));
        }
    }

    for fresh_sweep in &fresh.sweeps {
        let threads = fresh_sweep.threads;
        let Some(base_sweep) = baseline.sweeps.iter().find(|s| s.threads == threads) else {
            notes.push(format!(
                "fresh sweep at {threads} thread(s) has no baseline; skipped"
            ));
            continue;
        };
        for gate in GATES {
            let mut out = CaseChecks {
                checks: &mut checks,
                threads,
                case: gate.case,
            };
            let Some(fresh_case) = find(fresh_sweep, gate.case) else {
                out.push("case present in fresh run", 1.0, 0.0, 1.0, false);
                continue;
            };
            compared += 1;
            let base_case = find(base_sweep, gate.case);
            if base_case.is_none() {
                notes.push(format!(
                    "{} has no baseline at {threads} thread(s); absolute bounds only",
                    gate.case
                ));
            }
            judge_case(
                gate,
                base_case,
                fresh_case,
                &fresh.simd,
                comparable,
                &mut out,
            );
        }
        for case in &fresh_sweep.cases {
            if !GATES.iter().any(|g| g.case == case.name) {
                CaseChecks {
                    checks: &mut checks,
                    threads,
                    case: &case.name,
                }
                .push("case has a gate row", 0.0, 1.0, 0.0, false);
            }
        }
    }
    if compared == 0 {
        notes.push("no (threads, case) pair present in both reports".to_string());
    }

    RegressVerdict {
        // Zero overlap is a failure: an incomparable run proves nothing.
        pass: compared > 0 && checks.iter().all(|c| c.pass),
        compared,
        checks,
        notes,
    }
}

/// Render a verdict as an aligned text table (failures and passes).
pub fn render(verdict: &RegressVerdict) -> String {
    let mut out = String::new();
    let rows: Vec<Vec<String>> = verdict
        .checks
        .iter()
        .map(|c| {
            vec![
                if c.pass { "ok" } else { "FAIL" }.to_string(),
                format!("{}", c.threads),
                c.case.clone(),
                c.check.clone(),
                format!("{:.3}", c.baseline),
                format!("{:.3}", c.fresh),
                format!("{:.3}", c.limit),
            ]
        })
        .collect();
    out.push_str(&crate::report::text_table(
        &[
            "status", "threads", "case", "check", "baseline", "fresh", "limit",
        ],
        &rows,
    ));
    for note in &verdict.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    out.push_str(&format!(
        "regress verdict: {} ({} case pairings, {} checks)\n",
        if verdict.pass { "PASS" } else { "FAIL" },
        verdict.compared,
        verdict.checks.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> PerfReport {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_perf.json"
        ))
        .expect("committed baseline exists");
        serde_json::from_str(&text).expect("committed baseline parses")
    }

    #[test]
    fn committed_baseline_self_passes() {
        let report = baseline();
        assert!(!report.sweeps.is_empty());
        let verdict = judge(&report, &report);
        assert!(
            verdict.pass,
            "baseline must pass against itself:\n{}",
            render(&verdict)
        );
        // Every sweep × gate row compared, 4 checks each, plus one per
        // serving SLO the row carries.
        let cases: usize = report.sweeps.iter().map(|s| s.cases.len()).sum();
        let per_sweep: usize = GATES
            .iter()
            .map(|g| 4 + g.min_req_per_sec.iter().count() + g.max_p99_ms.iter().count())
            .sum();
        assert!(
            report
                .sweeps
                .iter()
                .flat_map(|s| &s.cases)
                .any(|c| c.serve.is_some()),
            "committed baseline must carry serve stats"
        );
        assert_eq!(verdict.compared, cases);
        assert_eq!(verdict.checks.len(), report.sweeps.len() * per_sweep);
    }

    #[test]
    fn degraded_frozen_speedup_fails() {
        let report = baseline();
        let mut fresh = report.clone();
        for sweep in &mut fresh.sweeps {
            for case in &mut sweep.cases {
                if case.name == "frozen_predict" {
                    case.speedup = 1.0; // advantage collapsed to parity
                }
            }
        }
        let verdict = judge(&report, &fresh);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "frozen_predict" && c.check == "speedup floor"));
        // Unrelated cases stay green.
        assert!(verdict
            .checks
            .iter()
            .filter(|c| c.case == "conv_forward")
            .all(|c| c.pass));
        assert!(render(&verdict).contains("FAIL"));
    }

    #[test]
    fn frozen_allocations_fail_the_zero_alloc_contract() {
        let report = baseline();
        let mut fresh = report.clone();
        for sweep in &mut fresh.sweeps {
            for case in &mut sweep.cases {
                if case.name == "frozen_localize" {
                    case.allocs_per_window = 3.0;
                }
            }
        }
        let verdict = judge(&report, &fresh);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "frozen_localize" && c.check == "allocs ceiling"));
    }

    #[test]
    fn decision_flips_fail_absolutely() {
        let report = baseline();
        let mut fresh = report.clone();
        fresh.sweeps[0].cases[0].decision_flips = 1;
        fresh.sweeps[0].cases[0].bit_identical = false;
        let verdict = judge(&report, &fresh);
        assert!(!verdict.pass);
    }

    fn synthetic_case(name: &str, speedup: f64) -> PerfCase {
        PerfCase {
            name: name.to_string(),
            elements_per_iter: 1000,
            iters: 5,
            seq_secs: 1.0,
            par_secs: 1.0 / speedup,
            seq_elements_per_sec: 1000.0,
            par_elements_per_sec: 1000.0 * speedup,
            speedup,
            bit_identical: true,
            decision_flips: 0,
            allocs_per_window: 0.0,
            serve: None,
        }
    }

    fn synthetic_serve_case(speedup: f64, p99_ms: f64) -> PerfCase {
        let mut case = synthetic_case("serve_throughput", speedup);
        case.serve = Some(crate::perf::ServeStats {
            req_per_sec: 2000.0,
            p50_ms: 4.0,
            p99_ms,
            mean_batch_fill: 0.5,
            errors: 0,
        });
        case
    }

    fn synthetic_report(simd: &str, mut cases: Vec<PerfCase>) -> PerfReport {
        // Every synthetic report carries a healthy case for each gate row
        // the test does not supply itself; presence tests strip theirs
        // with [`without`].
        for gate in GATES {
            if !cases.iter().any(|c| c.name == gate.case) {
                cases.push(if gate.min_req_per_sec.is_some() {
                    synthetic_serve_case(0.9, 6.0)
                } else {
                    synthetic_case(gate.case, 2.0 * gate.floor_avx2.max(1.0))
                });
            }
        }
        PerfReport {
            smoke: true,
            simd: simd.to_string(),
            host_cores: 1,
            par_threads: 1,
            sweeps: vec![crate::perf::PerfSweep { threads: 1, cases }],
        }
    }

    fn without(mut report: PerfReport, name: &str) -> PerfReport {
        report.sweeps[0].cases.retain(|c| c.name != name);
        report
    }

    #[test]
    fn quantized_floor_is_separate_from_frozen_floor() {
        // 2.0× clears the int8 floor under AVX2 but would fail the f32
        // frozen floor — the precision split is the point.
        let base = synthetic_report(
            "avx2",
            vec![
                synthetic_case("frozen_predict", 5.5),
                synthetic_case("quantized_predict", 2.4),
                synthetic_case("streaming_predict", 8.0),
                synthetic_serve_case(0.9, 6.0),
            ],
        );
        let good = synthetic_report(
            "avx2",
            vec![
                synthetic_case("frozen_predict", 5.0),
                synthetic_case("quantized_predict", 2.0),
                synthetic_case("streaming_predict", 7.0),
                synthetic_serve_case(0.8, 8.0),
            ],
        );
        let verdict = judge(&base, &good);
        assert!(verdict.pass, "{}", render(&verdict));

        // A quantized collapse below its own floor fails even though the
        // same number would be unreachable luxury for a flat case.
        let collapsed = synthetic_report(
            "avx2",
            vec![
                synthetic_case("frozen_predict", 5.0),
                synthetic_case("quantized_predict", 1.2),
                synthetic_case("streaming_predict", 7.0),
                synthetic_serve_case(0.8, 8.0),
            ],
        );
        let verdict = judge(&base, &collapsed);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "quantized_predict" && c.check == "speedup floor"));
    }

    #[test]
    fn scalar_twin_is_judged_on_scalar_floors_only() {
        // A DS_SIMD=off twin run against a vectorized baseline: absolute
        // scalar floors apply, relative ratios are skipped (a 1.2× scalar
        // frozen number would fail 0.70 × 5.5 for the wrong reason).
        let base = synthetic_report(
            "avx2",
            vec![
                synthetic_case("frozen_predict", 5.5),
                synthetic_case("frozen_conv", 5.3),
                synthetic_case("quantized_predict", 2.4),
                synthetic_case("streaming_predict", 8.0),
                synthetic_case("conv_forward", 1.1),
                synthetic_serve_case(0.9, 6.0),
            ],
        );
        // frozen_conv at 1.0×: twin-vs-twin is parity by construction
        // under scalar dispatch, so the 1.15× frozen floor must not
        // apply to it; quantized at 0.32× matches the measured scalar
        // int8 cost and must clear its own floor.
        let twin = synthetic_report(
            "scalar",
            vec![
                synthetic_case("frozen_predict", 1.2),
                synthetic_case("frozen_conv", 1.0),
                synthetic_case("quantized_predict", 0.32),
                synthetic_case("streaming_predict", 5.8),
                synthetic_case("conv_forward", 0.5),
                // Serve has no SIMD split and the relative floor is
                // skipped on the dispatch mismatch, so 0.5 only has to
                // clear the absolute 0.4 collapse floor.
                synthetic_serve_case(0.5, 10.0),
            ],
        );
        let verdict = judge(&base, &twin);
        assert!(verdict.pass, "{}", render(&verdict));
        assert!(verdict.notes.iter().any(|n| n.contains("simd dispatch")));

        // The scalar contract still has teeth: frozen parity fails.
        let mut broken = twin.clone();
        broken.sweeps[0].cases[0].speedup = 1.0;
        let verdict = judge(&base, &broken);
        assert!(!verdict.pass);
    }

    #[test]
    fn streaming_floor_and_presence_have_teeth() {
        let base = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 8.0),
                synthetic_serve_case(0.9, 6.0),
            ],
        );
        // 6.0× clears both the 5× AVX2 floor and the relative floor
        // (0.70 × 8.0 = 5.6).
        let good = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 6.0),
                synthetic_serve_case(0.8, 8.0),
            ],
        );
        assert!(judge(&base, &good).pass);

        // Collapsing toward the full-recompute cost fails absolutely.
        let collapsed = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 3.0),
                synthetic_serve_case(0.8, 8.0),
            ],
        );
        let verdict = judge(&base, &collapsed);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "streaming_predict" && c.check == "speedup floor"));

        // The scalar floor is lower but still real: work avoided, not
        // instructions vectorized.
        let scalar = synthetic_report(
            "scalar",
            vec![
                synthetic_case("streaming_predict", 3.5),
                synthetic_serve_case(0.5, 10.0),
            ],
        );
        assert!(judge(&base, &scalar).pass);
        let scalar_bad = synthetic_report(
            "scalar",
            vec![
                synthetic_case("streaming_predict", 2.0),
                synthetic_serve_case(0.5, 10.0),
            ],
        );
        assert!(!judge(&base, &scalar_bad).pass);

        // A fresh run with no streaming case fails even against a
        // baseline that never had one.
        let pre_streaming = without(
            synthetic_report("avx2", vec![synthetic_case("frozen_predict", 5.5)]),
            "streaming_predict",
        );
        let fresh_without = pre_streaming.clone();
        let verdict = judge(&pre_streaming, &fresh_without);
        assert!(!verdict.pass);
        assert!(verdict.checks.iter().any(|c| !c.pass
            && c.case == "streaming_predict"
            && c.check == "case present in fresh run"));
    }

    #[test]
    fn serve_floor_slo_and_presence_have_teeth() {
        let base = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 8.0),
                synthetic_serve_case(0.9, 6.0),
            ],
        );
        // Parity-ish serving clears both the collapse floor and the
        // relative floor (0.70 × 0.9 = 0.63), and sits inside the SLO.
        let good = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 7.0),
                synthetic_serve_case(0.8, 12.0),
            ],
        );
        assert!(judge(&base, &good).pass);

        // Serving collapsing to several times the bare compute fails the
        // absolute floor.
        let collapsed = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 7.0),
                synthetic_serve_case(0.3, 12.0),
            ],
        );
        let verdict = judge(&base, &collapsed);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "serve_throughput" && c.check == "speedup floor"));

        // A healthy throughput ratio with a blown tail still fails: the
        // p99 SLO is its own check.
        let slow_tail = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 7.0),
                synthetic_serve_case(0.8, 80.0),
            ],
        );
        let verdict = judge(&base, &slow_tail);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "serve_throughput" && c.check == "p99 within SLO"));

        // A fresh run with no serve case fails even against a baseline
        // that never had one.
        let pre_serve = without(
            synthetic_report("avx2", vec![synthetic_case("streaming_predict", 8.0)]),
            "serve_throughput",
        );
        let fresh_without = without(
            synthetic_report("avx2", vec![synthetic_case("streaming_predict", 7.0)]),
            "serve_throughput",
        );
        let verdict = judge(&pre_serve, &fresh_without);
        assert!(!verdict.pass);
        assert!(verdict.checks.iter().any(|c| !c.pass
            && c.case == "serve_throughput"
            && c.check == "case present in fresh run"));
    }

    #[test]
    fn backbone_zoo_floor_and_presence_have_teeth() {
        let base = synthetic_report(
            "avx2",
            vec![
                synthetic_case("streaming_predict", 8.0),
                synthetic_serve_case(0.9, 6.0),
            ],
        );
        assert!(judge(&base, &base.clone()).pass);

        // A backbone plan falling materially behind its mutable path
        // fails the absolute zoo floor.
        let mut collapsed = base.clone();
        for case in &mut collapsed.sweeps[0].cases {
            if case.name == "backbone_transapp" {
                case.speedup = 0.8;
            }
        }
        let verdict = judge(&base, &collapsed);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.case == "backbone_transapp" && c.check == "speedup floor"));

        // A fresh run with no backbone cases fails even against a
        // baseline that never had them (pre-zoo baseline).
        let strip = |report: &PerfReport| {
            let mut r = report.clone();
            r.sweeps[0]
                .cases
                .retain(|c| !c.name.starts_with("backbone_"));
            r
        };
        let verdict = judge(&strip(&base), &strip(&base));
        assert!(!verdict.pass);
        assert!(verdict.checks.iter().any(|c| !c.pass
            && c.case.starts_with("backbone_")
            && c.check == "case present in fresh run"));
    }

    #[test]
    fn missing_case_fails_and_missing_sweep_skips() {
        let report = baseline();
        let mut fresh = report.clone();
        // Drop a case from the first sweep: coverage loss must fail.
        fresh.sweeps[0].cases.retain(|c| c.name != "train_epoch");
        let verdict = judge(&report, &fresh);
        assert!(!verdict.pass);
        assert!(verdict
            .checks
            .iter()
            .any(|c| !c.pass && c.check == "case present in fresh run"));

        // A fresh run covering only one of the baseline's thread counts
        // still passes — CI's smoke sweeps one team size by design.
        let mut partial = report.clone();
        partial.sweeps.truncate(1);
        let verdict = judge(&report, &partial);
        assert!(verdict.pass, "{}", render(&verdict));
        assert!(verdict.notes.iter().any(|n| n.contains("skipped")));
    }

    #[test]
    fn zero_overlap_is_a_failure() {
        let report = baseline();
        let empty = PerfReport {
            smoke: true,
            simd: "scalar".to_string(),
            host_cores: 1,
            par_threads: 1,
            sweeps: Vec::new(),
        };
        let verdict = judge(&report, &empty);
        assert!(!verdict.pass);
        assert_eq!(verdict.compared, 0);
    }

    /// `report` with `name`'s speedup replaced.
    fn with_speedup(mut report: PerfReport, name: &str, speedup: f64) -> PerfReport {
        for case in &mut report.sweeps[0].cases {
            if case.name == name {
                case.speedup = speedup;
            }
        }
        report
    }

    fn fails(verdict: &RegressVerdict, case: &str, check: &str) -> bool {
        !verdict.pass
            && verdict
                .checks
                .iter()
                .any(|c| !c.pass && c.case == case && c.check == check)
    }

    #[test]
    fn scalar_twin_frozen_predict_floor_is_1_15() {
        let base = synthetic_report("avx2", vec![synthetic_case("frozen_predict", 5.5)]);
        let twin = synthetic_report("scalar", vec![synthetic_case("frozen_predict", 1.12)]);
        assert!(fails(
            &judge(&base, &twin),
            "frozen_predict",
            "speedup floor"
        ));
        let twin = with_speedup(twin, "frozen_predict", 1.16);
        assert!(judge(&base, &twin).pass);
    }

    #[test]
    fn fresh_case_without_a_gate_row_fails() {
        let base = synthetic_report("avx2", Vec::new());
        let mut fresh = base.clone();
        fresh.sweeps[0]
            .cases
            .push(synthetic_case("ungated_predict", 4.0));
        assert!(fails(
            &judge(&base, &fresh),
            "ungated_predict",
            "case has a gate row"
        ));
    }

    #[test]
    fn obs_overhead_gates_hold_2_and_5_percent() {
        let base = synthetic_report("avx2", Vec::new());
        // Speedup is bare time over instrumented time: 3% overhead reads
        // 1/1.03, 6% reads 1/1.06.
        let off = with_speedup(base.clone(), "obs_overhead_off", 1.0 / 1.03);
        assert!(fails(
            &judge(&base, &off),
            "obs_overhead_off",
            "speedup floor"
        ));
        let trace = with_speedup(base.clone(), "obs_overhead_trace", 1.0 / 1.06);
        assert!(fails(
            &judge(&base, &trace),
            "obs_overhead_trace",
            "speedup floor"
        ));
        // Inside both budgets: 1% off, 4% trace.
        let ok = with_speedup(base.clone(), "obs_overhead_off", 1.0 / 1.01);
        let ok = with_speedup(ok, "obs_overhead_trace", 1.0 / 1.04);
        assert!(judge(&base, &ok).pass);
    }

    #[test]
    fn serve_throughput_floor_is_1000_req_per_sec() {
        let base = synthetic_report("avx2", Vec::new());
        let mut slow = base.clone();
        for case in &mut slow.sweeps[0].cases {
            if let Some(serve) = &mut case.serve {
                serve.req_per_sec = 900.0;
            }
        }
        assert!(fails(
            &judge(&base, &slow),
            "serve_throughput",
            "req/s floor"
        ));

        // Missing serving stats fail both SLO checks.
        let mut blind = base.clone();
        for case in &mut blind.sweeps[0].cases {
            case.serve = None;
        }
        let verdict = judge(&base, &blind);
        assert!(fails(&verdict, "serve_throughput", "req/s floor"));
        assert!(fails(&verdict, "serve_throughput", "p99 within SLO"));
    }
}
