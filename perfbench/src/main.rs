//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <meter_fleet|browse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) sets up the workload (timed), then the
//! other workload and the training pass, and measures all three in
//! interleaved rounds, one per `--seconds`; it prints every end-to-end
//! metric. A traced run (`--trace 1`) times every layer's public calls
//! from this crate's own code, exports a Chrome trace and prints the
//! per-layer metrics. Human-readable detail goes to
//! stderr; stdout carries a run-metadata JSON line and, last, the result
//! line `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod browse;
mod fleet;
mod layers;
mod stats;
mod train;

use std::time::Instant;

use serde_json::Value;

/// ds-par team size, fixed so results do not follow the host's core count.
pub const PAR_THREADS: usize = 1;
/// ds-serve inference workers.
pub const SERVE_WORKERS: usize = 1;
/// Upper bound on load-generator threads (one connection each).
pub const MAX_CONNECTIONS: usize = 2;
/// Seed of the pass of the workload a run is not about.
pub const REFERENCE_SEED: u64 = 20_250_605;
/// Fewest rounds a run makes, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 4;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MeterFleet,
    Browse,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "meter_fleet" => Some(Workload::MeterFleet),
            "browse" => Some(Workload::Browse),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeterFleet => "meter_fleet",
            Workload::Browse => "browse",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Observations behind each percentile or median metric.
    samples: Vec<(String, usize)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    /// Record `peak_rss_mb`: the peak resident set since the last reset.
    pub fn peak_rss(&mut self) {
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run a workload's set-up [`SETUP_REPEATS`] times, tearing down all but
/// the last, and record the median as `setup_s`. The first repetition's
/// time also covers process start.
pub fn timed_setup<T>(
    outcome: &mut Outcome,
    mut make: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let started = if rep == 0 {
            process_started()
        } else {
            Instant::now()
        };
        let made = make();
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(made) {
            teardown(previous);
        }
    }
    outcome.metric("setup_s", stats::median(&times), "s");
    outcome.samples("setup_s", times.len());
    last.expect("at least one set-up")
}

fn process_started() -> Instant {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Reset this process's peak resident set to its current one (Linux 4.0+;
/// where the reset is refused the peak also covers earlier set-ups).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn connections() -> usize {
    MAX_CONNECTIONS.min(nproc())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The untraced run. The workload's set-up runs first and is timed as
/// `setup_s`; the other workload's set-up (on [`REFERENCE_SEED`]) and the
/// training pass's follow. Then every round runs two halves, each a
/// fleet block, a training and a browse block, and offers one ladder
/// rung between them, so each pass's samples spread over the whole run
/// (the host's speed changes from one second to the next). Fleet figures
/// are lower deciles over blocks ([`stats::low_decile`]); the browse
/// figures and `train_s` read the fastest block or training
/// ([`stats::fastest`]), except `step_p99_ms`, a median over blocks.
fn measure(args: &Args, outcome: &mut Outcome) {
    let rounds = (args.seconds.round() as usize).max(MIN_ROUNDS);
    // Every round offers two fleet blocks and plays two browse blocks.
    let blocks = 2 * rounds;
    let (mut fleet, (mut app, mut session)) = match args.workload {
        Workload::MeterFleet => {
            let fleet = timed_setup(
                outcome,
                || fleet::Pass::new(args.seed, blocks),
                fleet::Pass::shutdown,
            );
            (fleet, browse::ready(REFERENCE_SEED, blocks))
        }
        Workload::Browse => {
            let app = timed_setup(outcome, || browse::ready(args.seed, blocks), drop);
            (fleet::Pass::new(REFERENCE_SEED, blocks), app)
        }
    };
    let mut training = train::Pass::new();
    let set_up = process_started().elapsed().as_secs_f64();
    reset_peak_rss();
    for _ in 0..rounds {
        fleet.block();
        training.round(outcome);
        session.block(&mut app);
        fleet.rung();
        fleet.block();
        training.round(outcome);
        session.block(&mut app);
    }
    outcome.peak_rss();
    let measured = process_started().elapsed().as_secs_f64();
    fleet.finish(outcome);
    browse::report(&app, &session, outcome);
    training.finish(outcome);
    eprintln!(
        "  set-ups {set_up:.1} s, {rounds} rounds {:.1} s, checks and report {:.1} s",
        measured - set_up,
        process_started().elapsed().as_secs_f64() - measured
    );
}

fn main() {
    process_started();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    ds_par::set_threads(Some(PAR_THREADS));
    let mut outcome = Outcome::default();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        layers::run(&args, &mut outcome);
    } else {
        measure(&args, &mut outcome);
    }

    let samples = obj(outcome
        .samples
        .iter()
        .map(|(n, c)| (n.as_str(), Value::from(*c as u64)))
        .collect());
    let meta = obj(vec![
        ("workload", Value::from(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::from(args.trace)),
        ("nproc", Value::from(nproc() as u64)),
        ("simd", Value::from(ds_neural::simd::label())),
        ("par_threads", Value::from(ds_par::threads() as u64)),
        ("serve_workers", Value::from(SERVE_WORKERS as u64)),
        ("connections", Value::from(connections() as u64)),
        ("commit", Value::from(git_commit())),
        ("samples", samples),
    ]);
    println!("{}", obj(vec![("meta", meta)]));
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    let metrics = obj(outcome
        .metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.as_str(),
                obj(vec![("value", Value::from(*v)), ("unit", Value::from(*u))]),
            )
        })
        .collect());
    let result = obj(vec![
        (
            "correct",
            Value::from(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "browse",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Browse);
        assert_eq!(a.seed, 9);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }
}
