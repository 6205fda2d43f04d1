//! The interactive command loop wiring the views together. Commands map
//! one-to-one onto the GUI's widgets (select boxes, Prev/Next buttons,
//! tabs), so the demo scenarios can be followed verbatim.

use crate::state::{AppError, AppState};
use crate::{benchmark_frame, perdevice, playground, probabilities, scenarios};
use ds_datasets::ApplianceKind;
use ds_metrics::aggregate::BenchmarkTable;
use ds_timeseries::window::WindowLength;
use std::io::{BufRead, Write};

/// The REPL over an app state and an optional preloaded benchmark table.
pub struct Repl {
    state: AppState,
    bench: Option<BenchmarkTable>,
    /// A running ds-serve HTTP server sharing this session's trained
    /// models (`serve start`), if one has been started.
    server: Option<ds_serve::ServerHandle>,
}

/// Outcome of executing one command.
pub enum Outcome {
    /// Text to print.
    Output(String),
    /// The user asked to exit.
    Quit,
}

impl Repl {
    /// Create a REPL.
    pub fn new(state: AppState, bench: Option<BenchmarkTable>) -> Repl {
        Repl {
            state,
            bench,
            server: None,
        }
    }

    /// The help text.
    pub fn help() -> &'static str {
        "DeviceScope commands:\n\
         \x20 datasets                 list available datasets\n\
         \x20 houses <dataset>         list browsable (test) houses\n\
         \x20 info <dataset>           dataset statistics\n\
         \x20 load <dataset> <house>   load a consumption series\n\
         \x20 window <6h|12h|1d>       set the window length\n\
         \x20 next | prev              page through the series\n\
         \x20 show                     render the playground frame\n\
         \x20 select <appliance>       toggle an appliance overlay\n\
         \x20 perdevice <appliance>    ground truth vs prediction\n\
         \x20 probs                    model detection probabilities\n\
         \x20 patterns [appliance]     example appliance signatures\n\
         \x20 insights                 per-appliance energy breakdown\n\
         \x20 backbone [resnet|inception|transapp]  show or switch the detector backbone\n\
         \x20 backbones                per-backbone accuracy vs serving latency\n\
         \x20 benchmark <dataset> [measure]   benchmark frame (B.1)\n\
         \x20 labels                   label-efficiency comparison (B.2)\n\
         \x20 scenario <1|2|3>         run a demonstration scenario\n\
         \x20 serve <start [addr]|status|stop>  HTTP serving over the session's plans\n\
         \x20 obs [level|reset]        live observability profile (DS_OBS)\n\
         \x20 profile                  hot spans, worker busy/idle, SLO verdicts\n\
         \x20 help                     this text\n\
         \x20 quit                     exit\n"
    }

    /// Execute one command line.
    pub fn execute(&mut self, line: &str) -> Outcome {
        match self.dispatch(line) {
            Ok(Some(text)) => Outcome::Output(text),
            Ok(None) => Outcome::Quit,
            Err(e) => Outcome::Output(format!("error: {e}\n")),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<Option<String>, AppError> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg1 = parts.next();
        let arg2 = parts.next();
        Ok(Some(match cmd {
            "" => String::new(),
            "help" => Self::help().to_string(),
            "quit" | "exit" => return Ok(None),
            "datasets" => format!("{}\n", self.state.dataset_names().join(", ")),
            "info" => {
                let name = arg1.ok_or_else(|| AppError::UnknownDataset("".into()))?;
                let preset = ds_datasets::DatasetPreset::parse(name)
                    .ok_or_else(|| AppError::UnknownDataset(name.to_string()))?;
                let stats = self.state.dataset_stats(preset);
                ds_datasets::stats::render(&stats)
            }
            "houses" => {
                let name = arg1.ok_or_else(|| AppError::UnknownDataset("".into()))?;
                let preset = ds_datasets::DatasetPreset::parse(name)
                    .ok_or_else(|| AppError::UnknownDataset(name.to_string()))?;
                let houses = self.state.browsable_houses(preset);
                format!(
                    "test houses of {}: {}\n",
                    preset.name(),
                    houses
                        .iter()
                        .map(|h| h.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            "load" => {
                let name = arg1.ok_or_else(|| AppError::UnknownDataset("".into()))?;
                let house: u32 = arg2
                    .and_then(|h| h.parse().ok())
                    .ok_or(AppError::UnknownHouse(u32::MAX))?;
                self.state.load(name, house)?;
                format!(
                    "loaded {name} house {house}\n{}",
                    playground::render(&mut self.state)?
                )
            }
            "window" => {
                let length = match arg1 {
                    Some("6h") => WindowLength::SixHours,
                    Some("12h") => WindowLength::TwelveHours,
                    Some("1d") | Some("24h") => WindowLength::OneDay,
                    other => {
                        return Ok(Some(format!(
                            "unknown window length {:?} (use 6h, 12h or 1d)\n",
                            other.unwrap_or("")
                        )))
                    }
                };
                self.state.set_window_length(length)?;
                playground::render(&mut self.state)?
            }
            "next" => {
                let moved = self.state.next()?;
                let view = playground::render(&mut self.state)?;
                if moved {
                    view
                } else {
                    format!("(already at the last window)\n{view}")
                }
            }
            "prev" => {
                let moved = self.state.prev()?;
                let view = playground::render(&mut self.state)?;
                if moved {
                    view
                } else {
                    format!("(already at the first window)\n{view}")
                }
            }
            "show" => playground::render(&mut self.state)?,
            "select" => {
                let name = arg1.ok_or_else(|| AppError::UnknownAppliance("".into()))?;
                let on = self.state.toggle_appliance(name)?;
                format!(
                    "{} {}\n{}",
                    name,
                    if on { "selected" } else { "deselected" },
                    playground::render(&mut self.state)?
                )
            }
            "perdevice" => {
                let name = arg1.ok_or_else(|| AppError::UnknownAppliance("".into()))?;
                let kind = ApplianceKind::parse(name)
                    .ok_or_else(|| AppError::UnknownAppliance(name.to_string()))?;
                perdevice::render(&mut self.state, kind)?
            }
            "probs" => probabilities::render(&mut self.state)?,
            "patterns" => match arg1 {
                Some(name) => match ApplianceKind::parse(name) {
                    Some(kind) => crate::patterns::render_one(kind, 42),
                    None => return Err(AppError::UnknownAppliance(name.to_string())),
                },
                None => crate::patterns::render_all(42),
            },
            "insights" => {
                if self.state.selected.is_empty() {
                    "select at least one appliance first (select <appliance>)\n".into()
                } else {
                    let (usages, total) = self.state.insights()?;
                    crate::insights::render(&usages, total)
                }
            }
            "backbone" => match arg1 {
                None => format!("detector backbone: {}\n", self.state.backbone().label()),
                Some(spec) => match ds_camal::Backbone::parse(spec) {
                    Some(b) => {
                        self.state.set_backbone(b);
                        format!(
                            "detector backbone set to {} (models train lazily per appliance)\n",
                            b.label()
                        )
                    }
                    None => {
                        format!("unknown backbone {spec:?} (use resnet, inception or transapp)\n")
                    }
                },
            },
            "backbones" => {
                if self.state.selected.is_empty() {
                    "select at least one appliance first (select <appliance>)\n".into()
                } else {
                    let kinds = self.state.selected.clone();
                    crate::backbones::render(&mut self.state, &kinds)?
                }
            }
            "benchmark" => match (&self.bench, arg1) {
                (Some(bench), Some(dataset)) => {
                    benchmark_frame::render_dataset(bench, dataset, arg2.unwrap_or("F1"))
                }
                (Some(_), None) => "usage: benchmark <dataset> [measure]\n".into(),
                (None, _) => "no benchmark table loaded (run the ds-bench harness first, \
                              then start with --bench <table.json>)\n"
                    .into(),
            },
            "labels" => match &self.bench {
                Some(bench) => benchmark_frame::render_label_comparison(bench),
                None => "no benchmark table loaded\n".into(),
            },
            "scenario" => match arg1 {
                Some("1") => scenarios::scenario_1(&mut self.state)?,
                Some("2") => {
                    let kind = arg2
                        .and_then(ApplianceKind::parse)
                        .unwrap_or(ApplianceKind::Kettle);
                    scenarios::scenario_2(&mut self.state, kind)?
                }
                Some("3") => match &self.bench {
                    Some(bench) => scenarios::scenario_3(bench, arg2.unwrap_or("UKDALE"), "F1"),
                    None => "scenario 3 needs a benchmark table (--bench <table.json>)\n".into(),
                },
                _ => "usage: scenario <1|2|3> [appliance|dataset]\n".into(),
            },
            "serve" => match arg1 {
                Some("start") => match &self.server {
                    Some(handle) => format!(
                        "server already running at http://{} (serve stop first)\n",
                        handle.addr()
                    ),
                    None => {
                        let registry = std::sync::Arc::new(ds_serve::ModelRegistry::new());
                        let plans = self.state.register_serving_models(&registry)?;
                        if plans.is_empty() {
                            "select at least one appliance first (select <appliance>), \
                             then serve start\n"
                                .into()
                        } else {
                            let config = ds_serve::ServeConfig {
                                addr: arg2.unwrap_or("127.0.0.1:8732").to_string(),
                                ..ds_serve::ServeConfig::default()
                            };
                            let workers = config.workers;
                            match ds_serve::Server::start(config, registry) {
                                Ok(handle) => {
                                    let mut out = format!(
                                        "serving {} model(s) at http://{} ({} worker(s))\n",
                                        plans.len(),
                                        handle.addr(),
                                        workers.max(1),
                                    );
                                    for (preset, appliance, window, backbone) in &plans {
                                        out.push_str(&format!(
                                            "  {preset}/{appliance} [{}] window {window}\n",
                                            backbone.label()
                                        ));
                                    }
                                    out.push_str(
                                        "endpoints: POST /api/v1/{detect,localize,\
                                         status-series,push}, GET /api/v1/stats\n",
                                    );
                                    self.server = Some(handle);
                                    out
                                }
                                Err(e) => format!("error: could not start server: {e}\n"),
                            }
                        }
                    }
                },
                Some("status") => match &self.server {
                    Some(handle) => {
                        use std::sync::atomic::Ordering::Relaxed;
                        let stats = handle.stats();
                        format!(
                            "serving at http://{}\n\
                             \x20 requests {}  rejected {}  client errors {}  queued {}\n\
                             \x20 steady-state allocs in the kernel: {}\n",
                            handle.addr(),
                            stats.requests.load(Relaxed),
                            stats.rejected.load(Relaxed),
                            stats.client_errors.load(Relaxed),
                            handle.queue_depth(),
                            stats.steady_allocs.load(Relaxed),
                        )
                    }
                    None => "no server running (serve start [addr])\n".into(),
                },
                Some("stop") => match self.server.take() {
                    Some(handle) => {
                        let addr = handle.addr();
                        handle.shutdown();
                        format!("server at http://{addr} stopped\n")
                    }
                    None => "no server running\n".into(),
                },
                _ => "usage: serve <start [addr]|status|stop>\n".into(),
            },
            "obs" => match arg1 {
                None => {
                    let mut out = ds_obs::render_summary();
                    // Frozen serving latency vs the interactive render
                    // budget: a window must draw in under 50 ms.
                    match ds_obs::global().histogram_summary("app.frozen.window_latency_s") {
                        Some(s) if s.count > 0 => out.push_str(&format!(
                            "frozen window latency: p50 {:.2} ms  p99 {:.2} ms over {} windows (budget 50 ms)\n",
                            s.p50 * 1e3,
                            s.p99 * 1e3,
                            s.count,
                        )),
                        _ => out.push_str(
                            "frozen window latency: no samples yet (obs summary, then probs/perdevice/play)\n",
                        ),
                    }
                    out
                }
                Some("off") => {
                    ds_obs::set_level(ds_obs::Level::Off);
                    "observability off\n".into()
                }
                Some("summary") => {
                    ds_obs::set_level(ds_obs::Level::Summary);
                    "observability level set to summary\n".into()
                }
                Some("trace") => {
                    ds_obs::set_level(ds_obs::Level::Trace);
                    "observability level set to trace (events echo to stderr)\n".into()
                }
                Some("reset") => {
                    ds_obs::reset();
                    "observability data cleared\n".into()
                }
                Some(other) => {
                    format!("unknown obs argument {other:?} (use off|summary|trace|reset)\n")
                }
            },
            "profile" => ds_obs::render_profile(),
            other => format!("unknown command {other:?} — type 'help'\n"),
        }))
    }

    /// Run the interactive loop over the given reader/writer.
    pub fn run(&mut self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        writeln!(output, "DeviceScope — type 'help' for commands")?;
        write!(output, "> ")?;
        output.flush()?;
        for line in input.lines() {
            let line = line?;
            match self.execute(&line) {
                Outcome::Output(text) => {
                    write!(output, "{text}")?;
                }
                Outcome::Quit => break,
            }
            write!(output, "> ")?;
            output.flush()?;
        }
        writeln!(output)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AppConfig;

    fn repl() -> Repl {
        Repl::new(AppState::new(AppConfig::fast_test()), None)
    }

    fn run(repl: &mut Repl, cmd: &str) -> String {
        match repl.execute(cmd) {
            Outcome::Output(s) => s,
            Outcome::Quit => "<quit>".into(),
        }
    }

    #[test]
    fn help_and_unknown() {
        let mut r = repl();
        assert!(run(&mut r, "help").contains("DeviceScope commands"));
        assert!(run(&mut r, "frobnicate").contains("unknown command"));
        assert_eq!(run(&mut r, ""), "");
        assert_eq!(run(&mut r, "quit"), "<quit>");
    }

    #[test]
    fn obs_command_renders_profile_and_switches_level() {
        let _guard = crate::obs_test_lock();
        let mut r = repl();
        assert!(run(&mut r, "help").contains("obs [level|reset]"));
        // Default (tests run with observability off): the summary renders
        // with a hint rather than erroring.
        assert!(run(&mut r, "obs").contains("ds-obs summary"));
        // No frozen-path traffic yet: the latency line says so.
        assert!(run(&mut r, "obs").contains("frozen window latency: no samples yet"));
        assert!(run(&mut r, "obs summary").contains("level set to summary"));
        // With the level on, REPL-driven model activity shows up in the
        // profile table.
        let _ = run(&mut r, "obs reset");
        {
            let _span = ds_obs::span!("repl_probe");
        }
        assert!(run(&mut r, "obs").contains("repl_probe"));
        // Frozen serving samples surface as a p50/p99 line against the
        // 50 ms interactive budget.
        ds_obs::observe(
            "app.frozen.window_latency_s",
            0.004,
            ds_obs::Buckets::DurationSecs,
        );
        let view = run(&mut r, "obs");
        assert!(view.contains("frozen window latency: p50"));
        assert!(view.contains("budget 50 ms"));
        assert!(run(&mut r, "obs bogus").contains("unknown obs argument"));
        assert!(run(&mut r, "obs reset").contains("cleared"));
        assert!(run(&mut r, "obs off").contains("observability off"));
        ds_obs::reset();
    }

    #[test]
    fn profile_command_reports_hot_spans_and_slo_verdicts() {
        let _guard = crate::obs_test_lock();
        // `repl()` builds an AppState, which declares the frozen-latency
        // budget.
        let mut r = repl();
        assert!(run(&mut r, "help").contains("profile"));
        let _ = run(&mut r, "obs summary");
        let _ = run(&mut r, "obs reset");
        {
            let _span = ds_obs::span!("profile_probe");
        }
        // Under the 50 ms budget: the declared SLO passes.
        ds_obs::observe(
            "app.frozen.window_latency_s",
            0.004,
            ds_obs::Buckets::DurationSecs,
        );
        let view = run(&mut r, "profile");
        assert!(view.contains("hot spans"), "profile view:\n{view}");
        assert!(view.contains("profile_probe"));
        assert!(view.contains("slo budgets"));
        assert!(view.contains("[PASS] frozen_window_latency"));
        // Push p99 over 50 ms: the verdict flips and the burn counter
        // records the violating sample.
        ds_obs::observe(
            "app.frozen.window_latency_s",
            0.120,
            ds_obs::Buckets::DurationSecs,
        );
        let view = run(&mut r, "profile");
        assert!(view.contains("[FAIL] frozen_window_latency"), "{view}");
        assert!(
            ds_obs::global().counter_get("slo.frozen_window_latency.burn") >= 1,
            "burn counter should tick on violation"
        );
        let _ = run(&mut r, "obs reset");
        let _ = run(&mut r, "obs off");
    }

    #[test]
    fn full_session_flow() {
        let mut r = repl();
        assert!(run(&mut r, "datasets").contains("UKDALE"));
        let houses = run(&mut r, "houses ukdale");
        assert!(houses.contains("test houses of UKDALE"));
        let first_house: u32 = houses
            .split(':')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(run(&mut r, &format!("load UKDALE {first_house}")).contains("Playground"));
        assert!(run(&mut r, "window 6h").contains("6 hours"));
        assert!(run(&mut r, "next").contains("window 2/"));
        assert!(run(&mut r, "prev").contains("window 1/"));
        assert!(run(&mut r, "prev").contains("already at the first"));
        assert!(run(&mut r, "select kettle").contains("kettle selected"));
        assert!(run(&mut r, "probs").contains("ensemble"));
        assert!(run(&mut r, "perdevice kettle").contains("Per device"));
    }

    /// `serve start` exports the session's trained plans over HTTP; the
    /// served decisions come from the same FrozenCamal plans the views
    /// use, so a REPL session doubles as a serving endpoint.
    #[test]
    fn serve_command_starts_a_queryable_server() {
        let mut r = repl();
        assert!(run(&mut r, "serve status").contains("no server running"));
        assert!(run(&mut r, "serve stop").contains("no server running"));
        assert!(run(&mut r, "serve").contains("usage: serve"));
        let houses = run(&mut r, "houses ukdale");
        let first_house: u32 = houses
            .split(':')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let _ = run(&mut r, &format!("load UKDALE {first_house}"));
        assert!(run(&mut r, "serve start 127.0.0.1:0").contains("select at least one appliance"));
        let _ = run(&mut r, "select kettle");
        let started = run(&mut r, "serve start 127.0.0.1:0");
        assert!(started.contains("serving 1 model(s)"), "{started}");
        let addr = started
            .split("http://")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        let window: usize = started
            .lines()
            .find(|l| l.contains("/kettle [resnet] window"))
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(run(&mut r, "serve start").contains("already running"));

        let mut client = ds_serve::Client::connect(&addr).unwrap();
        let values = vec!["0.5"; window].join(",");
        let body =
            format!("{{\"preset\":\"UKDALE\",\"appliance\":\"kettle\",\"values\":[{values}]}}");
        let (status, reply) = client.post("/api/v1/detect", &body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"probability\""), "{reply}");

        let status_view = run(&mut r, "serve status");
        assert!(status_view.contains("requests 1"), "{status_view}");
        assert!(run(&mut r, "serve stop").contains("stopped"));
        assert!(run(&mut r, "serve status").contains("no server running"));
    }

    #[test]
    fn precision_is_an_unknown_command() {
        let mut r = repl();
        assert!(!run(&mut r, "help").contains("precision"));
        for line in ["precision", "precision f32"] {
            assert!(run(&mut r, line).contains("unknown command"), "{line}");
        }
    }

    #[test]
    fn backbone_command_switches_the_detector_architecture() {
        let mut r = repl();
        assert!(run(&mut r, "help").contains("backbone [resnet|inception|transapp]"));
        assert!(run(&mut r, "help").contains("backbones"));
        assert!(run(&mut r, "backbone").contains("detector backbone: resnet"));
        assert!(run(&mut r, "backbone vgg").contains("unknown backbone"));
        assert!(run(&mut r, "backbone inception").contains("set to inception"));
        assert!(run(&mut r, "backbone").contains("inception"));
        assert!(run(&mut r, "backbone transapp").contains("set to transapp"));
        // The comparison view needs a selection and a loaded series.
        assert!(run(&mut r, "backbones").contains("select at least one appliance"));
    }

    #[test]
    fn patterns_and_insights_commands() {
        let mut r = repl();
        // Patterns work without a loaded series.
        let all = run(&mut r, "patterns");
        assert!(all.contains("Kettle") && all.contains("Shower"));
        let one = run(&mut r, "patterns dishwasher");
        assert!(one.contains("Dishwasher — typical pattern"));
        assert!(run(&mut r, "patterns toaster").contains("error"));
        // Insights need a selection and a loaded series.
        assert!(run(&mut r, "insights").contains("select at least one"));
        let houses = run(&mut r, "houses ukdale");
        let first: u32 = houses
            .split(':')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        run(&mut r, &format!("load UKDALE {first}"));
        run(&mut r, "window 6h");
        run(&mut r, "select kettle");
        let insights = run(&mut r, "insights");
        assert!(insights.contains("Consumption insights"), "{insights}");
        assert!(insights.contains("Kettle"));
        assert!(insights.contains("kWh"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut r = repl();
        assert!(run(&mut r, "load MARS 1").contains("error"));
        assert!(run(&mut r, "next").contains("error"));
        assert!(run(&mut r, "select fridge").contains("error"));
        assert!(run(&mut r, "window 3h").contains("unknown window length"));
        assert!(run(&mut r, "benchmark UKDALE").contains("no benchmark table"));
        assert!(run(&mut r, "labels").contains("no benchmark table"));
        assert!(run(&mut r, "scenario 9").contains("usage"));
    }

    #[test]
    fn run_loop_reads_until_quit() {
        let mut r = repl();
        let input = b"datasets\nquit\n" as &[u8];
        let mut output = Vec::new();
        r.run(input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("DeviceScope"));
        assert!(text.contains("UKDALE"));
    }
}
