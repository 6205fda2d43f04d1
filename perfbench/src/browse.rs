//! `browse`: a scripted DeviceScope user on [`AppState`] plus
//! [`playground::render`].
//!
//! The user selects appliances once, then keeps switching browsing
//! context — dataset, test house and window length (6 h, 12 h, 1 d) —
//! and pages Next/Prev inside each. Contexts are visited
//! least-recently-first (a seeded round robin) over a working set larger
//! than both app caches: more (context × appliance) streams than the
//! stream cache holds, and more windows per round than the window cache
//! holds. Every context switch therefore replays whole series through
//! new streams (the cold population, `switch_ms`), and paging inside a
//! context reads windows off the live streams (the warm population,
//! `step_*`).

use std::collections::BTreeMap;
use std::time::Instant;

use ds_app::playground::{self, CHART_WIDTH};
use ds_app::plot::{tri_status, tri_status_strip};
use ds_app::state::{AppConfig, AppState};
use ds_camal::{CamalConfig, FrozenCamal};
use ds_datasets::{ApplianceKind, DatasetPreset};
use ds_timeseries::missing::{impute, Imputation};
use ds_timeseries::window::WindowLength;
use ds_timeseries::TimeSeries;

use crate::stats::{self, Rng};
use crate::Outcome;

/// Datasets the user browses.
pub const DATASETS: [DatasetPreset; 1] = [DatasetPreset::UkdaleLike];
/// Houses generated per dataset (the app browses only the test houses).
pub const HOUSES: u32 = 8;
/// Days per house.
pub const DAYS: u32 = 21;
/// Appliances selected for the status overlay, in every context.
pub const APPLIANCES: [ApplianceKind; 2] = [ApplianceKind::Kettle, ApplianceKind::Microwave];
/// The GUI's window lengths.
pub const LENGTHS: [WindowLength; 3] = [
    WindowLength::SixHours,
    WindowLength::TwelveHours,
    WindowLength::OneDay,
];
/// Chance a step pages forward (the user mostly reads on).
pub const NEXT_PERCENT: usize = 80;

/// The app configuration the benchmark browses with: the test-sized
/// CamAL shape, trained for fewer epochs so set-up stays short.
pub fn app_config() -> AppConfig {
    let mut camal = CamalConfig::fast_test();
    camal.train.epochs = 1;
    AppConfig {
        camal,
        houses: HOUSES,
        days: DAYS,
    }
}

/// One browsing context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Context {
    pub dataset: DatasetPreset,
    pub house: u32,
    pub length: WindowLength,
    /// Windows the pager offers in this context.
    pub windows: usize,
}

/// One visit: switch to `context` (lands on window 1), then page until
/// the last window.
#[derive(Debug, Clone, PartialEq)]
pub struct Visit {
    pub context: usize,
    /// `true` = Next, `false` = Prev; always a real page change.
    pub steps: Vec<bool>,
}

/// The first `visits` visits of the seeded script: contexts in a seeded
/// round robin (so the next context is always the least recently
/// visited), each followed by a Next-biased walk from the first window to
/// the last — the user reads the house's history with look-backs.
pub fn script(seed: u64, contexts: &[Context], visits: usize) -> Vec<Visit> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..contexts.len()).collect();
    rng.shuffle(&mut order);
    (0..visits)
        .map(|v| {
            let context = order[v % order.len()];
            let last = contexts[context].windows.saturating_sub(1);
            let mut at = 0usize;
            let mut steps = Vec::new();
            while at < last {
                let forward = at == 0 || rng.below(100) < NEXT_PERCENT;
                at = if forward { at + 1 } else { at - 1 };
                steps.push(forward);
            }
            Visit { context, steps }
        })
        .collect()
}

/// Every (dataset, test house, window length) context of `state`.
pub fn contexts(state: &mut AppState) -> Vec<Context> {
    let mut out = Vec::new();
    for dataset in DATASETS {
        for house in state.browsable_houses(dataset) {
            for length in LENGTHS {
                state.set_window_length(length).expect("window length fits");
                state.load(dataset.name(), house).expect("test house loads");
                let (_, windows) = state.page().expect("series loaded");
                out.push(Context {
                    dataset,
                    house,
                    length,
                    windows,
                });
            }
        }
    }
    out
}

/// What the oracle expects of one (context, appliance, window) view.
#[derive(Debug, Clone)]
struct Expected {
    line: String,
    /// Sample-level confusion of the status against ground truth.
    tp: u64,
    fp: u64,
    fn_: u64,
}

/// Direct-call oracle: one frozen plan per (dataset, appliance, window
/// samples), frozen from the app's own trained models. Expectations are
/// memoized per window, so revisits cost a string comparison.
pub struct Oracle {
    plans: BTreeMap<(&'static str, &'static str, usize), FrozenCamal>,
    expected: BTreeMap<(&'static str, u32, usize, &'static str, usize), Expected>,
    /// Pooled over every checked view.
    tp: u64,
    fp: u64,
    fn_: u64,
}

impl Oracle {
    pub fn f1(&self) -> f64 {
        2.0 * self.tp as f64 / (2 * self.tp + self.fp + self.fn_).max(1) as f64
    }

    /// Check the rendered frame of the current view: the page header, and
    /// every appliance's status line against what a direct
    /// `FrozenCamal::localize` call on the same window renders to.
    pub fn check(&mut self, state: &mut AppState, frame: &str, page: (usize, usize)) -> bool {
        let mut ok = state.page().ok() == Some(page)
            && frame.contains(&format!("window {}/{} ", page.0 + 1, page.1));
        let dataset = state.dataset.expect("dataset loaded").name();
        let house = state.house_id.expect("house loaded");
        let window = state.current_window().expect("series loaded");
        for kind in state.selected.clone() {
            let key = (dataset, house, window.len(), kind.slug(), page.0);
            if !self.expected.contains_key(&key) {
                let plan = self
                    .plans
                    .get_mut(&(dataset, kind.slug(), window.len()))
                    .expect("oracle plan frozen in set-up");
                let expected = expect(plan, state, &window, kind);
                self.expected.insert(key, expected);
            }
            let expected = &self.expected[&key];
            ok &= frame.contains(&expected.line);
            self.tp += expected.tp;
            self.fp += expected.fp;
            self.fn_ += expected.fn_;
        }
        ok
    }
}

fn expect(
    plan: &mut FrozenCamal,
    state: &mut AppState,
    window: &TimeSeries,
    kind: ApplianceKind,
) -> Expected {
    let values = if window.missing_count() > 0 {
        impute(window, Imputation::Linear).into_values()
    } else {
        window.values().to_vec()
    };
    let loc = plan.localize(&values);
    let marker = if loc.detection.detected { "✓" } else { " " };
    let tri = tri_status(&loc.status, window.values());
    let line = format!(
        "{marker} {:<16} {}  p={:.2}\n",
        kind.name(),
        tri_status_strip(&tri, CHART_WIDTH),
        loc.detection.probability
    );
    let truth = state.current_truth(kind).expect("series loaded");
    let mut e = Expected {
        line,
        tp: 0,
        fp: 0,
        fn_: 0,
    };
    for (&p, &t) in loc.status.iter().zip(&truth) {
        match (p == 1, t == 1) {
            (true, true) => e.tp += 1,
            (true, false) => e.fp += 1,
            (false, true) => e.fn_ += 1,
            _ => {}
        }
    }
    e
}

/// A ready app: datasets generated, every model trained, oracle plans
/// frozen, appliances selected.
pub struct Setup {
    pub state: AppState,
    pub contexts: Vec<Context>,
    pub oracle: Oracle,
    /// Seconds spent in the first `AppState::model` call per model.
    pub train_secs: Vec<f64>,
}

pub fn setup() -> Setup {
    let mut state = AppState::new(app_config());
    let contexts = contexts(&mut state);
    let mut plans = BTreeMap::new();
    let mut train_secs = Vec::new();
    for dataset in DATASETS {
        let house = state.browsable_houses(dataset)[0];
        for length in LENGTHS {
            state.set_window_length(length).expect("window length fits");
            state.load(dataset.name(), house).expect("test house loads");
            let samples = state.current_window().expect("series loaded").len();
            for kind in APPLIANCES {
                let started = Instant::now();
                let model = state.model(kind).expect("model trains");
                train_secs.push(started.elapsed().as_secs_f64());
                plans.insert((dataset.name(), kind.slug(), samples), model.freeze());
            }
        }
    }
    for kind in APPLIANCES {
        state
            .toggle_appliance(kind.slug())
            .expect("known appliance");
    }
    Setup {
        state,
        contexts,
        oracle: Oracle {
            plans,
            expected: BTreeMap::new(),
            tp: 0,
            fp: 0,
            fn_: 0,
        },
        train_secs,
    }
}

/// Switch `state` to a context: the window-length control, then the
/// dataset/house selector (which lands on window 1).
pub fn switch(state: &mut AppState, context: &Context) {
    state
        .set_window_length(context.length)
        .expect("window length fits");
    state
        .load(context.dataset.name(), context.house)
        .expect("test house loads");
}

/// Per-view timings of one block of script rounds.
#[derive(Debug, Default)]
pub struct Block {
    pub switch_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Where each script round ends in `switch_ms` and `step_ms`.
    pub round_ends: Vec<(usize, usize)>,
}

impl Block {
    /// Each script round's views: (switch times, step times).
    pub fn rounds(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        let starts = std::iter::once((0, 0)).chain(self.round_ends.iter().copied());
        starts
            .zip(self.round_ends.iter().copied())
            .map(|((sw, st), (sw_end, st_end))| {
                (&self.switch_ms[sw..sw_end], &self.step_ms[st..st_end])
            })
    }
}

/// Script rounds per block: about 24 switches and 2000 steps, so a
/// block's step p99 has 20 steps beyond it. A block is a fixed part of
/// the script, not a time budget, so every run of a seed plays the same
/// views whatever the host's speed.
pub const ROUNDS_PER_BLOCK: usize = 4;
/// About the timed view time of one block on a 2-vCPU host, for sizing
/// passes.
pub const BLOCK_SECS: f64 = 0.4;

/// A scripted session: the script, the next round to play, the timed
/// blocks played so far and the oracle tally.
pub struct Session {
    visits: Vec<Visit>,
    contexts: usize,
    next_round: usize,
    pub blocks: Vec<Block>,
    pub attempted: u64,
    pub failed: u64,
}

impl Session {
    /// A session of `blocks` timed blocks after an untimed first round.
    pub fn new(setup: &Setup, seed: u64, blocks: usize) -> Session {
        let rounds = 1 + blocks * ROUNDS_PER_BLOCK;
        let contexts = setup.contexts.len();
        Session {
            visits: script(seed, &setup.contexts, contexts * rounds),
            contexts,
            next_round: 0,
            blocks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn round(&mut self) -> std::ops::Range<usize> {
        let r = self.next_round;
        self.next_round += 1;
        assert!(
            (r + 1) * self.contexts <= self.visits.len(),
            "the script outlasts the session"
        );
        r * self.contexts..(r + 1) * self.contexts
    }

    /// The untimed first round, so timed views start from the steady
    /// state: frozen plans built, both caches cycling in script order,
    /// and the allocator holding memory of every size a switch asks for.
    pub fn warm_up(&mut self, setup: &mut Setup) {
        let round = self.round();
        for visit in &self.visits[round] {
            switch(&mut setup.state, &setup.contexts[visit.context]);
            let _ = playground::render(&mut setup.state);
            for &forward in &visit.steps {
                let _ = if forward {
                    setup.state.next()
                } else {
                    setup.state.prev()
                };
                let _ = playground::render(&mut setup.state);
            }
        }
    }

    /// Play the next [`ROUNDS_PER_BLOCK`] script rounds. Each view is
    /// timed alone; the oracle check after it is off the clock.
    pub fn block(&mut self, setup: &mut Setup) {
        let mut block = Block::default();
        for _ in 0..ROUNDS_PER_BLOCK {
            let round = self.round();
            for visit in &self.visits[round] {
                let context = setup.contexts[visit.context];
                let started = Instant::now();
                switch(&mut setup.state, &context);
                let frame = playground::render(&mut setup.state);
                let elapsed = started.elapsed();
                block.switch_ms.push(elapsed.as_secs_f64() * 1e3);
                let mut page = (0usize, context.windows);
                let mut ok = frame
                    .ok()
                    .is_some_and(|f| setup.oracle.check(&mut setup.state, &f, page));
                self.attempted += 1;
                self.failed += u64::from(!ok);
                for &forward in &visit.steps {
                    let started = Instant::now();
                    let moved = if forward {
                        setup.state.next()
                    } else {
                        setup.state.prev()
                    };
                    let frame = playground::render(&mut setup.state);
                    let elapsed = started.elapsed();
                    block.step_ms.push(elapsed.as_secs_f64() * 1e3);
                    page.0 = if forward { page.0 + 1 } else { page.0 - 1 };
                    ok = moved == Ok(true)
                        && frame
                            .ok()
                            .is_some_and(|f| setup.oracle.check(&mut setup.state, &f, page));
                    self.attempted += 1;
                    self.failed += u64::from(!ok);
                }
            }
            block
                .round_ends
                .push((block.switch_ms.len(), block.step_ms.len()));
        }
        self.blocks.push(block);
    }

    /// Every step time of every block.
    pub fn steps(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.step_ms.iter().copied())
            .collect()
    }
}

/// A session of `blocks` timed blocks, played at once.
pub fn play(setup: &mut Setup, seed: u64, blocks: usize) -> Session {
    let mut session = Session::new(setup, seed, blocks);
    session.warm_up(setup);
    for _ in 0..blocks {
        session.block(setup);
    }
    session
}

/// The set-up of the `browse` pass: the app trained and ready, and a
/// session of `blocks` blocks past its untimed first round.
pub fn ready(seed: u64, blocks: usize) -> (Setup, Session) {
    let mut setup = setup();
    let mut session = Session::new(&setup, seed, blocks);
    session.warm_up(&mut setup);
    (setup, session)
}

/// Record `switch_ms`, `step_p50_ms`, `step_p99_ms` and `status_f1`: the
/// fastest script round's mean switch view and step median, the median
/// over blocks of each block's step p99 (a round has too few steps for
/// one), and F1 pooled over every checked view. Views are CPU- and
/// memory-bound, and the shared host runs them at one of two speeds for
/// seconds to minutes at a time; the fastest round reads the fast speed
/// whenever one round of the run met it. A block's p99 also moves with
/// its few slowest steps, so the fastest block's p99 is a noisy extreme
/// and the median is reported instead.
pub fn report(setup: &Setup, session: &Session, outcome: &mut Outcome) {
    outcome.attempted += session.attempted;
    outcome.failed += session.failed;
    let per_block =
        |f: &dyn Fn(&Block) -> f64| -> Vec<f64> { session.blocks.iter().map(f).collect() };
    let per_round = |f: &dyn Fn(&[f64], &[f64]) -> f64| -> Vec<f64> {
        session
            .blocks
            .iter()
            .flat_map(|b| b.rounds().map(|(sw, st)| f(sw, st)))
            .collect()
    };
    let switch = per_round(&|sw, _| sw.iter().sum::<f64>() / sw.len() as f64);
    let step_p50 = per_round(&|_, st| stats::median(st));
    let step_p99 = per_block(&|b| stats::percentile(&stats::sorted(b.step_ms.clone()), 0.99));
    outcome.metric("switch_ms", stats::fastest(&switch), "ms");
    outcome.metric("step_p50_ms", stats::fastest(&step_p50), "ms");
    outcome.metric("step_p99_ms", stats::median(&step_p99), "ms");
    outcome.metric("status_f1", setup.oracle.f1(), "ratio");
    let switches = stats::sorted(
        session
            .blocks
            .iter()
            .flat_map(|b| b.switch_ms.iter().copied())
            .collect(),
    );
    let steps = stats::sorted(session.steps());
    outcome.samples("switch_ms", switches.len());
    outcome.samples("step_p50_ms", steps.len());
    outcome.samples("step_p99_ms", steps.len());
    outcome.samples("switch_ms.rounds", switch.len());
    outcome.samples("step_p99_ms.blocks", session.blocks.len());
    eprintln!(
        "  models trained in {:.2} s; {} contexts; {} switches p10 {:.2} p50 {:.2} p90 {:.2} ms; steps p10 {:.3} p90 {:.3} p999 {:.3} ms",
        setup.train_secs.iter().sum::<f64>(),
        setup.contexts.len(),
        switches.len(),
        stats::percentile(&switches, 0.1),
        stats::percentile(&switches, 0.5),
        stats::percentile(&switches, 0.9),
        stats::percentile(&steps, 0.1),
        stats::percentile(&steps, 0.9),
        stats::percentile(&steps, 0.999),
    );
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("  browse round switch ms: {}", show(&switch));
    eprintln!("  browse round step p50 ms: {}", show(&step_p50));
    eprintln!("  browse block step p99 ms: {}", show(&step_p99));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_contexts() -> Vec<Context> {
        LENGTHS
            .iter()
            .zip([84, 42, 21])
            .flat_map(|(&length, windows)| {
                [1, 2].map(|house| Context {
                    dataset: DatasetPreset::UkdaleLike,
                    house,
                    length,
                    windows,
                })
            })
            .collect()
    }

    #[test]
    fn same_seed_same_script() {
        let contexts = synthetic_contexts();
        assert_eq!(script(5, &contexts, 30), script(5, &contexts, 30));
    }

    #[test]
    fn different_seed_different_script() {
        let contexts = synthetic_contexts();
        assert_ne!(script(5, &contexts, 30), script(6, &contexts, 30));
    }

    #[test]
    fn script_visits_least_recently_first_and_reads_to_the_end() {
        let contexts = synthetic_contexts();
        let visits = script(11, &contexts, contexts.len() * 3);
        for (i, visit) in visits.iter().enumerate().skip(contexts.len()) {
            assert_eq!(visit.context, visits[i - contexts.len()].context);
        }
        for visit in &visits {
            let mut at = 0usize;
            for &forward in &visit.steps {
                at = if forward { at + 1 } else { at - 1 };
                assert!(at < contexts[visit.context].windows);
            }
            assert_eq!(at, contexts[visit.context].windows - 1);
        }
    }

    /// Every switch view after the first round misses the window cache
    /// for every appliance, and both bounded caches evict: the working set
    /// exceeds them, as the counters show.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "trains six models; run with --release")]
    fn working_set_exceeds_app_caches() {
        ds_obs::set_level(ds_obs::Level::Summary);
        let count = |name: &str| ds_obs::global().counter_get(name);
        let mut setup = setup();
        let rounds = 2;
        let visits = script(9, &setup.contexts, setup.contexts.len() * rounds);
        let mut stream_misses = 0;
        for (v, visit) in visits.iter().enumerate() {
            switch(&mut setup.state, &setup.contexts[visit.context]);
            let window_before = count("cache.window_localization.misses");
            let stream_before = count("cache.streaming.misses");
            playground::render(&mut setup.state).expect("renders");
            if v >= setup.contexts.len() {
                assert_eq!(
                    count("cache.window_localization.misses") - window_before,
                    APPLIANCES.len() as u64,
                    "a switch view hit the window cache"
                );
                stream_misses += count("cache.streaming.misses") - stream_before;
            }
            for &forward in &visit.steps {
                let moved = if forward {
                    setup.state.next()
                } else {
                    setup.state.prev()
                };
                assert_eq!(moved, Ok(true));
                playground::render(&mut setup.state).expect("renders");
            }
        }
        assert!(stream_misses > 0, "no switch replayed a stream");
        assert!(count("cache.streaming.evictions") > 0);
        assert!(count("cache.window_localization.evictions") > 0);
        ds_obs::set_level(ds_obs::Level::Off);
    }
}
