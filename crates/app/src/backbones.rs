//! The backbone comparison view: one row per detector architecture for
//! each selected appliance — whole-series localization quality against
//! the ground-truth status next to the frozen plan's per-window serving
//! latency — so architectures are compared on accuracy *and* speed, the
//! two axes the model zoo trades between.
//!
//! Each row trains (on first use) and serves a full single-backbone
//! ensemble; models and plans stay cached under their backbone-tagged
//! keys, so re-rendering the table is cheap and the session backbone is
//! restored when the view is done.

use crate::state::{AppError, AppState};
use ds_camal::Backbone;
use ds_datasets::ApplianceKind;
use ds_timeseries::missing::{impute, Imputation};
use std::time::Instant;

/// Serving-latency probe repetitions per backbone. The table reports the
/// fastest repetition: the first call may fold a plan, and the
/// steady-state latency is what the serving SLO is about.
const LATENCY_REPS: usize = 5;

/// Render the comparison table for `kinds` (the selected appliances).
pub fn render(state: &mut AppState, kinds: &[ApplianceKind]) -> Result<String, AppError> {
    let original = state.backbone();
    let result = render_rows(state, kinds);
    state.set_backbone(original);
    result
}

fn render_rows(state: &mut AppState, kinds: &[ApplianceKind]) -> Result<String, AppError> {
    let window = state.current_window()?;
    let clean = impute(&window, Imputation::Linear).into_values();
    let mut out = String::new();
    for &kind in kinds {
        out.push_str(&format!("── Backbone comparison: {} ──\n", kind.name()));
        out.push_str("backbone    acc   bacc  f1    window ms\n");
        for backbone in Backbone::ALL {
            state.set_backbone(backbone);
            let truth = state.series_truth(kind)?;
            let predicted = state.predicted_status(kind)?.as_binary();
            let m = ds_metrics::localization::score_status(&predicted, &truth);
            let mut best = f64::INFINITY;
            for _ in 0..LATENCY_REPS {
                let start = Instant::now();
                let _ = state.frozen_localize(kind, &clean)?;
                best = best.min(start.elapsed().as_secs_f64());
            }
            out.push_str(&format!(
                "{:<10}  {:.2}  {:.2}  {:.2}  {:9.2}\n",
                backbone.label(),
                m.accuracy,
                m.balanced_accuracy,
                m.f1,
                best * 1e3,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AppConfig;
    use ds_datasets::DatasetPreset;
    use ds_timeseries::window::WindowLength;

    #[test]
    fn table_covers_every_backbone_and_restores_the_session() {
        let mut state = AppState::new(AppConfig::fast_test());
        let houses = state.browsable_houses(DatasetPreset::UkdaleLike);
        state.load("UKDALE", houses[0]).unwrap();
        state.set_window_length(WindowLength::SixHours).unwrap();
        state.set_backbone(Backbone::TransApp);
        let view = render(&mut state, &[ApplianceKind::Kettle]).unwrap();
        assert!(view.contains("Backbone comparison: Kettle"), "{view}");
        for backbone in Backbone::ALL {
            assert!(view.contains(backbone.label()), "{view}");
        }
        assert!(view.contains("window ms"));
        // The session backbone survives the sweep.
        assert_eq!(state.backbone(), Backbone::TransApp);
    }
}
