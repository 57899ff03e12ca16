//! Drift detection: comparing live-window behaviour to a calibrated
//! baseline and emitting structured [`Alert`]s.
//!
//! The [`Baseline`] captures what "normal" looks like — category mix,
//! MTTR with its full TTR sample, GPU-slot involvement shares —
//! either from a calibrated `failsim` model (simulate once, summarize)
//! or from a reference log. The [`DriftDetector`] then evaluates four
//! conditions against the trailing window of the live stream:
//!
//! * **category-mix shift** — total-variation distance between the
//!   window's category fractions and the baseline mix, triggered only
//!   beyond a sampling-noise allowance (a Bretagnolle–Huber–Carol
//!   concentration bound at the 1% level), so a small window drawn
//!   from the baseline itself stays quiet;
//! * **MTTR regression** — windowed mean TTR exceeding the baseline
//!   MTTR by a fixed ratio, corroborated by a two-sample KS test
//!   of the window sample against the baseline TTR sample (severity
//!   escalates to critical when the KS test rejects);
//! * **slot-skew anomaly** — a GPU slot's windowed involvement share
//!   moving away from its baseline share by more than a threshold;
//! * **multi-GPU burst** — too many multi-GPU failures inside a
//!   trailing excitation window (the paper's Fig. 8 clustering, live).
//!
//! Alerts are **edge-triggered**: a condition fires once when it
//! becomes true and re-arms only after it has observed false again, so
//! a persistently degraded stream does not spam one alert per record.
//! A severity escalation (the KS test starting to reject while the
//! ratio condition still holds) counts as a fresh edge and fires once
//! more.

use std::collections::BTreeMap;

use failscope::StreamView;
use failsim::{Simulator, SystemModel};
use failstats::ks_test_two_sample;
use failtypes::{Alert, AlertKind, AlertSeverity, Category, FailureLog};

use crate::state::WatchState;

/// What "normal" looks like: the reference the live window is compared
/// against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Human-readable origin (model or log name).
    pub name: String,
    /// Category fractions of the reference log.
    pub category_fractions: Vec<(Category, f64)>,
    /// Mean repair duration, hours.
    pub mttr_hours: f64,
    /// Full repair-duration sample, sorted ascending (KS reference).
    pub ttr_sample: Vec<f64>,
    /// Per-slot involvement shares, indexed by slot number.
    pub slot_shares: Vec<f64>,
    /// System MTBF of the reference, hours.
    pub mtbf_hours: f64,
}

impl Baseline {
    /// Builds a baseline by simulating `model` once with `seed` and
    /// summarizing the calibrated log.
    ///
    /// # Errors
    ///
    /// Propagates simulator validation failure (cannot happen for the
    /// stock calibrated models).
    pub fn from_model(model: SystemModel, seed: u64) -> failtypes::Result<Self> {
        let log = Simulator::new(model, seed).generate()?;
        Ok(Baseline::from_log(&log))
    }

    /// Summarizes an existing reference log into a baseline.
    pub fn from_log(log: &FailureLog) -> Self {
        let view = StreamView::new(log);
        let n = view.len().max(1);
        let category_fractions = view
            .category_counts()
            .into_iter()
            .map(|(c, count)| (c, count as f64 / n as f64))
            .collect();
        let ttr_sample = view.ttrs_sorted().to_vec();
        let mttr_hours = failstats::mean(&ttr_sample).unwrap_or(0.0);
        let involvements: usize = view.slot_counts().iter().sum();
        let slot_shares = view
            .slot_counts()
            .iter()
            .map(|&k| {
                if involvements == 0 {
                    0.0
                } else {
                    k as f64 / involvements as f64
                }
            })
            .collect();
        Baseline {
            name: log.spec().name().to_string(),
            category_fractions,
            mttr_hours,
            ttr_sample,
            slot_shares,
            mtbf_hours: log.window().duration().get() / n as f64,
        }
    }

    /// Baseline fraction for one category (zero when absent).
    pub fn fraction(&self, category: Category) -> f64 {
        self.category_fractions
            .iter()
            .find(|&&(c, _)| c == category)
            .map_or(0.0, |&(_, f)| f)
    }
}

/// Minimum records in the trailing window before any check runs.
const MIN_WINDOW: usize = 20;

/// Total-variation distance on category fractions, **beyond the
/// sampling-noise allowance**, that triggers a mix-shift alert. The
/// allowance `sqrt((k ln 2 + ln 100) / 2n)` (BHC bound at the 1% level,
/// `k` categories, `n` window records) is added to this margin, so the
/// check stays quiet on clean windows of any size.
const MIX_THRESHOLD: f64 = 0.15;

/// Windowed-MTTR / baseline-MTTR ratio that triggers a regression
/// alert. Windowed means over heavy-tailed repair times fluctuate up to
/// ~1.7x on streams drawn from the baseline itself, so the ratio keeps
/// a margin above that.
const MTTR_RATIO: f64 = 2.0;

/// Significance level for the corroborating KS test; rejection
/// (`p < KS_ALPHA`) escalates the MTTR alert to critical.
const KS_ALPHA: f64 = 0.05;

/// Absolute change in a slot's involvement share that triggers a skew
/// alert.
const SLOT_SHARE_THRESHOLD: f64 = 0.15;

/// Minimum windowed involvements before the slot check runs.
const MIN_INVOLVEMENTS: usize = 10;

/// Multi-GPU failures within [`BURST_WINDOW_HOURS`] that trigger a
/// burst alert.
const BURST_COUNT: usize = 3;

/// Span of the burst excitation window, hours.
const BURST_WINDOW_HOURS: f64 = 24.0;

/// Edge-triggered drift detector (see the module docs).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline: Baseline,
    /// Currently-true conditions with the highest severity already
    /// alerted; an escalation past the stored severity re-fires.
    active: BTreeMap<AlertKind, AlertSeverity>,
}

impl DriftDetector {
    /// A detector comparing against `baseline`.
    pub fn new(baseline: Baseline) -> Self {
        DriftDetector {
            baseline,
            active: BTreeMap::new(),
        }
    }

    /// The baseline in use.
    pub const fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// Evaluates every check against the current state, returning newly
    /// fired alerts (empty while conditions are unchanged or the window
    /// is not yet warm).
    pub fn evaluate(&mut self, state: &WatchState) -> Vec<Alert> {
        let mut alerts = Vec::new();
        if state.window_len() < MIN_WINDOW {
            return alerts;
        }
        let time_h = state.stream_time().unwrap_or(0.0);
        let window_n = state.window_len();

        // 1. Category-mix shift (total-variation distance beyond the
        // multinomial sampling-noise allowance).
        let live = state.window_category_fractions();
        let mut tv = 0.0;
        let mut k = live.len();
        for (&c, &f) in &live {
            tv += (f - self.baseline.fraction(c)).abs();
        }
        for &(c, f) in &self.baseline.category_fractions {
            if !live.contains_key(&c) {
                tv += f;
                k += 1;
            }
        }
        let tv = tv / 2.0;
        // P(TV >= eps) <= 2^k exp(-2 n eps^2) (Bretagnolle–Huber–Carol);
        // solving for the 1% level gives the allowance below.
        let noise =
            ((k as f64 * std::f64::consts::LN_2 + 100f64.ln()) / (2.0 * window_n as f64)).sqrt();
        let mix_threshold = MIX_THRESHOLD + noise;
        Self::edge(
            &mut self.active,
            &mut alerts,
            AlertKind::CategoryMixShift,
            tv > mix_threshold,
            || Alert {
                kind: AlertKind::CategoryMixShift,
                severity: AlertSeverity::Warning,
                time_h,
                window_n,
                metric: tv,
                threshold: mix_threshold,
                p_value: None,
                message: format!(
                    "window category mix diverged from baseline: total-variation distance {tv:.3}"
                ),
            },
        );

        // 2. MTTR regression (ratio + KS corroboration). The KS test
        // only sets the severity of an alert, so it runs only when the
        // ratio condition holds.
        if let Some(window_mttr) = state.window_ttr_mean() {
            if self.baseline.mttr_hours > 0.0 {
                let ratio = window_mttr / self.baseline.mttr_hours;
                let baseline = &self.baseline;
                Self::edge(
                    &mut self.active,
                    &mut alerts,
                    AlertKind::MttrRegression,
                    ratio > MTTR_RATIO,
                    || {
                        let ks =
                            ks_test_two_sample(&state.window_ttr_sample(), &baseline.ttr_sample);
                        let (p_value, rejects) =
                            ks.map_or((None, false), |t| (Some(t.p_value), t.rejects_at(KS_ALPHA)));
                        Alert {
                            kind: AlertKind::MttrRegression,
                            severity: if rejects {
                                AlertSeverity::Critical
                            } else {
                                AlertSeverity::Warning
                            },
                            time_h,
                            window_n,
                            metric: ratio,
                            threshold: MTTR_RATIO,
                            p_value,
                            message: format!(
                                "windowed MTTR {window_mttr:.2} h is {ratio:.2}x the baseline {:.2} h",
                                baseline.mttr_hours
                            ),
                        }
                    },
                );
            }
        }

        // 3. Slot-skew anomaly.
        let (shares, involvements) = state.window_slot_shares();
        if involvements >= MIN_INVOLVEMENTS {
            let (worst_slot, delta) = shares
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let base = self.baseline.slot_shares.get(i).copied().unwrap_or(0.0);
                    (i, (s - base).abs())
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("shares are finite"))
                .unwrap_or((0, 0.0));
            Self::edge(
                &mut self.active,
                &mut alerts,
                AlertKind::SlotSkewAnomaly,
                delta > SLOT_SHARE_THRESHOLD,
                || Alert {
                    kind: AlertKind::SlotSkewAnomaly,
                    severity: AlertSeverity::Warning,
                    time_h,
                    window_n,
                    metric: delta,
                    threshold: SLOT_SHARE_THRESHOLD,
                    p_value: None,
                    message: format!(
                        "GPU slot {worst_slot} involvement share moved {delta:.3} from baseline"
                    ),
                },
            );
        }

        // 4. Multi-GPU burst.
        let burst = state.multi_gpu_since(time_h - BURST_WINDOW_HOURS);
        Self::edge(
            &mut self.active,
            &mut alerts,
            AlertKind::MultiGpuBurst,
            burst >= BURST_COUNT,
            || Alert {
                kind: AlertKind::MultiGpuBurst,
                severity: AlertSeverity::Warning,
                time_h,
                window_n,
                metric: burst as f64,
                threshold: BURST_COUNT as f64,
                p_value: None,
                message: format!(
                    "{burst} multi-GPU failures within {:.0} h",
                    BURST_WINDOW_HOURS
                ),
            },
        );

        alerts
    }

    /// Edge-triggering: fire when the condition transitions false→true,
    /// or when it stays true but the severity escalates past what was
    /// already alerted; re-arm on true→false. `make` builds the `kind`
    /// alert (message, severity and any corroborating test) and runs
    /// only while the condition holds.
    fn edge(
        active: &mut BTreeMap<AlertKind, AlertSeverity>,
        alerts: &mut Vec<Alert>,
        kind: AlertKind,
        condition: bool,
        make: impl FnOnce() -> Alert,
    ) {
        if !condition {
            active.remove(&kind);
            return;
        }
        let alert = make();
        debug_assert_eq!(alert.kind, kind);
        let fires = active.get(&kind).is_none_or(|&seen| alert.severity > seen);
        if fires {
            active.insert(kind, alert.severity);
            alerts.push(alert);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StateConfig, WatchState};
    use failsim::{Simulator, SystemModel};
    use failtypes::{FailureRecord, GpuSlot, Hours};
    use std::collections::BTreeSet;

    fn baseline() -> Baseline {
        Baseline::from_model(SystemModel::tsubame3(), 1).unwrap()
    }

    #[test]
    fn baseline_fractions_sum_to_one() {
        let b = baseline();
        let sum: f64 = b.category_fractions.iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(b.mttr_hours > 0.0);
        assert!(b.mtbf_hours > 70.0);
        assert_eq!(b.slot_shares.len(), 4);
        assert!(b.ttr_sample.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clean_replays_stay_quiet_on_mttr_and_mix() {
        // Streams drawn from the baseline model itself (several seeds)
        // may never trip the MTTR or mix checks: windowed fluctuation
        // stays inside the sampling-noise allowance.
        for seed in [1, 2, 3, 7] {
            let log = Simulator::new(SystemModel::tsubame3(), seed)
                .generate()
                .unwrap();
            let mut state = WatchState::for_log(&log, StateConfig::default());
            let mut det = DriftDetector::new(baseline());
            let mut fired = Vec::new();
            for rec in log.iter() {
                state.ingest(rec.clone()).unwrap();
                fired.extend(det.evaluate(&state));
            }
            assert!(
                !fired.iter().any(|a| a.kind == AlertKind::MttrRegression),
                "seed {seed}: clean replay fired MTTR regression: {fired:?}"
            );
            assert!(
                !fired.iter().any(|a| a.kind == AlertKind::CategoryMixShift),
                "seed {seed}: clean replay fired mix shift: {fired:?}"
            );
        }
    }

    #[test]
    fn injected_mttr_regression_fires_and_escalates_to_critical() {
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let mut det = DriftDetector::new(baseline());
        let half = log.len() / 2;
        let mut fired = Vec::new();
        for (i, rec) in log.iter().enumerate() {
            let mut rec = rec.clone();
            if i >= half {
                // Repairs suddenly take 5x longer.
                rec = FailureRecord::new(
                    rec.id(),
                    rec.time(),
                    Hours::new(rec.ttr().get() * 5.0),
                    rec.category(),
                    rec.node(),
                );
            }
            state.ingest(rec).unwrap();
            fired.extend(det.evaluate(&state));
        }
        let mttr_alerts: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::MttrRegression)
            .collect();
        assert!(!mttr_alerts.is_empty(), "no MTTR regression fired");
        // Edge-triggered with severity escalation: at most the initial
        // warning plus one escalation per episode, not one per record.
        assert!(mttr_alerts.len() <= 4, "spammed: {}", mttr_alerts.len());
        for a in &mttr_alerts {
            assert!(a.metric > 2.0, "ratio at firing: {}", a.metric);
        }
        // Once the window is fully degraded the KS test corroborates.
        let last = mttr_alerts.last().unwrap();
        assert_eq!(last.severity, AlertSeverity::Critical);
        assert!(last.p_value.is_some());
    }

    #[test]
    fn injected_category_shift_fires_mix_alert() {
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let base = baseline();
        // Force the tail of the stream into the rarest baseline
        // category: the window TV distance approaches 1 - fraction,
        // clearing the noise allowance.
        let rare = base
            .category_fractions
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|&(c, _)| c)
            .unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let mut det = DriftDetector::new(base);
        let half = log.len() / 2;
        let mut fired = Vec::new();
        for (i, rec) in log.iter().enumerate() {
            let mut rec = rec.clone();
            if i >= half {
                rec = FailureRecord::new(rec.id(), rec.time(), rec.ttr(), rare, rec.node());
            }
            state.ingest(rec).unwrap();
            fired.extend(det.evaluate(&state));
        }
        assert!(
            fired.iter().any(|a| a.kind == AlertKind::CategoryMixShift),
            "monoculture tail did not fire mix shift: {fired:?}"
        );
    }

    #[test]
    fn burst_detector_counts_the_excitation_window() {
        // Warm the window past MIN_WINDOW with single-node failures,
        // then deliver three multi-GPU failures inside 24 h: the third
        // completes a burst.
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let mut det = DriftDetector::new(baseline());
        let gpu = log.iter().find(|r| r.category().is_gpu()).unwrap();
        let (category, node) = (gpu.category(), gpu.node());
        let mut fire = |rec: FailureRecord| {
            state.ingest(rec).unwrap();
            det.evaluate(&state)
                .into_iter()
                .map(|a| a.kind)
                .collect::<BTreeSet<_>>()
        };
        for i in 0..MIN_WINDOW as u32 {
            let time = Hours::new(f64::from(i) * 100.0);
            let rec = FailureRecord::new(i, time, Hours::new(1.0), category, node);
            assert!(!fire(rec).contains(&AlertKind::MultiGpuBurst));
        }
        let start = 100.0 * MIN_WINDOW as f64;
        let multi = |id: u32, time: f64| {
            FailureRecord::new(id, Hours::new(time), Hours::new(1.0), category, node)
                .with_gpus([GpuSlot::new(0), GpuSlot::new(1)])
        };
        assert!(!fire(multi(100, start)).contains(&AlertKind::MultiGpuBurst));
        assert!(!fire(multi(101, start + 10.0)).contains(&AlertKind::MultiGpuBurst));
        assert!(fire(multi(102, start + 20.0)).contains(&AlertKind::MultiGpuBurst));
    }

    #[test]
    fn warm_up_produces_no_alerts() {
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let mut det = DriftDetector::new(baseline());
        for rec in log.iter().take(19) {
            state.ingest(rec.clone()).unwrap();
            assert!(det.evaluate(&state).is_empty(), "fired during warm-up");
        }
    }
}
