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
//!   MTTR by a configurable ratio, corroborated by a two-sample KS test
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
            .category_indices()
            .iter()
            .map(|(&c, idx)| (c, idx.len() as f64 / n as f64))
            .collect();
        let ttr_sample = view.ttrs_sorted().to_vec();
        let mttr_hours = if ttr_sample.is_empty() {
            0.0
        } else {
            ttr_sample.iter().sum::<f64>() / ttr_sample.len() as f64
        };
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

/// Thresholds for the drift checks.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Minimum records in the trailing window before any check runs.
    pub min_window: usize,
    /// Total-variation distance on category fractions, **beyond the
    /// sampling-noise allowance**, that triggers a mix-shift alert. The
    /// allowance `sqrt((k ln 2 + ln 100) / 2n)` (BHC bound at the 1%
    /// level, `k` categories, `n` window records) is added to this
    /// margin, so the default stays quiet on clean windows of any size.
    pub mix_threshold: f64,
    /// Windowed-MTTR / baseline-MTTR ratio that triggers a regression
    /// alert. Windowed means over heavy-tailed repair times fluctuate
    /// up to ~1.7x on streams drawn from the baseline itself, so the
    /// default keeps a margin above that.
    pub mttr_ratio: f64,
    /// Significance level for the corroborating KS test; rejection
    /// (`p < ks_alpha`) escalates the MTTR alert to critical.
    pub ks_alpha: f64,
    /// Absolute change in a slot's involvement share that triggers a
    /// skew alert.
    pub slot_share_threshold: f64,
    /// Minimum windowed involvements before the slot check runs.
    pub min_involvements: usize,
    /// Multi-GPU failures within [`burst_window_hours`] that trigger a
    /// burst alert.
    ///
    /// [`burst_window_hours`]: DriftConfig::burst_window_hours
    pub burst_count: usize,
    /// Span of the burst excitation window, hours.
    pub burst_window_hours: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            min_window: 20,
            mix_threshold: 0.15,
            mttr_ratio: 2.0,
            ks_alpha: 0.05,
            slot_share_threshold: 0.15,
            min_involvements: 10,
            burst_count: 3,
            burst_window_hours: 24.0,
        }
    }
}

impl DriftConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> DriftConfigBuilder {
        DriftConfigBuilder::default()
    }
}

/// Validating builder for [`DriftConfig`].
///
/// [`build`](DriftConfigBuilder::build) rejects thresholds the checks
/// cannot interpret (zero windows, inverted ratios, degenerate
/// significance levels) with a [`failtypes::Error::Config`] naming the
/// offending knob.
///
/// # Examples
///
/// ```
/// use failwatch::DriftConfig;
///
/// let config = DriftConfig::builder().mttr_ratio(3.0).build()?;
/// assert_eq!(config.mttr_ratio, 3.0);
/// assert!(DriftConfig::builder().mttr_ratio(0.5).build().is_err());
/// # Ok::<(), failtypes::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriftConfigBuilder {
    config: DriftConfig,
}

impl DriftConfigBuilder {
    /// Minimum records in the trailing window before any check runs.
    #[must_use]
    pub fn min_window(mut self, records: usize) -> Self {
        self.config.min_window = records;
        self
    }

    /// Total-variation margin beyond the sampling-noise allowance.
    #[must_use]
    pub fn mix_threshold(mut self, threshold: f64) -> Self {
        self.config.mix_threshold = threshold;
        self
    }

    /// Windowed-MTTR / baseline-MTTR ratio that triggers a regression.
    #[must_use]
    pub fn mttr_ratio(mut self, ratio: f64) -> Self {
        self.config.mttr_ratio = ratio;
        self
    }

    /// Significance level for the corroborating KS test.
    #[must_use]
    pub fn ks_alpha(mut self, alpha: f64) -> Self {
        self.config.ks_alpha = alpha;
        self
    }

    /// Absolute slot-share change that triggers a skew alert.
    #[must_use]
    pub fn slot_share_threshold(mut self, threshold: f64) -> Self {
        self.config.slot_share_threshold = threshold;
        self
    }

    /// Minimum windowed involvements before the slot check runs.
    #[must_use]
    pub fn min_involvements(mut self, involvements: usize) -> Self {
        self.config.min_involvements = involvements;
        self
    }

    /// Multi-GPU failures inside the burst window that trigger an alert.
    #[must_use]
    pub fn burst_count(mut self, count: usize) -> Self {
        self.config.burst_count = count;
        self
    }

    /// Span of the burst excitation window, hours.
    #[must_use]
    pub fn burst_window_hours(mut self, hours: f64) -> Self {
        self.config.burst_window_hours = hours;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`failtypes::Error::Config`] (target `drift detector`) when a
    /// window or count is zero, the MTTR ratio is below 1, the KS
    /// significance level is outside `(0, 1)`, or a threshold is
    /// negative or non-finite.
    pub fn build(self) -> failtypes::Result<DriftConfig> {
        let c = &self.config;
        let err = |reason: String| Err(failtypes::Error::config("drift detector", reason));
        if c.min_window == 0 {
            return err("minimum window must hold at least 1 record".into());
        }
        if !(c.mix_threshold.is_finite() && c.mix_threshold >= 0.0) {
            return err(format!(
                "mix threshold must be a finite non-negative distance, got {}",
                c.mix_threshold
            ));
        }
        if !(c.mttr_ratio.is_finite() && c.mttr_ratio >= 1.0) {
            return err(format!(
                "MTTR ratio must be finite and at least 1, got {}",
                c.mttr_ratio
            ));
        }
        if !(c.ks_alpha > 0.0 && c.ks_alpha < 1.0) {
            return err(format!(
                "KS significance level must be in (0, 1), got {}",
                c.ks_alpha
            ));
        }
        if !(c.slot_share_threshold.is_finite() && c.slot_share_threshold > 0.0) {
            return err(format!(
                "slot-share threshold must be a positive finite share, got {}",
                c.slot_share_threshold
            ));
        }
        if c.min_involvements == 0 {
            return err("minimum involvements must be at least 1".into());
        }
        if c.burst_count == 0 {
            return err("burst count must be at least 1".into());
        }
        if !(c.burst_window_hours.is_finite() && c.burst_window_hours > 0.0) {
            return err(format!(
                "burst window must be a positive finite number of hours, got {}",
                c.burst_window_hours
            ));
        }
        Ok(self.config)
    }
}

/// Edge-triggered drift detector (see the module docs).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline: Baseline,
    config: DriftConfig,
    /// Currently-true conditions with the highest severity already
    /// alerted; an escalation past the stored severity re-fires.
    active: BTreeMap<AlertKind, AlertSeverity>,
}

impl DriftDetector {
    /// A detector comparing against `baseline` with `config` thresholds.
    pub fn new(baseline: Baseline, config: DriftConfig) -> Self {
        DriftDetector {
            baseline,
            config,
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
        if state.window_len() < self.config.min_window {
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
        let mix_threshold = self.config.mix_threshold + noise;
        Self::edge(&mut self.active, &mut alerts, tv > mix_threshold, || {
            Alert {
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
            }
        });

        // 2. MTTR regression (ratio + KS corroboration).
        if let Some(window_mttr) = state.window_ttr_mean() {
            if self.baseline.mttr_hours > 0.0 {
                let ratio = window_mttr / self.baseline.mttr_hours;
                let ks = ks_test_two_sample(&state.window_ttr_sample(), &self.baseline.ttr_sample);
                let (p_value, rejects) = ks.map_or((None, false), |t| {
                    (Some(t.p_value), t.rejects_at(self.config.ks_alpha))
                });
                let severity = if rejects {
                    AlertSeverity::Critical
                } else {
                    AlertSeverity::Warning
                };
                Self::edge(
                    &mut self.active,
                    &mut alerts,
                    ratio > self.config.mttr_ratio,
                    || Alert {
                        kind: AlertKind::MttrRegression,
                        severity,
                        time_h,
                        window_n,
                        metric: ratio,
                        threshold: self.config.mttr_ratio,
                        p_value,
                        message: format!(
                            "windowed MTTR {window_mttr:.2} h is {ratio:.2}x the baseline {:.2} h",
                            self.baseline.mttr_hours
                        ),
                    },
                );
            }
        }

        // 3. Slot-skew anomaly.
        let (shares, involvements) = state.window_slot_shares();
        if involvements >= self.config.min_involvements {
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
                delta > self.config.slot_share_threshold,
                || Alert {
                    kind: AlertKind::SlotSkewAnomaly,
                    severity: AlertSeverity::Warning,
                    time_h,
                    window_n,
                    metric: delta,
                    threshold: self.config.slot_share_threshold,
                    p_value: None,
                    message: format!(
                        "GPU slot {worst_slot} involvement share moved {delta:.3} from baseline"
                    ),
                },
            );
        }

        // 4. Multi-GPU burst.
        let burst = state.multi_gpu_since(time_h - self.config.burst_window_hours);
        Self::edge(
            &mut self.active,
            &mut alerts,
            burst >= self.config.burst_count,
            || Alert {
                kind: AlertKind::MultiGpuBurst,
                severity: AlertSeverity::Warning,
                time_h,
                window_n,
                metric: burst as f64,
                threshold: self.config.burst_count as f64,
                p_value: None,
                message: format!(
                    "{burst} multi-GPU failures within {:.0} h",
                    self.config.burst_window_hours
                ),
            },
        );

        alerts
    }

    /// Edge-triggering: fire when the condition transitions false→true,
    /// or when it stays true but the severity escalates past what was
    /// already alerted; re-arm on true→false.
    fn edge(
        active: &mut BTreeMap<AlertKind, AlertSeverity>,
        alerts: &mut Vec<Alert>,
        condition: bool,
        make: impl FnOnce() -> Alert,
    ) {
        let alert = make();
        let kind = alert.kind;
        if condition {
            let fires = active.get(&kind).is_none_or(|&seen| alert.severity > seen);
            if fires {
                active.insert(kind, alert.severity);
                alerts.push(alert);
            }
        } else {
            active.remove(&kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StateConfig, WatchState};
    use failsim::{Simulator, SystemModel};
    use failtypes::{FailureRecord, Hours};
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
            let mut det = DriftDetector::new(baseline(), DriftConfig::default());
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
        let mut det = DriftDetector::new(baseline(), DriftConfig::default());
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
        let mut det = DriftDetector::new(base, DriftConfig::default());
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
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let config = DriftConfig {
            min_window: 1,
            burst_count: 1, // any multi-GPU failure alerts
            ..DriftConfig::default()
        };
        let mut det = DriftDetector::new(baseline(), config);
        let mut kinds = BTreeSet::new();
        for rec in log.iter() {
            state.ingest(rec.clone()).unwrap();
            for a in det.evaluate(&state) {
                kinds.insert(a.kind);
            }
        }
        // The calibrated T3 log contains multi-GPU failures (Table III),
        // so with burst_count=1 the burst alert must appear.
        assert!(kinds.contains(&AlertKind::MultiGpuBurst), "{kinds:?}");
    }

    #[test]
    fn warm_up_produces_no_alerts() {
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let mut det = DriftDetector::new(baseline(), DriftConfig::default());
        for rec in log.iter().take(19) {
            state.ingest(rec.clone()).unwrap();
            assert!(det.evaluate(&state).is_empty(), "fired during warm-up");
        }
    }
}
