//! The monitor's online state: everything `failwatch` knows after
//! ingesting a prefix of the stream.
//!
//! [`WatchState`] combines three layers, updated record by record:
//!
//! 1. a [`failscope::StreamView`] — the full incremental index
//!    (category partitions, node/slot/rack counts, month buckets) whose
//!    contents equal the bulk-built view of the same log after full
//!    ingestion;
//! 2. since-start sketches — [`QuantileSketch`]es over inter-arrival
//!    gaps and repair durations whose exact mode reproduces the batch
//!    `Ecdf` numbers bit for bit (MTBF itself is the closed-form
//!    `window / n`, exact by construction);
//! 3. recent-behaviour estimators — trailing-window samples of TTRs,
//!    categories, and GPU-slot involvements plus per-category EWMAs,
//!    which is what the drift detector compares against a baseline.

use std::collections::{BTreeMap, VecDeque};

use failscope::StreamView;
use failtypes::{Category, FailureRecord, Generation, ObservationWindow, SystemSpec};

use crate::estimators::{Ewma, RateWindow, WindowMean};
use crate::sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY};

/// Tuning knobs for [`WatchState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateConfig {
    /// Trailing-window size in records for drift samples.
    pub window: usize,
    /// Sketch exactness capacity (observations buffered before
    /// compaction).
    pub sketch_capacity: usize,
    /// EWMA smoothing factor for per-category TTR/gap estimators.
    pub ewma_alpha: f64,
    /// Span of the failure-rate window, in stream hours.
    pub rate_window_hours: f64,
}

impl Default for StateConfig {
    fn default() -> Self {
        StateConfig {
            window: 50,
            sketch_capacity: DEFAULT_SKETCH_CAPACITY,
            ewma_alpha: 0.2,
            rate_window_hours: 30.0 * 24.0,
        }
    }
}

impl StateConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> StateConfigBuilder {
        StateConfigBuilder::default()
    }
}

/// Validating builder for [`StateConfig`].
///
/// Every setter takes the candidate value as-is; [`build`] rejects
/// configurations the estimators cannot honour (zero windows,
/// out-of-range smoothing factors) with a
/// [`failtypes::Error::Config`] naming the offending knob.
///
/// # Examples
///
/// ```
/// use failwatch::StateConfig;
///
/// let config = StateConfig::builder().window(25).ewma_alpha(0.5).build()?;
/// assert_eq!(config.window, 25);
/// assert!(StateConfig::builder().ewma_alpha(0.0).build().is_err());
/// # Ok::<(), failtypes::Error>(())
/// ```
///
/// [`build`]: StateConfigBuilder::build
#[derive(Debug, Clone, Default)]
pub struct StateConfigBuilder {
    config: StateConfig,
}

impl StateConfigBuilder {
    /// Trailing-window size in records for drift samples.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self
    }

    /// Sketch exactness capacity before compaction begins.
    #[must_use]
    pub fn sketch_capacity(mut self, capacity: usize) -> Self {
        self.config.sketch_capacity = capacity;
        self
    }

    /// EWMA smoothing factor in `(0, 1]`.
    #[must_use]
    pub fn ewma_alpha(mut self, alpha: f64) -> Self {
        self.config.ewma_alpha = alpha;
        self
    }

    /// Span of the failure-rate window, in stream hours.
    #[must_use]
    pub fn rate_window_hours(mut self, hours: f64) -> Self {
        self.config.rate_window_hours = hours;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`failtypes::Error::Config`] (target `watch state`) when the
    /// trailing window or sketch capacity is zero, the EWMA factor is
    /// outside `(0, 1]`, or the rate window is not a positive finite
    /// number of hours.
    pub fn build(self) -> failtypes::Result<StateConfig> {
        let c = &self.config;
        if c.window == 0 {
            return Err(failtypes::Error::config(
                "watch state",
                "trailing window must hold at least 1 record",
            ));
        }
        if c.sketch_capacity == 0 {
            return Err(failtypes::Error::config(
                "watch state",
                "sketch capacity must be at least 1",
            ));
        }
        if !(c.ewma_alpha > 0.0 && c.ewma_alpha <= 1.0) {
            return Err(failtypes::Error::config(
                "watch state",
                format!("EWMA alpha must be in (0, 1], got {}", c.ewma_alpha),
            ));
        }
        if !(c.rate_window_hours.is_finite() && c.rate_window_hours > 0.0) {
            return Err(failtypes::Error::config(
                "watch state",
                format!(
                    "rate window must be a positive finite number of hours, got {}",
                    c.rate_window_hours
                ),
            ));
        }
        Ok(self.config)
    }
}

/// Online analytics state over a failure stream (see the module docs).
///
/// # Examples
///
/// ```
/// use failsim::{Simulator, SystemModel};
/// use failwatch::WatchState;
///
/// let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
/// let mut state = WatchState::for_log(&log, Default::default());
/// state.ingest_batch(log.records().to_vec()).unwrap();
/// // MTBF identical to the batch formula: window hours / n.
/// let mtbf = state.mtbf_hours().unwrap();
/// assert_eq!(mtbf, log.window().duration().get() / log.len() as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WatchState {
    view: StreamView,
    config: StateConfig,
    gap_sketch: QuantileSketch,
    ttr_sketch: QuantileSketch,
    last_time: Option<f64>,
    window_ttrs: WindowMean,
    window_categories: VecDeque<Category>,
    window_slots: VecDeque<u8>,
    rate: RateWindow,
    ewma_ttr: BTreeMap<Category, Ewma>,
    ewma_gap: BTreeMap<Category, Ewma>,
    cat_last_time: BTreeMap<Category, f64>,
}

impl WatchState {
    /// Empty state for a system described by `spec` over `window`.
    pub fn new(
        generation: Generation,
        spec: SystemSpec,
        window: ObservationWindow,
        config: StateConfig,
    ) -> Self {
        WatchState {
            view: StreamView::empty(generation, spec, window),
            gap_sketch: QuantileSketch::new(config.sketch_capacity),
            ttr_sketch: QuantileSketch::new(config.sketch_capacity),
            last_time: None,
            window_ttrs: WindowMean::new(config.window),
            window_categories: VecDeque::new(),
            window_slots: VecDeque::new(),
            rate: RateWindow::new(config.rate_window_hours),
            ewma_ttr: BTreeMap::new(),
            ewma_gap: BTreeMap::new(),
            cat_last_time: BTreeMap::new(),
            config,
        }
    }

    /// Empty state shaped like `log` (same generation, spec, window).
    pub fn for_log(log: &failtypes::FailureLog, config: StateConfig) -> Self {
        WatchState::new(log.generation(), log.spec().clone(), log.window(), config)
    }

    /// Ingests one record, updating every layer. The record is
    /// validated (and time order enforced) by the underlying
    /// [`StreamView`]; state is unchanged on error.
    ///
    /// Allocation-free: the record moves into the view and every other
    /// layer updates in place (GPU slots are read back from the view's
    /// copy rather than collected into a temporary).
    ///
    /// # Errors
    ///
    /// See [`failscope::StreamView::push`]; the underlying
    /// [`failscope::StreamViewError`] is carried as the source of a
    /// [`failtypes::Error`].
    pub fn ingest(&mut self, rec: FailureRecord) -> failtypes::Result<()> {
        let time = rec.time().get();
        let ttr = rec.ttr().get();
        let category = rec.category();
        self.view.push(rec)?;

        // Since-start sketches: gaps mirror inter_arrival_times (first
        // record produces no gap).
        if let Some(prev) = self.last_time {
            self.gap_sketch.push(time - prev);
        }
        self.last_time = Some(time);
        self.ttr_sketch.push(ttr);

        // Trailing-window samples.
        self.window_ttrs.push(ttr);
        if self.window_categories.len() == self.config.window {
            self.window_categories.pop_front();
        }
        self.window_categories.push_back(category);
        // Borrow the slots back from the record the view just took —
        // disjoint fields, so no temporary Vec is needed.
        let gpus = self
            .view
            .records()
            .last()
            .expect("record was just pushed")
            .gpus();
        for slot in gpus {
            if self.window_slots.len() == self.config.window {
                self.window_slots.pop_front();
            }
            self.window_slots.push_back(slot.index());
        }
        self.rate.push(time);

        // Per-category EWMAs.
        self.ewma_ttr
            .entry(category)
            .or_insert_with(|| Ewma::new(self.config.ewma_alpha))
            .update(ttr);
        if let Some(&prev) = self.cat_last_time.get(&category) {
            self.ewma_gap
                .entry(category)
                .or_insert_with(|| Ewma::new(self.config.ewma_alpha))
                .update(time - prev);
        }
        self.cat_last_time.insert(category, time);
        Ok(())
    }

    /// Ingests a whole chunk of records in time order — the batched
    /// mirror of [`ingest`](WatchState::ingest), with identical
    /// resulting state (the batched-vs-per-record proptest in `tests/`
    /// asserts this bit for bit, sketches and EWMAs included). Returns
    /// the number of records accepted.
    ///
    /// # Errors
    ///
    /// As [`ingest`](WatchState::ingest); records before the offending
    /// one remain incorporated.
    pub fn ingest_batch<I>(&mut self, records: I) -> failtypes::Result<usize>
    where
        I: IntoIterator<Item = FailureRecord>,
    {
        let mut accepted = 0;
        for rec in records {
            self.ingest(rec)?;
            accepted += 1;
        }
        Ok(accepted)
    }

    /// Forces the view's deferred sorted-array merges now (see
    /// [`StreamView::materialize`]); the watch loop calls this before
    /// rendering summaries so parallel section renderers read zero-cost
    /// slices instead of racing to build the merge cache.
    pub fn materialize(&mut self) {
        self.view.materialize();
    }

    /// The underlying incremental index.
    pub const fn view(&self) -> &StreamView {
        &self.view
    }

    /// The tuning configuration.
    pub const fn config(&self) -> &StateConfig {
        &self.config
    }

    /// Records ingested so far.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// `true` before the first record.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Stream time of the newest record, hours.
    pub const fn stream_time(&self) -> Option<f64> {
        self.last_time
    }

    /// System MTBF over the full observation window — the batch
    /// `TbfAnalysis` closed form `window hours / n`, exact at any point
    /// in the stream.
    pub fn mtbf_hours(&self) -> Option<f64> {
        if self.view.is_empty() {
            return None;
        }
        Some(self.view.window().duration().get() / self.view.len() as f64)
    }

    /// Mean inter-arrival gap since stream start (bit-identical to the
    /// batch `Ecdf` mean while the sketch is exact).
    pub fn mean_gap_hours(&self) -> Option<f64> {
        self.gap_sketch.mean()
    }

    /// Mean repair duration since stream start (bit-identical to the
    /// batch `Ecdf` mean while the sketch is exact).
    pub fn mttr_hours(&self) -> Option<f64> {
        self.ttr_sketch.mean()
    }

    /// `p`-quantile of inter-arrival gaps since stream start.
    pub fn gap_quantile(&self, p: f64) -> Option<f64> {
        self.gap_sketch.quantile(p)
    }

    /// `p`-quantile of repair durations since stream start.
    pub fn ttr_quantile(&self, p: f64) -> Option<f64> {
        self.ttr_sketch.quantile(p)
    }

    /// Whether both sketches are still in their exact mode.
    pub fn sketches_exact(&self) -> bool {
        self.gap_sketch.is_exact() && self.ttr_sketch.is_exact()
    }

    /// Total level compactions across the gap and TTR sketches (zero
    /// while [`sketches_exact`](WatchState::sketches_exact) holds).
    pub const fn sketch_compactions(&self) -> u64 {
        self.gap_sketch.compactions() + self.ttr_sketch.compactions()
    }

    /// Mean TTR over the trailing window of records.
    pub fn window_ttr_mean(&self) -> Option<f64> {
        self.window_ttrs.mean()
    }

    /// The trailing-window TTR sample, in arrival order.
    pub fn window_ttr_sample(&self) -> Vec<f64> {
        self.window_ttrs.sample()
    }

    /// Records currently in the trailing window.
    pub fn window_len(&self) -> usize {
        self.window_categories.len()
    }

    /// Category fractions over the trailing window.
    pub fn window_category_fractions(&self) -> BTreeMap<Category, f64> {
        let n = self.window_categories.len();
        let mut counts: BTreeMap<Category, usize> = BTreeMap::new();
        for &c in &self.window_categories {
            *counts.entry(c).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(c, k)| (c, k as f64 / n as f64))
            .collect()
    }

    /// Per-slot involvement shares over the trailing window, indexed by
    /// slot number; the total-involvement count is the second element.
    pub fn window_slot_shares(&self) -> (Vec<f64>, usize) {
        let slots = self.view.spec().gpus_per_node() as usize;
        let mut counts = vec![0usize; slots];
        for &s in &self.window_slots {
            if (s as usize) < slots {
                counts[s as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let shares = counts
            .iter()
            .map(|&k| if total == 0 { 0.0 } else { k as f64 / total as f64 })
            .collect();
        (shares, total)
    }

    /// Failure rate (events per hour) over the trailing time window.
    pub fn rate_per_hour(&self) -> Option<f64> {
        self.rate.rate_per_hour()
    }

    /// Smoothed per-category repair duration.
    pub fn ewma_ttr(&self, category: Category) -> Option<f64> {
        self.ewma_ttr.get(&category).and_then(Ewma::value)
    }

    /// Smoothed per-category inter-arrival gap.
    pub fn ewma_gap(&self, category: Category) -> Option<f64> {
        self.ewma_gap.get(&category).and_then(Ewma::value)
    }

    /// Multi-GPU failures whose arrival time is at or after `cutoff`
    /// hours (the burst detector's tail count; the underlying array is
    /// time-ordered).
    pub fn multi_gpu_since(&self, cutoff: f64) -> usize {
        let times = self.view.multi_gpu_times();
        times.len() - times.partition_point(|&t| t < cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failscope::{TbfAnalysis, TtrAnalysis};
    use failtypes::FailureLog;

    fn fed(seed: u64) -> (FailureLog, WatchState) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        let mut state = WatchState::for_log(&log, StateConfig::default());
        let accepted = state.ingest_batch(log.records().to_vec()).unwrap();
        assert_eq!(accepted, log.len());
        (log, state)
    }

    #[test]
    fn since_start_estimates_match_batch_bitwise() {
        let (log, state) = fed(43);
        assert!(state.sketches_exact());
        let view = StreamView::new(&log);
        let tbf = TbfAnalysis::from_index(&view).unwrap();
        let ttr = TtrAnalysis::from_index(&view).unwrap();
        assert_eq!(
            state.mtbf_hours().unwrap().to_bits(),
            tbf.mtbf_hours().to_bits()
        );
        assert_eq!(
            state.mean_gap_hours().unwrap().to_bits(),
            tbf.mean_gap_hours().to_bits()
        );
        assert_eq!(
            state.mttr_hours().unwrap().to_bits(),
            ttr.mttr_hours().to_bits()
        );
    }

    #[test]
    fn window_fractions_sum_to_one() {
        let (_, state) = fed(43);
        let fractions = state.window_category_fractions();
        let sum: f64 = fractions.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(state.window_len(), state.config().window);
    }

    #[test]
    fn slot_shares_are_normalized() {
        let (_, state) = fed(43);
        let (shares, total) = state.window_slot_shares();
        assert_eq!(shares.len(), 4);
        if total > 0 {
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ewmas_exist_for_observed_categories() {
        let (log, state) = fed(43);
        let c = log.records()[0].category();
        assert!(state.ewma_ttr(c).is_some());
        assert!(state.rate_per_hour().is_some());
    }

    #[test]
    fn multi_gpu_since_counts_the_tail() {
        let (_, state) = fed(43);
        let times = state.view().multi_gpu_times().to_vec();
        assert_eq!(state.multi_gpu_since(f64::NEG_INFINITY), times.len());
        assert_eq!(state.multi_gpu_since(f64::INFINITY), 0);
        if let Some(&last) = times.last() {
            assert!(state.multi_gpu_since(last) >= 1);
        }
    }

    #[test]
    fn empty_state_returns_none() {
        let log = Simulator::new(SystemModel::tsubame3(), 1).generate().unwrap();
        let state = WatchState::for_log(&log, StateConfig::default());
        assert!(state.is_empty());
        assert_eq!(state.mtbf_hours(), None);
        assert_eq!(state.mttr_hours(), None);
        assert_eq!(state.window_ttr_mean(), None);
    }
}
