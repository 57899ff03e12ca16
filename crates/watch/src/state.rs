//! The monitor's online state: everything `failwatch` knows after
//! ingesting a prefix of the stream.
//!
//! [`WatchState`] is a [`failscope::StreamView`] plus one [`Ewma`] per
//! category for repair times and for inter-arrival gaps. The EWMAs are
//! the only estimators kept beside the view (reading one back would
//! refold the category's whole history); every other figure is a read
//! of the view:
//!
//! * since-start figures — MTTR and TTR quantiles come from the view's
//!   sorted TTRs through the same sorted sum and type-7 interpolation
//!   as [`failstats::Ecdf`], and the mean gap from the closed form
//!   [`failstats::mean_gap`] over its time array, so they are
//!   bit-identical to `TtrAnalysis`/`TbfAnalysis` at every stream
//!   length;
//! * trailing-window figures — the TTRs, categories and GPU-slot
//!   involvements of the last [`StateConfig::window`] records, and the
//!   failure rate over the last 30 days of stream time, which is what
//!   the drift detector compares against a baseline.

use std::collections::BTreeMap;

use failscope::StreamView;
use failtypes::{Category, FailureRecord, Generation, ObservationWindow, SystemSpec};

use crate::estimators::{self, Ewma};

/// EWMA smoothing factor for the per-category TTR and gap estimators.
const EWMA_ALPHA: f64 = 0.2;

/// Span of the failure-rate window, in stream hours (30 days).
const RATE_WINDOW_HOURS: f64 = 30.0 * 24.0;

/// Tuning knobs for [`WatchState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateConfig {
    /// Trailing-window size in records for drift samples.
    pub window: usize,
}

impl Default for StateConfig {
    fn default() -> Self {
        StateConfig { window: 50 }
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
/// [`build`] rejects a zero trailing window with a
/// [`failtypes::Error::Config`].
///
/// # Examples
///
/// ```
/// use failwatch::StateConfig;
///
/// let config = StateConfig::builder().window(25).build()?;
/// assert_eq!(config.window, 25);
/// assert!(StateConfig::builder().window(0).build().is_err());
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

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`failtypes::Error::Config`] (target `watch state`) when the
    /// trailing window is zero.
    pub fn build(self) -> failtypes::Result<StateConfig> {
        if self.config.window == 0 {
            return Err(failtypes::Error::config(
                "watch state",
                "trailing window must hold at least 1 record",
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
    ewma_ttr: BTreeMap<Category, Ewma>,
    ewma_gap: BTreeMap<Category, Ewma>,
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
            config,
            ewma_ttr: BTreeMap::new(),
            ewma_gap: BTreeMap::new(),
        }
    }

    /// Empty state shaped like `log` (same generation, spec, window).
    pub fn for_log(log: &failtypes::FailureLog, config: StateConfig) -> Self {
        WatchState::new(log.generation(), log.spec().clone(), log.window(), config)
    }

    /// Ingests one record: the view takes it, and the record's category
    /// EWMAs fold in its repair time and its gap to the category's
    /// previous failure. The record is validated (and time order
    /// enforced) by the underlying [`StreamView`]; state is unchanged on
    /// error.
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
        let prev = self
            .view
            .category_indices()
            .get(&category)
            .and_then(|idx| idx.last())
            .map(|&i| self.view.times()[i as usize]);
        self.view.push(rec)?;

        self.ewma_ttr
            .entry(category)
            .or_insert_with(|| Ewma::new(EWMA_ALPHA))
            .update(ttr);
        if let Some(prev) = prev {
            self.ewma_gap
                .entry(category)
                .or_insert_with(|| Ewma::new(EWMA_ALPHA))
                .update(time - prev);
        }
        Ok(())
    }

    /// Ingests a whole chunk of records in time order — the batched
    /// mirror of [`ingest`](WatchState::ingest), with identical
    /// resulting state (the batched-vs-per-record proptest in `tests/`
    /// asserts this bit for bit). Returns the number of records
    /// accepted.
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
    pub fn stream_time(&self) -> Option<f64> {
        self.view.times().last().copied()
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

    /// Mean inter-arrival gap since stream start — the closed form
    /// [`failstats::mean_gap`] that `TbfAnalysis` also uses.
    pub fn mean_gap_hours(&self) -> Option<f64> {
        failstats::mean_gap(self.view.times())
    }

    /// Mean repair duration since stream start: the sorted left-to-right
    /// sum of the batch `Ecdf`, so bit-identical to `TtrAnalysis`.
    pub fn mttr_hours(&self) -> Option<f64> {
        failstats::mean(self.view.ttrs_sorted())
    }

    /// `p`-quantile of repair durations since stream start, bit-identical
    /// to `TtrAnalysis::quantile`.
    pub fn ttr_quantile(&self, p: f64) -> Option<f64> {
        failstats::quantile_sorted(self.view.ttrs_sorted(), p)
    }

    /// The trailing window: the last [`StateConfig::window`] records, in
    /// arrival order.
    fn window_records(&self) -> &[FailureRecord] {
        estimators::trailing(self.view.records(), self.config.window)
    }

    /// Mean TTR over the trailing window of records.
    pub fn window_ttr_mean(&self) -> Option<f64> {
        failstats::mean(&self.window_ttr_sample())
    }

    /// The trailing-window TTR sample, in arrival order.
    pub fn window_ttr_sample(&self) -> Vec<f64> {
        self.window_records().iter().map(|r| r.ttr().get()).collect()
    }

    /// Records currently in the trailing window.
    pub fn window_len(&self) -> usize {
        self.window_records().len()
    }

    /// Category fractions over the trailing window.
    pub fn window_category_fractions(&self) -> BTreeMap<Category, f64> {
        let window = self.window_records();
        let mut counts: BTreeMap<Category, usize> = BTreeMap::new();
        for r in window {
            *counts.entry(r.category()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(c, k)| (c, k as f64 / window.len() as f64))
            .collect()
    }

    /// Per-slot involvement shares over the last [`StateConfig::window`]
    /// GPU-slot involvements (walking back over the records), indexed by
    /// slot number; the total-involvement count is the second element.
    pub fn window_slot_shares(&self) -> (Vec<f64>, usize) {
        let mut counts = vec![0usize; self.view.spec().gpus_per_node() as usize];
        let involvements = self
            .view
            .records()
            .iter()
            .rev()
            .flat_map(|r| r.gpus().iter().rev())
            .take(self.config.window);
        for slot in involvements {
            if let Some(count) = counts.get_mut(slot.index() as usize) {
                *count += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let shares = counts
            .iter()
            .map(|&k| if total == 0 { 0.0 } else { k as f64 / total as f64 })
            .collect();
        (shares, total)
    }

    /// Failure rate (events per hour) over the trailing 30 days of
    /// stream time (`None` while that window holds a single instant).
    pub fn rate_per_hour(&self) -> Option<f64> {
        estimators::rate_per_hour(self.view.times(), RATE_WINDOW_HOURS)
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
    fn trailing_window_reads_the_tail_of_the_view() {
        let (log, state) = fed(43);
        let records = log.records();
        let tail = &records[records.len() - state.config().window..];
        let ttrs: Vec<f64> = tail.iter().map(|r| r.ttr().get()).collect();
        assert_eq!(state.window_ttr_sample(), ttrs);

        let last = records.last().unwrap().time().get();
        assert_eq!(state.stream_time(), Some(last));
        let recent: Vec<f64> = log
            .times()
            .map(|t| t.get())
            .filter(|&t| t >= last - RATE_WINDOW_HOURS)
            .collect();
        let span = (last - recent[0]).min(RATE_WINDOW_HOURS);
        assert_eq!(state.rate_per_hour(), Some(recent.len() as f64 / span));

        let mut single = WatchState::for_log(&log, StateConfig::default());
        single.ingest(records[0].clone()).unwrap();
        assert_eq!(single.window_len(), 1);
        assert_eq!(single.rate_per_hour(), None);
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
