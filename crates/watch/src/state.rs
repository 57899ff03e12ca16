//! The monitor's online state: everything `failwatch` knows after
//! ingesting a prefix of the stream.
//!
//! [`WatchState`] is a [`failscope::StreamView`] plus one [`Ewma`] per
//! category for repair times and for inter-arrival gaps, and each
//! category's last failure time, which the gap EWMA folds from. The
//! three are one entry per category, indexed by the category's code in
//! the view's palette (first-arrival order), so a record finds its entry
//! by the code the view just gave it, with no map lookup. The EWMAs are
//! the only estimators kept beside the view (reading one back would
//! refold the category's whole history); every other figure is a read of
//! the view:
//!
//! * since-start figures — the MTTR from the view's exact TTR sum
//!   ([`failstats::ExactSum`], read in O(1)), the TTR quantiles read by
//!   rank over the view's settled TTRs
//!   ([`StreamView::ttr_quantile`], the type-7 interpolation of
//!   [`failstats::Ecdf`]), and the mean gap from the closed form
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
    /// One entry per category, indexed by its code in the view's
    /// category palette.
    categories: Vec<CategoryState>,
}

/// What [`WatchState`] keeps about one category beside the view.
#[derive(Debug, Clone, PartialEq)]
struct CategoryState {
    ewma_ttr: Ewma,
    ewma_gap: Ewma,
    /// The category's latest failure time, hours.
    last_failure: f64,
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
            categories: Vec::new(),
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
        self.view.push(rec)?;
        // A palette code is a category's first-arrival rank, so a new
        // category's code is the next entry.
        let code = usize::from(*self.view.category_codes().last().expect("just pushed"));
        match self.categories.get_mut(code) {
            Some(entry) => {
                entry.ewma_gap.update(time - entry.last_failure);
                entry.last_failure = time;
                entry.ewma_ttr.update(ttr);
            }
            None => {
                let mut ewma_ttr = Ewma::new(EWMA_ALPHA);
                ewma_ttr.update(ttr);
                self.categories.push(CategoryState {
                    ewma_ttr,
                    ewma_gap: Ewma::new(EWMA_ALPHA),
                    last_failure: time,
                });
            }
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

    /// Settles the repair durations ingested since the last call (see
    /// [`StreamView::materialize`]); the watch loop calls this before
    /// rendering summaries so the quantiles read by rank and no read
    /// merges into a cache.
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

    /// Mean repair duration since stream start: the view's exact TTR
    /// sum read in O(1), the same read `TtrAnalysis` makes, so the two
    /// are equal by construction.
    pub fn mttr_hours(&self) -> Option<f64> {
        self.view.ttr_sum().mean()
    }

    /// `p`-quantile of repair durations since stream start, bit-identical
    /// to `TtrAnalysis::quantile` ([`StreamView::ttr_quantile`]).
    pub fn ttr_quantile(&self, p: f64) -> Option<f64> {
        self.view.ttr_quantile(p)
    }

    /// The repair durations of the trailing window, the last
    /// [`StateConfig::window`] records, in arrival order: a slice of the
    /// view's TTR column.
    fn window_ttrs(&self) -> &[f64] {
        estimators::trailing(self.view.ttrs(), self.config.window)
    }

    /// Mean TTR over the trailing window of records.
    pub fn window_ttr_mean(&self) -> Option<f64> {
        failstats::mean(self.window_ttrs())
    }

    /// The trailing-window TTR sample, in arrival order.
    pub fn window_ttr_sample(&self) -> Vec<f64> {
        self.window_ttrs().to_vec()
    }

    /// Records currently in the trailing window.
    pub fn window_len(&self) -> usize {
        self.window_ttrs().len()
    }

    /// Category fractions over the trailing window.
    pub fn window_category_fractions(&self) -> BTreeMap<Category, f64> {
        let len = self.window_len();
        let mut counts: BTreeMap<Category, usize> = BTreeMap::new();
        for r in self.view.rows().rev().take(len) {
            *counts.entry(r.category()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(c, k)| (c, k as f64 / len as f64))
            .collect()
    }

    /// Per-slot involvement shares over the last [`StateConfig::window`]
    /// GPU-slot involvements (the tail of the view's involvement list, so
    /// the cost is O(window) however few GPU failures the stream has),
    /// indexed by slot number; the total-involvement count is the second
    /// element.
    pub fn window_slot_shares(&self) -> (Vec<f64>, usize) {
        let mut counts = vec![0usize; self.view.spec().gpus_per_node() as usize];
        for slot in estimators::trailing(self.view.slot_involvements(), self.config.window) {
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

    /// The entry of `category`, if any record carried it.
    fn category(&self, category: Category) -> Option<&CategoryState> {
        let code = self.view.category_palette().iter().position(|&c| c == category)?;
        self.categories.get(code)
    }

    /// Smoothed per-category repair duration.
    pub fn ewma_ttr(&self, category: Category) -> Option<f64> {
        self.category(category)?.ewma_ttr.value()
    }

    /// Smoothed per-category inter-arrival gap.
    pub fn ewma_gap(&self, category: Category) -> Option<f64> {
        self.category(category)?.ewma_gap.value()
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

    /// The slot shares as a walk back over the records, newest first,
    /// until `window` GPU-slot involvements are collected.
    fn walked_slot_shares(state: &WatchState) -> (Vec<f64>, usize) {
        let mut counts = vec![0usize; state.view().spec().gpus_per_node() as usize];
        let involvements = state
            .view()
            .rows()
            .rev()
            .flat_map(|r| r.gpus().iter().rev())
            .take(state.config().window);
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

    mod slot_shares {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // Reading the tail of the view's involvement list equals the
            // walk back over the records at every prefix, on full
            // streams, GPU-only streams and GPU-free ones.
            #[test]
            fn slot_shares_equal_the_record_walk_back(
                seed in 0u64..10_000,
                window in 1usize..160,
                scope in 0u8..3,
                t2 in any::<bool>(),
            ) {
                let model = if t2 { SystemModel::tsubame2() } else { SystemModel::tsubame3() };
                let log = Simulator::new(model, seed).generate().unwrap();
                let records: Vec<FailureRecord> = log
                    .records()
                    .iter()
                    .filter(|r| match scope {
                        0 => true,
                        1 => r.category().is_gpu(),
                        _ => !r.category().is_gpu(),
                    })
                    .cloned()
                    .collect();
                let config = StateConfig::builder().window(window).build().unwrap();
                let mut state = WatchState::for_log(&log, config);
                for (i, rec) in records.into_iter().enumerate() {
                    state.ingest(rec).unwrap();
                    if i % 5 == 0 {
                        prop_assert_eq!(state.window_slot_shares(), walked_slot_shares(&state));
                    }
                }
                let (shares, total) = state.window_slot_shares();
                prop_assert_eq!((shares, total), walked_slot_shares(&state));
                if scope == 2 {
                    prop_assert_eq!(total, 0);
                }
            }
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
