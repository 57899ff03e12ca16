//! From-scratch statistics substrate for the `failscope` workspace.
//!
//! The DSN 2021 Tsubame field study this workspace reproduces derives all of
//! its results from a small set of statistical primitives: empirical CDFs
//! and quantiles (Figs. 6, 9), box-plot summaries (Figs. 7, 10), count
//! histograms (Fig. 4), correlation (the RQ5 failure-density vs. TTR
//! question), and point-process burstiness measures (Fig. 8). This crate
//! implements those primitives, plus the distribution toolbox (samplers and
//! maximum-likelihood fitters) the calibrated simulator is built on.
//!
//! Nothing here depends on an external statistics library: special
//! functions, distributions, fitters, and tests are implemented and
//! verified in-crate.
//!
//! # Examples
//!
//! Characterize a sample of inter-failure times:
//!
//! ```
//! use failstats::{fit::select_best_family, ContinuousDist, Ecdf, Exponential, Summary};
//! use rand::SeedableRng;
//!
//! let truth = Exponential::with_mean(15.0).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let tbf: Vec<f64> = (0..1000).map(|_| truth.sample(&mut rng)).collect();
//!
//! let summary = Summary::from_data(&tbf).unwrap();
//! assert!((summary.mean() - 15.0).abs() < 2.0);
//!
//! let ecdf = Ecdf::new(tbf.clone()).unwrap();
//! assert!(ecdf.quantile(0.75) > summary.median());
//!
//! let best = &select_best_family(&tbf)[0];
//! assert!(best.log_lik.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod bootstrap;
mod categorical;
mod corr;
mod counting;
mod desc;
mod dist;
mod ecdf;
pub mod fit;
mod hist;
mod htest;
mod ks;
mod logrank;
mod parallel;
mod rate;
mod survival;
pub mod special;

pub use bootstrap::{bootstrap_ci, bootstrap_ci_parallel, ConfidenceInterval};
pub use categorical::Categorical;
pub use corr::{pearson, spearman};
pub use counting::{
    burstiness_report, inter_arrival_times, mean_gap, windowed_counts, BurstinessReport,
};
pub use desc::{
    coefficient_of_variation, mean, median, quantile, quantile_sorted, std_dev, variance, Summary,
};
pub use dist::{
    sample_poisson, sample_std_gamma, sample_std_normal, ContinuousDist, Exponential, Gamma,
    LogNormal, Weibull,
};
pub use ecdf::Ecdf;
pub use hist::{CountHistogram, Histogram};
pub use htest::{
    autocorrelation, chi_square_gof, mann_whitney, ChiSquareTest, MannWhitneyTest,
};
pub use ks::{ks_test_dist, ks_test_two_sample, KsTest};
pub use logrank::{log_rank, LogRankTest};
pub use parallel::{available_threads, line_chunks, par_map_ordered};
pub use rate::{chi_square_quantile, poisson_rate_ci, RateInterval};
pub use survival::{HazardStep, KaplanMeier, Lifetime, NelsonAalen, SurvivalStep};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Ecdf>();
        assert_send_sync::<Summary>();
        assert_send_sync::<Categorical>();
        assert_send_sync::<Exponential>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<CountHistogram>();
        assert_send_sync::<ConfidenceInterval>();
    }

    #[test]
    fn end_to_end_fit_and_test() {
        use rand::SeedableRng;
        let truth = Weibull::new(1.4, 70.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let data: Vec<f64> = (0..3000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = fit::fit_weibull(&data).unwrap();
        let test = ks_test_dist(&data, &fitted).unwrap();
        assert!(!test.rejects_at(0.01), "p = {}", test.p_value);
    }
}
