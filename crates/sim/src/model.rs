//! Generative models of a system's failure behaviour.
//!
//! A [`SystemModel`] bundles everything the generator needs: the system
//! specification and observation window, the exact category mix, the
//! inter-arrival (TBF) family, per-category repair models, spatial skew
//! (node selection and GPU-slot weights), the multi-GPU involvement table,
//! temporal clustering, and monthly modulation. The two canonical models
//! ([`SystemModel::tsubame2`] / [`SystemModel::tsubame3`]) are calibrated
//! from the paper (see [`crate::calib`]); [`ScenarioBuilder`] derives
//! hypothetical systems for what-if studies.

use failtypes::{
    Category, Date, Generation, ObservationWindow, SoftwareLocus, SystemSpec, T3Category,
};
use failstats::{ContinuousDist, Exponential, Gamma, LogNormal, Weibull};

use crate::calib;

/// The family of the system-wide time-between-failures distribution.
///
/// The mean is always `window / total_failures`; the family controls the
/// shape around that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TbfModel {
    /// Memoryless arrivals (Tsubame-2's calibrated family).
    Exponential,
    /// Gamma arrivals with the given shape (Tsubame-3 uses shape 4).
    Gamma {
        /// Gamma shape parameter.
        shape: f64,
    },
    /// Weibull arrivals with the given shape (ablation alternative).
    Weibull {
        /// Weibull shape parameter.
        shape: f64,
    },
    /// Log-normal arrivals with the given log-std (ablation alternative).
    LogNormal {
        /// Log-std `σ`.
        sigma: f64,
    },
}

impl TbfModel {
    /// Instantiates the distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or a shape parameter is invalid —
    /// model construction validates these, so reaching the panic indicates
    /// a corrupted model.
    pub fn distribution(&self, mean: f64) -> Box<dyn ContinuousDist + Send + Sync> {
        assert!(mean > 0.0, "TBF mean must be positive");
        match *self {
            TbfModel::Exponential => {
                Box::new(Exponential::with_mean(mean).expect("validated mean"))
            }
            TbfModel::Gamma { shape } => {
                Box::new(Gamma::with_mean(mean, shape).expect("validated shape"))
            }
            TbfModel::Weibull { shape } => {
                let scale = mean / failstats::special::ln_gamma(1.0 + 1.0 / shape).exp();
                Box::new(Weibull::new(shape, scale).expect("validated shape"))
            }
            TbfModel::LogNormal { sigma } => {
                Box::new(LogNormal::with_mean(mean, sigma).expect("validated sigma"))
            }
        }
    }
}

/// How failures are placed onto nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSelection {
    /// A small pool of "defective" nodes absorbs a fixed share of the
    /// failures; the rest fall uniformly. This bimodal occupancy (many
    /// one-off nodes plus a heavy repeat-offender tail with a dip at 2-3
    /// failures) is the shape Fig. 4 reports, and matches the paper's
    /// explanation via manufacturing variability and uneven utilization.
    DefectivePool {
        /// Number of defective nodes (drawn uniformly at simulation
        /// start).
        pool_size: u32,
        /// Fraction of placed failures routed into the pool.
        pool_share: f64,
    },
    /// Polya-urn preferential attachment: weight `base + reinforcement ·
    /// prior_failures`. Produces a monotone repeat tail; kept as an
    /// alternative hypothesis for the ablation benches.
    PolyaUrn {
        /// Base weight of every node.
        base: f64,
        /// Additional weight per failure already seen on the node.
        reinforcement: f64,
    },
    /// Uniform placement (ablation baseline; cannot reproduce Fig. 4).
    Uniform,
}

/// How GPU failures are placed onto the GPU slots of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotSkew {
    /// Calibrated non-uniform weights per slot (Fig. 5).
    Weighted(Vec<f64>),
    /// Uniform slots (ablation baseline).
    Uniform,
}

/// Whether simultaneous multi-GPU failures cluster in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusteringMode {
    /// Self-exciting assignment: within `window_hours` of a multi-GPU
    /// failure, the odds that the next GPU failure is also multi-GPU are
    /// multiplied by `boost` (Fig. 8).
    SelfExciting {
        /// Excitation window in hours.
        window_hours: f64,
        /// Odds multiplier inside the window.
        boost: f64,
    },
    /// Independent assignment (ablation baseline).
    Independent,
}

/// The exact per-category event counts a generated log must contain.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryMix {
    entries: Vec<(Category, u32)>,
}

impl CategoryMix {
    /// Creates a mix from `(category, count)` pairs; zero-count entries
    /// are retained (they simply contribute no events).
    ///
    /// Returns `None` when empty or when a category repeats.
    pub fn new(entries: Vec<(Category, u32)>) -> Option<Self> {
        if entries.is_empty() {
            return None;
        }
        for (i, &(c, _)) in entries.iter().enumerate() {
            if entries[i + 1..].iter().any(|&(d, _)| d == c) {
                return None;
            }
        }
        Some(CategoryMix { entries })
    }

    /// Total number of events.
    pub fn total(&self) -> u32 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// The `(category, count)` entries.
    pub fn entries(&self) -> &[(Category, u32)] {
        &self.entries
    }

    /// Count for one category (zero when absent).
    pub fn count(&self, category: Category) -> u32 {
        self.entries
            .iter()
            .find(|&&(c, _)| c == category)
            .map_or(0, |&(_, n)| n)
    }

    /// Expands the mix into the exact multiset of category labels.
    pub fn to_multiset(&self) -> Vec<Category> {
        let mut out = Vec::with_capacity(self.total() as usize);
        for &(cat, n) in &self.entries {
            out.extend(std::iter::repeat_n(cat, n as usize));
        }
        out
    }

    /// Rescales the mix to a new total using largest-remainder rounding,
    /// preserving proportions as closely as integers allow.
    pub fn scaled_to(&self, new_total: u32) -> CategoryMix {
        let old_total = self.total().max(1) as f64;
        let mut items: Vec<(Category, u32, f64)> = self
            .entries
            .iter()
            .map(|&(c, n)| {
                let exact = n as f64 * new_total as f64 / old_total;
                (c, exact.floor() as u32, exact - exact.floor())
            })
            .collect();
        let assigned: u32 = items.iter().map(|&(_, n, _)| n).sum();
        let mut leftover = new_total.saturating_sub(assigned);
        // Hand the leftover units to the largest remainders.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| {
            items[b]
                .2
                .partial_cmp(&items[a].2)
                .expect("remainders are finite")
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            items[i].1 += 1;
            leftover -= 1;
        }
        CategoryMix {
            entries: items.into_iter().map(|(c, n, _)| (c, n)).collect(),
        }
    }
}

/// Per-category log-normal repair model plus the exact Fig. 3 root-locus
/// mix for software failures.
#[derive(Debug, Clone, PartialEq)]
pub struct TtrModel {
    /// `(category, mean hours, log-normal sigma)`.
    params: Vec<(Category, f64, f64)>,
}

impl TtrModel {
    /// Creates the model; returns `None` when empty or when any mean or
    /// sigma is non-positive.
    pub fn new(params: Vec<(Category, f64, f64)>) -> Option<Self> {
        if params.is_empty() || params.iter().any(|&(_, m, s)| m <= 0.0 || s <= 0.0 || m.is_nan() || s.is_nan()) {
            return None;
        }
        Some(TtrModel { params })
    }

    /// The repair-time distribution for a category.
    ///
    /// Categories without an explicit entry fall back to the average of
    /// all entries, so a what-if mix never lacks a repair model.
    pub fn distribution(&self, category: Category) -> LogNormal {
        if let Some(&(_, mean, sigma)) = self.params.iter().find(|&&(c, _, _)| c == category) {
            return LogNormal::with_mean(mean, sigma).expect("validated params");
        }
        let n = self.params.len() as f64;
        let mean = self.params.iter().map(|&(_, m, _)| m).sum::<f64>() / n;
        let sigma = self.params.iter().map(|&(_, _, s)| s).sum::<f64>() / n;
        LogNormal::with_mean(mean, sigma).expect("validated params")
    }

    /// The `(category, mean, sigma)` entries.
    pub fn params(&self) -> &[(Category, f64, f64)] {
        &self.params
    }
}

/// The multi-GPU involvement table (Table III) as exact label counts.
#[derive(Debug, Clone, PartialEq)]
pub struct InvolvementModel {
    /// `(gpus involved, count)` with known involvement.
    counts: Vec<(u8, u32)>,
    /// GPU failures with unknown involvement (no slot data recorded).
    unknown: u32,
}

impl InvolvementModel {
    /// Creates the model; returns `None` when a multiplicity is zero or
    /// repeats.
    pub fn new(counts: Vec<(u8, u32)>, unknown: u32) -> Option<Self> {
        for (i, &(k, _)) in counts.iter().enumerate() {
            if k == 0 || counts[i + 1..].iter().any(|&(j, _)| j == k) {
                return None;
            }
        }
        Some(InvolvementModel { counts, unknown })
    }

    /// Total GPU failure events the table describes (known + unknown).
    pub fn total(&self) -> u32 {
        self.known() + self.unknown
    }

    /// GPU failure events with known involvement.
    pub fn known(&self) -> u32 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }

    /// Events with unknown involvement.
    pub fn unknown(&self) -> u32 {
        self.unknown
    }

    /// The `(multiplicity, count)` entries.
    pub fn counts(&self) -> &[(u8, u32)] {
        &self.counts
    }

    /// Number of multi-GPU (≥ 2 involved) events.
    pub fn multi_count(&self) -> u32 {
        self.counts
            .iter()
            .filter(|&&(k, _)| k >= 2)
            .map(|&(_, c)| c)
            .sum()
    }

    /// Rescales all counts to a new total number of GPU events, keeping
    /// proportions (largest-remainder).
    pub fn scaled_to(&self, new_total: u32) -> InvolvementModel {
        let old_total = self.total().max(1) as f64;
        let scale = new_total as f64 / old_total;
        let mut items: Vec<(u8, u32, f64)> = self
            .counts
            .iter()
            .map(|&(k, c)| {
                let exact = c as f64 * scale;
                (k, exact.floor() as u32, exact - exact.floor())
            })
            .collect();
        let unknown_exact = self.unknown as f64 * scale;
        let mut unknown = unknown_exact.floor() as u32;
        let unknown_rem = unknown_exact - unknown_exact.floor();
        let assigned: u32 = items.iter().map(|&(_, n, _)| n).sum::<u32>() + unknown;
        let mut leftover = new_total.saturating_sub(assigned);
        let mut order: Vec<(usize, f64)> = items
            .iter()
            .enumerate()
            .map(|(i, &(_, _, r))| (i, r))
            .chain(std::iter::once((usize::MAX, unknown_rem)))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("remainders are finite"));
        for &(i, _) in &order {
            if leftover == 0 {
                break;
            }
            if i == usize::MAX {
                unknown += 1;
            } else {
                items[i].1 += 1;
            }
            leftover -= 1;
        }
        InvolvementModel {
            counts: items.into_iter().map(|(k, n, _)| (k, n)).collect(),
            unknown,
        }
    }
}

/// A complete generative model for one system's failure log.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    /// Category vocabulary of the generated records.
    pub generation: Generation,
    /// System topology the records refer to.
    pub spec: SystemSpec,
    /// Observation window of the generated log.
    pub window: ObservationWindow,
    /// Exact per-category event counts.
    pub category_mix: CategoryMix,
    /// System-wide inter-arrival family.
    pub tbf: TbfModel,
    /// Per-category repair models.
    pub ttr: TtrModel,
    /// Monthly TTR multipliers (January..December).
    pub monthly_ttr: [f64; 12],
    /// Monthly failure-rate multipliers (January..December).
    pub monthly_rate: [f64; 12],
    /// Linear failure-rate trend over the window: the rate is multiplied
    /// by `trend.0` at the window start, ramping to `trend.1` at the end
    /// (`(1.0, 1.0)` = stationary). Models burn-in (`start > end`) and
    /// wear-out (`start < end`) what-if scenarios.
    pub rate_trend: (f64, f64),
    /// Node placement policy.
    pub node_selection: NodeSelection,
    /// Tsubame-2 operational quirk: software failures land on previously
    /// failure-free nodes (supported by the paper's observation that
    /// multi-failure Tsubame-2 nodes saw 352 hardware failures but only 1
    /// software failure).
    pub software_prefers_fresh_nodes: bool,
    /// GPU slot skew (Fig. 5).
    pub slot_skew: SlotSkew,
    /// Multi-GPU involvement table (Table III).
    pub involvement: InvolvementModel,
    /// Temporal clustering of multi-GPU failures (Fig. 8).
    pub clustering: ClusteringMode,
    /// Exact root-locus counts for software failures (Fig. 3); empty for
    /// systems that do not record loci.
    pub software_loci: Vec<(SoftwareLocus, u32)>,
}

impl SystemModel {
    /// The calibrated Tsubame-2 model.
    pub fn tsubame2() -> Self {
        let window = ObservationWindow::new(
            Date::new(2012, 1, 7).expect("valid date"),
            Date::new(2013, 8, 1).expect("valid date"),
        )
        .expect("valid window");
        SystemModel {
            generation: Generation::Tsubame2,
            spec: SystemSpec::tsubame2(),
            window,
            category_mix: CategoryMix::new(
                calib::T2_CATEGORY_COUNTS
                    .iter()
                    .map(|&(c, n)| (Category::T2(c), n))
                    .collect(),
            )
            .expect("calibration is valid"),
            tbf: TbfModel::Exponential,
            ttr: TtrModel::new(
                calib::T2_TTR_PARAMS
                    .iter()
                    .map(|&(c, m, s)| (Category::T2(c), m, s))
                    .collect(),
            )
            .expect("calibration is valid"),
            monthly_ttr: calib::T2_MONTHLY_TTR,
            monthly_rate: calib::T2_MONTHLY_RATE,
            rate_trend: (1.0, 1.0),
            node_selection: NodeSelection::DefectivePool {
                pool_size: calib::defective::T2_POOL_SIZE,
                pool_share: calib::defective::T2_POOL_SHARE,
            },
            software_prefers_fresh_nodes: true,
            slot_skew: SlotSkew::Weighted(calib::T2_SLOT_WEIGHTS.to_vec()),
            involvement: InvolvementModel::new(
                calib::T2_INVOLVEMENT_COUNTS.to_vec(),
                calib::T2_INVOLVEMENT_UNKNOWN,
            )
            .expect("calibration is valid"),
            clustering: ClusteringMode::SelfExciting {
                window_hours: calib::clustering::WINDOW_HOURS,
                boost: calib::clustering::BOOST,
            },
            software_loci: Vec::new(),
        }
    }

    /// The calibrated Tsubame-3 model.
    pub fn tsubame3() -> Self {
        let window = ObservationWindow::new(
            Date::new(2017, 5, 9).expect("valid date"),
            Date::new(2020, 2, 22).expect("valid date"),
        )
        .expect("valid window");
        SystemModel {
            generation: Generation::Tsubame3,
            spec: SystemSpec::tsubame3(),
            window,
            category_mix: CategoryMix::new(
                calib::T3_CATEGORY_COUNTS
                    .iter()
                    .map(|&(c, n)| (Category::T3(c), n))
                    .collect(),
            )
            .expect("calibration is valid"),
            tbf: TbfModel::Gamma {
                shape: calib::t3_tbf::SHAPE,
            },
            ttr: TtrModel::new(
                calib::T3_TTR_PARAMS
                    .iter()
                    .map(|&(c, m, s)| (Category::T3(c), m, s))
                    .collect(),
            )
            .expect("calibration is valid"),
            monthly_ttr: calib::T3_MONTHLY_TTR,
            monthly_rate: calib::T3_MONTHLY_RATE,
            rate_trend: (1.0, 1.0),
            node_selection: NodeSelection::DefectivePool {
                pool_size: calib::defective::T3_POOL_SIZE,
                pool_share: calib::defective::T3_POOL_SHARE,
            },
            software_prefers_fresh_nodes: false,
            slot_skew: SlotSkew::Weighted(calib::T3_SLOT_WEIGHTS.to_vec()),
            involvement: InvolvementModel::new(
                calib::T3_INVOLVEMENT_COUNTS.to_vec(),
                calib::T3_INVOLVEMENT_UNKNOWN,
            )
            .expect("calibration is valid"),
            clustering: ClusteringMode::SelfExciting {
                window_hours: calib::clustering::WINDOW_HOURS,
                boost: calib::clustering::BOOST,
            },
            software_loci: calib::T3_SOFTWARE_LOCUS_COUNTS.to_vec(),
        }
    }

    /// The canonical model of a generation.
    pub fn for_generation(generation: Generation) -> Self {
        match generation {
            Generation::Tsubame2 => Self::tsubame2(),
            Generation::Tsubame3 => Self::tsubame3(),
        }
    }

    /// Total failures the model will generate.
    pub fn total_failures(&self) -> u32 {
        self.category_mix.total()
    }

    /// The system-wide MTBF implied by the model
    /// (`window / total_failures`).
    pub fn implied_mtbf_hours(&self) -> f64 {
        self.window.duration().get() / self.total_failures().max(1) as f64
    }
}

/// Builds hypothetical system models for what-if studies (e.g. "what does
/// an 8-GPU-per-node Tsubame-3 successor look like?").
///
/// Starts from the Tsubame-3 calibration and rescales what the scenario
/// varies; uses the Tsubame-3 category vocabulary.
///
/// # Examples
///
/// ```
/// use failsim::ScenarioBuilder;
///
/// let model = ScenarioBuilder::new("Hypo-8GPU")
///     .nodes(256)
///     .gpus_per_node(8)
///     .system_mtbf_hours(40.0)
///     .window_days(365)
///     .build()
///     .unwrap();
/// assert_eq!(model.spec.gpus_per_node(), 8);
/// assert!((model.implied_mtbf_hours() - 40.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    nodes: u32,
    gpus_per_node: u8,
    mtbf_hours: f64,
    window_days: u32,
    multi_gpu_fraction: Option<f64>,
    tbf: TbfModel,
    clustering: ClusteringMode,
    node_selection: NodeSelection,
    rate_trend: (f64, f64),
}

impl ScenarioBuilder {
    /// Starts a scenario with Tsubame-3-like defaults.
    pub fn new(name: impl Into<String>) -> Self {
        let t3 = SystemModel::tsubame3();
        ScenarioBuilder {
            name: name.into(),
            nodes: 540,
            gpus_per_node: 4,
            mtbf_hours: t3.implied_mtbf_hours(),
            window_days: 1019,
            multi_gpu_fraction: None,
            tbf: t3.tbf,
            clustering: t3.clustering,
            node_selection: t3.node_selection,
            rate_trend: (1.0, 1.0),
        }
    }

    /// Sets the node count.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the GPUs per node (1..=8 supported by the involvement
    /// rescaling).
    pub fn gpus_per_node(mut self, gpus: u8) -> Self {
        self.gpus_per_node = gpus;
        self
    }

    /// Sets the target system-wide MTBF in hours.
    pub fn system_mtbf_hours(mut self, mtbf: f64) -> Self {
        self.mtbf_hours = mtbf;
        self
    }

    /// Sets the observation-window length in days (starting 2020-01-01).
    pub fn window_days(mut self, days: u32) -> Self {
        self.window_days = days;
        self
    }

    /// Overrides the fraction of GPU failures that involve more than one
    /// GPU (default: keep the Tsubame-3 proportion).
    pub fn multi_gpu_fraction(mut self, fraction: f64) -> Self {
        self.multi_gpu_fraction = Some(fraction);
        self
    }

    /// Overrides the TBF family.
    pub fn tbf(mut self, tbf: TbfModel) -> Self {
        self.tbf = tbf;
        self
    }

    /// Overrides the clustering mode.
    pub fn clustering(mut self, clustering: ClusteringMode) -> Self {
        self.clustering = clustering;
        self
    }

    /// Overrides the node-selection policy.
    pub fn node_selection(mut self, node_selection: NodeSelection) -> Self {
        self.node_selection = node_selection;
        self
    }

    /// Sets a linear reliability trend: the failure rate ramps from
    /// `start_factor` x the base rate at the window start to
    /// `end_factor` x at the end. `start > end` models burn-in
    /// (reliability growth); `start < end` models wear-out.
    pub fn reliability_trend(mut self, start_factor: f64, end_factor: f64) -> Self {
        self.rate_trend = (start_factor, end_factor);
        self
    }

    /// Builds the scenario model.
    ///
    /// Returns `None` for degenerate parameters (zero nodes/GPUs/window,
    /// non-positive MTBF, more than 8 GPUs per node, or a multi-GPU
    /// fraction outside `[0, 1]`).
    pub fn build(self) -> Option<SystemModel> {
        if self.nodes == 0
            || self.gpus_per_node == 0
            || self.gpus_per_node > 8
            || self.mtbf_hours <= 0.0
            || self.mtbf_hours.is_nan()
            || self.window_days == 0
        {
            return None;
        }
        if let Some(f) = self.multi_gpu_fraction {
            if !(0.0..=1.0).contains(&f) {
                return None;
            }
        }
        let (t0, t1) = self.rate_trend;
        if t0 <= 0.0 || t1 <= 0.0 || t0.is_nan() || t1.is_nan() {
            return None;
        }
        let t3 = SystemModel::tsubame3();
        let start = Date::new(2020, 1, 1).expect("valid date");
        let end = Date::from_days_from_epoch(start.days_from_epoch() + self.window_days as i64);
        let window = ObservationWindow::new(start, end)?;
        let total = (window.duration().get() / self.mtbf_hours).round().max(1.0) as u32;
        let category_mix = t3.category_mix.scaled_to(total);
        let gpu_events = category_mix.count(Category::T3(T3Category::Gpu));
        let involvement = scale_involvement(
            &t3.involvement,
            gpu_events,
            self.gpus_per_node,
            self.multi_gpu_fraction,
        );
        let software_total = category_mix.count(Category::T3(T3Category::Software));
        let loci_mix = scale_loci(&t3.software_loci, software_total);
        let spec = SystemSpec::builder(self.name)
            .nodes(self.nodes)
            .gpus_per_node(self.gpus_per_node)
            .build()
            .ok()?;
        Some(SystemModel {
            generation: Generation::Tsubame3,
            spec,
            window,
            category_mix,
            tbf: self.tbf,
            ttr: t3.ttr,
            monthly_ttr: t3.monthly_ttr,
            monthly_rate: t3.monthly_rate,
            node_selection: self.node_selection,
            rate_trend: self.rate_trend,
            software_prefers_fresh_nodes: false,
            slot_skew: SlotSkew::Uniform,
            involvement,
            clustering: self.clustering,
            software_loci: loci_mix,
        })
    }
}

/// Rescales an involvement table to a new GPU-event total, a new maximum
/// multiplicity, and optionally a new multi-GPU fraction.
fn scale_involvement(
    base: &InvolvementModel,
    gpu_events: u32,
    gpus_per_node: u8,
    multi_fraction: Option<f64>,
) -> InvolvementModel {
    let scaled = base.scaled_to(gpu_events);
    let known = scaled.known();
    let unknown = scaled.unknown();
    let max_k = gpus_per_node.max(1);
    let multi = if max_k < 2 {
        // Single-GPU nodes cannot see simultaneous multi-GPU failures.
        0
    } else {
        match multi_fraction {
            Some(f) => ((known as f64) * f).round() as u32,
            None => scaled.multi_count(),
        }
    };
    let single = known.saturating_sub(multi);
    // Distribute multi events over multiplicities 2..=gpus_per_node with a
    // geometric taper (heavier at 2), matching the qualitative shape of
    // Table III.
    let mut counts: Vec<(u8, u32)> = vec![(1, single)];
    if max_k >= 2 && multi > 0 {
        let levels = (max_k - 1) as usize;
        let mut weights: Vec<f64> = (0..levels).map(|i| 0.5f64.powi(i as i32)).collect();
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        let mut assigned = 0u32;
        for (i, &w) in weights.iter().enumerate() {
            let c = if i == levels - 1 {
                multi - assigned
            } else {
                ((multi as f64) * w).round() as u32
            };
            let c = c.min(multi - assigned);
            counts.push((i as u8 + 2, c));
            assigned += c;
        }
    }
    InvolvementModel::new(counts, unknown).expect("multiplicities are unique")
}

/// Rescales the software-locus mix to a new total (largest remainder).
fn scale_loci(base: &[(SoftwareLocus, u32)], total: u32) -> Vec<(SoftwareLocus, u32)> {
    if base.is_empty() || total == 0 {
        return Vec::new();
    }
    let old: u32 = base.iter().map(|&(_, c)| c).sum();
    let mut items: Vec<(SoftwareLocus, u32, f64)> = base
        .iter()
        .map(|&(l, c)| {
            let exact = c as f64 * total as f64 / old.max(1) as f64;
            (l, exact.floor() as u32, exact - exact.floor())
        })
        .collect();
    let assigned: u32 = items.iter().map(|&(_, n, _)| n).sum();
    let mut leftover = total.saturating_sub(assigned);
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[b].2.partial_cmp(&items[a].2).expect("finite"));
    for &i in &order {
        if leftover == 0 {
            break;
        }
        items[i].1 += 1;
        leftover -= 1;
    }
    items.into_iter().map(|(l, n, _)| (l, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_models_are_consistent() {
        let t2 = SystemModel::tsubame2();
        assert_eq!(t2.total_failures(), 897);
        assert!((t2.implied_mtbf_hours() - 15.3).abs() < 0.1);
        let t3 = SystemModel::tsubame3();
        assert_eq!(t3.total_failures(), 338);
        assert!((t3.implied_mtbf_hours() - 72.4).abs() < 0.2);
        assert_eq!(
            SystemModel::for_generation(Generation::Tsubame2).generation,
            Generation::Tsubame2
        );
    }

    #[test]
    fn tbf_distributions_hit_their_means() {
        for model in [
            TbfModel::Exponential,
            TbfModel::Gamma { shape: 2.5 },
            TbfModel::Weibull { shape: 1.3 },
            TbfModel::LogNormal { sigma: 0.9 },
        ] {
            let d = model.distribution(50.0);
            assert!((d.mean() - 50.0).abs() < 1e-6, "{model:?}: {}", d.mean());
        }
    }

    #[test]
    fn t3_tbf_hits_p75_anchor() {
        // Fig. 6: p75 of Tsubame-3 TBF ≈ 93 h at MTBF ≈ 72.4 h.
        let t3 = SystemModel::tsubame3();
        let d = t3.tbf.distribution(t3.implied_mtbf_hours());
        let p75 = d.quantile(0.75);
        assert!((p75 - 93.0).abs() < 4.0, "p75 = {p75}");
    }

    #[test]
    fn t2_tbf_hits_p75_anchor() {
        // Fig. 6: 75% of Tsubame-2 failures occur within ~20 h of each
        // other.
        let t2 = SystemModel::tsubame2();
        let d = t2.tbf.distribution(t2.implied_mtbf_hours());
        let p75 = d.quantile(0.75);
        assert!((p75 - 20.0).abs() < 2.5, "p75 = {p75}");
    }

    #[test]
    fn category_mix_invariants() {
        let mix = CategoryMix::new(vec![
            (Category::T3(T3Category::Gpu), 3),
            (Category::T3(T3Category::Software), 2),
        ])
        .unwrap();
        assert_eq!(mix.total(), 5);
        assert_eq!(mix.count(Category::T3(T3Category::Gpu)), 3);
        assert_eq!(mix.count(Category::T3(T3Category::Cpu)), 0);
        assert_eq!(mix.to_multiset().len(), 5);
        // Duplicate categories rejected.
        assert!(CategoryMix::new(vec![
            (Category::T3(T3Category::Gpu), 1),
            (Category::T3(T3Category::Gpu), 2),
        ])
        .is_none());
        assert!(CategoryMix::new(vec![]).is_none());
    }

    #[test]
    fn category_mix_scaling_preserves_total_and_proportions() {
        let t3 = SystemModel::tsubame3();
        let scaled = t3.category_mix.scaled_to(1000);
        assert_eq!(scaled.total(), 1000);
        let gpu = scaled.count(Category::T3(T3Category::Gpu)) as f64 / 1000.0;
        assert!((gpu - 0.2781).abs() < 0.01, "gpu share {gpu}");
        // Scaling to zero yields an empty log's mix.
        assert_eq!(t3.category_mix.scaled_to(0).total(), 0);
    }

    #[test]
    fn ttr_model_fallback() {
        let ttr = TtrModel::new(vec![
            (Category::T3(T3Category::Gpu), 80.0, 1.0),
            (Category::T3(T3Category::Software), 40.0, 0.8),
        ])
        .unwrap();
        let known = ttr.distribution(Category::T3(T3Category::Gpu));
        assert!((known.mean() - 80.0).abs() < 1e-9);
        // Unknown category falls back to averaged parameters.
        let fallback = ttr.distribution(Category::T3(T3Category::Crc));
        assert!((fallback.mean() - 60.0).abs() < 1e-9);
        assert!(TtrModel::new(vec![]).is_none());
        assert!(TtrModel::new(vec![(Category::T3(T3Category::Gpu), 0.0, 1.0)]).is_none());
    }

    #[test]
    fn involvement_model_invariants() {
        let inv = InvolvementModel::new(vec![(1, 75), (2, 4), (3, 2), (4, 0)], 13).unwrap();
        assert_eq!(inv.total(), 94);
        assert_eq!(inv.known(), 81);
        assert_eq!(inv.multi_count(), 6);
        assert!(InvolvementModel::new(vec![(0, 5)], 0).is_none());
        assert!(InvolvementModel::new(vec![(1, 5), (1, 3)], 0).is_none());
    }

    #[test]
    fn involvement_scaling() {
        let inv = InvolvementModel::new(vec![(1, 112), (2, 128), (3, 128)], 30).unwrap();
        let scaled = inv.scaled_to(199);
        assert_eq!(scaled.total(), 199);
        // Proportions roughly preserved.
        let multi_frac = scaled.multi_count() as f64 / scaled.known() as f64;
        assert!((multi_frac - 256.0 / 368.0).abs() < 0.05, "{multi_frac}");
    }

    #[test]
    fn scenario_builder_basics() {
        let model = ScenarioBuilder::new("S")
            .nodes(100)
            .gpus_per_node(6)
            .system_mtbf_hours(30.0)
            .window_days(200)
            .multi_gpu_fraction(0.5)
            .build()
            .unwrap();
        assert_eq!(model.spec.nodes(), 100);
        assert_eq!(model.spec.gpus_per_node(), 6);
        assert_eq!(model.total_failures(), 160); // 200 d · 24 h / 30 h
        // Involvement stays within the GPU event count and the slot count.
        assert_eq!(
            model.involvement.total(),
            model.category_mix.count(Category::T3(T3Category::Gpu))
        );
        for &(k, _) in model.involvement.counts() {
            assert!(k <= 6);
        }
        let multi = model.involvement.multi_count() as f64;
        let known = model.involvement.known() as f64;
        assert!((multi / known - 0.5).abs() < 0.05);
        // Software loci rescale with the Software category.
        let loci_total: u32 = model.software_loci.iter().map(|&(_, c)| c).sum();
        assert_eq!(
            loci_total,
            model.category_mix.count(Category::T3(T3Category::Software))
        );
    }

    #[test]
    fn scenario_builder_rejects_degenerate() {
        assert!(ScenarioBuilder::new("x").nodes(0).build().is_none());
        assert!(ScenarioBuilder::new("x").gpus_per_node(0).build().is_none());
        assert!(ScenarioBuilder::new("x").gpus_per_node(9).build().is_none());
        assert!(ScenarioBuilder::new("x").system_mtbf_hours(0.0).build().is_none());
        assert!(ScenarioBuilder::new("x").window_days(0).build().is_none());
        assert!(ScenarioBuilder::new("x").multi_gpu_fraction(1.5).build().is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn category_mix_scaling_preserves_total(total in 0u32..5000) {
                let mix = SystemModel::tsubame3().category_mix.scaled_to(total);
                prop_assert_eq!(mix.total(), total);
            }

            #[test]
            fn category_mix_scaling_preserves_proportions(total in 200u32..5000) {
                let base = SystemModel::tsubame3().category_mix;
                let scaled = base.scaled_to(total);
                for &(cat, n) in base.entries() {
                    let expected = n as f64 * total as f64 / base.total() as f64;
                    let got = scaled.count(cat) as f64;
                    // Largest-remainder rounding is within one unit.
                    prop_assert!((got - expected).abs() <= 1.0, "{cat}: {got} vs {expected}");
                }
            }

            #[test]
            fn involvement_scaling_preserves_total(total in 0u32..2000) {
                let inv = SystemModel::tsubame2().involvement.scaled_to(total);
                prop_assert_eq!(inv.total(), total);
            }

            #[test]
            fn tbf_distributions_are_positive_and_mean_correct(
                mean in 0.5f64..500.0,
                shape in 0.5f64..6.0,
                sigma in 0.1f64..1.5,
            ) {
                for model in [
                    TbfModel::Exponential,
                    TbfModel::Gamma { shape },
                    TbfModel::Weibull { shape },
                    TbfModel::LogNormal { sigma },
                ] {
                    let d = model.distribution(mean);
                    prop_assert!((d.mean() - mean).abs() < 1e-6 * mean.max(1.0));
                    prop_assert!(d.quantile(0.5) > 0.0);
                }
            }

            #[test]
            fn scenario_builder_total_matches_mtbf(
                mtbf in 5.0f64..300.0,
                days in 30u32..600,
            ) {
                let model = ScenarioBuilder::new("prop")
                    .system_mtbf_hours(mtbf)
                    .window_days(days)
                    .build()
                    .expect("valid parameters");
                let expected = (days as f64 * 24.0 / mtbf).round().max(1.0) as u32;
                prop_assert_eq!(model.total_failures(), expected);
                prop_assert_eq!(
                    model.category_mix.total(),
                    model.total_failures()
                );
            }
        }
    }

    #[test]
    fn scenario_single_gpu_node_has_no_multi() {
        let model = ScenarioBuilder::new("single")
            .gpus_per_node(1)
            .build()
            .unwrap();
        assert_eq!(model.involvement.multi_count(), 0);
    }
}
