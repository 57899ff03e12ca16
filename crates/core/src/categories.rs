//! RQ1 — distribution of failure categories (Figs. 2 and 3).

use failtypes::{Category, ComponentClass, Domain, SoftwareLocus};

use crate::FleetIndex;

/// One row of a category breakdown: a category, its count, and its share
/// of all failures.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryShare {
    /// The failure category.
    pub category: Category,
    /// Number of failures in this category.
    pub count: usize,
    /// Share of all failures, `0..=1`.
    pub fraction: f64,
}

/// The per-category failure breakdown of a log (Fig. 2).
///
/// # Examples
///
/// ```
/// use failscope::{CategoryBreakdown, StreamView};
/// use failsim::{Simulator, SystemModel};
///
/// let log = Simulator::new(SystemModel::tsubame2(), 1).generate().unwrap();
/// let breakdown = CategoryBreakdown::from_index(&StreamView::from(log));
/// // Fig. 2a: GPU is the top Tsubame-2 category at 44.37%.
/// let top = &breakdown.shares()[0];
/// assert_eq!(top.category.label(), "GPU");
/// assert!((top.fraction - 0.4437).abs() < 0.001);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryBreakdown {
    shares: Vec<CategoryShare>,
    total: usize,
}

impl CategoryBreakdown {
    /// Computes the breakdown from any [`FleetIndex`], reusing its
    /// category partitions; rows are sorted by descending count.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let total = index.len();
        let mut shares: Vec<CategoryShare> = index
            .category_indices()
            .iter()
            .map(|(&category, indices)| CategoryShare {
                category,
                count: indices.len(),
                fraction: indices.len() as f64 / total.max(1) as f64,
            })
            .collect();
        shares.sort_by(|a, b| b.count.cmp(&a.count).then(a.category.cmp(&b.category)));
        CategoryBreakdown { shares, total }
    }

    /// Rows sorted by descending count.
    pub fn shares(&self) -> &[CategoryShare] {
        &self.shares
    }

    /// Total failures in the log.
    pub const fn total(&self) -> usize {
        self.total
    }

    /// The share of one category (zero when absent).
    pub fn fraction_of(&self, category: Category) -> f64 {
        self.shares
            .iter()
            .find(|s| s.category == category)
            .map_or(0.0, |s| s.fraction)
    }

    /// The count of one category (zero when absent).
    pub fn count_of(&self, category: Category) -> usize {
        self.shares
            .iter()
            .find(|s| s.category == category)
            .map_or(0, |s| s.count)
    }

    /// Share of failures whose component class is GPU — the paper's
    /// headline comparison against CPU failures.
    pub fn gpu_fraction(&self) -> f64 {
        self.shares
            .iter()
            .filter(|s| s.category.is_gpu())
            .map(|s| s.fraction)
            .sum()
    }

    /// Share of failures whose component class is CPU.
    pub fn cpu_fraction(&self) -> f64 {
        self.shares
            .iter()
            .filter(|s| s.category.is_cpu())
            .map(|s| s.fraction)
            .sum()
    }
}

/// The per-component-class breakdown, uniform across generations.
///
/// Fig. 2 uses each system's own category vocabulary; the paper's
/// cross-generation statements ("GPU failures are significantly higher in
/// number than CPU failures on both systems") compare on the shared
/// [`ComponentClass`] axis, which this type provides.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassBreakdown {
    counts: Vec<(ComponentClass, usize)>,
    total: usize,
}

impl ClassBreakdown {
    /// Computes the breakdown from any [`FleetIndex`]; every class
    /// appears (possibly with zero).
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let mut counts: Vec<(ComponentClass, usize)> =
            ComponentClass::ALL.iter().map(|&c| (c, 0)).collect();
        for (category, indices) in index.category_indices() {
            let class = category.component_class();
            if let Some(entry) = counts.iter_mut().find(|(c, _)| *c == class) {
                entry.1 += indices.len();
            }
        }
        ClassBreakdown {
            counts,
            total: index.len(),
        }
    }

    /// `(class, count)` rows in the canonical class order.
    pub fn counts(&self) -> &[(ComponentClass, usize)] {
        &self.counts
    }

    /// Count for one class.
    pub fn count_of(&self, class: ComponentClass) -> usize {
        self.counts
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0, |(_, n)| *n)
    }

    /// Share of one class among all failures.
    pub fn fraction_of(&self, class: ComponentClass) -> f64 {
        self.count_of(class) as f64 / self.total.max(1) as f64
    }

    /// Total failures.
    pub const fn total(&self) -> usize {
        self.total
    }
}

/// Hardware/software/unknown domain split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainBreakdown {
    /// Hardware-domain failures.
    pub hardware: usize,
    /// Software-domain failures.
    pub software: usize,
    /// Unknown-domain failures.
    pub unknown: usize,
}

impl DomainBreakdown {
    /// Computes the split from any [`FleetIndex`].
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let mut out = DomainBreakdown {
            hardware: 0,
            software: 0,
            unknown: 0,
        };
        for (category, indices) in index.category_indices() {
            match category.domain() {
                Domain::Hardware => out.hardware += indices.len(),
                Domain::Software => out.software += indices.len(),
                Domain::Unknown => out.unknown += indices.len(),
            }
        }
        out
    }

    /// Total failures.
    pub fn total(&self) -> usize {
        self.hardware + self.software + self.unknown
    }

    /// Software share of all failures.
    pub fn software_fraction(&self) -> f64 {
        self.software as f64 / self.total().max(1) as f64
    }
}

/// One row of the software root-locus breakdown (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct LocusShare {
    /// The root locus.
    pub locus: SoftwareLocus,
    /// Number of software failures with this locus.
    pub count: usize,
    /// Share among software failures with a recorded locus.
    pub fraction: f64,
}

/// The root-locus breakdown of software failures (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct LocusBreakdown {
    shares: Vec<LocusShare>,
    total: usize,
}

impl LocusBreakdown {
    /// Computes the breakdown from any [`FleetIndex`] over records that
    /// carry a root locus, sorted by descending count.
    pub fn from_index<V: FleetIndex + ?Sized>(index: &V) -> Self {
        let total: usize = index.locus_counts().values().sum();
        let mut shares: Vec<LocusShare> = index
            .locus_counts()
            .iter()
            .map(|(&locus, &count)| LocusShare {
                locus,
                count,
                fraction: count as f64 / total.max(1) as f64,
            })
            .collect();
        shares.sort_by(|a, b| b.count.cmp(&a.count).then(a.locus.cmp(&b.locus)));
        LocusBreakdown { shares, total }
    }

    /// Rows sorted by descending count.
    pub fn shares(&self) -> &[LocusShare] {
        &self.shares
    }

    /// Software failures with a recorded locus.
    pub const fn total(&self) -> usize {
        self.total
    }

    /// Share of the given locus (zero when absent).
    pub fn fraction_of(&self, locus: SoftwareLocus) -> f64 {
        self.shares
            .iter()
            .find(|s| s.locus == locus)
            .map_or(0.0, |s| s.fraction)
    }

    /// Share of GPU-driver-related loci (the paper's ≈ 43% group, plus
    /// the CUDA/GPUDirect causes this crate classifies alongside it).
    pub fn gpu_driver_related_fraction(&self) -> f64 {
        self.shares
            .iter()
            .filter(|s| s.locus.is_gpu_driver_related())
            .map(|s| s.fraction)
            .sum()
    }

    /// Share of failures with no known cause (the paper's ≈ 20%).
    pub fn unknown_fraction(&self) -> f64 {
        self.fraction_of(SoftwareLocus::UnknownCause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failtypes::FailureLog;
    use crate::StreamView;
    use failsim::{Simulator, SystemModel};
    use failtypes::{T2Category, T3Category};

    fn t2() -> FailureLog {
        Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap()
    }

    fn t3() -> FailureLog {
        Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap()
    }

    #[test]
    fn fig2a_t2_anchors() {
        let b = CategoryBreakdown::from_index(&StreamView::new(&t2()));
        assert_eq!(b.total(), 897);
        assert!((b.fraction_of(Category::T2(T2Category::Gpu)) - 0.4437).abs() < 0.001);
        assert!((b.fraction_of(Category::T2(T2Category::Cpu)) - 0.0178).abs() < 0.001);
        assert!((b.fraction_of(Category::T2(T2Category::Ssd)) - 0.04).abs() < 0.002);
        // GPU failures vastly outnumber CPU failures.
        assert!(b.gpu_fraction() > 10.0 * b.cpu_fraction());
    }

    #[test]
    fn fig2b_t3_anchors() {
        let b = CategoryBreakdown::from_index(&StreamView::new(&t3()));
        assert_eq!(b.total(), 338);
        assert!((b.fraction_of(Category::T3(T3Category::Software)) - 0.5059).abs() < 0.001);
        assert!((b.fraction_of(Category::T3(T3Category::Gpu)) - 0.2781).abs() < 0.001);
        assert!((b.fraction_of(Category::T3(T3Category::Cpu)) - 0.0325).abs() < 0.001);
        // Top category flips from GPU (T2) to Software (T3).
        assert_eq!(b.shares()[0].category, Category::T3(T3Category::Software));
        assert_eq!(b.shares()[1].category, Category::T3(T3Category::Gpu));
    }

    #[test]
    fn shares_are_sorted_and_sum_to_one() {
        for log in [t2(), t3()] {
            let b = CategoryBreakdown::from_index(&StreamView::new(&log));
            let sum: f64 = b.shares().iter().map(|s| s.fraction).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for w in b.shares().windows(2) {
                assert!(w[0].count >= w[1].count);
            }
        }
    }

    #[test]
    fn absent_category_is_zero() {
        let b = CategoryBreakdown::from_index(&StreamView::new(&t3()));
        assert_eq!(b.fraction_of(Category::T2(T2Category::Fan)), 0.0);
        assert_eq!(b.count_of(Category::T2(T2Category::Fan)), 0);
    }

    #[test]
    fn class_breakdown_compares_across_generations() {
        use failtypes::ComponentClass;
        let b2 = ClassBreakdown::from_index(&StreamView::new(&t2()));
        let b3 = ClassBreakdown::from_index(&StreamView::new(&t3()));
        // GPU >> CPU on both systems, on the shared axis.
        assert!(b2.fraction_of(ComponentClass::Gpu) > 10.0 * b2.fraction_of(ComponentClass::Cpu));
        assert!(b3.fraction_of(ComponentClass::Gpu) > 5.0 * b3.fraction_of(ComponentClass::Cpu));
        // The software class grows across generations (driver + Software
        // + Lustre on T3 vs OtherSW/PBS/VM on T2).
        assert!(
            b3.fraction_of(ComponentClass::Software) > b2.fraction_of(ComponentClass::Software)
        );
        // Every failure lands in exactly one class.
        let sum2: usize = b2.counts().iter().map(|(_, n)| n).sum();
        assert_eq!(sum2, b2.total());
        assert_eq!(b2.counts().len(), ComponentClass::ALL.len());
        // Absent classes report zero.
        let empty = t3().filtered(|_| false);
        let be = ClassBreakdown::from_index(&StreamView::new(&empty));
        assert_eq!(be.count_of(ComponentClass::Gpu), 0);
        assert_eq!(be.fraction_of(ComponentClass::Gpu), 0.0);
    }

    #[test]
    fn domain_split_t3_is_software_majority() {
        let d = DomainBreakdown::from_index(&StreamView::new(&t3()));
        assert_eq!(d.total(), 338);
        // Software + GPUDriver + Lustre = 171 + 10 + 4 = 185.
        assert_eq!(d.software, 185);
        assert!(d.software_fraction() > 0.5);
    }

    #[test]
    fn domain_split_t2_is_hardware_majority() {
        let d = DomainBreakdown::from_index(&StreamView::new(&t2()));
        assert!(d.hardware > d.software);
        // Down is the only unknown-domain T2 category (22 events).
        assert_eq!(d.unknown, 22);
    }

    #[test]
    fn fig3_locus_anchors() {
        let b = LocusBreakdown::from_index(&StreamView::new(&t3()));
        assert_eq!(b.total(), 171);
        // ~43% GPU-driver problems, ~20% unknown.
        assert!((b.fraction_of(SoftwareLocus::GpuDriverProblem) - 0.43).abs() < 0.01);
        assert!((b.unknown_fraction() - 0.20).abs() < 0.01);
        // Top row is the GPU-driver bucket.
        assert_eq!(b.shares()[0].locus, SoftwareLocus::GpuDriverProblem);
        assert!(b.gpu_driver_related_fraction() >= b.fraction_of(SoftwareLocus::GpuDriverProblem));
    }

    #[test]
    fn locus_breakdown_of_t2_is_empty() {
        let b = LocusBreakdown::from_index(&StreamView::new(&t2()));
        assert_eq!(b.total(), 0);
        assert!(b.shares().is_empty());
        assert_eq!(b.unknown_fraction(), 0.0);
    }

    #[test]
    fn empty_log_breakdowns() {
        let log = t3().filtered(|_| false);
        let b = CategoryBreakdown::from_index(&StreamView::new(&log));
        assert_eq!(b.total(), 0);
        assert!(b.shares().is_empty());
        let d = DomainBreakdown::from_index(&StreamView::new(&log));
        assert_eq!(d.software_fraction(), 0.0);
    }
}
