//! Failure category taxonomies (Table II of the paper).
//!
//! Tsubame-2 and Tsubame-3 use different category vocabularies, reflecting
//! different logging practices across the two generations. Both vocabularies
//! are modeled exactly as reported, and each category maps onto a shared
//! [`ComponentClass`] and [`Domain`] so that cross-system analyses (for
//! example the GPU/CPU MTBF comparison of RQ4) can operate uniformly.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseCategoryError;
use crate::system::Generation;

/// The broad hardware/software split used throughout the paper.
///
/// ```
/// use failtypes::{Domain, T3Category};
/// assert_eq!(T3Category::GpuDriver.domain(), Domain::Software);
/// assert_eq!(T3Category::Gpu.domain(), Domain::Hardware);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Failures whose root locus is a physical component.
    Hardware,
    /// Failures whose root locus is system or application software.
    Software,
    /// Failures the operators could not attribute to either domain.
    Unknown,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Domain::Hardware => "hardware",
            Domain::Software => "software",
            Domain::Unknown => "unknown",
        })
    }
}

/// A system-agnostic component class.
///
/// Each per-system category maps onto exactly one class; analyses that
/// compare the two generations (GPU MTBF, CPU MTBF, ...) group by this
/// instead of by the raw category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentClass {
    /// GPU accelerators (the paper's central component).
    Gpu,
    /// Host CPUs.
    Cpu,
    /// DRAM / main memory.
    Memory,
    /// Disks, SSDs, and parallel-filesystem hardware.
    Storage,
    /// InfiniBand, Omni-Path, Ethernet, and link-level errors.
    Network,
    /// Power supplies and power boards.
    Power,
    /// System boards, motherboards, and intra-node cabling.
    Board,
    /// Fans and other cooling hardware.
    Cooling,
    /// System software, drivers, schedulers, and services.
    Software,
    /// Whole-system or rack-level events that cannot be localized further.
    System,
    /// Everything else.
    Other,
}

impl ComponentClass {
    /// All classes, in a stable display order.
    pub const ALL: [ComponentClass; 11] = [
        ComponentClass::Gpu,
        ComponentClass::Cpu,
        ComponentClass::Memory,
        ComponentClass::Storage,
        ComponentClass::Network,
        ComponentClass::Power,
        ComponentClass::Board,
        ComponentClass::Cooling,
        ComponentClass::Software,
        ComponentClass::System,
        ComponentClass::Other,
    ];

    /// Returns a short human-readable label.
    pub const fn name(self) -> &'static str {
        match self {
            ComponentClass::Gpu => "GPU",
            ComponentClass::Cpu => "CPU",
            ComponentClass::Memory => "Memory",
            ComponentClass::Storage => "Storage",
            ComponentClass::Network => "Network",
            ComponentClass::Power => "Power",
            ComponentClass::Board => "Board",
            ComponentClass::Cooling => "Cooling",
            ComponentClass::Software => "Software",
            ComponentClass::System => "System",
            ComponentClass::Other => "Other",
        }
    }
}

impl fmt::Display for ComponentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! categories {
    (
        $(#[$meta:meta])*
        $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident => ($label:literal, $class:expr, $domain:expr)
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// All categories of this system, in the order Table II lists
            /// them.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )+ ];

            /// Returns the label used in the failure logs.
            pub const fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )+
                }
            }

            /// Returns the system-agnostic component class this category
            /// maps onto.
            pub const fn component_class(self) -> ComponentClass {
                match self {
                    $( $name::$variant => $class, )+
                }
            }

            /// Returns whether this is a hardware or a software category.
            pub const fn domain(self) -> Domain {
                match self {
                    $( $name::$variant => $domain, )+
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }

        impl FromStr for $name {
            type Err = ParseCategoryError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $( $label => Ok($name::$variant), )+
                    _ => Err(ParseCategoryError::new(s)),
                }
            }
        }
    };
}

categories! {
    /// Failure categories reported in the Tsubame-2 log (Table II).
    ///
    /// ```
    /// use failtypes::{ComponentClass, T2Category};
    /// assert_eq!(T2Category::ALL.len(), 17);
    /// assert_eq!("GPU".parse::<T2Category>().unwrap(), T2Category::Gpu);
    /// assert_eq!(T2Category::Ssd.component_class(), ComponentClass::Storage);
    /// ```
    T2Category {
        /// Node failed to boot.
        Boot => ("Boot", ComponentClass::System, Domain::Software),
        /// Host CPU failure.
        Cpu => ("CPU", ComponentClass::Cpu, Domain::Hardware),
        /// Spinning-disk failure.
        Disk => ("Disk", ComponentClass::Storage, Domain::Hardware),
        /// Node found down without a more specific diagnosis.
        Down => ("Down", ComponentClass::System, Domain::Unknown),
        /// Cooling-fan failure.
        Fan => ("FAN", ComponentClass::Cooling, Domain::Hardware),
        /// GPU accelerator failure.
        Gpu => ("GPU", ComponentClass::Gpu, Domain::Hardware),
        /// InfiniBand adapter or link failure.
        Infiniband => ("IB", ComponentClass::Network, Domain::Hardware),
        /// DRAM failure.
        Memory => ("Memory", ComponentClass::Memory, Domain::Hardware),
        /// Ethernet / management-network failure.
        Network => ("Network", ComponentClass::Network, Domain::Hardware),
        /// Other hardware failure.
        OtherHw => ("OtherHW", ComponentClass::Other, Domain::Hardware),
        /// Other software failure.
        OtherSw => ("OtherSW", ComponentClass::Software, Domain::Software),
        /// Portable Batch System (job scheduler) failure.
        Pbs => ("PBS", ComponentClass::Software, Domain::Software),
        /// Power supply unit failure.
        Psu => ("PSU", ComponentClass::Power, Domain::Hardware),
        /// Rack-level failure.
        Rack => ("Rack", ComponentClass::System, Domain::Hardware),
        /// SSD failure.
        Ssd => ("SSD", ComponentClass::Storage, Domain::Hardware),
        /// System-board failure.
        SystemBoard => ("System Board", ComponentClass::Board, Domain::Hardware),
        /// Virtual-machine subsystem failure.
        Vm => ("VM", ComponentClass::Software, Domain::Software),
    }
}

categories! {
    /// Failure categories reported in the Tsubame-3 log (Table II).
    ///
    /// ```
    /// use failtypes::{ComponentClass, T3Category};
    /// assert_eq!(T3Category::ALL.len(), 16);
    /// assert_eq!(
    ///     "GPUDriver".parse::<T3Category>().unwrap(),
    ///     T3Category::GpuDriver,
    /// );
    /// assert_eq!(T3Category::OmniPath.component_class(), ComponentClass::Network);
    /// ```
    T3Category {
        /// Host CPU failure.
        Cpu => ("CPU", ComponentClass::Cpu, Domain::Hardware),
        /// Cyclic-redundancy-check (link-level) error.
        Crc => ("CRC", ComponentClass::Network, Domain::Hardware),
        /// Disk failure.
        Disk => ("Disk", ComponentClass::Storage, Domain::Hardware),
        /// GPU accelerator failure.
        Gpu => ("GPU", ComponentClass::Gpu, Domain::Hardware),
        /// GPU driver failure (reported separately from GPU hardware).
        GpuDriver => ("GPUDriver", ComponentClass::Software, Domain::Software),
        /// IP motherboard failure.
        IpMotherboard => ("IP", ComponentClass::Board, Domain::Hardware),
        /// LED front-panel failure.
        LedFrontPanel => ("Led Front Panel", ComponentClass::Other, Domain::Hardware),
        /// Lustre parallel-filesystem failure.
        Lustre => ("Lustre", ComponentClass::Software, Domain::Software),
        /// DRAM failure.
        Memory => ("Memory", ComponentClass::Memory, Domain::Hardware),
        /// Omni-Path fabric failure.
        OmniPath => ("Omni-Path", ComponentClass::Network, Domain::Hardware),
        /// Power-board failure.
        PowerBoard => ("Power-Board", ComponentClass::Power, Domain::Hardware),
        /// Ribbon-cable failure.
        RibbonCable => ("Ribbon Cable", ComponentClass::Board, Domain::Hardware),
        /// Software failure (broken down further in Fig. 3).
        Software => ("Software", ComponentClass::Software, Domain::Software),
        /// SXM2 cable failure.
        Sxm2Cable => ("SXM2_Cable", ComponentClass::Board, Domain::Hardware),
        /// SXM2 board failure.
        Sxm2Board => ("SXM2-Board", ComponentClass::Board, Domain::Hardware),
        /// Failure with unknown cause.
        Unknown => ("Unknown", ComponentClass::Other, Domain::Unknown),
    }
}

/// A failure category from either system.
///
/// [`crate::FailureRecord`] stores this unified form so that a single record
/// type serves both logs; analyses that need the per-system vocabulary match
/// on the variants.
///
/// # Examples
///
/// ```
/// use failtypes::{Category, ComponentClass, T2Category, T3Category};
///
/// let a = Category::from(T2Category::Gpu);
/// let b = Category::from(T3Category::Gpu);
/// assert_eq!(a.component_class(), b.component_class());
/// assert_eq!(a.component_class(), ComponentClass::Gpu);
/// assert_ne!(a, b); // same class, different systems
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// A Tsubame-2 category.
    T2(T2Category),
    /// A Tsubame-3 category.
    T3(T3Category),
}

impl Category {
    /// The category `label` names in `generation`'s vocabulary: the one
    /// reading of a category label, in log rows and snapshot palettes.
    ///
    /// ```
    /// use failtypes::{Category, Generation, T3Category};
    /// let gpu = Category::from_label(Generation::Tsubame3, "GPU").unwrap();
    /// assert_eq!(gpu, Category::T3(T3Category::Gpu));
    /// assert!(Category::from_label(Generation::Tsubame3, "Toaster").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// When the generation has no category of that label.
    pub fn from_label(generation: Generation, label: &str) -> Result<Self, ParseCategoryError> {
        match generation {
            Generation::Tsubame2 => label.parse().map(Category::T2),
            Generation::Tsubame3 => label.parse().map(Category::T3),
        }
    }

    /// Returns the label used in the failure logs.
    pub const fn label(self) -> &'static str {
        match self {
            Category::T2(c) => c.label(),
            Category::T3(c) => c.label(),
        }
    }

    /// Returns the system-agnostic component class.
    pub const fn component_class(self) -> ComponentClass {
        match self {
            Category::T2(c) => c.component_class(),
            Category::T3(c) => c.component_class(),
        }
    }

    /// Returns the hardware/software domain.
    pub const fn domain(self) -> Domain {
        match self {
            Category::T2(c) => c.domain(),
            Category::T3(c) => c.domain(),
        }
    }

    /// Returns `true` when the category denotes a GPU hardware failure.
    pub fn is_gpu(self) -> bool {
        self.component_class() == ComponentClass::Gpu
    }

    /// Returns `true` when the category denotes a host CPU failure.
    pub fn is_cpu(self) -> bool {
        self.component_class() == ComponentClass::Cpu
    }

    /// Returns `true` for software-domain categories.
    pub fn is_software(self) -> bool {
        self.domain() == Domain::Software
    }
}

impl From<T2Category> for Category {
    fn from(c: T2Category) -> Self {
        Category::T2(c)
    }
}

impl From<T3Category> for Category {
    fn from(c: T3Category) -> Self {
        Category::T3(c)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts() {
        // Table II lists 17 Tsubame-2 and 16 Tsubame-3 categories.
        assert_eq!(T2Category::ALL.len(), 17);
        assert_eq!(T3Category::ALL.len(), 16);
    }

    #[test]
    fn labels_are_unique_and_parse_back() {
        let mut seen = std::collections::HashSet::new();
        for &c in T2Category::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
            assert_eq!(c.label().parse::<T2Category>().unwrap(), c);
        }
        seen.clear();
        for &c in T3Category::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
            assert_eq!(c.label().parse::<T3Category>().unwrap(), c);
        }
    }

    #[test]
    fn parse_rejects_unknown_labels() {
        assert!("NotACategory".parse::<T2Category>().is_err());
        assert!("GPUDriver".parse::<T2Category>().is_err());
        assert!("FAN".parse::<T3Category>().is_err());
        let err = "Nope".parse::<T3Category>().unwrap_err();
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn gpu_and_cpu_classification() {
        assert!(Category::from(T2Category::Gpu).is_gpu());
        assert!(Category::from(T3Category::Gpu).is_gpu());
        assert!(!Category::from(T3Category::GpuDriver).is_gpu());
        assert!(Category::from(T2Category::Cpu).is_cpu());
        assert!(Category::from(T3Category::Cpu).is_cpu());
    }

    #[test]
    fn software_domain_membership() {
        // The paper separates GPU *hardware* failures from GPU-driver
        // failures, which belong to the software domain.
        assert!(Category::from(T3Category::Software).is_software());
        assert!(Category::from(T3Category::GpuDriver).is_software());
        assert!(Category::from(T3Category::Lustre).is_software());
        assert!(Category::from(T2Category::Pbs).is_software());
        assert!(!Category::from(T2Category::Psu).is_software());
    }

    #[test]
    fn domains_cover_all_variants() {
        for &c in T2Category::ALL {
            // Every category maps somewhere; exercising the mapping keeps it
            // exhaustive under future edits.
            let _ = (c.domain(), c.component_class());
        }
        for &c in T3Category::ALL {
            let _ = (c.domain(), c.component_class());
        }
    }

    #[test]
    fn component_class_display_order() {
        assert_eq!(ComponentClass::ALL.len(), 11);
        assert_eq!(ComponentClass::Gpu.to_string(), "GPU");
        assert_eq!(ComponentClass::Software.to_string(), "Software");
        assert_eq!(Domain::Hardware.to_string(), "hardware");
        assert_eq!(Domain::Software.to_string(), "software");
        assert_eq!(Domain::Unknown.to_string(), "unknown");
    }

    #[test]
    fn category_display_matches_label() {
        assert_eq!(Category::from(T2Category::SystemBoard).to_string(), "System Board");
        assert_eq!(Category::from(T3Category::Sxm2Board).to_string(), "SXM2-Board");
    }
}
