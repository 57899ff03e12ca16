//! Root loci of Tsubame-3 software failures (Fig. 3 of the paper).
//!
//! The paper breaks the 171 Tsubame-3 `Software`-category failures down into
//! reported root loci and plots the top 16 causes. About 43% are GPU-driver
//! related and about 20% have no known cause. This module models that
//! taxonomy.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseCategoryError;

/// The root locus of a Tsubame-3 software failure (Fig. 3).
///
/// # Examples
///
/// ```
/// use failtypes::SoftwareLocus;
///
/// assert!(SoftwareLocus::GpuDriverProblem.is_gpu_driver_related());
/// assert!(SoftwareLocus::CudaVersionMismatch.is_gpu_driver_related());
/// assert!(!SoftwareLocus::KernelPanic.is_gpu_driver_related());
/// assert_eq!(SoftwareLocus::ALL.len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SoftwareLocus {
    /// GPU driver update/upgrade problems and software/driver mismatches.
    GpuDriverProblem,
    /// Application run with an incorrect CUDA version.
    CudaVersionMismatch,
    /// Omni-Path driver interacting badly with the GPU software stack.
    OmniPathDriver,
    /// GPUDirect problems (NVIDIA supported InfiniBand before Omni-Path).
    GpuDirect,
    /// MPI library faults.
    MpiLibrary,
    /// Parallel-filesystem client faults other than Lustre server bugs.
    FilesystemClient,
    /// Job scheduler / resource manager faults.
    JobScheduler,
    /// Operating-system service faults.
    OsService,
    /// Node health-check scripts mis-reporting.
    NodeHealthCheck,
    /// Container runtime faults.
    ContainerRuntime,
    /// Python / ML framework stack faults.
    MlFrameworkStack,
    /// Firmware version mismatches.
    FirmwareMismatch,
    /// Kernel panics (relatively low on Tsubame-3 per the paper).
    KernelPanic,
    /// Lustre client bugs (relatively low on Tsubame-3 per the paper).
    LustreClientBug,
    /// Authentication / LDAP faults.
    AuthLdap,
    /// No known cause; could not be classified or reproduced.
    UnknownCause,
}

impl SoftwareLocus {
    /// All sixteen root loci, matching the number of causes Fig. 3 plots.
    pub const ALL: &'static [SoftwareLocus] = &[
        SoftwareLocus::GpuDriverProblem,
        SoftwareLocus::CudaVersionMismatch,
        SoftwareLocus::OmniPathDriver,
        SoftwareLocus::GpuDirect,
        SoftwareLocus::MpiLibrary,
        SoftwareLocus::FilesystemClient,
        SoftwareLocus::JobScheduler,
        SoftwareLocus::OsService,
        SoftwareLocus::NodeHealthCheck,
        SoftwareLocus::ContainerRuntime,
        SoftwareLocus::MlFrameworkStack,
        SoftwareLocus::FirmwareMismatch,
        SoftwareLocus::KernelPanic,
        SoftwareLocus::LustreClientBug,
        SoftwareLocus::AuthLdap,
        SoftwareLocus::UnknownCause,
    ];

    /// Returns the short label used in serialized logs and reports.
    pub const fn label(self) -> &'static str {
        match self {
            SoftwareLocus::GpuDriverProblem => "GPUDriverProblem",
            SoftwareLocus::CudaVersionMismatch => "CUDAVersionMismatch",
            SoftwareLocus::OmniPathDriver => "OmniPathDriver",
            SoftwareLocus::GpuDirect => "GPUDirect",
            SoftwareLocus::MpiLibrary => "MPILibrary",
            SoftwareLocus::FilesystemClient => "FilesystemClient",
            SoftwareLocus::JobScheduler => "JobScheduler",
            SoftwareLocus::OsService => "OSService",
            SoftwareLocus::NodeHealthCheck => "NodeHealthCheck",
            SoftwareLocus::ContainerRuntime => "ContainerRuntime",
            SoftwareLocus::MlFrameworkStack => "MLFrameworkStack",
            SoftwareLocus::FirmwareMismatch => "FirmwareMismatch",
            SoftwareLocus::KernelPanic => "KernelPanic",
            SoftwareLocus::LustreClientBug => "LustreClientBug",
            SoftwareLocus::AuthLdap => "AuthLDAP",
            SoftwareLocus::UnknownCause => "UnknownCause",
        }
    }

    /// Returns a longer human-readable description for reports.
    pub const fn description(self) -> &'static str {
        match self {
            SoftwareLocus::GpuDriverProblem => "GPU driver-related problem",
            SoftwareLocus::CudaVersionMismatch => "incorrect CUDA version",
            SoftwareLocus::OmniPathDriver => "Omni-Path driver issue",
            SoftwareLocus::GpuDirect => "GPUDirect issue",
            SoftwareLocus::MpiLibrary => "MPI library fault",
            SoftwareLocus::FilesystemClient => "filesystem client fault",
            SoftwareLocus::JobScheduler => "job scheduler fault",
            SoftwareLocus::OsService => "operating-system service fault",
            SoftwareLocus::NodeHealthCheck => "node health-check fault",
            SoftwareLocus::ContainerRuntime => "container runtime fault",
            SoftwareLocus::MlFrameworkStack => "Python/ML framework fault",
            SoftwareLocus::FirmwareMismatch => "firmware version mismatch",
            SoftwareLocus::KernelPanic => "kernel panic",
            SoftwareLocus::LustreClientBug => "Lustre client bug",
            SoftwareLocus::AuthLdap => "authentication/LDAP fault",
            SoftwareLocus::UnknownCause => "no known cause",
        }
    }

    /// Returns `true` when the locus is GPU-driver related.
    ///
    /// The paper attributes roughly 43% of Tsubame-3 software failures to
    /// this group (driver updates/upgrades, software-driver mismatch, wrong
    /// CUDA versions, and the GPUDirect/Omni-Path interplay).
    pub const fn is_gpu_driver_related(self) -> bool {
        matches!(
            self,
            SoftwareLocus::GpuDriverProblem
                | SoftwareLocus::CudaVersionMismatch
                | SoftwareLocus::GpuDirect
        )
    }

    /// Returns `true` when the root cause could not be determined.
    ///
    /// Roughly 20% of the paper's software failures fall here, which it
    /// flags as an increasing operational problem.
    pub const fn is_unknown(self) -> bool {
        matches!(self, SoftwareLocus::UnknownCause)
    }
}

impl fmt::Display for SoftwareLocus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SoftwareLocus {
    type Err = ParseCategoryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SoftwareLocus::ALL
            .iter()
            .copied()
            .find(|l| l.label() == s)
            .ok_or_else(|| ParseCategoryError::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_loci_like_fig3() {
        assert_eq!(SoftwareLocus::ALL.len(), 16);
    }

    #[test]
    fn labels_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for &l in SoftwareLocus::ALL {
            assert!(seen.insert(l.label()));
            assert_eq!(l.label().parse::<SoftwareLocus>().unwrap(), l);
            assert!(!l.description().is_empty());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("definitely-not-a-locus".parse::<SoftwareLocus>().is_err());
    }

    #[test]
    fn driver_related_group() {
        let related: Vec<_> = SoftwareLocus::ALL
            .iter()
            .filter(|l| l.is_gpu_driver_related())
            .collect();
        assert_eq!(related.len(), 3);
        assert!(!SoftwareLocus::UnknownCause.is_gpu_driver_related());
        assert!(SoftwareLocus::UnknownCause.is_unknown());
        assert!(!SoftwareLocus::KernelPanic.is_unknown());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SoftwareLocus::OsService.to_string(), "OSService");
    }
}
