//! System and node models for the two Tsubame generations (Table I).
//!
//! The analyses need exactly the topology facts Table I and Section III
//! use: node count, CPUs and GPUs per node, aggregate component counts, and
//! the peak compute rate (for the performance-error-proportionality metric).

use std::fmt;

use crate::error::InvalidSpecError;

/// Identifies one of the two studied supercomputer generations.
///
/// ```
/// use failtypes::Generation;
/// assert_eq!(Generation::Tsubame2.to_string(), "Tsubame-2");
/// assert!(Generation::Tsubame3.spec().gpus_per_node() == 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Generation {
    /// Tsubame-2 (2010; NVIDIA K20X, three GPUs per node).
    Tsubame2,
    /// Tsubame-3 (2017; NVIDIA P100, four GPUs per node).
    Tsubame3,
}

impl Generation {
    /// Both generations, oldest first.
    pub const ALL: [Generation; 2] = [Generation::Tsubame2, Generation::Tsubame3];

    /// Returns the canonical system specification (Table I).
    pub fn spec(self) -> SystemSpec {
        match self {
            Generation::Tsubame2 => SystemSpec::tsubame2(),
            Generation::Tsubame3 => SystemSpec::tsubame3(),
        }
    }

    /// Returns the display name used in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            Generation::Tsubame2 => "Tsubame-2",
            Generation::Tsubame3 => "Tsubame-3",
        }
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A zero-based node index within a system.
///
/// ```
/// use failtypes::NodeId;
/// let n = NodeId::new(17);
/// assert_eq!(n.index(), 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a zero-based index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the zero-based index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

/// A zero-based GPU slot within a node (`GPU 0` .. `GPU 3` in Fig. 1).
///
/// Slot indices are meaningful: Fig. 5 shows that failure rates differ per
/// slot, which is why the analyses keep the slot rather than collapsing to a
/// per-node GPU count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpuSlot(u8);

impl GpuSlot {
    /// Creates a GPU slot from a zero-based index.
    pub const fn new(index: u8) -> Self {
        GpuSlot(index)
    }

    /// Returns the zero-based slot index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for GpuSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU {}", self.0)
    }
}

impl From<u8> for GpuSlot {
    fn from(index: u8) -> Self {
        GpuSlot(index)
    }
}

/// A zero-based rack index within a system.
///
/// Racks group consecutive node ids ([`SystemSpec::rack_of`]); the
/// rack-level failure distribution is one of the spatial analyses field
/// studies report (failures are not uniform across racks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack id from a zero-based index.
    pub const fn new(index: u32) -> Self {
        RackId(index)
    }

    /// Returns the zero-based rack index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

impl From<u32> for RackId {
    fn from(index: u32) -> Self {
        RackId(index)
    }
}

/// The full node and system specification of one generation (Table I).
///
/// Construct the two studied systems with [`SystemSpec::tsubame2`] /
/// [`SystemSpec::tsubame3`], or model a hypothetical system with
/// [`SystemSpec::builder`] (used by the what-if studies).
///
/// # Examples
///
/// ```
/// use failtypes::SystemSpec;
///
/// let t2 = SystemSpec::tsubame2();
/// let t3 = SystemSpec::tsubame3();
/// // Section III: 7040 vs 3240 CPU+GPU components.
/// assert_eq!(t2.component_count(), 7040);
/// assert_eq!(t3.component_count(), 3240);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    name: String,
    nodes: u32,
    cpus_per_node: u8,
    gpus_per_node: u8,
    cores_per_cpu: u8,
    cpu_model: String,
    gpu_model: String,
    memory_per_node_gb: u32,
    ssd_per_node_gb: u32,
    nodes_per_rack: u32,
    interconnect: String,
    rpeak_pflops: f64,
    power_mw: f64,
}

impl SystemSpec {
    /// Returns the Tsubame-2 specification exactly as Table I reports it.
    ///
    /// The node count (1408) comes from Section II.
    pub fn tsubame2() -> Self {
        SystemSpec {
            name: "Tsubame-2".to_owned(),
            nodes: 1408,
            cpus_per_node: 2,
            gpus_per_node: 3,
            cores_per_cpu: 6,
            cpu_model: "Intel Xeon X5670 (Westmere-EP, 2.93GHz)".to_owned(),
            gpu_model: "NVIDIA Tesla K20X (GK110)".to_owned(),
            memory_per_node_gb: 58,
            ssd_per_node_gb: 120,
            nodes_per_rack: 32,
            interconnect: "4X QDR InfiniBand - 2 ports".to_owned(),
            rpeak_pflops: 2.3,
            power_mw: 1.4,
        }
    }

    /// Returns the Tsubame-3 specification exactly as Table I reports it.
    ///
    /// The node count (540) follows from Section III's aggregate component
    /// count: 3240 CPUs+GPUs at 2 CPUs and 4 GPUs per node.
    pub fn tsubame3() -> Self {
        SystemSpec {
            name: "Tsubame-3".to_owned(),
            nodes: 540,
            cpus_per_node: 2,
            gpus_per_node: 4,
            cores_per_cpu: 14,
            cpu_model: "Intel Xeon E5-2680 V4 (Broadwell-EP, 2.4GHz)".to_owned(),
            gpu_model: "NVIDIA Tesla P100 (NVLink-Optimized)".to_owned(),
            memory_per_node_gb: 256,
            ssd_per_node_gb: 2048,
            nodes_per_rack: 36,
            interconnect: "Intel Omni-Path HFI 100Gbps - 4 ports".to_owned(),
            rpeak_pflops: 12.1,
            power_mw: 0.792,
        }
    }

    /// The spec a log header or a snapshot names: `generation`'s
    /// canonical spec when every given field agrees with it, so a log
    /// that names only its generation gets the identical spec rather
    /// than a lookalike; otherwise a custom spec of the given fields,
    /// with the canonical values filling those not given.
    ///
    /// ```
    /// use failtypes::{Generation, SystemSpec};
    /// let t3 = Generation::Tsubame3;
    /// assert_eq!(SystemSpec::rebuild(t3, None, None, None), Ok(t3.spec()));
    /// let custom = SystemSpec::rebuild(t3, Some("what-if"), Some(64), None).unwrap();
    /// assert_eq!((custom.nodes(), custom.gpus_per_node()), (64, 4));
    /// ```
    ///
    /// # Errors
    ///
    /// When the custom spec is not a valid one ([`SystemSpecBuilder::build`]).
    pub fn rebuild(
        generation: Generation,
        name: Option<&str>,
        nodes: Option<u32>,
        gpus: Option<u8>,
    ) -> Result<SystemSpec, InvalidSpecError> {
        let base = generation.spec();
        let same_shape = nodes.is_none_or(|n| n == base.nodes())
            && gpus.is_none_or(|g| g == base.gpus_per_node())
            && name.is_none_or(|n| n == base.name());
        if same_shape {
            return Ok(base);
        }
        SystemSpec::builder(name.unwrap_or(base.name()))
            .nodes(nodes.unwrap_or(base.nodes()))
            .gpus_per_node(gpus.unwrap_or(base.gpus_per_node()))
            .build()
    }

    /// Starts building a custom system specification.
    ///
    /// ```
    /// use failtypes::SystemSpec;
    ///
    /// let spec = SystemSpec::builder("Hypothetical-8GPU")
    ///     .nodes(256)
    ///     .gpus_per_node(8)
    ///     .rpeak_pflops(40.0)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.gpu_count(), 2048);
    /// ```
    pub fn builder(name: impl Into<String>) -> SystemSpecBuilder {
        SystemSpecBuilder::new(name)
    }

    /// Returns the system name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of compute nodes.
    pub const fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Returns the number of host CPUs per node.
    pub const fn cpus_per_node(&self) -> u8 {
        self.cpus_per_node
    }

    /// Returns the number of GPUs per node.
    pub const fn gpus_per_node(&self) -> u8 {
        self.gpus_per_node
    }

    /// Returns the number of cores per CPU.
    pub const fn cores_per_cpu(&self) -> u8 {
        self.cores_per_cpu
    }

    /// Returns the CPU model string.
    pub fn cpu_model(&self) -> &str {
        &self.cpu_model
    }

    /// Returns the GPU model string.
    pub fn gpu_model(&self) -> &str {
        &self.gpu_model
    }

    /// Returns the memory per node in GiB.
    pub const fn memory_per_node_gb(&self) -> u32 {
        self.memory_per_node_gb
    }

    /// Returns the local SSD capacity per node in GiB.
    pub const fn ssd_per_node_gb(&self) -> u32 {
        self.ssd_per_node_gb
    }

    /// Returns the number of nodes per rack (consecutive node ids share a
    /// rack).
    pub const fn nodes_per_rack(&self) -> u32 {
        self.nodes_per_rack
    }

    /// Returns the number of racks (the last rack may be partial).
    pub const fn racks(&self) -> u32 {
        self.nodes.div_ceil(self.nodes_per_rack)
    }

    /// Returns the rack housing a node.
    ///
    /// ```
    /// use failtypes::{NodeId, RackId, SystemSpec};
    /// let t2 = SystemSpec::tsubame2();
    /// assert_eq!(t2.rack_of(NodeId::new(0)), RackId::new(0));
    /// assert_eq!(t2.rack_of(NodeId::new(32)), RackId::new(1));
    /// ```
    pub const fn rack_of(&self, node: NodeId) -> RackId {
        RackId::new(node.index() / self.nodes_per_rack)
    }

    /// Iterates over the node ids housed in a rack.
    pub fn rack_nodes(&self, rack: RackId) -> impl Iterator<Item = NodeId> {
        let start = rack.index() * self.nodes_per_rack;
        let end = (start + self.nodes_per_rack).min(self.nodes);
        (start..end).map(NodeId::new)
    }

    /// Returns the interconnect description.
    pub fn interconnect(&self) -> &str {
        &self.interconnect
    }

    /// Returns the theoretical peak in PFLOP/s.
    pub const fn rpeak_pflops(&self) -> f64 {
        self.rpeak_pflops
    }

    /// Returns the power consumption in MW.
    pub const fn power_mw(&self) -> f64 {
        self.power_mw
    }

    /// Returns the total number of GPUs in the system.
    pub const fn gpu_count(&self) -> u32 {
        self.nodes * self.gpus_per_node as u32
    }

    /// Returns the total number of host CPUs in the system.
    pub const fn cpu_count(&self) -> u32 {
        self.nodes * self.cpus_per_node as u32
    }

    /// Returns the total number of CPU and GPU components.
    ///
    /// This is the size measure Section III uses when arguing that the
    /// Tsubame-3 MTBF gain is not merely a side effect of fewer components.
    pub const fn component_count(&self) -> u32 {
        self.gpu_count() + self.cpu_count()
    }

    /// Returns `true` when `node` addresses a node of this system.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.nodes
    }

    /// Returns `true` when `slot` addresses a GPU slot of this system's
    /// nodes.
    pub fn contains_slot(&self, slot: GpuSlot) -> bool {
        slot.index() < self.gpus_per_node
    }

    /// Iterates over all GPU slots of a node of this system.
    pub fn gpu_slots(&self) -> impl Iterator<Item = GpuSlot> {
        (0..self.gpus_per_node).map(GpuSlot::new)
    }
}

impl fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes x [{} CPU + {} GPU], {:.1} PFLOP/s)",
            self.name, self.nodes, self.cpus_per_node, self.gpus_per_node, self.rpeak_pflops
        )
    }
}

/// Builder for [`SystemSpec`], used to model hypothetical systems in the
/// what-if studies.
///
/// Unset fields default to the Tsubame-3 values, so a what-if study only
/// states what it varies.
#[derive(Debug, Clone)]
pub struct SystemSpecBuilder {
    spec: SystemSpec,
}

impl SystemSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        let mut spec = SystemSpec::tsubame3();
        spec.name = name.into();
        SystemSpecBuilder { spec }
    }

    /// Sets the number of compute nodes.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.spec.nodes = nodes;
        self
    }

    /// Sets the number of CPUs per node.
    pub fn cpus_per_node(mut self, cpus: u8) -> Self {
        self.spec.cpus_per_node = cpus;
        self
    }

    /// Sets the number of GPUs per node.
    pub fn gpus_per_node(mut self, gpus: u8) -> Self {
        self.spec.gpus_per_node = gpus;
        self
    }

    /// Sets the number of cores per CPU.
    pub fn cores_per_cpu(mut self, cores: u8) -> Self {
        self.spec.cores_per_cpu = cores;
        self
    }

    /// Sets the CPU model string.
    pub fn cpu_model(mut self, model: impl Into<String>) -> Self {
        self.spec.cpu_model = model.into();
        self
    }

    /// Sets the GPU model string.
    pub fn gpu_model(mut self, model: impl Into<String>) -> Self {
        self.spec.gpu_model = model.into();
        self
    }

    /// Sets the memory per node in GiB.
    pub fn memory_per_node_gb(mut self, gb: u32) -> Self {
        self.spec.memory_per_node_gb = gb;
        self
    }

    /// Sets the SSD capacity per node in GiB.
    pub fn ssd_per_node_gb(mut self, gb: u32) -> Self {
        self.spec.ssd_per_node_gb = gb;
        self
    }

    /// Sets the number of nodes per rack.
    pub fn nodes_per_rack(mut self, nodes: u32) -> Self {
        self.spec.nodes_per_rack = nodes;
        self
    }

    /// Sets the interconnect description.
    pub fn interconnect(mut self, text: impl Into<String>) -> Self {
        self.spec.interconnect = text.into();
        self
    }

    /// Sets the theoretical peak in PFLOP/s.
    pub fn rpeak_pflops(mut self, pflops: f64) -> Self {
        self.spec.rpeak_pflops = pflops;
        self
    }

    /// Sets the power consumption in MW.
    pub fn power_mw(mut self, mw: f64) -> Self {
        self.spec.power_mw = mw;
        self
    }

    /// Validates and returns the specification.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpecError`] when the system has zero nodes, zero
    /// GPUs per node, zero CPUs per node, or a non-positive peak rate.
    pub fn build(self) -> Result<SystemSpec, InvalidSpecError> {
        let s = &self.spec;
        if s.nodes == 0 {
            return Err(InvalidSpecError::new("system must have at least one node"));
        }
        if s.gpus_per_node == 0 {
            return Err(InvalidSpecError::new(
                "multi-GPU analyses need at least one GPU per node",
            ));
        }
        if s.cpus_per_node == 0 {
            return Err(InvalidSpecError::new("node must have at least one CPU"));
        }
        if s.rpeak_pflops <= 0.0 || s.rpeak_pflops.is_nan() {
            return Err(InvalidSpecError::new("Rpeak must be positive"));
        }
        if s.nodes_per_rack == 0 {
            return Err(InvalidSpecError::new("rack must hold at least one node"));
        }
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let t2 = SystemSpec::tsubame2();
        assert_eq!(t2.nodes(), 1408);
        assert_eq!(t2.cpus_per_node(), 2);
        assert_eq!(t2.gpus_per_node(), 3);
        assert_eq!(t2.cores_per_cpu(), 6);
        assert_eq!(t2.memory_per_node_gb(), 58);
        assert_eq!(t2.ssd_per_node_gb(), 120);
        assert!((t2.rpeak_pflops() - 2.3).abs() < 1e-12);
        assert!((t2.power_mw() - 1.4).abs() < 1e-12);

        let t3 = SystemSpec::tsubame3();
        assert_eq!(t3.nodes(), 540);
        assert_eq!(t3.gpus_per_node(), 4);
        assert_eq!(t3.cores_per_cpu(), 14);
        assert_eq!(t3.memory_per_node_gb(), 256);
        assert_eq!(t3.ssd_per_node_gb(), 2048);
        assert!((t3.rpeak_pflops() - 12.1).abs() < 1e-12);
    }

    #[test]
    fn component_counts_match_section3() {
        assert_eq!(SystemSpec::tsubame2().component_count(), 7040);
        assert_eq!(SystemSpec::tsubame3().component_count(), 3240);
        // GPU count decreased ~2x, CPU count ~2.6x — the paper's context for
        // the per-component MTBF improvements.
        let t2 = SystemSpec::tsubame2();
        let t3 = SystemSpec::tsubame3();
        assert_eq!(t2.gpu_count(), 4224);
        assert_eq!(t3.gpu_count(), 2160);
        assert_eq!(t2.cpu_count(), 2816);
        assert_eq!(t3.cpu_count(), 1080);
    }

    #[test]
    fn node_and_slot_membership() {
        let t3 = SystemSpec::tsubame3();
        assert!(t3.contains_node(NodeId::new(0)));
        assert!(t3.contains_node(NodeId::new(539)));
        assert!(!t3.contains_node(NodeId::new(540)));
        assert!(t3.contains_slot(GpuSlot::new(3)));
        assert!(!t3.contains_slot(GpuSlot::new(4)));
        let slots: Vec<_> = t3.gpu_slots().collect();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[3], GpuSlot::new(3));
    }

    #[test]
    fn generation_round_trips_to_spec() {
        assert_eq!(Generation::Tsubame2.spec(), SystemSpec::tsubame2());
        assert_eq!(Generation::Tsubame3.spec(), SystemSpec::tsubame3());
        assert_eq!(Generation::ALL.len(), 2);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let spec = SystemSpec::builder("Test")
            .nodes(10)
            .gpus_per_node(8)
            .cpus_per_node(1)
            .rpeak_pflops(1.0)
            .build()
            .unwrap();
        assert_eq!(spec.name(), "Test");
        assert_eq!(spec.component_count(), 90);
        // Unset fields default to Tsubame-3 values.
        assert_eq!(spec.cores_per_cpu(), 14);
    }

    #[test]
    fn builder_rejects_degenerate_systems() {
        assert!(SystemSpec::builder("x").nodes(0).build().is_err());
        assert!(SystemSpec::builder("x").gpus_per_node(0).build().is_err());
        assert!(SystemSpec::builder("x").cpus_per_node(0).build().is_err());
        assert!(SystemSpec::builder("x").rpeak_pflops(0.0).build().is_err());
        assert!(SystemSpec::builder("x").rpeak_pflops(-2.0).build().is_err());
    }

    #[test]
    fn builder_string_setters() {
        let spec = SystemSpec::builder("Custom")
            .cpu_model("TestCPU")
            .gpu_model("TestGPU")
            .interconnect("TestNet")
            .memory_per_node_gb(1)
            .ssd_per_node_gb(2)
            .cores_per_cpu(3)
            .power_mw(0.5)
            .build()
            .unwrap();
        assert_eq!(spec.cpu_model(), "TestCPU");
        assert_eq!(spec.gpu_model(), "TestGPU");
        assert_eq!(spec.interconnect(), "TestNet");
        assert_eq!(spec.memory_per_node_gb(), 1);
        assert_eq!(spec.ssd_per_node_gb(), 2);
        assert_eq!(spec.cores_per_cpu(), 3);
        assert!((spec.power_mw() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rack_topology() {
        let t2 = SystemSpec::tsubame2();
        assert_eq!(t2.nodes_per_rack(), 32);
        assert_eq!(t2.racks(), 44); // 1408 / 32
        assert_eq!(t2.rack_of(NodeId::new(31)), RackId::new(0));
        assert_eq!(t2.rack_of(NodeId::new(1407)), RackId::new(43));
        let t3 = SystemSpec::tsubame3();
        assert_eq!(t3.nodes_per_rack(), 36);
        assert_eq!(t3.racks(), 15); // 540 / 36
        // Rack node enumeration covers the rack exactly.
        let nodes: Vec<NodeId> = t3.rack_nodes(RackId::new(14)).collect();
        assert_eq!(nodes.len(), 36);
        assert_eq!(nodes[0], NodeId::new(504));
        // Partial final rack.
        let spec = SystemSpec::builder("partial")
            .nodes(10)
            .nodes_per_rack(4)
            .build()
            .unwrap();
        assert_eq!(spec.racks(), 3);
        assert_eq!(spec.rack_nodes(RackId::new(2)).count(), 2);
        assert!(SystemSpec::builder("x").nodes_per_rack(0).build().is_err());
        assert_eq!(RackId::from(3u32), RackId::new(3));
        assert_eq!(RackId::new(5).to_string(), "rack5");
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(7).to_string(), "node7");
        assert_eq!(GpuSlot::new(2).to_string(), "GPU 2");
        let text = SystemSpec::tsubame2().to_string();
        assert!(text.contains("Tsubame-2"));
        assert!(text.contains("1408"));
    }

    #[test]
    fn id_conversions() {
        assert_eq!(NodeId::from(5u32), NodeId::new(5));
        assert_eq!(GpuSlot::from(2u8), GpuSlot::new(2));
        assert_eq!(NodeId::new(9).index(), 9);
        assert_eq!(GpuSlot::new(1).index(), 1);
    }
}
