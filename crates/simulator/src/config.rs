//! The reconfiguration space: core section widths, core configurations, and
//! LLC way allocations.
//!
//! A core is divided into a front-end (fetch, decode, rename, dispatch, ROB),
//! a back-end (issue queues, register files, functional units), and a
//! load/store section (LD/ST queues). Each section can be power-gated down to
//! six-, four-, or two-wide, mirroring Flicker-style datapath scaling with the
//! more aggressive superscalar design of the CuttleSys paper (§III). With
//! three sections of three widths there are 27 core configurations; combined
//! with the four permitted LLC way allocations (1/2, 1, 2, or 4 ways, §VIII-A2)
//! each job can run in one of 108 configurations.

use std::fmt;

/// Width of one core section: the number of active lanes.
///
/// Downsizing a section power-gates the associated array structures, reducing
/// both dynamic and leakage power at the cost of throughput through that
/// pipeline region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectionWidth {
    /// Two-wide: the narrowest, lowest-power setting.
    Two,
    /// Four-wide: the intermediate setting.
    Four,
    /// Six-wide: the widest, full-performance setting.
    Six,
}

impl SectionWidth {
    /// All widths in ascending order.
    pub const ALL: [SectionWidth; 3] = [SectionWidth::Two, SectionWidth::Four, SectionWidth::Six];

    /// Number of active lanes for this width.
    ///
    /// ```
    /// use simulator::SectionWidth;
    /// assert_eq!(SectionWidth::Four.lanes(), 4);
    /// ```
    pub const fn lanes(self) -> u8 {
        match self {
            SectionWidth::Two => 2,
            SectionWidth::Four => 4,
            SectionWidth::Six => 6,
        }
    }

    /// Dense index in `0..3` (Two = 0, Four = 1, Six = 2).
    pub const fn index(self) -> usize {
        match self {
            SectionWidth::Two => 0,
            SectionWidth::Four => 1,
            SectionWidth::Six => 2,
        }
    }

    /// Inverse of [`SectionWidth::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    pub fn from_index(index: usize) -> SectionWidth {
        Self::ALL[index]
    }

    /// Fraction of the full six-wide section that is active, in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        f64::from(self.lanes()) / 6.0
    }
}

impl fmt::Display for SectionWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// One of the three independently configurable pipeline regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Fetch, decode, rename, dispatch, and the reorder buffer.
    FrontEnd,
    /// Issue queues, register files, and functional units.
    BackEnd,
    /// Load and store queues.
    LoadStore,
}

impl Section {
    /// All sections in `{FE, BE, LS}` label order.
    pub const ALL: [Section; 3] = [Section::FrontEnd, Section::BackEnd, Section::LoadStore];
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Section::FrontEnd => "FE",
            Section::BackEnd => "BE",
            Section::LoadStore => "LS",
        };
        f.write_str(name)
    }
}

/// A complete core configuration `{FE, BE, LS}`.
///
/// Displayed using the paper's label convention, e.g. `{6,2,4}` for a
/// six-wide front-end, two-wide back-end, and four-wide load/store section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreConfig {
    /// Front-end width.
    pub fe: SectionWidth,
    /// Back-end width.
    pub be: SectionWidth,
    /// Load/store width.
    pub ls: SectionWidth,
}

/// Number of distinct core configurations (3 sections × 3 widths = 3³).
pub const NUM_CORE_CONFIGS: usize = 27;

/// Number of distinct LLC way allocations a job may receive.
pub const NUM_CACHE_ALLOCS: usize = 4;

/// Number of combined (core configuration, cache allocation) job
/// configurations. The paper's §VIII-A3 says 107; 27 × 4 = 108 and we treat
/// the difference as a typo.
pub const NUM_JOB_CONFIGS: usize = NUM_CORE_CONFIGS * NUM_CACHE_ALLOCS;

impl CoreConfig {
    /// Creates a configuration from explicit section widths.
    pub const fn new(fe: SectionWidth, be: SectionWidth, ls: SectionWidth) -> CoreConfig {
        CoreConfig { fe, be, ls }
    }

    /// The widest-issue configuration `{6,6,6}` used for the high profiling
    /// sample.
    pub const fn widest() -> CoreConfig {
        CoreConfig::new(SectionWidth::Six, SectionWidth::Six, SectionWidth::Six)
    }

    /// The narrowest-issue configuration `{2,2,2}` used for the low profiling
    /// sample.
    pub const fn narrowest() -> CoreConfig {
        CoreConfig::new(SectionWidth::Two, SectionWidth::Two, SectionWidth::Two)
    }

    /// Dense index in `0..27`.
    ///
    /// The encoding is FE-major: `fe * 9 + be * 3 + ls`.
    pub const fn index(self) -> usize {
        self.fe.index() * 9 + self.be.index() * 3 + self.ls.index()
    }

    /// Inverse of [`CoreConfig::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 27`.
    pub fn from_index(index: usize) -> CoreConfig {
        assert!(
            index < NUM_CORE_CONFIGS,
            "core config index {index} out of range"
        );
        CoreConfig {
            fe: SectionWidth::from_index(index / 9),
            be: SectionWidth::from_index((index / 3) % 3),
            ls: SectionWidth::from_index(index % 3),
        }
    }

    /// Iterates over all 27 configurations in index order.
    ///
    /// ```
    /// use simulator::CoreConfig;
    /// assert_eq!(CoreConfig::all().count(), 27);
    /// ```
    pub fn all() -> impl Iterator<Item = CoreConfig> {
        (0..NUM_CORE_CONFIGS).map(CoreConfig::from_index)
    }

    /// Width of the given section.
    pub fn width(self, section: Section) -> SectionWidth {
        match section {
            Section::FrontEnd => self.fe,
            Section::BackEnd => self.be,
            Section::LoadStore => self.ls,
        }
    }

    /// Total active lanes across sections; a crude "size" used for ordering
    /// heuristics.
    pub fn total_lanes(self) -> u32 {
        u32::from(self.fe.lanes()) + u32::from(self.be.lanes()) + u32::from(self.ls.lanes())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::widest()
    }
}

impl fmt::Display for CoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{},{}}}", self.fe, self.be, self.ls)
    }
}

/// LLC way allocation assigned to a single job.
///
/// Following §VIII-A2, allocations are limited to 1/2, 1, 2, or 4 ways; two
/// jobs with half-way allocations share a single physical way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CacheAlloc {
    /// Half of one way, shared with another half-way job.
    Half,
    /// One dedicated way.
    #[default]
    One,
    /// Two dedicated ways.
    Two,
    /// Four dedicated ways.
    Four,
}

impl CacheAlloc {
    /// All allocations in ascending order.
    pub const ALL: [CacheAlloc; 4] = [
        CacheAlloc::Half,
        CacheAlloc::One,
        CacheAlloc::Two,
        CacheAlloc::Four,
    ];

    /// The allocation in fractional ways.
    ///
    /// ```
    /// use simulator::CacheAlloc;
    /// assert_eq!(CacheAlloc::Half.ways(), 0.5);
    /// assert_eq!(CacheAlloc::Four.ways(), 4.0);
    /// ```
    pub fn ways(self) -> f64 {
        match self {
            CacheAlloc::Half => 0.5,
            CacheAlloc::One => 1.0,
            CacheAlloc::Two => 2.0,
            CacheAlloc::Four => 4.0,
        }
    }

    /// Dense index in `0..4`.
    pub const fn index(self) -> usize {
        match self {
            CacheAlloc::Half => 0,
            CacheAlloc::One => 1,
            CacheAlloc::Two => 2,
            CacheAlloc::Four => 3,
        }
    }

    /// Inverse of [`CacheAlloc::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> CacheAlloc {
        Self::ALL[index]
    }
}

impl fmt::Display for CacheAlloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheAlloc::Half => f.write_str("0.5w"),
            other => write!(f, "{}w", other.ways()),
        }
    }
}

/// A job's complete resource configuration: core widths plus LLC allocation.
///
/// This is the unit the collaborative-filtering matrices are indexed by (one
/// column per `JobConfig`) and the value DDS assigns to each decision
/// dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobConfig {
    /// Core section widths.
    pub core: CoreConfig,
    /// LLC way allocation.
    pub cache: CacheAlloc,
}

impl JobConfig {
    /// Creates a job configuration.
    pub const fn new(core: CoreConfig, cache: CacheAlloc) -> JobConfig {
        JobConfig { core, cache }
    }

    /// Dense index in `0..108`: `core.index() * 4 + cache.index()`.
    pub const fn index(self) -> usize {
        self.core.index() * NUM_CACHE_ALLOCS + self.cache.index()
    }

    /// Inverse of [`JobConfig::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 108`.
    pub fn from_index(index: usize) -> JobConfig {
        assert!(
            index < NUM_JOB_CONFIGS,
            "job config index {index} out of range"
        );
        JobConfig {
            core: CoreConfig::from_index(index / NUM_CACHE_ALLOCS),
            cache: CacheAlloc::from_index(index % NUM_CACHE_ALLOCS),
        }
    }

    /// Iterates over all 108 job configurations in index order.
    pub fn all() -> impl Iterator<Item = JobConfig> {
        (0..NUM_JOB_CONFIGS).map(JobConfig::from_index)
    }

    /// The widest core configuration with one LLC way: the high profiling
    /// sample of §IV-B.
    pub const fn profiling_high() -> JobConfig {
        JobConfig::new(CoreConfig::widest(), CacheAlloc::One)
    }

    /// The narrowest core configuration with one LLC way: the low profiling
    /// sample of §IV-B.
    pub const fn profiling_low() -> JobConfig {
        JobConfig::new(CoreConfig::narrowest(), CacheAlloc::One)
    }
}

impl fmt::Display for JobConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.core, self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_width_lanes_and_fraction() {
        assert_eq!(SectionWidth::Two.lanes(), 2);
        assert_eq!(SectionWidth::Four.lanes(), 4);
        assert_eq!(SectionWidth::Six.lanes(), 6);
        assert!((SectionWidth::Six.fraction() - 1.0).abs() < 1e-12);
        assert!((SectionWidth::Two.fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn section_width_index_roundtrip() {
        for w in SectionWidth::ALL {
            assert_eq!(SectionWidth::from_index(w.index()), w);
        }
    }

    #[test]
    fn core_config_index_roundtrip_all_27() {
        for i in 0..NUM_CORE_CONFIGS {
            let c = CoreConfig::from_index(i);
            assert_eq!(c.index(), i);
        }
        assert_eq!(CoreConfig::all().count(), 27);
    }

    #[test]
    fn core_config_index_is_fe_major() {
        let c = CoreConfig::new(SectionWidth::Six, SectionWidth::Two, SectionWidth::Four);
        assert_eq!(c.index(), 2 * 9 + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_config_from_index_panics_out_of_range() {
        let _ = CoreConfig::from_index(27);
    }

    #[test]
    fn core_config_display_matches_paper_labels() {
        assert_eq!(CoreConfig::widest().to_string(), "{6,6,6}");
        assert_eq!(
            CoreConfig::new(SectionWidth::Six, SectionWidth::Two, SectionWidth::Four).to_string(),
            "{6,2,4}"
        );
    }

    #[test]
    fn cache_alloc_roundtrip_and_ways() {
        for a in CacheAlloc::ALL {
            assert_eq!(CacheAlloc::from_index(a.index()), a);
        }
        let ways: Vec<f64> = CacheAlloc::ALL.iter().map(|a| a.ways()).collect();
        assert_eq!(ways, vec![0.5, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn job_config_index_roundtrip_all_108() {
        assert_eq!(NUM_JOB_CONFIGS, 108);
        for i in 0..NUM_JOB_CONFIGS {
            let jc = JobConfig::from_index(i);
            assert_eq!(jc.index(), i);
        }
    }

    #[test]
    fn profiling_samples_are_extremes_with_one_way() {
        assert_eq!(JobConfig::profiling_high().core, CoreConfig::widest());
        assert_eq!(JobConfig::profiling_low().core, CoreConfig::narrowest());
        assert_eq!(JobConfig::profiling_high().cache, CacheAlloc::One);
        assert_eq!(JobConfig::profiling_low().cache, CacheAlloc::One);
    }

    #[test]
    fn total_lanes_orders_extremes() {
        assert!(CoreConfig::widest().total_lanes() > CoreConfig::narrowest().total_lanes());
        assert_eq!(CoreConfig::widest().total_lanes(), 18);
        assert_eq!(CoreConfig::narrowest().total_lanes(), 6);
    }
}
