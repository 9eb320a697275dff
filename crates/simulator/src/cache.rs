//! Shared LLC way-partitioning and the off-chip bandwidth contention model.
//!
//! The LLC is partitioned among jobs at way granularity (Qureshi & Patt-style
//! UCP hardware is assumed available, as in §IV-A). Allocations are restricted
//! to the four [`crate::CacheAlloc`] sizes; two half-way jobs share one
//! physical way. Memory bandwidth is shared and unpartitioned: when aggregate
//! DRAM traffic approaches the channel capacity, every miss sees a queueing
//! delay factor, which is how co-runner interference leaks into performance
//! even with cache isolation.

use std::collections::BTreeMap;

use crate::chip::JobId;
use crate::config::CacheAlloc;
use crate::params::SystemParams;

/// A way-partitioning of the shared LLC across jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LlcPartition {
    // A BTreeMap so that `total_ways` (a float sum) and `iter` walk jobs in
    // JobId order: allocation ways happen to sum exactly in f64 today, but
    // the determinism must be structural, not an accident of the values.
    allocs: BTreeMap<JobId, CacheAlloc>,
}

impl LlcPartition {
    /// An empty partition.
    pub fn new() -> LlcPartition {
        LlcPartition::default()
    }

    /// Sets the allocation for a job, replacing any previous allocation.
    pub fn set(&mut self, job: JobId, alloc: CacheAlloc) {
        self.allocs.insert(job, alloc);
    }

    /// The allocation for a job, if it has one.
    pub fn get(&self, job: JobId) -> Option<CacheAlloc> {
        self.allocs.get(&job).copied()
    }

    /// The allocation for a job, defaulting to one way for jobs the
    /// controller has not placed yet.
    pub fn get_or_default(&self, job: JobId) -> CacheAlloc {
        self.get(job).unwrap_or(CacheAlloc::One)
    }

    /// Removes a job from the partition.
    pub fn remove(&mut self, job: JobId) -> Option<CacheAlloc> {
        self.allocs.remove(&job)
    }

    /// Total ways consumed; half-way jobs count fractionally because pairs of
    /// them share a physical way.
    pub fn total_ways(&self) -> f64 {
        self.allocs.values().map(|a| a.ways()).sum()
    }

    /// Physical ways needed: fractional halves round up because an unpaired
    /// half-way job still occupies a way.
    pub fn physical_ways(&self) -> u32 {
        self.total_ways().ceil() as u32
    }

    /// Whether the partition fits the chip's LLC (Eq. 3 of the paper).
    pub fn fits(&self, params: &SystemParams) -> bool {
        self.physical_ways() <= params.llc_ways
    }

    /// Number of jobs with an allocation.
    pub fn len(&self) -> usize {
        self.allocs.len()
    }

    /// Whether no job has an allocation.
    pub fn is_empty(&self) -> bool {
        self.allocs.is_empty()
    }

    /// Iterates over `(job, allocation)` pairs in ascending `JobId` order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, CacheAlloc)> + '_ {
        self.allocs.iter().map(|(j, a)| (*j, *a))
    }
}

impl FromIterator<(JobId, CacheAlloc)> for LlcPartition {
    fn from_iter<T: IntoIterator<Item = (JobId, CacheAlloc)>>(iter: T) -> Self {
        LlcPartition {
            allocs: iter.into_iter().collect(),
        }
    }
}

impl Extend<(JobId, CacheAlloc)> for LlcPartition {
    fn extend<T: IntoIterator<Item = (JobId, CacheAlloc)>>(&mut self, iter: T) {
        self.allocs.extend(iter);
    }
}

/// Off-chip bandwidth contention model.
///
/// Maps channel utilization to a multiplicative DRAM latency inflation: idle
/// channels add nothing, and the delay factor grows superlinearly as
/// utilization approaches saturation, capped so the fixed-point iteration in
/// the chip simulator stays stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Sustainable bandwidth in giga-accesses per second.
    pub capacity_gaps: f64,
    /// Utilization below which contention is negligible.
    pub knee: f64,
    /// Maximum latency inflation factor.
    pub max_factor: f64,
}

impl BandwidthModel {
    /// Builds the model from system parameters.
    pub fn new(params: &SystemParams) -> BandwidthModel {
        BandwidthModel {
            capacity_gaps: params.memory_bandwidth_gaps,
            knee: 0.55,
            max_factor: 6.0,
        }
    }

    /// Contention factor (extra fraction of DRAM latency) at the given total
    /// traffic.
    ///
    /// Returns 0 below the knee; above it, an M/D/1-flavoured
    /// `u²/(1−u)`-style growth, clamped to `max_factor`.
    pub fn contention(&self, traffic_gaps: f64) -> f64 {
        let util = (traffic_gaps / self.capacity_gaps).max(0.0);
        if util <= self.knee {
            return 0.0;
        }
        let excess = util - self.knee;
        let headroom = (1.0 - util).max(0.02);
        (excess * excess / headroom).min(self.max_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::JobId;

    #[test]
    fn partition_total_and_physical_ways() {
        let mut p = LlcPartition::new();
        p.set(JobId(0), CacheAlloc::Half);
        p.set(JobId(1), CacheAlloc::Half);
        p.set(JobId(2), CacheAlloc::Two);
        assert_eq!(p.total_ways(), 3.0);
        assert_eq!(p.physical_ways(), 3);
        p.set(JobId(3), CacheAlloc::Half);
        // An unpaired half rounds up to a full physical way.
        assert_eq!(p.physical_ways(), 4);
    }

    #[test]
    fn partition_fits_checks_associativity() {
        let params = SystemParams::default();
        let mut p = LlcPartition::new();
        for i in 0..8 {
            p.set(JobId(i), CacheAlloc::Four);
        }
        assert!(p.fits(&params));
        p.set(JobId(8), CacheAlloc::One);
        assert!(!p.fits(&params));
    }

    #[test]
    fn partition_set_replaces() {
        let mut p = LlcPartition::new();
        p.set(JobId(0), CacheAlloc::Four);
        p.set(JobId(0), CacheAlloc::One);
        assert_eq!(p.get(JobId(0)), Some(CacheAlloc::One));
        assert_eq!(p.len(), 1);
        assert_eq!(p.remove(JobId(0)), Some(CacheAlloc::One));
        assert!(p.is_empty());
    }

    #[test]
    fn contention_zero_below_knee_and_grows_above() {
        let m = BandwidthModel::new(&SystemParams::default());
        assert_eq!(m.contention(0.0), 0.0);
        assert_eq!(m.contention(m.capacity_gaps * 0.4), 0.0);
        let mid = m.contention(m.capacity_gaps * 0.8);
        let high = m.contention(m.capacity_gaps * 0.95);
        assert!(mid > 0.0);
        assert!(high > mid);
        assert!(m.contention(m.capacity_gaps * 5.0) <= m.max_factor);
    }

    #[test]
    fn partition_collects_from_iterator() {
        let p: LlcPartition = [(JobId(0), CacheAlloc::One), (JobId(1), CacheAlloc::Two)]
            .into_iter()
            .collect();
        assert_eq!(p.total_ways(), 3.0);
    }
}
