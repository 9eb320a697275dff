//! Synthetic SPEC CPU2006 batch application catalog.
//!
//! The paper's batch jobs are multiprogrammed mixes drawn from 28 SPEC
//! CPU2006 benchmarks (§VII-A). We cannot run the binaries, so each benchmark
//! gets a hand-assigned [`AppProfile`] reflecting its published
//! characterization (memory-bound vs. compute-bound, branchy front-ends,
//! cache working sets). What matters for reproducing the paper is not each
//! profile's absolute accuracy but that the catalog spans a *diverse,
//! correlated* space: collaborative filtering works precisely because unseen
//! applications resemble linear mixtures of previously seen ones.
//!
//! As in the paper, 16 benchmarks form the offline training set for the
//! reconstruction algorithm and the remaining 12 are the testing set from
//! which multiprogrammed mixes are drawn, so training and testing never
//! overlap.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simulator::AppProfile;

/// A named synthetic SPEC CPU2006 benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecBenchmark {
    /// The SPEC benchmark name, e.g. `"mcf"`.
    pub name: &'static str,
    /// Its microarchitectural profile.
    pub profile: AppProfile,
}

/// A multiprogrammed mix: one benchmark per batch core.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMix {
    /// Seed the mix was drawn with (for reproducibility in reports).
    pub seed: u64,
    /// The benchmarks in core order.
    pub apps: Vec<SpecBenchmark>,
}

impl SpecMix {
    /// Profiles of the mix in core order.
    pub fn profiles(&self) -> Vec<AppProfile> {
        self.apps.iter().map(|a| a.profile).collect()
    }

    /// Names of the mix in core order.
    pub fn names(&self) -> Vec<&'static str> {
        self.apps.iter().map(|a| a.name).collect()
    }
}

#[allow(clippy::too_many_arguments)] // positional catalog-row constructor, used table-style
fn p(
    ilp: f64,
    fe: f64,
    be: f64,
    ls: f64,
    mem: f64,
    l1m: f64,
    floor: f64,
    ws: f64,
    mlp: f64,
    act: f64,
) -> AppProfile {
    AppProfile {
        ilp,
        fe_sensitivity: fe,
        be_sensitivity: be,
        ls_sensitivity: ls,
        mem_fraction: mem,
        l1_miss_rate: l1m,
        llc_miss_floor: floor,
        llc_working_set_ways: ws,
        mlp,
        activity: act,
    }
}

/// The full 28-benchmark catalog in a fixed order.
///
/// Profiles follow the standard SPEC CPU2006 characterization literature:
/// `mcf`/`lbm`/`libquantum`/`milc` are memory-bound with large working sets,
/// `povray`/`gamess`/`namd` are compute-bound with tiny footprints,
/// `perlbench`/`gcc`/`sjeng`/`gobmk` are branchy and front-end sensitive, and
/// the rest sit in between.
pub fn catalog() -> Vec<SpecBenchmark> {
    let b = |name, profile| SpecBenchmark { name, profile };
    vec![
        // --- branchy / front-end sensitive integer codes ---
        b(
            "perlbench",
            p(2.8, 0.85, 0.45, 0.30, 0.32, 0.060, 0.10, 1.6, 2.2, 1.05),
        ),
        b(
            "gcc",
            p(2.4, 0.80, 0.40, 0.35, 0.34, 0.090, 0.18, 2.6, 2.5, 0.95),
        ),
        b(
            "sjeng",
            p(2.2, 0.75, 0.50, 0.25, 0.26, 0.050, 0.08, 1.2, 1.8, 1.00),
        ),
        b(
            "gobmk",
            p(2.0, 0.78, 0.48, 0.22, 0.28, 0.055, 0.09, 1.4, 1.9, 0.98),
        ),
        b(
            "xalancbmk",
            p(2.3, 0.72, 0.42, 0.40, 0.36, 0.110, 0.16, 3.0, 2.8, 0.92),
        ),
        b(
            "astar",
            p(1.9, 0.60, 0.38, 0.45, 0.38, 0.120, 0.20, 2.8, 2.4, 0.88),
        ),
        // --- compute-bound floating point ---
        b(
            "povray",
            p(4.6, 0.70, 0.92, 0.15, 0.16, 0.015, 0.04, 0.6, 1.6, 1.25),
        ),
        b(
            "gamess",
            p(4.3, 0.60, 0.88, 0.18, 0.20, 0.020, 0.05, 0.7, 1.8, 1.20),
        ),
        b(
            "namd",
            p(4.0, 0.50, 0.85, 0.22, 0.24, 0.025, 0.06, 0.9, 2.0, 1.18),
        ),
        b(
            "gromacs",
            p(3.7, 0.52, 0.80, 0.25, 0.26, 0.030, 0.07, 1.0, 2.1, 1.12),
        ),
        b(
            "calculix",
            p(3.5, 0.48, 0.78, 0.28, 0.27, 0.035, 0.08, 1.2, 2.2, 1.10),
        ),
        b(
            "h264ref",
            p(3.8, 0.65, 0.82, 0.24, 0.25, 0.030, 0.06, 0.9, 2.0, 1.15),
        ),
        b(
            "hmmer",
            p(3.6, 0.45, 0.84, 0.20, 0.28, 0.028, 0.05, 0.8, 1.9, 1.14),
        ),
        // --- memory-bound ---
        b(
            "mcf",
            p(1.1, 0.18, 0.22, 0.92, 0.44, 0.300, 0.42, 6.5, 5.5, 0.62),
        ),
        b(
            "lbm",
            p(1.4, 0.15, 0.30, 0.88, 0.46, 0.260, 0.55, 8.0, 7.0, 0.70),
        ),
        b(
            "libquantum",
            p(1.3, 0.12, 0.25, 0.90, 0.40, 0.280, 0.70, 10.0, 7.5, 0.65),
        ),
        b(
            "milc",
            p(1.5, 0.20, 0.35, 0.80, 0.42, 0.220, 0.45, 6.0, 5.0, 0.72),
        ),
        b(
            "soplex",
            p(1.7, 0.30, 0.40, 0.70, 0.38, 0.180, 0.30, 4.5, 4.0, 0.78),
        ),
        b(
            "omnetpp",
            p(1.6, 0.40, 0.35, 0.65, 0.40, 0.160, 0.28, 4.0, 3.2, 0.80),
        ),
        b(
            "GemsFDTD",
            p(1.8, 0.22, 0.45, 0.75, 0.41, 0.200, 0.38, 5.5, 5.2, 0.76),
        ),
        b(
            "leslie3d",
            p(2.0, 0.25, 0.50, 0.68, 0.39, 0.170, 0.32, 4.8, 4.6, 0.82),
        ),
        b(
            "bwaves",
            p(1.9, 0.18, 0.48, 0.72, 0.43, 0.190, 0.40, 5.8, 5.8, 0.75),
        ),
        // --- mixed behaviour ---
        b(
            "bzip2",
            p(2.6, 0.55, 0.55, 0.45, 0.33, 0.080, 0.14, 2.2, 2.6, 0.96),
        ),
        b(
            "cactusADM",
            p(2.5, 0.35, 0.65, 0.55, 0.35, 0.100, 0.22, 3.2, 3.4, 0.90),
        ),
        b(
            "zeusmp",
            p(2.7, 0.38, 0.68, 0.50, 0.34, 0.090, 0.18, 2.8, 3.0, 0.94),
        ),
        b(
            "sphinx3",
            p(2.3, 0.58, 0.52, 0.52, 0.36, 0.120, 0.24, 3.4, 3.0, 0.88),
        ),
        b(
            "wrf",
            p(2.9, 0.42, 0.70, 0.42, 0.32, 0.075, 0.15, 2.4, 2.8, 1.00),
        ),
        b(
            "specrand",
            p(3.1, 0.30, 0.60, 0.30, 0.22, 0.040, 0.10, 1.5, 2.0, 1.02),
        ),
    ]
}

/// Names of the 16 offline-training benchmarks (§VIII-A2).
///
/// The split is fixed (the paper selected randomly once) and chosen to keep
/// each behavioural family represented on both sides, which is what makes
/// collaborative filtering work for the held-out testing set.
pub const TRAINING_NAMES: [&str; 16] = [
    "perlbench",
    "sjeng",
    "xalancbmk",
    "povray",
    "namd",
    "calculix",
    "hmmer",
    "mcf",
    "libquantum",
    "soplex",
    "GemsFDTD",
    "bwaves",
    "bzip2",
    "zeusmp",
    "wrf",
    "specrand",
];

/// Names of the 12 held-out testing benchmarks used to build mixes.
pub const TESTING_NAMES: [&str; 12] = [
    "gcc",
    "gobmk",
    "astar",
    "gamess",
    "gromacs",
    "h264ref",
    "lbm",
    "milc",
    "omnetpp",
    "leslie3d",
    "cactusADM",
    "sphinx3",
];

fn by_names(names: &[&str]) -> Vec<SpecBenchmark> {
    let cat = catalog();
    names
        .iter()
        .map(|n| {
            *cat.iter()
                .find(|b| &b.name == n)
                .unwrap_or_else(|| panic!("unknown benchmark {n}"))
        })
        .collect()
}

/// The 16 offline-training benchmarks.
pub fn training_set() -> Vec<SpecBenchmark> {
    by_names(&TRAINING_NAMES)
}

/// The 12 held-out testing benchmarks.
pub fn testing_set() -> Vec<SpecBenchmark> {
    by_names(&TESTING_NAMES)
}

/// Seed of the standard mix: `mix(size, STANDARD_MIX_SEED + i)` is the
/// `i`-th mix of the paper's co-locations, and mix 0 is the one
/// `Scenario::paper_default` runs.
pub const STANDARD_MIX_SEED: u64 = 0xC0FFEE;

/// Draws a multiprogrammed mix of `size` benchmarks by sampling the testing
/// set with replacement, as in §VII-A ("randomly selecting one of the
/// remaining SPEC CPU2006 benchmarks to run on each core").
pub fn mix(size: usize, seed: u64) -> SpecMix {
    let testing = testing_set();
    let mut rng = StdRng::seed_from_u64(seed);
    let apps = (0..size)
        .map(|_| testing[rng.random_range(0..testing.len())])
        .collect();
    SpecMix { seed, apps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_has_28_unique_valid_benchmarks() {
        let cat = catalog();
        assert_eq!(cat.len(), 28);
        let names: BTreeSet<_> = cat.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 28);
        for b in &cat {
            b.profile
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn split_is_disjoint_and_exhaustive() {
        let train: BTreeSet<_> = TRAINING_NAMES.iter().collect();
        let test: BTreeSet<_> = TESTING_NAMES.iter().collect();
        assert_eq!(train.len(), 16);
        assert_eq!(test.len(), 12);
        assert!(train.is_disjoint(&test));
        let all: BTreeSet<_> = catalog().iter().map(|b| b.name).collect();
        for n in train.iter().chain(test.iter()) {
            assert!(all.contains(**n), "{n} missing from catalog");
        }
    }

    #[test]
    fn mixes_are_reproducible_and_drawn_from_testing_set() {
        let m1 = mix(16, 42);
        let m2 = mix(16, 42);
        assert_eq!(m1, m2);
        assert_eq!(m1.apps.len(), 16);
        let testing: BTreeSet<_> = TESTING_NAMES.iter().copied().collect();
        for a in &m1.apps {
            assert!(testing.contains(a.name), "{} not in testing set", a.name);
        }
        assert_ne!(mix(16, 1).names(), mix(16, 2).names());
    }

    #[test]
    fn catalog_spans_diverse_behaviour() {
        let cat = catalog();
        let max_ilp = cat.iter().map(|b| b.profile.ilp).fold(0.0, f64::max);
        let min_ilp = cat.iter().map(|b| b.profile.ilp).fold(f64::MAX, f64::min);
        assert!(
            max_ilp / min_ilp > 3.0,
            "catalog must span a wide ILP range"
        );
        let mem_bound = cat
            .iter()
            .filter(|b| b.profile.llc_miss_floor > 0.3)
            .count();
        let cpu_bound = cat.iter().filter(|b| b.profile.ilp > 3.4).count();
        assert!(mem_bound >= 4);
        assert!(cpu_bound >= 4);
    }

    #[test]
    fn mix_profiles_matches_apps() {
        let m = mix(8, 7);
        assert_eq!(m.profiles().len(), 8);
        assert_eq!(m.profiles()[0], m.apps[0].profile);
    }
}
