//! Direct calls into single layers, on the shapes the runtime uses. They
//! do not depend on the workload (only the JSON and render probes borrow
//! the pass's records as realistic input), run after the traced pass, and
//! tell a reader what one call of each building block costs on this
//! machine today.

use std::hint::black_box;
use std::time::Instant;

use cuttlesys::control::ControlCore;
use cuttlesys::types::{RunRecord, Scenario, SliceRecord};
use dds::{parallel_search_in, ParallelDdsParams, SearchSpace};
use recsys::{sgd, RatingMatrix, Reconstructor, SessionInput, SgdConfig, ValueTransform};
use simulator::power::CoreKind;
use simulator::{
    AppProfile, CacheAlloc, Chip, CoreConfig, CoreState, JobId, LlcPartition, SystemParams,
};
use util::WorkerPool;
use workloads::oracle::Oracle;
use workloads::queueing::MmcQueue;

/// Samples of every direct probe; the field says the unit.
pub struct Probes {
    /// Three 32×108 completions on the pool, as one decision does.
    pub complete_all_ms: Vec<f64>,
    /// One serial `sgd::fit` of the same matrix.
    pub sgd_fit_ms: Vec<f64>,
    /// One pooled parallel DDS over 16 jobs × 108 configurations.
    pub search_ms: Vec<f64>,
    /// The same search's time per objective evaluation.
    pub us_per_eval: Vec<f64>,
    /// One `Chip::simulate_frame` of 32 cores / 17 jobs.
    pub frame_us: Vec<f64>,
    /// One `Oracle::tail_row(xapian, 16, 0.8)`.
    pub oracle_tail_row_us: Vec<f64>,
    /// One `MmcQueue::p99_ms`.
    pub mmc_p99_us: Vec<f64>,
    /// One pool scope of `pool_threads` empty tasks.
    pub pool_fanout_us: Vec<f64>,
    /// `RunRecord::to_json` → string, 100 slices.
    pub json_emit_ms: Vec<f64>,
    /// `util::json::parse` of that string.
    pub json_parse_ms: Vec<f64>,
    /// `service::metrics::render` over 100 retained records.
    pub render_us_at_100: Vec<f64>,
    /// The same over 1200: render folds over every retained record.
    pub render_us_at_1200: Vec<f64>,
}

/// Times `iters` calls of `f`, one sample each, in `unit_per_s` units
/// (1e3 = ms, 1e6 = µs).
fn time_each(iters: usize, unit_per_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * unit_per_s
        })
        .collect()
}

/// The runtime's throughput-matrix shape (as `benches/reconstruction.rs`):
/// 16 dense training rows, 16 live rows with two observations each.
fn runtime_matrix() -> RatingMatrix {
    let mut m = RatingMatrix::new(32, 108);
    let truth = |r: usize, c: usize| {
        let app = 1.0 + 0.4 * (r as f64 * 0.7).sin();
        let cfg = 2.0 + (c as f64 * 0.21).cos();
        app * cfg + 0.1 * (r as f64 * 0.3).cos() * (c as f64 * 0.5).sin()
    };
    for r in 0..16 {
        for c in 0..108 {
            m.set(r, c, truth(r, c));
        }
    }
    for r in 16..32 {
        m.set(r, 107, truth(r, 107));
        m.set(r, 1, truth(r, 1));
    }
    m
}

/// Concave per-job benefit with a soft power penalty (as
/// `benches/search.rs`).
fn search_objective(x: &[usize]) -> f64 {
    let benefit: f64 = x.iter().map(|&c| ((c % 27 + 1) as f64).ln()).sum();
    let power: f64 = x.iter().map(|&c| 1.0 + 0.05 * c as f64).sum();
    benefit - 2.0 * (power - 60.0).max(0.0)
}

/// A fixed 32-core / 17-job chip state (as `benches/simulator_step.rs`).
fn frame_state() -> (Chip, Vec<CoreState>, Vec<AppProfile>, LlcPartition) {
    let chip = Chip::new(SystemParams::default(), CoreKind::Reconfigurable);
    let profiles = (0..17)
        .map(|i| {
            let mut p = AppProfile::balanced();
            p.ilp = 1.5 + 0.1 * i as f64;
            p
        })
        .collect();
    let partition = (0..17).map(|j| (JobId(j), CacheAlloc::One)).collect();
    let mut cores: Vec<CoreState> = (0..16)
        .map(|_| CoreState::Active {
            job: JobId(0),
            config: CoreConfig::widest(),
        })
        .collect();
    cores.extend((1..17).map(|j| CoreState::Active {
        job: JobId(j),
        config: CoreConfig::narrowest(),
    }));
    (chip, cores, profiles, partition)
}

/// `n` slice records, cycling through `source`.
fn cycle(source: &[SliceRecord], n: usize) -> Vec<SliceRecord> {
    source.iter().cycle().take(n).cloned().collect()
}

/// Runs every probe. `record` is a record of the pass just run and
/// `scenario` the scenario it ran (for the tenant-table snapshot the
/// renderer wants).
pub fn run(record: &RunRecord, scenario: &Scenario) -> Probes {
    let pool_threads = WorkerPool::default_threads();
    let pool = WorkerPool::new(pool_threads);

    let matrix = runtime_matrix();
    let sgd_config = SgdConfig {
        max_iters: 60,
        ..SgdConfig::default()
    };
    let reconstructor = Reconstructor::new(sgd_config);
    let inputs = || {
        [(); 3].map(|()| SessionInput {
            matrix: &matrix,
            transform: ValueTransform::Log,
            warm: None,
        })
    };
    let complete_all_ms = time_each(40, 1e3, || {
        black_box(reconstructor.complete_all_session(Some(&pool), &inputs()));
    });
    let sgd_fit_ms = time_each(40, 1e3, || {
        black_box(sgd::fit(&matrix, &sgd_config));
    });

    let space = SearchSpace::new(16, 108);
    let params = ParallelDdsParams::default();
    let mut us_per_eval = Vec::new();
    let search_ms = time_each(40, 1e3, || {
        let t0 = Instant::now();
        let found = parallel_search_in(Some(&pool), &space, &search_objective, &params);
        us_per_eval.push(t0.elapsed().as_secs_f64() * 1e6 / found.evaluations.max(1) as f64);
        black_box(found);
    });

    let (chip, cores, profiles, partition) = frame_state();
    let frame_us = time_each(200, 1e6, || {
        black_box(chip.simulate_frame(&cores, &profiles, &partition, 100.0));
    });

    let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
    let xapian = workloads::latency::service_by_name("xapian").expect("xapian is in the catalog");
    let oracle_tail_row_us = time_each(40, 1e6, || {
        black_box(oracle.tail_row(&xapian, 16, 0.8));
    });
    // Sub-microsecond: time 100 calls per sample.
    let queue = MmcQueue::new(16, 1.7, 17.6);
    let mmc_p99_us = time_each(100, 1e6 / 100.0, || {
        for _ in 0..100 {
            black_box(black_box(&queue).p99_ms());
        }
    });

    let pool_fanout_us = time_each(400, 1e6, || {
        pool.scope(|scope| {
            for _ in 0..pool_threads {
                scope.spawn(|| {});
            }
        });
    });

    let hundred = RunRecord {
        scheme: record.scheme.clone(),
        slices: cycle(&record.slices, 100),
    };
    let mut text = String::new();
    let json_emit_ms = time_each(40, 1e3, || {
        text = hundred.to_json().to_string();
    });
    let json_parse_ms = time_each(40, 1e3, || {
        black_box(util::json::parse(&text).expect("the emitter's output parses"));
    });

    let snapshot = ControlCore::new(scenario).snapshot();
    let render = |n: usize| {
        let records = cycle(&record.slices, n);
        time_each(40, 1e6, || {
            black_box(service::metrics::render(&snapshot, &records, 0));
        })
    };
    Probes {
        complete_all_ms,
        sgd_fit_ms,
        search_ms,
        us_per_eval,
        frame_us,
        oracle_tail_row_us,
        mmc_p99_us,
        pool_fanout_us,
        json_emit_ms,
        json_parse_ms,
        render_us_at_100: render(100),
        render_us_at_1200: render(1200),
    }
}
