//! Shared helpers for the Criterion benchmark harnesses.
//!
//! Every bench pulls its workload sizes and seeds from here so that the
//! rows reported in EXPERIMENTS.md come from a single, consistent sweep.

/// Default deterministic seed used by every benchmark workload generator.
pub const BENCH_SEED: u64 = 0x1988_0705;

/// Stage counts (`n`, with `N = 2^n` terminals) swept by the near-linear
/// algorithms (independence checks, P-property sweeps, certified
/// isomorphism).
pub const STAGE_SWEEP: &[usize] = &[4, 6, 8, 10, 12];

/// Stage counts used by the quadratic-cost algorithms (exact Banyan check,
/// exhaustive backtracking isomorphism) which cannot reach the larger sizes.
pub const SMALL_STAGE_SWEEP: &[usize] = &[3, 4, 5, 6, 7, 8];

/// Criterion tuning shared by all benches: small sample counts so the whole
/// suite completes in minutes on a laptop while still producing stable
/// medians.
///
/// Setting the `BENCH_QUICK` environment variable to anything but `0` or the
/// empty string switches to smoke-test sizing (3 samples, tens of
/// milliseconds per benchmark) — this is what the CI `bench-smoke` job uses
/// to keep the perf-artifact run fast.
pub fn configure(c: criterion::Criterion) -> criterion::Criterion {
    if min_sim::cli::bench_quick() {
        c.sample_size(3)
            .measurement_time(std::time::Duration::from_millis(60))
            .warm_up_time(std::time::Duration::from_millis(20))
    } else {
        c.sample_size(10)
            .measurement_time(std::time::Duration::from_millis(800))
            .warm_up_time(std::time::Duration::from_millis(200))
    }
}
