//! Bitonic-sorting experiments (Figures 6 and 7 and the arity comparison of
//! Section 3.2).
//!
//! Like `matmul_exp`, every sweep first *describes* its runs as executor
//! [`Job`]s (one per point × strategy, plus one baseline per point, each
//! owning its constructed [`Diva`](dm_diva::Diva)) and assembles the ratio
//! rows from the description-ordered results — byte-identical output for
//! every `--jobs` value, across `--resume`, and across shard/merge.

use crate::executor::Job;
use crate::{make_diva, ratio, HarnessOpts, Scale};
use dm_apps::bitonic::{run_hand_optimized_driven, run_shared_driven, BitonicParams};
use dm_diva::StrategyKind;
use dm_mesh::TreeShape;

/// One row of a bitonic-sorting figure.
#[derive(Debug, Clone)]
pub struct BitonicRow {
    /// Strategy name.
    pub strategy: String,
    /// Mesh side length (√P).
    pub mesh_side: usize,
    /// Keys per processor.
    pub keys_per_proc: usize,
    /// Congestion (bytes over the hottest link).
    pub congestion_bytes: u64,
    /// Execution time in virtual nanoseconds.
    pub exec_time_ns: u64,
    /// Congestion ratio vs the hand-optimized baseline.
    pub congestion_ratio: f64,
    /// Execution-time ratio vs the hand-optimized baseline.
    pub time_ratio: f64,
    /// Host wall-clock milliseconds this run took on its worker (JSON only —
    /// contention-skewed under high `--jobs`, excluded from goldens).
    pub host_ms: f64,
}

crate::impl_to_json!(BitonicRow {
    strategy,
    mesh_side,
    keys_per_proc,
    congestion_bytes,
    exec_time_ns,
    congestion_ratio,
    time_ratio,
    host_ms,
});

crate::impl_from_json!(BitonicRow {
    strategy,
    mesh_side,
    keys_per_proc,
    congestion_bytes,
    exec_time_ns,
    congestion_ratio,
    time_ratio,
    host_ms,
});

/// The strategies Figure 6/7 compare against the baseline (the paper plots
/// the fixed home and the 2-4-ary access tree).
pub fn figure_strategies() -> Vec<(String, StrategyKind)> {
    vec![
        ("fixed home".to_string(), StrategyKind::FixedHome),
        (
            "2-4-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(2, 4)),
        ),
    ]
}

/// The arity comparison of the text of Section 3.2.
pub fn arity_strategies() -> Vec<(String, StrategyKind)> {
    vec![
        (
            "2-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::binary()),
        ),
        (
            "2-4-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(2, 4)),
        ),
        (
            "4-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
    ]
}

/// Describe the runs of one (mesh, keys) point: baseline first, then one job
/// per strategy, ratios left as `NAN` placeholders for [`finish_points`].
fn point_jobs(
    mesh_side: usize,
    keys_per_proc: usize,
    strategies: &[(String, StrategyKind)],
    seed: u64,
) -> Vec<Job<BitonicRow>> {
    let params = BitonicParams::new(keys_per_proc);
    // Cost grows with the processor count and the keys each holds; the
    // baseline exchanges the same keys without protocol traffic.
    let weight = (mesh_side * mesh_side) as u64 * keys_per_proc as u64;
    let mut jobs = Vec::with_capacity(strategies.len() + 1);
    let baseline_diva = make_diva(mesh_side, mesh_side, StrategyKind::FixedHome, seed);
    jobs.push(Job::new(weight / 2, move || {
        // All experiment points run under the event-driven backend.
        let out = run_hand_optimized_driven(baseline_diva, params);
        BitonicRow {
            strategy: "hand-optimized".to_string(),
            mesh_side,
            keys_per_proc,
            congestion_bytes: out.report.congestion_bytes(),
            exec_time_ns: out.report.total_time,
            congestion_ratio: 1.0,
            time_ratio: 1.0,
            host_ms: 0.0,
        }
    }));
    for (name, strategy) in strategies {
        let name = name.clone();
        let diva = make_diva(mesh_side, mesh_side, *strategy, seed);
        jobs.push(Job::new(weight, move || {
            let out = run_shared_driven(diva, params);
            BitonicRow {
                strategy: name,
                mesh_side,
                keys_per_proc,
                congestion_bytes: out.report.congestion_bytes(),
                exec_time_ns: out.report.total_time,
                congestion_ratio: f64::NAN,
                time_ratio: f64::NAN,
                host_ms: 0.0,
            }
        }));
    }
    jobs
}

/// Fill in the per-point ratios from the baseline row of each point group.
fn finish_points(rows: &mut [BitonicRow], group: usize) {
    for point in rows.chunks_mut(group) {
        let base_congestion = point[0].congestion_bytes;
        let base_time = point[0].exec_time_ns;
        for row in &mut point[1..] {
            row.congestion_ratio = ratio(row.congestion_bytes, base_congestion);
            row.time_ratio = ratio(row.exec_time_ns, base_time);
        }
    }
}

/// Run the bitonic sort for the given (mesh, keys) points through the
/// checkpointed sweep engine; rows come back in point order, baseline
/// first. `None` means the sweep is incomplete (shard run or cut-short
/// run); the sidecar holds the completed jobs.
pub fn sweep(
    points: &[(usize, usize)],
    strategies: &[(String, StrategyKind)],
    opts: &HarnessOpts,
    tag: &str,
) -> Option<Vec<BitonicRow>> {
    let jobs: Vec<Job<BitonicRow>> = points
        .iter()
        .flat_map(|&(side, keys)| point_jobs(side, keys, strategies, opts.seed))
        .collect();
    let results = crate::stream::run_sweep(opts, tag, jobs)?;
    let mut rows = crate::stream::rows_with_host_ms(results, |row, ms| {
        row.host_ms = ms;
    });
    finish_points(&mut rows, strategies.len() + 1);
    Some(rows)
}

/// Run one (mesh, keys) point serially (the executor with one worker).
pub fn run_point(
    mesh_side: usize,
    keys_per_proc: usize,
    strategies: &[(String, StrategyKind)],
    seed: u64,
) -> Vec<BitonicRow> {
    let opts = HarnessOpts {
        seed,
        jobs: Some(1),
        ..HarnessOpts::default()
    };
    sweep(&[(mesh_side, keys_per_proc)], strategies, &opts, "")
        .expect("un-checkpointed sweep is always complete")
}

/// Figure 6: fixed mesh, keys-per-processor sweep.
pub fn figure6(opts: &HarnessOpts) -> Option<Vec<BitonicRow>> {
    let (mesh_side, keys): (usize, Vec<usize>) = match opts.scale() {
        Scale::Smoke => (4, vec![64, 256]),
        Scale::Default => (8, vec![256, 1024, 4096]),
        Scale::Paper => (16, vec![256, 1024, 4096, 16384]),
        Scale::Mega => (32, vec![1024, 4096]),
    };
    let points: Vec<(usize, usize)> = keys.into_iter().map(|k| (mesh_side, k)).collect();
    sweep(&points, &figure_strategies(), opts, "")
}

/// Figure 7: fixed keys per processor, network size sweep.
pub fn figure7(opts: &HarnessOpts) -> Option<Vec<BitonicRow>> {
    let (sides, keys): (Vec<usize>, usize) = match opts.scale() {
        Scale::Smoke => (vec![2, 4], 256),
        Scale::Default => (vec![4, 8, 16], 1024),
        Scale::Paper => (vec![4, 8, 16, 32], 4096),
        Scale::Mega => (vec![16, 32, 64], 1024),
    };
    let points: Vec<(usize, usize)> = sides.into_iter().map(|s| (s, keys)).collect();
    sweep(&points, &figure_strategies(), opts, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_point_reproduces_the_ordering_of_the_paper() {
        let rows = run_point(4, 256, &figure_strategies(), 11);
        let fh = rows.iter().find(|r| r.strategy == "fixed home").unwrap();
        let at = rows
            .iter()
            .find(|r| r.strategy.contains("2-4-ary"))
            .unwrap();
        // Both dynamic strategies pay a congestion factor over the baseline;
        // the access tree pays less than the fixed home.
        assert!(at.congestion_ratio >= 1.0);
        assert!(fh.congestion_ratio > at.congestion_ratio);
    }
}
