//! Matrix-multiplication experiments (Figures 3 and 4 and the arity sweep of
//! Section 3.1).
//!
//! Every sweep *describes* its runs as executor [`Job`]s first — one job per
//! (point, strategy) plus one per baseline, each owning a fully constructed
//! [`Diva`](dm_diva::Diva) — and hands them to the checkpointed sweep engine
//! ([`crate::stream::run_sweep`]); the ratios against the hand-optimized
//! baseline are assembled afterwards from the description-ordered results,
//! so tables and JSON are byte-identical for every `--jobs` value, across
//! `--resume`, and across shard/merge. The sidecar stores the pre-ratio
//! rows; ratios are always recomputed at assembly.

use crate::executor::Job;
use crate::{make_diva, ratio, HarnessOpts, Scale};
use dm_apps::matmul::{run_hand_optimized_driven, run_shared_driven, MatmulParams};
use dm_diva::StrategyKind;
use dm_mesh::TreeShape;

/// One row of a matrix-multiplication figure: the congestion and
/// communication-time ratios of a dynamic strategy relative to the
/// hand-optimized message-passing baseline.
#[derive(Debug, Clone)]
pub struct MatmulRow {
    /// Strategy name.
    pub strategy: String,
    /// Mesh side length (√P).
    pub mesh_side: usize,
    /// Block size in integers.
    pub block_ints: usize,
    /// Congestion (bytes over the hottest link).
    pub congestion_bytes: u64,
    /// Communication time in virtual nanoseconds.
    pub comm_time_ns: u64,
    /// Congestion ratio vs the hand-optimized baseline.
    pub congestion_ratio: f64,
    /// Communication-time ratio vs the hand-optimized baseline.
    pub time_ratio: f64,
    /// Host wall-clock milliseconds this run took on its worker (JSON only —
    /// contention-skewed under high `--jobs`, excluded from goldens).
    pub host_ms: f64,
}

crate::impl_to_json!(MatmulRow {
    strategy,
    mesh_side,
    block_ints,
    congestion_bytes,
    comm_time_ns,
    congestion_ratio,
    time_ratio,
    host_ms,
});

crate::impl_from_json!(MatmulRow {
    strategy,
    mesh_side,
    block_ints,
    congestion_bytes,
    comm_time_ns,
    congestion_ratio,
    time_ratio,
    host_ms,
});

/// Describe the runs of one (mesh, block size) point: the hand-optimized
/// baseline first, then one job per dynamic strategy. Ratios are left at
/// `NAN` placeholders; [`finish_points`] fills them in once the
/// description-ordered results are back.
fn point_jobs(
    mesh_side: usize,
    block_ints: usize,
    strategies: &[(String, StrategyKind)],
    seed: u64,
) -> Vec<Job<MatmulRow>> {
    let params = MatmulParams::new(block_ints);
    // Simulation cost grows with the mesh area and the block volume; the
    // baseline moves strictly less data than any dynamic strategy.
    let weight = (mesh_side * mesh_side) as u64 * block_ints as u64;
    let mut jobs = Vec::with_capacity(strategies.len() + 1);
    // The Diva instances are constructed *here*, at description time, and
    // move into their jobs — whole simulations crossing worker threads is
    // exactly what the compile-time `Send` audit in dm-diva guarantees.
    let baseline_diva = make_diva(mesh_side, mesh_side, StrategyKind::FixedHome, seed);
    jobs.push(Job::new(weight / 2, move || {
        // All experiment points run under the event-driven backend
        // (bit-identical reports to the threaded one, orders of magnitude
        // faster to simulate).
        let out = run_hand_optimized_driven(baseline_diva, params);
        MatmulRow {
            strategy: "hand-optimized".to_string(),
            mesh_side,
            block_ints,
            congestion_bytes: out.report.congestion_bytes(),
            comm_time_ns: out.report.comm_time(),
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
            MatmulRow {
                strategy: name,
                mesh_side,
                block_ints,
                congestion_bytes: out.report.congestion_bytes(),
                comm_time_ns: out.report.comm_time(),
                congestion_ratio: f64::NAN,
                time_ratio: f64::NAN,
                host_ms: 0.0,
            }
        }));
    }
    jobs
}

/// Fill in the per-point ratios: `rows` is the description-ordered result of
/// the jobs of whole points, `group` rows per point with the baseline first.
fn finish_points(rows: &mut [MatmulRow], group: usize) {
    for point in rows.chunks_mut(group) {
        let base_congestion = point[0].congestion_bytes;
        let base_time = point[0].comm_time_ns;
        for row in &mut point[1..] {
            row.congestion_ratio = ratio(row.congestion_bytes, base_congestion);
            row.time_ratio = ratio(row.comm_time_ns, base_time);
        }
    }
}

/// Run the matrix square for the given (mesh, block size) points with the
/// given dynamic strategies plus the baseline, through the checkpointed
/// sweep engine, and return the rows in point order (baseline first per
/// point). `None` means the sweep is incomplete (shard run or cut-short
/// run); the sidecar holds the completed jobs.
pub fn sweep(
    points: &[(usize, usize)],
    strategies: &[(String, StrategyKind)],
    opts: &HarnessOpts,
    tag: &str,
) -> Option<Vec<MatmulRow>> {
    let jobs: Vec<Job<MatmulRow>> = points
        .iter()
        .flat_map(|&(side, block)| point_jobs(side, block, strategies, opts.seed))
        .collect();
    let results = crate::stream::run_sweep(opts, tag, jobs)?;
    let mut rows = crate::stream::rows_with_host_ms(results, |row, ms| {
        row.host_ms = ms;
    });
    finish_points(&mut rows, strategies.len() + 1);
    Some(rows)
}

/// Run one (mesh, block size) point serially (the executor with one worker).
pub fn run_point(
    mesh_side: usize,
    block_ints: usize,
    strategies: &[(String, StrategyKind)],
    seed: u64,
) -> Vec<MatmulRow> {
    let opts = HarnessOpts {
        seed,
        jobs: Some(1),
        ..HarnessOpts::default()
    };
    sweep(&[(mesh_side, block_ints)], strategies, &opts, "")
        .expect("un-checkpointed sweep is always complete")
}

/// The two strategies Figure 3 and 4 compare against the baseline.
pub fn figure_strategies() -> Vec<(String, StrategyKind)> {
    vec![
        ("fixed home".to_string(), StrategyKind::FixedHome),
        (
            "4-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
    ]
}

/// The access-tree arity sweep discussed in the text of Section 3.1.
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
        (
            "4-16-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(4, 16)),
        ),
        (
            "16-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::hex16()),
        ),
    ]
}

/// Figure 3: fixed mesh, block size sweep.
pub fn figure3(opts: &HarnessOpts) -> Option<Vec<MatmulRow>> {
    let (mesh_side, blocks): (usize, Vec<usize>) = match opts.scale() {
        Scale::Smoke => (4, vec![64, 256]),
        Scale::Default => (8, vec![64, 256, 1024]),
        Scale::Paper => (16, vec![64, 256, 1024, 4096]),
        Scale::Mega => (32, vec![256, 1024, 4096]),
    };
    let points: Vec<(usize, usize)> = blocks.into_iter().map(|b| (mesh_side, b)).collect();
    sweep(&points, &figure_strategies(), opts, "")
}

/// Figure 4: fixed block size, network size sweep.
pub fn figure4(opts: &HarnessOpts) -> Option<Vec<MatmulRow>> {
    let (sides, block): (Vec<usize>, usize) = match opts.scale() {
        Scale::Smoke => (vec![2, 4], 256),
        Scale::Default => (vec![4, 8, 16], 1024),
        Scale::Paper => (vec![4, 8, 16, 32], 4096),
        Scale::Mega => (vec![16, 32, 64], 1024),
    };
    let points: Vec<(usize, usize)> = sides.into_iter().map(|s| (s, block)).collect();
    sweep(&points, &figure_strategies(), opts, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_point_reproduces_the_ordering_of_the_paper() {
        // At any scale: hand-optimized < access tree < fixed home in
        // congestion, and the access tree beats the fixed home in time.
        let rows = run_point(8, 256, &figure_strategies(), 7);
        assert_eq!(rows.len(), 3);
        let base = &rows[0];
        let fh = rows.iter().find(|r| r.strategy == "fixed home").unwrap();
        let at = rows.iter().find(|r| r.strategy.contains("4-ary")).unwrap();
        assert_eq!(base.congestion_ratio, 1.0);
        assert!(
            at.congestion_ratio > 1.0,
            "access tree ratio {}",
            at.congestion_ratio
        );
        assert!(
            fh.congestion_ratio > at.congestion_ratio,
            "fixed home {} vs access tree {}",
            fh.congestion_ratio,
            at.congestion_ratio
        );
        assert!(
            fh.comm_time_ns > at.comm_time_ns,
            "fixed home time {} vs access tree time {}",
            fh.comm_time_ns,
            at.comm_time_ns
        );
    }
}
