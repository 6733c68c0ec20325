//! Barnes-Hut experiments (Figures 8, 9, 10 and 11).
//!
//! Every sweep returns a [`BhSweep`]: the measured rows plus the sweep
//! metadata (scale tier, time-step count, θ, seed) that the JSON output
//! carries so downstream tooling can tell sweep points from different tiers
//! apart.

use crate::executor::Job;
use crate::{barnes_hut_shapes, make_diva, HarnessOpts, Scale};
use dm_apps::barnes_hut::{run_shared_driven, BhParams};
use dm_apps::workload::plummer_bodies;
use dm_diva::{RunReport, StrategyKind};
use dm_mesh::TreeShape;

/// Measurements of one Barnes-Hut run, reduced to the quantities the four
/// figures plot.
#[derive(Debug, Clone)]
pub struct BhRow {
    /// Strategy name.
    pub strategy: String,
    /// Mesh dimensions.
    pub mesh: (usize, usize),
    /// Number of bodies.
    pub n_bodies: usize,
    /// Total congestion in messages (Figure 8, left).
    pub congestion_msgs: u64,
    /// Total execution time of the measured steps in ns (Figure 8, right).
    pub exec_time_ns: u64,
    /// Tree-building phase congestion in messages (Figure 9, left).
    pub tree_build_congestion_msgs: u64,
    /// Tree-building phase time in ns (Figure 9, right).
    pub tree_build_time_ns: u64,
    /// Force-computation phase congestion in messages (Figure 10, left).
    pub force_congestion_msgs: u64,
    /// Force-computation phase time in ns (Figure 10, right).
    pub force_time_ns: u64,
    /// Local computation time inside the force phase in ns (Figure 10/11).
    pub force_compute_ns: u64,
    /// Total interactions computed (sanity/diagnostics).
    pub interactions: u64,
    /// Peak number of simultaneously live DIVA variables — flat in the
    /// time-step count when per-step reclamation is on, growing with every
    /// rebuilt tree when it is off.
    pub live_vars_peak: u64,
    /// Host wall-clock milliseconds this run took on its worker (JSON only —
    /// contention-skewed under high `--jobs`, excluded from goldens).
    pub host_ms: f64,
}

crate::impl_to_json!(BhRow {
    strategy,
    mesh,
    n_bodies,
    congestion_msgs,
    exec_time_ns,
    tree_build_congestion_msgs,
    tree_build_time_ns,
    force_congestion_msgs,
    force_time_ns,
    force_compute_ns,
    interactions,
    live_vars_peak,
    host_ms,
});

crate::impl_from_json!(BhRow {
    strategy,
    mesh,
    n_bodies,
    congestion_msgs,
    exec_time_ns,
    tree_build_congestion_msgs,
    tree_build_time_ns,
    force_congestion_msgs,
    force_time_ns,
    force_compute_ns,
    interactions,
    live_vars_peak,
    host_ms,
});

fn report_to_row(
    strategy: String,
    mesh: (usize, usize),
    n_bodies: usize,
    report: &RunReport,
    interactions: u64,
) -> BhRow {
    let region = |name: &str| report.region(name).cloned();
    let warmup = region("warmup");
    // Total over the measured steps = whole run minus the warm-up region.
    let measured_time = report
        .total_time
        .saturating_sub(warmup.as_ref().map(|r| r.wall_time).unwrap_or(0));
    let measured_congestion = report.congestion_msgs();
    let tree = region("tree-build");
    let force = region("force");
    BhRow {
        strategy,
        mesh,
        n_bodies,
        congestion_msgs: measured_congestion,
        exec_time_ns: measured_time,
        tree_build_congestion_msgs: tree.as_ref().map(|r| r.congestion_msgs).unwrap_or(0),
        tree_build_time_ns: tree.as_ref().map(|r| r.wall_time).unwrap_or(0),
        force_congestion_msgs: force.as_ref().map(|r| r.congestion_msgs).unwrap_or(0),
        force_time_ns: force.as_ref().map(|r| r.wall_time).unwrap_or(0),
        force_compute_ns: force.as_ref().map(|r| r.compute_time).unwrap_or(0),
        interactions,
        live_vars_peak: report.live_vars_high_water,
        host_ms: 0.0,
    }
}

/// Run one Barnes-Hut configuration and reduce it to a [`BhRow`].
pub fn run_point(
    mesh: (usize, usize),
    n_bodies: usize,
    strategy_name: &str,
    strategy: StrategyKind,
    params: BhParams,
    seed: u64,
) -> BhRow {
    let bodies = plummer_bodies(seed ^ n_bodies as u64, n_bodies);
    let diva = make_diva(mesh.0, mesh.1, strategy, seed);
    // Runs under the event-driven backend (bit-identical to threaded).
    let out = run_shared_driven(diva, params, &bodies);
    report_to_row(
        strategy_name.to_string(),
        mesh,
        n_bodies,
        &out.report,
        out.interactions,
    )
}

/// Memory proxy (bodies × network nodes) at which a Barnes-Hut point is
/// flagged for the executor's memory governor regardless of its scheduling
/// weight. The live-variable peak of a reclaiming run is O(bodies) and the
/// per-variable protocol state scales with the tree/network size — but
/// *not* with `--timesteps`, so heaviness must not ride on the
/// timestep-scaled CPU weight alone (`fig8 --mega --timesteps 4` would
/// silently uncap). Calibrated like [`crate::executor::HEAVY_WEIGHT`]: the
/// lightest historically-capped point (fig8 `--mega`, 50 000 bodies on
/// 4 096 nodes) scores 2.0e8; the heaviest never-capped points (paper tier,
/// fig11 `--mega` at 32×64) stay below 1.1e8.
pub const BH_HEAVY_MEM: u64 = 150_000_000;

/// Describe one Barnes-Hut point as an executor [`Job`]. The body cloud and
/// the mesh are built inside the job (both deterministic from the seed), so
/// a described mega sweep does not hold every point's bodies in memory at
/// once. Mega-scale points are capped by the executor's memory governor
/// through their scheduling weight (see [`crate::executor::HEAVY_WEIGHT`])
/// or, independently of the timestep count, through the [`BH_HEAVY_MEM`]
/// memory proxy — both topology-agnostic.
pub fn point_job(
    mesh: (usize, usize),
    n_bodies: usize,
    strategy_name: String,
    strategy: StrategyKind,
    params: BhParams,
    seed: u64,
) -> Job<BhRow> {
    // Simulation cost scales with bodies × steps, amplified by the mesh the
    // protocol traffic crosses.
    let weight = n_bodies as u64 * (params.timesteps as u64).max(1) * (mesh.0 * mesh.1) as u64;
    let mem = n_bodies as u64 * (mesh.0 * mesh.1) as u64;
    let job = Job::new(weight, move || {
        run_point(mesh, n_bodies, &strategy_name, strategy, params, seed)
    });
    if mem >= BH_HEAVY_MEM {
        job.heavy()
    } else {
        job
    }
}

/// Run a list of described Barnes-Hut jobs through the checkpointed sweep
/// engine (see [`crate::stream::run_sweep`]) and attach each job's host
/// time to its row. `None` means the sweep is incomplete — a shard run or a
/// cut-short run whose completed jobs are checkpointed in the sidecar — and
/// the caller must not render.
pub fn run_bh_jobs(opts: &HarnessOpts, tag: &str, jobs: Vec<Job<BhRow>>) -> Option<Vec<BhRow>> {
    let results = crate::stream::run_sweep(opts, tag, jobs)?;
    Some(crate::stream::rows_with_host_ms(results, |row, ms| {
        row.host_ms = ms;
    }))
}

/// Metadata describing a sweep: which tier produced the rows and the
/// simulation parameters all rows share.
#[derive(Debug, Clone)]
pub struct SweepMeta {
    /// Scale tier name (`smoke`/`default`/`paper`/`mega`).
    pub scale: String,
    /// Simulated time steps per run.
    pub timesteps: usize,
    /// Leading steps excluded from the measurement.
    pub warmup_steps: usize,
    /// Opening criterion θ.
    pub theta: f64,
    /// Seed of the run.
    pub seed: u64,
    /// Whether per-step variable reclamation was on.
    pub reclaim: bool,
}

crate::impl_to_json!(SweepMeta {
    scale,
    timesteps,
    warmup_steps,
    theta,
    seed,
    reclaim,
});

/// A Barnes-Hut sweep: metadata plus measured rows.
#[derive(Debug, Clone)]
pub struct BhSweep {
    /// The sweep's shared parameters.
    pub meta: SweepMeta,
    /// One row per (configuration, strategy) point.
    pub rows: Vec<BhRow>,
}

crate::impl_to_json!(BhSweep { meta, rows });

/// Apply the harness-level lifecycle options (`--no-reclaim`,
/// `--timesteps N`) to a sweep's parameter prototype.
pub fn apply_lifecycle_opts(params: &mut BhParams, opts: &HarnessOpts) {
    params.reclaim = opts.reclaim;
    if let Some(t) = opts.timesteps {
        params.timesteps = t.max(1);
        params.warmup_steps = params.warmup_steps.min(params.timesteps - 1);
    }
}

fn sweep_meta(opts: &HarnessOpts, params: &BhParams) -> SweepMeta {
    SweepMeta {
        scale: opts.scale().name().to_string(),
        timesteps: params.timesteps,
        warmup_steps: params.warmup_steps,
        theta: params.theta,
        seed: opts.seed,
        reclaim: params.reclaim,
    }
}

/// The body-count sweep of Figures 8–10: a fixed mesh, all five strategies.
///
/// Tiers (all on the event-driven backend):
/// * smoke — 4×4 mesh, hundreds of bodies, seconds;
/// * default — 16×16 mesh, 2 000–8 000 bodies (re-tuned upwards from the
///   threaded-era 8×8/4 000 now that the driven backend is ~6× faster);
/// * paper — the paper's 16×16 mesh with 10 000–60 000 bodies and 7 steps;
/// * mega — beyond-paper: a 64×64 mesh (4 096 processors) with up to
///   100 000 bodies.
pub fn body_sweep(opts: &HarnessOpts) -> Option<BhSweep> {
    let (mesh, body_counts): ((usize, usize), Vec<usize>) = match opts.scale() {
        Scale::Smoke => ((4, 4), vec![192, 384]),
        Scale::Default => ((16, 16), vec![2_000, 4_000, 8_000]),
        Scale::Paper => (
            (16, 16),
            vec![10_000, 20_000, 30_000, 40_000, 50_000, 60_000],
        ),
        Scale::Mega => ((64, 64), vec![50_000, 100_000]),
    };
    let mut params_proto = match opts.scale() {
        Scale::Paper => BhParams::new(0),
        Scale::Mega => BhParams {
            timesteps: 5,
            warmup_steps: 1,
            ..BhParams::new(0)
        },
        Scale::Default => BhParams {
            timesteps: 3,
            warmup_steps: 1,
            ..BhParams::new(0)
        },
        Scale::Smoke => BhParams {
            timesteps: 2,
            warmup_steps: 1,
            ..BhParams::new(0)
        },
    };
    apply_lifecycle_opts(&mut params_proto, opts);
    let mut jobs = Vec::new();
    for &n in &body_counts {
        params_proto.n_bodies = n;
        for (name, strategy) in barnes_hut_shapes() {
            jobs.push(point_job(mesh, n, name, strategy, params_proto, opts.seed));
        }
    }
    Some(BhSweep {
        meta: sweep_meta(opts, &params_proto),
        rows: run_bh_jobs(opts, "", jobs)?,
    })
}

/// The network-size sweep of Figure 11: the number of bodies grows with the
/// number of processors (the paper uses N = 200·P), comparing the fixed home
/// against the 4-8-ary access tree.
///
/// The mega tier scales the mesh axis to 64×64 (4 096 processors — 8× the
/// paper's largest network) with 25 bodies per processor, so its last point
/// runs 102 400 bodies.
pub fn scaling_sweep(opts: &HarnessOpts) -> Option<BhSweep> {
    let (meshes, bodies_per_proc): (Vec<(usize, usize)>, usize) = match opts.scale() {
        Scale::Smoke => (vec![(2, 2), (2, 4), (4, 4)], 12),
        Scale::Default => (vec![(8, 8), (8, 16), (16, 16)], 100),
        Scale::Paper => (vec![(8, 8), (8, 16), (16, 16), (16, 32)], 200),
        Scale::Mega => (vec![(16, 16), (16, 32), (32, 32), (32, 64), (64, 64)], 25),
    };
    let params_proto = match opts.scale() {
        Scale::Paper => BhParams::new(0),
        Scale::Mega | Scale::Default => BhParams {
            timesteps: 3,
            warmup_steps: 1,
            ..BhParams::new(0)
        },
        Scale::Smoke => BhParams {
            timesteps: 2,
            warmup_steps: 1,
            ..BhParams::new(0)
        },
    };
    let strategies = vec![
        ("fixed home".to_string(), StrategyKind::FixedHome),
        (
            "4-8-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(4, 8)),
        ),
    ];
    let mut params_proto = params_proto;
    apply_lifecycle_opts(&mut params_proto, opts);
    let mut jobs = Vec::new();
    for &mesh in &meshes {
        let n = bodies_per_proc * mesh.0 * mesh.1;
        let mut params = params_proto;
        params.n_bodies = n;
        for (name, strategy) in &strategies {
            jobs.push(point_job(
                mesh,
                n,
                name.clone(),
                *strategy,
                params,
                opts.seed,
            ));
        }
    }
    Some(BhSweep {
        meta: sweep_meta(opts, &params_proto),
        rows: run_bh_jobs(opts, "", jobs)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_points_stay_heavy_regardless_of_timesteps() {
        // The governor caps memory, and the live-variable peak does not
        // shrink with the timestep count — a short mega run must stay
        // capped even though its timestep-scaled weight drops below
        // HEAVY_WEIGHT.
        let params = BhParams {
            n_bodies: 50_000,
            timesteps: 2,
            warmup_steps: 1,
            ..BhParams::new(0)
        };
        let mega = point_job(
            (64, 64),
            50_000,
            "fixed home".into(),
            StrategyKind::FixedHome,
            params,
            1,
        );
        assert!(mega.weight < crate::executor::HEAVY_WEIGHT);
        assert!(mega.heavy, "mega point uncapped at a low timestep count");
        let light = point_job(
            (16, 16),
            10_000,
            "fixed home".into(),
            StrategyKind::FixedHome,
            params,
            1,
        );
        assert!(!light.heavy, "paper-tier point spuriously capped");
    }

    #[test]
    fn small_point_produces_sensible_phase_breakdown() {
        let params = BhParams {
            n_bodies: 300,
            timesteps: 2,
            warmup_steps: 1,
            theta: 1.0,
            dt: 0.01,
            include_compute: true,
            reclaim: true,
        };
        let row = run_point(
            (4, 4),
            300,
            "4-ary access tree",
            StrategyKind::AccessTree(dm_mesh::TreeShape::quad()),
            params,
            3,
        );
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
        assert!(row.tree_build_time_ns > 0);
        assert!(row.force_time_ns > 0);
        assert!(row.force_compute_ns > 0);
        assert!(row.force_time_ns >= row.force_compute_ns);
        assert!(row.interactions > 300);
        assert!(
            row.live_vars_peak > 300,
            "bodies alone exceed 300 live vars"
        );
        // Phase congestion cannot exceed total congestion.
        assert!(row.tree_build_congestion_msgs <= row.congestion_msgs);
        assert!(row.force_congestion_msgs <= row.congestion_msgs);
    }
}
