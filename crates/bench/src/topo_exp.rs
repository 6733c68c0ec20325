//! The cross-topology experiment (Figure 12, beyond the paper).
//!
//! The paper's access-tree strategy is defined for arbitrary networks, but
//! its evaluation only ever instantiates 2-D meshes. This sweep runs all
//! five strategies of the Barnes-Hut figures across the four implemented
//! topologies — mesh, torus, hypercube and fat tree — at *matched node
//! counts*, under two workloads:
//!
//! * **uniform** — the locality-free uniform-random access workload
//!   ([`dm_apps::uniform`]): the cleanest probe of raw congestion behaviour;
//! * **barnes-hut** — the paper's hardest application, whose access trees
//!   are built from each topology's own recursive decomposition.
//!
//! Every (topology, workload, strategy) point is an independent executor
//! [`Job`], so `--jobs N` parallelises the sweep with byte-identical tables
//! and JSON for every `N` (the `jobs_determinism` gate covers `fig12`).

use crate::executor::Job;
use crate::{barnes_hut_shapes, make_diva_on, HarnessOpts, Scale};
use dm_apps::barnes_hut::{run_shared_driven, BhParams};
use dm_apps::uniform::{run_uniform_driven, UniformParams};
use dm_apps::workload::plummer_bodies;
use dm_diva::{RunReport, StrategyKind};
use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, Torus};

/// Measurements of one (topology, workload, strategy) point.
#[derive(Debug, Clone)]
pub struct TopoRow {
    /// Topology name (`mesh 8x8`, `torus 8x8`, `hypercube-6`, `fat-tree-64`).
    pub topology: String,
    /// Workload name (`uniform` or `barnes-hut`).
    pub workload: String,
    /// Strategy name.
    pub strategy: String,
    /// Matched processor count (identical across the four topologies).
    pub nodes: usize,
    /// Number of directed links of the topology (context for congestion).
    pub links: u64,
    /// Topology diameter (hops).
    pub diameter: u64,
    /// Congestion in messages over the measured part of the run.
    pub congestion_msgs: u64,
    /// Congestion in bytes over the measured part of the run.
    pub congestion_bytes: u64,
    /// Total messages handed to the network.
    pub total_msgs: u64,
    /// Execution time of the measured part of the run in ns.
    pub exec_time_ns: u64,
    /// Host wall-clock milliseconds of this point (JSON sidecar only).
    pub host_ms: f64,
}

crate::impl_to_json!(TopoRow {
    topology,
    workload,
    strategy,
    nodes,
    links,
    diameter,
    congestion_msgs,
    congestion_bytes,
    total_msgs,
    exec_time_ns,
    host_ms,
});

crate::impl_from_json!(TopoRow {
    topology,
    workload,
    strategy,
    nodes,
    links,
    diameter,
    congestion_msgs,
    congestion_bytes,
    total_msgs,
    exec_time_ns,
    host_ms,
});

/// Shared parameters of a cross-topology sweep.
#[derive(Debug, Clone)]
pub struct TopoMeta {
    /// Scale tier name.
    pub scale: String,
    /// Matched node count.
    pub nodes: usize,
    /// Uniform workload: accesses per processor.
    pub uniform_ops: usize,
    /// Uniform workload: write percentage.
    pub write_percent: u64,
    /// Barnes-Hut workload: body count.
    pub bh_bodies: usize,
    /// Barnes-Hut workload: simulated time steps.
    pub bh_timesteps: usize,
    /// Seed of the sweep.
    pub seed: u64,
}

crate::impl_to_json!(TopoMeta {
    scale,
    nodes,
    uniform_ops,
    write_percent,
    bh_bodies,
    bh_timesteps,
    seed,
});

/// A cross-topology sweep: metadata plus measured rows.
#[derive(Debug, Clone)]
pub struct TopoSweep {
    /// The sweep's shared parameters.
    pub meta: TopoMeta,
    /// One row per (topology, workload, strategy) point.
    pub rows: Vec<TopoRow>,
}

crate::impl_to_json!(TopoSweep { meta, rows });

/// The four topologies at a matched node count (`nodes` must be a power of
/// four so the grid topologies stay square and the hypercube/fat tree get
/// an exact power of two).
pub fn topologies_at(nodes: usize) -> Vec<AnyTopology> {
    assert!(
        nodes.is_power_of_two() && nodes.trailing_zeros().is_multiple_of(2),
        "matched node counts must be powers of four, got {nodes}"
    );
    let side = 1usize << (nodes.trailing_zeros() / 2);
    vec![
        Mesh::square(side).into(),
        Torus::square(side).into(),
        Hypercube::new(nodes.trailing_zeros()).into(),
        FatTree::new(nodes).into(),
    ]
}

/// Reduce a run report to the measured quantities of a [`TopoRow`]: the
/// whole run for the uniform workload, everything outside the `warmup`
/// region for Barnes-Hut (matching the fig8 convention).
fn fill_row(topo: &AnyTopology, workload: &str, strategy: &str, report: &RunReport) -> TopoRow {
    let warmup_wall = report.region("warmup").map(|r| r.wall_time).unwrap_or(0);
    TopoRow {
        topology: topo.name(),
        workload: workload.to_string(),
        strategy: strategy.to_string(),
        nodes: topo.nodes(),
        links: topo.links() as u64,
        diameter: topo.diameter() as u64,
        congestion_msgs: report.congestion_msgs(),
        congestion_bytes: report.congestion_bytes(),
        total_msgs: report.messages_sent,
        exec_time_ns: report.total_time.saturating_sub(warmup_wall),
        host_ms: 0.0,
    }
}

/// Describe one uniform-workload point as an executor job.
fn uniform_job(
    topo: AnyTopology,
    strategy_name: String,
    strategy: StrategyKind,
    params: UniformParams,
) -> Job<TopoRow> {
    let weight = (params.ops_per_proc * topo.nodes()) as u64;
    Job::new(weight, move || {
        let diva = make_diva_on(topo.clone(), strategy, params.seed);
        let out = run_uniform_driven(diva, params);
        fill_row(&topo, "uniform", &strategy_name, &out.report)
    })
}

/// Describe one Barnes-Hut point as an executor job. Mega points trip the
/// executor's memory governor on every topology — via the scheduling
/// weight or the timestep-independent [`crate::bh_exp::BH_HEAVY_MEM`]
/// memory proxy, exactly like the mesh figures.
fn bh_job(
    topo: AnyTopology,
    strategy_name: String,
    strategy: StrategyKind,
    params: BhParams,
    seed: u64,
) -> Job<TopoRow> {
    let weight = params.n_bodies as u64 * (params.timesteps as u64).max(1) * topo.nodes() as u64;
    let mem = params.n_bodies as u64 * topo.nodes() as u64;
    let job = Job::new(weight, move || {
        let bodies = plummer_bodies(seed ^ params.n_bodies as u64, params.n_bodies);
        let diva = make_diva_on(topo.clone(), strategy, seed);
        let out = run_shared_driven(diva, params, &bodies);
        fill_row(&topo, "barnes-hut", &strategy_name, &out.report)
    });
    if mem >= crate::bh_exp::BH_HEAVY_MEM {
        job.heavy()
    } else {
        job
    }
}

/// The Figure-12 sweep: all five strategies × four topologies × two
/// workloads at one matched node count per scale tier. `None` means the
/// sweep is incomplete (shard run or cut-short run); the sidecar holds the
/// completed jobs.
pub fn cross_topology_sweep(opts: &HarnessOpts) -> Option<TopoSweep> {
    let (nodes, uniform_ops, bh_bodies) = match opts.scale() {
        Scale::Smoke => (16, 24, 192),
        Scale::Default => (64, 64, 2_000),
        Scale::Paper => (256, 128, 10_000),
        Scale::Mega => (4_096, 128, 50_000),
    };
    let mut bh_params = BhParams {
        n_bodies: bh_bodies,
        timesteps: if opts.scale() == Scale::Mega { 5 } else { 2 },
        warmup_steps: 1,
        ..BhParams::new(0)
    };
    crate::bh_exp::apply_lifecycle_opts(&mut bh_params, opts);
    let mut uniform_params = UniformParams::new(nodes);
    uniform_params.ops_per_proc = uniform_ops;
    uniform_params.seed = opts.seed;

    let mut jobs = Vec::new();
    for topo in topologies_at(nodes) {
        for (name, strategy) in barnes_hut_shapes() {
            jobs.push(uniform_job(
                topo.clone(),
                name.clone(),
                strategy,
                uniform_params,
            ));
            jobs.push(bh_job(topo.clone(), name, strategy, bh_params, opts.seed));
        }
    }
    let results = crate::stream::run_sweep(opts, "", jobs)?;
    let rows = crate::stream::rows_with_host_ms(results, |row, ms| {
        row.host_ms = ms;
    });
    Some(TopoSweep {
        meta: TopoMeta {
            scale: opts.scale().name().to_string(),
            nodes,
            uniform_ops,
            write_percent: uniform_params.write_percent as u64,
            bh_bodies,
            bh_timesteps: bh_params.timesteps,
            seed: opts.seed,
        },
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_node_counts_are_matched() {
        for nodes in [16, 64, 256] {
            let topos = topologies_at(nodes);
            assert_eq!(topos.len(), 4);
            for t in &topos {
                assert_eq!(t.nodes(), nodes, "{}", t.name());
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_four_node_counts() {
        topologies_at(32);
    }

    #[test]
    fn uniform_point_runs_on_a_fat_tree() {
        let topo: AnyTopology = FatTree::new(16).into();
        let params = UniformParams {
            ops_per_proc: 8,
            ..UniformParams::new(16)
        };
        let row = uniform_job(topo, "fixed home".into(), StrategyKind::FixedHome, params).call();
        assert_eq!(row.workload, "uniform");
        assert_eq!(row.nodes, 16);
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
    }

    #[test]
    fn bh_point_runs_on_a_hypercube() {
        let topo: AnyTopology = Hypercube::new(4).into();
        let params = BhParams {
            n_bodies: 64,
            timesteps: 2,
            warmup_steps: 1,
            ..BhParams::new(0)
        };
        let row = bh_job(
            topo,
            "4-ary access tree".into(),
            StrategyKind::AccessTree(dm_mesh::TreeShape::quad()),
            params,
            3,
        )
        .call();
        assert_eq!(row.workload, "barnes-hut");
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
    }
}
