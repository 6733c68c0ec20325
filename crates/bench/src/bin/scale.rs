//! Beyond-paper scaling: network-size sweeps extended to mesh sizes the
//! paper's platform could never reach (64×64 = 4096 and 128×128 = 16384
//! processors).
//!
//! The thread-per-processor backend cannot run these sizes at all (16384 OS
//! threads); the event-driven backend completes the whole sweep in minutes.
//! Block and key sizes are reduced relative to the paper sweeps so the
//! simulated data volume per processor stays constant while the network
//! grows — the regime where the congestion-ratio curves of Figures 4 and 7
//! are interesting.
//!
//! Modes:
//! * default — Figure-4/7-style matmul and bitonic sweeps up to 64×64;
//! * `--bh` — a Figure-11-style Barnes-Hut sweep instead (25 bodies per
//!   processor, so the 64×64 point simulates 102 400 bodies);
//! * `--mega` — adds the 128×128 points to either mode (for `--bh` that is
//!   409 600 bodies — expect ~20 minutes for the two strategies);
//! * `--smoke` — 4×4 and 8×8 only, for the CI figure-suite gate.

use dm_apps::barnes_hut::BhParams;
use dm_bench::bh_exp::{self, BhRow};
use dm_bench::bitonic_exp::{self, BitonicRow};
use dm_bench::executor::Job;
use dm_bench::matmul_exp::{self, MatmulRow};
use dm_bench::table::{f2, secs, Table};
use dm_bench::{impl_to_json, HarnessOpts};
use dm_diva::StrategyKind;
use dm_mesh::TreeShape;
use std::time::Instant;

/// The `--json` payload: every sweep the scaling scenario ran.
struct ScaleRows {
    matmul: Vec<MatmulRow>,
    bitonic: Vec<BitonicRow>,
    barnes_hut: Vec<BhRow>,
}

impl_to_json!(ScaleRows {
    matmul,
    bitonic,
    barnes_hut,
});

fn run_barnes_hut(opts: &HarnessOpts, sides: &[usize]) -> Option<Vec<BhRow>> {
    // Figure-11-style: the body count grows with the processor count. 25
    // bodies per processor keeps the per-point runtime in minutes while the
    // 64×64 point still simulates ≥100 000 bodies.
    let bodies_per_proc = 25;
    let mut params_proto = BhParams {
        timesteps: 3,
        warmup_steps: 1,
        ..BhParams::new(0)
    };
    // `--timesteps 7` pushes a mega sweep to the paper's step count —
    // affordable only because per-step reclamation (`reclaim`, on unless
    // `--no-reclaim`) caps protocol state at O(cells per step).
    bh_exp::apply_lifecycle_opts(&mut params_proto, opts);
    let strategies = [
        ("fixed home".to_string(), StrategyKind::FixedHome),
        (
            "4-8-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(4, 8)),
        ),
    ];
    // Describe every point as a job; the executor's memory governor keeps at
    // most two mega (128×128) points in flight regardless of `--jobs`.
    let mut jobs = Vec::new();
    for &side in sides {
        let n = bodies_per_proc * side * side;
        let mut params = params_proto;
        params.n_bodies = n;
        for (name, strategy) in &strategies {
            let progress_name = name.clone();
            let inner =
                bh_exp::point_job((side, side), n, name.clone(), *strategy, params, opts.seed);
            // Propagate the inner job's heaviness: it can exceed what the
            // wrapper's `Job::new` derives from the weight alone (the
            // Barnes-Hut memory proxy flags big points independently of the
            // timestep-scaled weight).
            let (weight, heavy) = (inner.weight, inner.heavy);
            // Wrap to keep the per-point progress lines on stderr (they are
            // not part of the golden-diffed stdout).
            let job = Job::new(weight, move || {
                let t = Instant::now();
                let row = inner.call();
                eprintln!(
                    "barnes-hut {side}x{side} n={n} {progress_name} done in {:.1?}",
                    t.elapsed()
                );
                row
            });
            jobs.push(if heavy { job.heavy() } else { job });
        }
    }
    bh_exp::run_bh_jobs(opts, "bh", jobs)
}

fn main() {
    let (opts, flags) = HarnessOpts::parse(&["--bh"]);
    let bh = flags.has("--bh");
    if opts.paper && !opts.mega {
        eprintln!("note: scale has no --paper tier (it is beyond-paper by design); running the default sweep");
    }
    let sides: Vec<usize> = if opts.mega {
        vec![16, 32, 64, 128]
    } else if opts.smoke {
        // CI tier: exercise the sweep machinery, not the scale.
        vec![4, 8]
    } else {
        vec![16, 32, 64]
    };

    let mut payload = ScaleRows {
        matmul: Vec::new(),
        bitonic: Vec::new(),
        barnes_hut: Vec::new(),
    };

    if bh {
        let Some(rows) = run_barnes_hut(&opts, &sides) else {
            return;
        };
        payload.barnes_hut = rows;
        let mut table = Table::new(&[
            "mesh",
            "bodies",
            "strategy",
            "congestion[msgs]",
            "exec time[s]",
            "force local compute[s]",
            "live vars peak",
        ]);
        for r in &payload.barnes_hut {
            table.row(vec![
                format!("{}x{}", r.mesh.0, r.mesh.1),
                r.n_bodies.to_string(),
                r.strategy.clone(),
                r.congestion_msgs.to_string(),
                secs(r.exec_time_ns),
                secs(r.force_compute_ns),
                r.live_vars_peak.to_string(),
            ]);
        }
        println!("Beyond-paper scaling — Barnes-Hut, 25 bodies per processor");
        println!("{}", table.render());
        opts.write_json(&payload);
        opts.write_snapshot("scale", &payload);
        return;
    }

    // Matrix square, Figure-4 style: fixed block size, growing mesh.
    let block = 256;
    let matmul_points: Vec<(usize, usize)> = sides.iter().map(|&s| (s, block)).collect();
    let t = Instant::now();
    // A shard or cut-short run checkpoints each sweep into its own tagged
    // sidecar and renders nothing; `--resume` finishes both and renders.
    let Some(matmul_rows) = matmul_exp::sweep(
        &matmul_points,
        &matmul_exp::figure_strategies(),
        &opts,
        "matmul",
    ) else {
        finish_bitonic(&opts, &sides);
        return;
    };
    payload.matmul = matmul_rows;
    eprintln!("matmul sweep done in {:.1?}", t.elapsed());
    let mut table = Table::new(&[
        "mesh",
        "strategy",
        "congestion[B]",
        "congestion ratio",
        "comm time[s]",
        "time ratio",
    ]);
    for r in &payload.matmul {
        table.row(vec![
            format!("{0}x{0}", r.mesh_side),
            r.strategy.clone(),
            r.congestion_bytes.to_string(),
            f2(r.congestion_ratio),
            secs(r.comm_time_ns),
            f2(r.time_ratio),
        ]);
    }
    println!("Beyond-paper scaling — matrix multiplication, block size {block}");
    println!("{}", table.render());

    // Bitonic sorting, Figure-7 style: fixed keys per processor, growing mesh.
    let keys = 256;
    let bitonic_points: Vec<(usize, usize)> = sides.iter().map(|&s| (s, keys)).collect();
    let t = Instant::now();
    let Some(bitonic_rows) = bitonic_exp::sweep(
        &bitonic_points,
        &bitonic_exp::figure_strategies(),
        &opts,
        "bitonic",
    ) else {
        return;
    };
    payload.bitonic = bitonic_rows;
    eprintln!("bitonic sweep done in {:.1?}", t.elapsed());
    let mut table = Table::new(&[
        "mesh",
        "strategy",
        "congestion[B]",
        "congestion ratio",
        "exec time[s]",
        "time ratio",
    ]);
    for r in &payload.bitonic {
        table.row(vec![
            format!("{0}x{0}", r.mesh_side),
            r.strategy.clone(),
            r.congestion_bytes.to_string(),
            f2(r.congestion_ratio),
            secs(r.exec_time_ns),
            f2(r.time_ratio),
        ]);
    }
    println!("Beyond-paper scaling — bitonic sorting, {keys} keys per processor");
    println!("{}", table.render());

    opts.write_json(&payload);
    opts.write_snapshot("scale", &payload);
}

/// When the matmul sweep of a shard run came back incomplete, still push the
/// bitonic shard through its own sidecar so one `scale --shard i/n`
/// invocation advances both sweeps.
fn finish_bitonic(opts: &HarnessOpts, sides: &[usize]) {
    let keys = 256;
    let points: Vec<(usize, usize)> = sides.iter().map(|&s| (s, keys)).collect();
    let _ = bitonic_exp::sweep(&points, &bitonic_exp::figure_strategies(), opts, "bitonic");
}
