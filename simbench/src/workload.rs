//! The workloads and the run of one point (one strategy) of each.

use crate::digest::{self, Fnv};
use crate::layers;
use crate::tape::{alloc_keys, fold_checksums, Tape, TapeClient, TapeSpec, Timed};
use dm_apps::barnes_hut::{self, BhParams};
use dm_apps::workload::plummer_bodies;
use dm_diva::{Diva, DivaConfig, ProcProgram, QueueOp, RunDone, RunOutcome, StrategyKind};
use dm_engine::EventQueue;
use dm_mesh::{Mesh, TreeShape};
use dm_rng::splitmix64;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["bh-fig8", "kv-zipf-read", "kv-uniform-write-4k"];

/// Full-size inputs, or inputs small enough for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The application a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// Barnes-Hut through `dm_apps::barnes_hut::run_shared_driven`.
    Bh {
        bodies: usize,
        steps: usize,
        warmup: usize,
    },
    /// Tape clients through `Diva::run_driven`.
    Kv(TapeSpec),
}

/// A named workload: a square mesh, the strategies it compares (one point
/// each) and the application.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub size: Size,
    pub side: usize,
    pub strategies: Vec<StrategyKind>,
    pub app: App,
}

const FH: StrategyKind = StrategyKind::FixedHome;
const AT2: StrategyKind = StrategyKind::AccessTree(TreeShape::binary());
const AT4: StrategyKind = StrategyKind::AccessTree(TreeShape::quad());

impl Workload {
    pub fn get(name: &str, size: Size) -> Option<Workload> {
        let full = size == Size::Full;
        let pick = |f: usize, s: usize| if full { f } else { s };
        let (side, strategies, app) = match name {
            "bh-fig8" => (
                pick(16, 4),
                vec![FH, AT2, AT4],
                App::Bh {
                    bodies: pick(4_000, 96),
                    steps: 3,
                    warmup: 1,
                },
            ),
            "kv-zipf-read" => (
                pick(16, 4),
                vec![FH, AT4],
                App::Kv(TapeSpec {
                    n_keys: pick(2_048, 64),
                    ops_per_client: pick(2_048, 32),
                    write_percent: 10,
                    zipf_s: 1.2,
                    val_bytes: 256,
                }),
            ),
            "kv-uniform-write-4k" => (
                pick(64, 8),
                vec![FH, AT4],
                App::Kv(TapeSpec {
                    n_keys: pick(32_768, 512),
                    ops_per_client: pick(32, 8),
                    write_percent: 50,
                    zipf_s: 0.0,
                    val_bytes: 256,
                }),
            ),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Workload {
            name,
            size,
            side,
            strategies,
            app,
        })
    }

    pub fn nprocs(&self) -> usize {
        self.side * self.side
    }

    /// Pre-run variables a point allocates.
    pub fn vars_per_point(&self) -> u64 {
        match self.app {
            // Bodies, the root pointer, bounds, depth and one reduction slot
            // per processor.
            App::Bh { bodies, .. } => (bodies + 3 + self.nprocs()) as u64,
            App::Kv(spec) => spec.n_keys as u64,
        }
    }
}

/// Seed of the simulated placement (homes, tree embeddings).
pub fn diva_seed(seed: u64) -> u64 {
    splitmix64(seed)
}

/// Seed of the generated inputs (bodies, tapes).
pub fn input_seed(seed: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ 0x1A9D)
}

/// What a traced point adds to a plain one.
#[derive(Debug, Default)]
pub struct PointTrace {
    /// Event-queue pushes and all queue operations.
    pub pushes: u64,
    pub queue_ops: u64,
    /// Most events pending at once.
    pub peak_len: u64,
    /// Host nanoseconds per operation of the recorded trace replayed
    /// through `EventQueue::push`/`pop`.
    pub replay_ns_per_op: f64,
    /// Program steps and the host seconds inside them (tape clients only).
    pub step_calls: u64,
    pub step_s: f64,
}

/// One simulated point: its host times, its simulated outputs and, in a
/// traced pass, the trace summary.
pub struct Point {
    /// Input generation + `Diva::new` + pre-run allocations.
    pub setup_s: f64,
    pub gen_s: f64,
    pub new_s: f64,
    /// Pre-run allocations. Barnes-Hut allocates inside its entry point, so
    /// there this is the timed copy of its allocations, made in traced
    /// passes only and not part of `setup_s`.
    pub alloc_s: f64,
    /// The application entry point or `run_driven`.
    pub run_s: f64,
    pub report: dm_diva::RunReport,
    pub digest: u64,
    pub interactions: u64,
    pub trace: Option<PointTrace>,
    /// Named host-time spans of this point: (name, start, end).
    pub spans: Vec<(&'static str, Instant, Instant)>,
}

fn drive<P: ProcProgram>(diva: Diva, programs: Vec<P>) -> Result<RunDone<P>, String> {
    match diva.run_driven(programs) {
        RunOutcome::Completed(done) => Ok(done),
        RunOutcome::Partitioned(_) => Err("run partitioned".into()),
        RunOutcome::Degraded(_) => Err("run degraded".into()),
    }
}

/// Summarise a recorded queue trace and time its replay.
fn summarise_queue(trace: &[QueueOp], t: &mut PointTrace) {
    let (mut len, mut peak, mut pushes) = (0i64, 0i64, 0u64);
    for op in trace {
        match op {
            QueueOp::Push(_) => {
                len += 1;
                pushes += 1;
                peak = peak.max(len);
            }
            QueueOp::Pop => len -= 1,
        }
    }
    t.pushes = pushes;
    t.queue_ops = trace.len() as u64;
    t.peak_len = peak as u64;
    // The payload stands in for the coordinator's event, about 32 bytes.
    let mut q: EventQueue<[u64; 4]> = EventQueue::new();
    let start = Instant::now();
    for op in trace {
        match *op {
            QueueOp::Push(time) => q.push(time, [time; 4]),
            QueueOp::Pop => {
                black_box(q.pop());
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    t.replay_ns_per_op = if trace.is_empty() {
        0.0
    } else {
        ns / trace.len() as f64
    };
}

/// Run point `idx` (one strategy) of `wl`. `traced` turns on the queue
/// trace and the step timers. The output checks are done after the timed
/// part and make the point fail when they fail.
pub fn run_point(wl: &Workload, idx: usize, seed: u64, traced: bool) -> Result<Point, String> {
    let strategy = wl.strategies[idx];
    let cfg = DivaConfig::new(Mesh::square(wl.side), strategy)
        .with_seed(diva_seed(seed))
        .with_queue_trace(traced);
    let topo = cfg.topology.clone();
    let mut h = Fnv::default();
    let mut trace = traced.then(PointTrace::default);
    let mut spans = Vec::new();
    let t0 = Instant::now();
    let point = match wl.app {
        App::Bh {
            bodies,
            steps,
            warmup,
        } => {
            let params = BhParams {
                n_bodies: bodies,
                timesteps: steps,
                warmup_steps: warmup,
                ..BhParams::new(0)
            };
            let input = plummer_bodies(input_seed(seed), bodies);
            let alloc_cfg = traced.then(|| cfg.clone());
            let t1 = Instant::now();
            let diva = Diva::new(cfg);
            let t2 = Instant::now();
            let out = barnes_hut::run_shared_driven(diva, params, &input);
            let t3 = Instant::now();
            spans.extend([("setup", t0, t2), ("run", t2, t3)]);
            if !out.procs_lost.is_empty() {
                return Err("Barnes-Hut lost processors".into());
            }
            // Every cell is freed by the end of the run, so what stays
            // registered is the pre-run allocation that `layers::bh_alloc`
            // repeats.
            let pre_run = out.report.vars_registered - out.report.vars_freed;
            if pre_run != wl.vars_per_point() {
                return Err(format!(
                    "Barnes-Hut kept {pre_run} variables, expected {}",
                    wl.vars_per_point()
                ));
            }
            let mut alloc_s = 0.0;
            if let (Some(t), Some(cfg)) = (&mut trace, alloc_cfg) {
                summarise_queue(&out.queue_trace, t);
                let (secs, allocs) = layers::bh_alloc(cfg, &input);
                if allocs != pre_run {
                    return Err(format!(
                        "allocation copy made {allocs} variables, Barnes-Hut {pre_run}"
                    ));
                }
                alloc_s = secs;
            }
            digest::bodies(h.word(out.interactions), &out.bodies);
            Point {
                setup_s: (t2 - t0).as_secs_f64(),
                gen_s: (t1 - t0).as_secs_f64(),
                new_s: (t2 - t1).as_secs_f64(),
                alloc_s,
                run_s: (t3 - t2).as_secs_f64(),
                report: out.report,
                digest: 0,
                interactions: out.interactions,
                trace,
                spans,
            }
        }
        App::Kv(spec) => {
            let tape = Arc::new(Tape::generate(&spec, wl.nprocs(), input_seed(seed)));
            let t1 = Instant::now();
            let mut diva = Diva::new(cfg);
            let t2 = Instant::now();
            let keys = alloc_keys(&mut diva, &spec, input_seed(seed));
            let clients: Vec<TapeClient> = (0..wl.nprocs())
                .map(|p| TapeClient::new(Arc::clone(&tape), Arc::clone(&keys), p))
                .collect();
            let t3 = Instant::now();
            let (report, checksum) = if let Some(t) = &mut trace {
                let done = drive(diva, clients.into_iter().map(Timed::new).collect())?;
                summarise_queue(&done.queue_trace, t);
                t.step_calls = done.results.iter().map(|p| p.calls).sum();
                t.step_s = done.results.iter().map(|p| p.ns).sum::<u64>() as f64 * 1e-9;
                (
                    done.report,
                    fold_checksums(done.results.iter().map(|p| &p.inner)),
                )
            } else {
                let done = drive(diva, clients)?;
                (done.report, fold_checksums(done.results.iter()))
            };
            let t4 = Instant::now();
            spans.extend([("setup", t0, t3), ("run", t3, t4)]);
            if report.serving.requests != tape.len() as u64 {
                return Err(format!(
                    "{} requests served, tape holds {}",
                    report.serving.requests,
                    tape.len()
                ));
            }
            h.word(checksum);
            Point {
                setup_s: (t3 - t0).as_secs_f64(),
                gen_s: (t1 - t0).as_secs_f64(),
                new_s: (t2 - t1).as_secs_f64(),
                alloc_s: (t3 - t2).as_secs_f64(),
                run_s: (t4 - t3).as_secs_f64(),
                report,
                digest: 0,
                interactions: 0,
                trace,
                spans,
            }
        }
    };
    digest::report(&mut h, &point.report, &topo);
    Ok(Point {
        digest: h.finish(),
        ..point
    })
}
