//! Per-layer measurements of a traced run that time calls the workload
//! itself does not expose: decomposition build, the Barnes-Hut allocation
//! copy, application kernels and the replay of request tapes through a
//! policy and the link network.

use crate::tape::{Tape, TapeSpec};
use crate::workload::{diva_seed, input_seed, App, Workload};
use dm_apps::barnes_hut::{pairwise_accel, BhParams};
use dm_apps::octree::ArenaOctree;
use dm_apps::workload::{bounding_cube, plummer_bodies};
use dm_apps::Body;
use dm_diva::policy::access_tree::AccessTreePolicy;
use dm_diva::policy::fixed_home::FixedHomePolicy;
use dm_diva::{
    AccessKind, Counter, Diva, DivaConfig, EmbeddingMode, Op, Policy, PolicyEnv, PolicyMsg,
    ProcProgram, RunOutcome, StepCtx, StrategyKind, TxId, VarHandle,
};
use dm_engine::{EventQueue, LinkNetwork, MachineConfig, SimTime, GLOBAL_REGION};
use dm_mesh::{AnyTopology, DecompositionTree, Mesh, NodeId, TreeShape};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Tape operations replayed per strategy: a bounded prefix, taken round by
/// round over the clients.
pub const REPLAY_OPS: usize = 1 << 16;

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host seconds to build the decomposition trees a point of `wl` uses (the
/// access-tree shapes, the barrier's 4-ary tree and, for Barnes-Hut, the
/// 2-ary leaf order), summed over points; and their node count.
pub fn decomposition(wl: &Workload) -> (f64, u64) {
    let topo = AnyTopology::Mesh(Mesh::square(wl.side));
    let mut secs = 0.0;
    let mut nodes = 0;
    for strategy in &wl.strategies {
        let mut shapes = vec![TreeShape::quad()];
        if let StrategyKind::AccessTree(shape) = strategy {
            shapes.push(*shape);
        }
        if matches!(wl.app, App::Bh { .. }) {
            shapes.push(TreeShape::binary());
        }
        for shape in shapes {
            let samples = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    let tree = DecompositionTree::build_on(&topo, shape);
                    let s = t.elapsed().as_secs_f64();
                    nodes += tree.len() as u64;
                    black_box(tree);
                    s
                })
                .collect();
            secs += median(samples);
        }
    }
    (secs, nodes / 5)
}

/// Host seconds of the pre-run allocations of a Barnes-Hut point, and the
/// number of variables they make. `run_shared_driven` allocates inside the
/// entry point, so the benchmark repeats its sequence of `Diva::alloc` calls
/// on a fresh instance; the caller checks the count against the real run.
pub fn bh_alloc(cfg: DivaConfig, bodies: &[Body]) -> (f64, u64) {
    let n = bodies.len();
    let leaf_order: Vec<usize> = DecompositionTree::build_on(&cfg.topology, TreeShape::binary())
        .leaf_order()
        .iter()
        .map(|p| p.index())
        .collect();
    let mut diva = Diva::new(cfg);
    let nprocs = diva.num_procs();
    let t = Instant::now();
    for (i, b) in bodies.iter().enumerate() {
        diva.alloc(leaf_order[i * nprocs / n], 80, *b);
    }
    let (centre, half) = bounding_cube(bodies);
    diva.alloc(0, 16, VarHandle(u32::MAX));
    diva.alloc(0, 64, (centre, half));
    diva.alloc(0, 8, 0u32);
    for p in 0..nprocs {
        diva.alloc(p, 64, ([0.0f64; 3], [0.0f64; 3], 0u32));
    }
    let secs = t.elapsed().as_secs_f64();
    let registered = match diva.run_driven((0..nprocs).map(|_| Idle).collect()) {
        RunOutcome::Completed(done) => done.report.vars_registered,
        _ => 0,
    };
    (secs, registered)
}

/// A program that ends at once, to read an instance's registered variables.
struct Idle;

impl ProcProgram for Idle {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
        Op::Done
    }
}

/// Host seconds of the sequential Barnes-Hut kernel (`ArenaOctree::build`,
/// `compute_com` and `force` for every body) on the workload's bodies, once
/// per simulated time step and point.
pub fn bh_kernel(wl: &Workload, seed: u64) -> f64 {
    let App::Bh {
        bodies: n, steps, ..
    } = wl.app
    else {
        return 0.0;
    };
    let bodies = plummer_bodies(input_seed(seed), n);
    let theta = BhParams::new(n).theta;
    let (centre, half) = bounding_cube(&bodies);
    let mut tree = ArenaOctree::new();
    let t = Instant::now();
    for _ in 0..steps * wl.strategies.len() {
        tree.build(&bodies, centre, half);
        tree.compute_com(&bodies);
        for i in 0..bodies.len() {
            black_box(tree.force(i, &bodies, theta, pairwise_accel));
        }
    }
    t.elapsed().as_secs_f64()
}

/// The tape the policy replay runs: the workload's own for the KV
/// workloads. Barnes-Hut programs are private to `dm-apps`, so their
/// accesses cannot be recorded; `bh-fig8` replays the read-heavy Zipf tape
/// shape of `kv-zipf-read` on its mesh instead, and its policy and transmit
/// times describe that tape, not Barnes-Hut.
fn replay_spec(wl: &Workload) -> TapeSpec {
    match wl.app {
        App::Kv(spec) => spec,
        _ => TapeSpec {
            n_keys: 8 * wl.nprocs(),
            ops_per_client: 2_048,
            write_percent: 10,
            zipf_s: 1.2,
            val_bytes: 256,
        },
    }
}

/// Result of replaying a tape through a policy.
#[derive(Debug, Default)]
pub struct Replay {
    pub access_calls: u64,
    pub access_ns: u64,
    pub message_calls: u64,
    pub message_ns: u64,
    pub transmit_calls: u64,
    pub transmit_ns: u64,
}

/// A `PolicyEnv` that sends through a `LinkNetwork` and delivers through an
/// `EventQueue`, timing every `transmit` call.
struct ReplayEnv {
    net: LinkNetwork,
    queue: EventQueue<(NodeId, PolicyMsg)>,
    now: SimTime,
    var_bytes: u32,
    presence: HashSet<(u32, u32)>,
    transmit_calls: u64,
    transmit_ns: u64,
}

impl PolicyEnv for ReplayEnv {
    fn now(&self) -> SimTime {
        self.now
    }
    fn config(&self) -> &MachineConfig {
        self.net.config()
    }
    fn topology(&self) -> &AnyTopology {
        self.net.topology()
    }
    fn var_bytes(&self, _var: VarHandle) -> u32 {
        self.var_bytes
    }
    fn send(&mut self, from: NodeId, to: NodeId, bytes: u32, msg: PolicyMsg) -> SimTime {
        let t = Instant::now();
        let d = self.net.transmit(self.now, from, to, bytes, GLOBAL_REGION);
        self.transmit_ns += t.elapsed().as_nanos() as u64;
        self.transmit_calls += 1;
        self.queue.push(d.arrival, (to, msg));
        d.sender_free
    }
    fn complete(&mut self, _tx: TxId) {}
    fn complete_at(&mut self, _tx: TxId, _at: SimTime) {}
    fn set_presence(&mut self, proc: NodeId, var: VarHandle, present: bool) {
        if present {
            self.presence.insert((proc.0, var.0));
        } else {
            self.presence.remove(&(proc.0, var.0));
        }
    }
    fn bump(&mut self, _counter: Counter, _n: u64) {}
}

/// Replay the first [`REPLAY_OPS`] operations of the workload's tape
/// through each strategy's policy, one access at a time: every access is
/// handed to `Policy::on_access` and its messages are delivered until the
/// protocol is quiet. Reads of a processor that holds a copy are skipped,
/// as the runtime's fast path does. Times are per call and include the
/// timer itself and, for the policy calls, the nested `transmit` calls.
pub fn policy_replay(wl: &Workload, seed: u64) -> Replay {
    let spec = replay_spec(wl);
    let nprocs = wl.nprocs();
    let tape = Tape::generate(&spec, nprocs, input_seed(seed));
    let topo = AnyTopology::Mesh(Mesh::square(wl.side));
    let mut r = Replay::default();
    for &strategy in &wl.strategies {
        let mut policy: Box<dyn Policy> = match strategy {
            StrategyKind::AccessTree(shape) => Box::new(AccessTreePolicy::new_on(
                &topo,
                shape,
                EmbeddingMode::Modified,
                diva_seed(seed),
            )),
            StrategyKind::FixedHome => Box::new(FixedHomePolicy::new_on(&topo, diva_seed(seed))),
        };
        let mut env = ReplayEnv {
            net: LinkNetwork::new(topo.clone(), MachineConfig::parsytec_gcel()),
            queue: EventQueue::new(),
            now: 0,
            var_bytes: spec.val_bytes,
            presence: HashSet::new(),
            transmit_calls: 0,
            transmit_ns: 0,
        };
        for k in 0..spec.n_keys {
            let owner = NodeId((k % nprocs) as u32);
            policy.register_var(VarHandle(k as u32), owner, spec.val_bytes);
            env.presence.insert((owner.0, k as u32));
        }
        let ops = (0..spec.ops_per_client)
            .flat_map(|i| (0..nprocs).map(move |c| (c, i)))
            .take(REPLAY_OPS);
        for (tx, (c, i)) in ops.enumerate() {
            let op = tape.clients[c][i];
            let kind = match op.write {
                Some(_) => AccessKind::Write,
                None if env.presence.contains(&(c as u32, op.key)) => continue,
                None => AccessKind::Read,
            };
            let t = Instant::now();
            policy.on_access(
                &mut env,
                TxId(tx as u64),
                NodeId(c as u32),
                VarHandle(op.key),
                kind,
            );
            r.access_ns += t.elapsed().as_nanos() as u64;
            r.access_calls += 1;
            while let Some((time, (at, msg))) = env.queue.pop() {
                env.now = time;
                let t = Instant::now();
                policy.on_message(&mut env, at, msg);
                r.message_ns += t.elapsed().as_nanos() as u64;
                r.message_calls += 1;
            }
        }
        r.transmit_calls += env.transmit_calls;
        r.transmit_ns += env.transmit_ns;
    }
    r
}
