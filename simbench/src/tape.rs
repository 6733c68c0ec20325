//! Request tapes and the small programs that replay them.
//!
//! A tape holds every operation of every closed-loop client, drawn from the
//! benchmark seed before the run. The simulated clients only replay it, so
//! the program under test receives generated inputs and nothing else.

use dm_apps::workload::ZipfSampler;
use dm_diva::{Diva, Op, ProcProgram, StepCtx, VarHandle};
use dm_rng::{splitmix64, ChaCha8Rng};
use std::sync::Arc;
use std::time::Instant;

/// Shape of a KV request tape.
#[derive(Debug, Clone, Copy)]
pub struct TapeSpec {
    /// Number of keys (one shared variable each).
    pub n_keys: usize,
    /// Operations issued by every client.
    pub ops_per_client: usize,
    /// Percentage of operations that are writes.
    pub write_percent: u32,
    /// Zipf exponent of the key popularity; 0 is uniform.
    pub zipf_s: f64,
    /// Size of every value in bytes.
    pub val_bytes: u32,
}

/// One client operation: a read of `key`, or a write of `write` into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    pub key: u32,
    pub write: Option<u64>,
}

/// The operations of every client, indexed by processor.
#[derive(Debug, PartialEq, Eq)]
pub struct Tape {
    pub clients: Vec<Vec<TapeOp>>,
}

impl Tape {
    /// Draw the tape of `clients` clients from `seed`: keys through the
    /// `dm-apps` Zipf sampler, then the read/write coin, then the value.
    pub fn generate(spec: &TapeSpec, clients: usize, seed: u64) -> Tape {
        let zipf = ZipfSampler::new(spec.n_keys, spec.zipf_s);
        let clients = (0..clients)
            .map(|c| {
                let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(
                    seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
                (0..spec.ops_per_client)
                    .map(|_| {
                        let key = zipf.sample(&mut rng) as u32;
                        let write =
                            (rng.gen_range(0..100u32) < spec.write_percent).then(|| rng.next_u64());
                        TapeOp { key, write }
                    })
                    .collect()
            })
            .collect();
        Tape { clients }
    }

    /// Total operations over all clients.
    pub fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }
}

/// Allocate the key space before the run: round-robin owners and a
/// seed-dependent initial value per key.
pub fn alloc_keys(diva: &mut Diva, spec: &TapeSpec, seed: u64) -> Arc<Vec<VarHandle>> {
    let nprocs = diva.num_procs();
    let keys = (0..spec.n_keys)
        .map(|k| {
            let init = (k as u64).wrapping_mul(0x9D8F_3B1D) ^ seed;
            diva.alloc(k % nprocs, spec.val_bytes, init)
        })
        .collect();
    Arc::new(keys)
}

/// A closed-loop client that replays its tape, then meets the others at a
/// closing barrier. It folds every value it reads into `checksum`.
pub struct TapeClient {
    tape: Arc<Tape>,
    keys: Arc<Vec<VarHandle>>,
    me: usize,
    next: usize,
    pending_read: bool,
    at_barrier: bool,
    pub checksum: u64,
}

impl TapeClient {
    pub fn new(tape: Arc<Tape>, keys: Arc<Vec<VarHandle>>, me: usize) -> Self {
        TapeClient {
            tape,
            keys,
            me,
            next: 0,
            pending_read: false,
            at_barrier: false,
            checksum: 0,
        }
    }
}

impl ProcProgram for TapeClient {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if self.pending_read {
            self.pending_read = false;
            self.checksum = self
                .checksum
                .rotate_left(7)
                .wrapping_add(*ctx.take::<u64>());
        }
        if let Some(op) = self.tape.clients[self.me].get(self.next) {
            self.next += 1;
            let var = self.keys[op.key as usize];
            return match op.write {
                Some(v) => Op::Write(var, Arc::new(v)),
                None => {
                    self.pending_read = true;
                    Op::Read(var)
                }
            };
        }
        if self.at_barrier {
            Op::Done
        } else {
            self.at_barrier = true;
            Op::Barrier
        }
    }
}

/// Fold the clients' checksums in processor order.
pub fn fold_checksums<'a>(clients: impl Iterator<Item = &'a TapeClient>) -> u64 {
    clients.fold(0, |acc, c| acc.rotate_left(13) ^ c.checksum)
}

/// A program wrapper that counts the calls of `step` and the host time spent
/// in them: the program-step span of a traced run, kept as one running sum
/// per processor instead of one record per call.
pub struct Timed<P> {
    pub inner: P,
    pub calls: u64,
    pub ns: u64,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl<P: ProcProgram> ProcProgram for Timed<P> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        let t = Instant::now();
        let op = self.inner.step(ctx);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        op
    }
}
