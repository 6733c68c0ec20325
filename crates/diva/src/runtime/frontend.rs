//! Execution-mode frontends of the coordinator.
//!
//! The [`Coordinator`](super::coordinator::Coordinator) drives the
//! simulation; *how* the per-processor programs are executed is abstracted
//! behind the [`Frontend`] trait:
//!
//! * [`ThreadedFrontend`] — the classic mode: one OS thread per simulated
//!   processor running an ordinary Rust closure, blocking operations
//!   exchanged over mpsc channels. Maximum ergonomics, poor scalability.
//! * [`DrivenFrontend`] — the event-driven mode: programs are
//!   [`ProcProgram`] state machines stepped inline by the coordinator. Zero
//!   threads, zero channel hops; this is what makes 64×64+ meshes practical.
//!
//! Both frontends produce the same round-based request schedule: a *round*
//! collects exactly one blocking operation from every runnable processor,
//! the coordinator handles them sorted by (issue time, processor id), and
//! every processor unblocked during the round issues its next operation in
//! the following round. Identical scheduling is what makes run reports of
//! the two modes bit-identical (see the parity tests in `dm-apps`).

use super::program::{Op, ProcProgram, StepCtx};
use super::shared::{Request, Response, SharedState, TimedRequest};
use crate::policy::AccessKind;
use crate::var::{Value, VarHandle};
use dm_engine::MachineConfig;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// How the coordinator obtains blocking operations from the simulated
/// processors and delivers their results.
pub(crate) trait Frontend {
    /// Collect the next round of requests — exactly one per runnable
    /// processor — into `batch`. Leaves `batch` empty when every processor
    /// is blocked (waiting for a completion or finished).
    fn gather(&mut self, batch: &mut Vec<TimedRequest>);

    /// Deliver the result of a blocking operation, unblocking `proc` so its
    /// next request appears in a subsequent round.
    fn respond(&mut self, proc: usize, resp: Response);

    /// Permanently remove `proc` from the schedule: its program is never
    /// stepped (or waited for) again and it owes no further requests.
    /// Called when a node failure fail-stops the resident application
    /// processor; the coordinator guarantees `respond` is never called for
    /// a killed processor afterwards.
    fn kill(&mut self, proc: usize);
}

/// The thread-per-processor frontend (the classic DIVA execution mode).
pub(crate) struct ThreadedFrontend {
    req_rx: Receiver<TimedRequest>,
    /// Per-processor response channels; `None` once the processor was
    /// killed (dropping the sender is what unwinds its blocked thread).
    resp_tx: Vec<Option<Sender<Response>>>,
    /// Number of worker threads currently running (i.e. that will send one
    /// more request).
    active: usize,
    /// Processors killed by a node failure: their parting requests (the
    /// unwinding thread's `finish` notification) are discarded by `gather`.
    killed: Vec<bool>,
}

impl ThreadedFrontend {
    pub(crate) fn new(
        req_rx: Receiver<TimedRequest>,
        resp_tx: Vec<Sender<Response>>,
        nprocs: usize,
    ) -> Self {
        ThreadedFrontend {
            req_rx,
            resp_tx: resp_tx.into_iter().map(Some).collect(),
            active: nprocs,
            killed: vec![false; nprocs],
        }
    }
}

impl Frontend for ThreadedFrontend {
    fn gather(&mut self, batch: &mut Vec<TimedRequest>) {
        while self.active > 0 {
            let req = self
                .req_rx
                .recv()
                .expect("a worker thread terminated without notifying the coordinator");
            if self.killed[req.req.proc()] {
                // The parting `Finish` a killed worker sends while
                // unwinding. The victim was blocked (outside the active
                // count) when it was killed, so this owes the round
                // nothing and is dropped without touching `active`.
                continue;
            }
            self.active -= 1;
            batch.push(req);
        }
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        self.resp_tx[proc]
            .as_ref()
            .expect("response to a killed processor")
            .send(resp)
            .expect("worker thread terminated while waiting for a response");
        self.active += 1;
    }

    fn kill(&mut self, proc: usize) {
        self.killed[proc] = true;
        // Sever the response channel: the victim's thread — blocked in its
        // response receive, since faults only fire while every live worker
        // is blocked — unwinds on the disconnect (silently, via
        // `resume_unwind`, not the panic hook).
        self.resp_tx[proc] = None;
    }
}

/// Per-processor state of the driven frontend.
struct Slot {
    /// Result of the last completed `Read` / `Recv`, until the program takes it.
    value: Option<Value>,
    /// Result of the last completed `Alloc`.
    handle: Option<VarHandle>,
    /// Modelled computation time accumulated since the last blocking op.
    pending_compute_ns: u64,
    /// Library overhead of fast-path hits since the last blocking op.
    pending_overhead_ns: u64,
    /// Fast-path read hits since the last blocking op.
    pending_hits: u64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            value: None,
            handle: None,
            pending_compute_ns: 0,
            pending_overhead_ns: 0,
            pending_hits: 0,
        }
    }

    /// Absorb a coordinator response into the slot (the processor becomes
    /// runnable; its next step sees the stored payload).
    fn absorb(&mut self, resp: Response) {
        match resp {
            Response::Value(v) => self.value = Some(v),
            Response::Handle(h) => self.handle = Some(h),
            Response::Done => {}
        }
    }
}

/// Step one program until it yields a blocking operation (fast-path reads
/// and `Compute` are absorbed inline) and convert it into a request.
///
/// It touches only the processor's own program and slot plus *read-only*
/// shared state (the coordinator is quiescent while a round is gathered), so
/// a round's requests do not depend on the order they are produced in; the
/// coordinator's `(issue time, processor id)` sort fixes the handling order
/// afterwards.
fn step_to_request<P: ProcProgram>(
    program: &mut P,
    slot: &mut Slot,
    proc: usize,
    nprocs: usize,
    mesh_dims: (usize, usize),
    machine: &MachineConfig,
    shared: &SharedState,
) -> TimedRequest {
    let req = loop {
        let mut ctx = StepCtx {
            proc,
            nprocs,
            mesh_dims,
            machine,
            value: &mut slot.value,
            handle: &mut slot.handle,
            pending_compute_ns: &mut slot.pending_compute_ns,
        };
        match program.step(&mut ctx) {
            Op::Compute { ns } => slot.pending_compute_ns += ns,
            Op::Read(var) => {
                if shared.fast_path && shared.has_copy(proc, var) {
                    // Same fast path as ProcCtx::read_value: a local hit
                    // costs only library overhead, charged to the next
                    // blocking operation.
                    slot.pending_overhead_ns += shared.local_access_ns;
                    slot.pending_hits += 1;
                    slot.value = Some(shared.value(var));
                    continue;
                }
                break Request::Access {
                    proc,
                    var,
                    kind: AccessKind::Read,
                    value: None,
                };
            }
            Op::Write(var, value) => {
                break Request::Access {
                    proc,
                    var,
                    kind: AccessKind::Write,
                    value: Some(value),
                }
            }
            Op::Alloc { bytes, value } => break Request::Alloc { proc, bytes, value },
            Op::Lock(var) => break Request::Lock { proc, var },
            Op::Unlock(var) => break Request::Unlock { proc, var },
            Op::Free(var) => break Request::Free { proc, var },
            Op::EndEpoch => break Request::EndEpoch { proc },
            Op::Barrier => break Request::Barrier { proc },
            Op::Region(name) => break Request::Region { proc, name },
            Op::Send {
                to,
                bytes,
                tag,
                value,
            } => {
                assert!(to < nprocs, "send to non-existent processor {to}");
                break Request::Send {
                    proc,
                    to,
                    bytes,
                    tag,
                    value,
                };
            }
            Op::Recv { from, tag } => {
                assert!(from < nprocs, "receive from non-existent processor {from}");
                break Request::Recv { proc, from, tag };
            }
            Op::Done => break Request::Finish { proc },
        }
    };
    TimedRequest {
        req,
        compute_ns: std::mem::take(&mut slot.pending_compute_ns),
        overhead_ns: std::mem::take(&mut slot.pending_overhead_ns),
        hits: std::mem::take(&mut slot.pending_hits),
    }
}

/// The event-driven frontend: [`ProcProgram`] state machines stepped inline.
pub(crate) struct DrivenFrontend<P: ProcProgram> {
    programs: Vec<P>,
    slots: Vec<Slot>,
    /// Processors whose previous operation completed; stepped at the next
    /// [`Frontend::gather`].
    runnable: Vec<usize>,
    shared: Arc<SharedState>,
    machine: MachineConfig,
    mesh_dims: (usize, usize),
}

impl<P: ProcProgram> DrivenFrontend<P> {
    pub(crate) fn new(
        programs: Vec<P>,
        shared: Arc<SharedState>,
        machine: MachineConfig,
        mesh_dims: (usize, usize),
    ) -> Self {
        let nprocs = programs.len();
        DrivenFrontend {
            programs,
            slots: (0..nprocs).map(|_| Slot::new()).collect(),
            runnable: (0..nprocs).collect(),
            shared,
            machine,
            mesh_dims,
        }
    }

    /// The final program states, consumed after the run completes.
    pub(crate) fn into_programs(self) -> Vec<P> {
        self.programs
    }
}

impl<P: ProcProgram> Frontend for DrivenFrontend<P> {
    fn gather(&mut self, batch: &mut Vec<TimedRequest>) {
        let nprocs = self.programs.len();
        while let Some(proc) = self.runnable.pop() {
            let req = step_to_request(
                &mut self.programs[proc],
                &mut self.slots[proc],
                proc,
                nprocs,
                self.mesh_dims,
                &self.machine,
                &self.shared,
            );
            batch.push(req);
        }
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        self.slots[proc].absorb(resp);
        self.runnable.push(proc);
    }

    fn kill(&mut self, proc: usize) {
        // Faults fire only while every processor is blocked, so the victim
        // cannot be runnable; the retain is a cheap safety net. Its program
        // stays owned (frozen mid-operation) until `into_programs`.
        self.runnable.retain(|&p| p != proc);
    }
}
