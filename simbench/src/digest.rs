//! Digests of simulated outputs, and the pinned digests they are checked
//! against.
//!
//! Every simulated field of a [`RunReport`] goes into the digest, so a
//! change that should only make the simulator faster must leave it
//! unchanged. Host-time numbers never enter it.

use dm_apps::Body;
use dm_diva::{Counter, RunReport};
use dm_mesh::{LinkId, Topology};

/// Pinned digests, one `workload seed digest` line each.
const PINNED: &str = include_str!("../digests.txt");

/// An FNV-1a hasher over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash every simulated field of `report`; `topo` gives the link count.
pub fn report(h: &mut Fnv, report: &RunReport, topo: &impl Topology) {
    h.str(&report.strategy).word(report.total_time);
    for l in 0..topo.link_slots() {
        let l = LinkId(l as u32);
        h.word(report.link_stats.msgs_on(l))
            .word(report.link_stats.bytes_on(l));
    }
    for c in Counter::ALL {
        h.word(report.counter(c));
    }
    for (name, r) in &report.regions {
        h.str(name)
            .word(r.wall_time)
            .word(r.compute_time)
            .word(r.congestion_msgs)
            .word(r.congestion_bytes)
            .word(r.total_msgs)
            .word(r.total_bytes);
    }
    h.word(report.messages_sent)
        .word(report.bytes_sent)
        .word(report.compute_time)
        .word(report.barriers)
        .word(report.vars_registered)
        .word(report.vars_freed)
        .word(report.live_vars_high_water);
    let f = &report.faults;
    for w in [
        f.links_degraded,
        f.links_failed,
        f.nodes_failed,
        f.rehome_msgs,
        f.rehome_bytes,
        f.links_healed,
        f.nodes_restored,
        f.locks_force_released,
        f.procs_lost,
    ] {
        h.word(w);
    }
    let s = &report.serving;
    h.word(s.requests)
        .word(s.local_hits)
        .word(s.bytes_moved)
        .word(s.replication_high_water);
    for &b in &s.response_hist {
        h.word(b);
    }
}

/// Hash the bit patterns of the final Barnes-Hut bodies.
pub fn bodies(h: &mut Fnv, bodies: &[Body]) {
    for b in bodies {
        for x in b.pos.iter().chain(&b.vel) {
            h.word(x.to_bits());
        }
        h.word(b.mass.to_bits()).word(b.work);
    }
}

/// The pinned digest of `workload` at `seed`, if one is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).expect("pinned digest is hex"))
    })
}

/// Check a pass digest: against the pinned value when there is one, and
/// against the first pass of the same invocation.
pub fn check(pinned: Option<u64>, first: Option<u64>, got: u64) -> Result<(), String> {
    match (pinned, first) {
        (Some(want), _) if want != got => Err(format!("digest {got:016x}, pinned {want:016x}")),
        (_, Some(want)) if want != got => Err(format!(
            "digest {got:016x} differs from the first pass {want:016x}"
        )),
        _ => Ok(()),
    }
}
