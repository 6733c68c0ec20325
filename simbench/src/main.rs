//! Benchmark of the DIVA simulator: one workload per invocation, timed for
//! a given number of seconds, with every simulated output checked.
//!
//! ```text
//! simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates plain and traced passes and prints the per-layer metrics.
//! The last line of standard output is one JSON object. The exit code is 0
//! only when every point passed its output check. See `README.md`.

mod digest;
mod layers;
mod tape;
mod workload;

use layers::median;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{run_point, App, Point, Size, Workload};

/// The seed used when `--seed` is absent. Its digests are pinned.
pub const DEFAULT_SEED: u64 = 1;
/// The seed kept out of tuning, for a later change to confirm its claim
/// on. Its digests are pinned too.
pub const HELD_OUT_SEED: u64 = 9_173;
/// Passes every invocation runs, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {}",
            a.workload,
            workload::NAMES.join(", ")
        ));
    }
    if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside 0..=600", a.seconds));
    }
    Ok(a)
}

/// All points of a workload, run once, serially.
struct Pass {
    points: Vec<Point>,
    failed: usize,
    /// Setup plus simulation, summed over points; checks excluded.
    wall_s: f64,
    setup_s: f64,
    requests: u64,
    digest: u64,
}

fn run_pass(wl: &Workload, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        points: Vec::new(),
        failed: 0,
        wall_s: 0.0,
        setup_s: 0.0,
        requests: 0,
        digest: 0,
    };
    for idx in 0..wl.strategies.len() {
        let result = catch_unwind(AssertUnwindSafe(|| run_point(wl, idx, seed, traced)));
        match result {
            Ok(Ok(p)) => {
                pass.wall_s += p.setup_s + p.run_s;
                pass.setup_s += p.setup_s;
                pass.requests += p.report.serving.requests;
                pass.digest = pass.digest.rotate_left(5) ^ p.digest;
                pass.points.push(p);
            }
            Ok(Err(e)) => {
                eprintln!("simbench: {} point {idx} failed: {e}", wl.name);
                pass.failed += 1;
            }
            Err(_) => {
                eprintln!("simbench: {} point {idx} panicked", wl.name);
                pass.failed += 1;
            }
        }
    }
    pass
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub passes: (usize, usize),
    /// Host-time spans of the traced passes, in microseconds since the
    /// start of the invocation: (pass, point, name, start, end).
    pub spans: Vec<(usize, usize, &'static str, f64, f64)>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `wl` at `seed` for about `seconds`: plain passes, and with `trace`
/// a traced pass after each plain one.
pub fn run(wl: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let origin = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut failed = 0;
    let mut first_digest = None;
    // Digests are pinned for the full-size inputs only.
    let pinned = digest::pinned(wl.name, seed).filter(|_| wl.size == Size::Full);
    loop {
        for on in [false, true] {
            if on && !trace {
                continue;
            }
            let pass = run_pass(wl, seed, on);
            eprintln!(
                "pass traced={} wall_s={:.6} setup_s={:.6} digest={:016x} at_s={:.3}",
                on as u8,
                pass.wall_s,
                pass.setup_s,
                pass.digest,
                origin.elapsed().as_secs_f64()
            );
            failed += pass.failed;
            if pass.failed == 0 {
                if let Err(e) = digest::check(pinned, first_digest, pass.digest) {
                    eprintln!("simbench: {} seed {seed}: {e}", wl.name);
                    failed += pass.points.len();
                }
                first_digest.get_or_insert(pass.digest);
            }
            if on {
                traced.push(pass);
            } else {
                plain.push(pass);
            }
        }
        let n = plain.len();
        let elapsed = origin.elapsed().as_secs_f64();
        if n >= MIN_PASSES && elapsed * (n + 1) as f64 / n as f64 > seconds {
            break;
        }
    }
    let attempted = (plain.len() + traced.len()) * wl.strategies.len();
    let walls = |ps: &[Pass]| median(ps.iter().map(|p| p.wall_s).collect());
    let metrics = if trace {
        layer_metrics(wl, seed, &traced, walls(&traced) - walls(&plain))
    } else {
        vec![
            m("wall_s", walls(&plain), "s"),
            m(
                "setup_s",
                median(plain.iter().map(|p| p.setup_s).collect()),
                "s",
            ),
            m(
                "requests_per_s",
                median(
                    plain
                        .iter()
                        .map(|p| ratio(p.requests as f64, p.wall_s))
                        .collect(),
                ),
                "1/s",
            ),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    let spans = traced
        .iter()
        .enumerate()
        .flat_map(|(i, pass)| {
            pass.points.iter().enumerate().flat_map(move |(j, p)| {
                p.spans.iter().map(move |&(name, a, b)| {
                    let us = |t: Instant| (t - origin).as_secs_f64() * 1e6;
                    (i, j, name, us(a), us(b))
                })
            })
        })
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        passes: (plain.len(), traced.len()),
        spans,
    }
}

fn tr(p: &Point) -> &workload::PointTrace {
    p.trace.as_ref().expect("traced pass without a trace")
}

/// The per-layer metrics: host times are medians over the traced passes,
/// simulated counts come from the last traced pass (they repeat exactly).
fn layer_metrics(wl: &Workload, seed: u64, traced: &[Pass], overhead_s: f64) -> Vec<Metric> {
    let median_sum = |f: &dyn Fn(&Point) -> f64| {
        median(
            traced
                .iter()
                .map(|p| p.points.iter().map(f).sum())
                .collect(),
        )
    };
    let last: &[Point] = traced.last().map_or(&[], |p| &p.points);
    let count = |f: &dyn Fn(&Point) -> u64| last.iter().map(f).sum::<u64>() as f64;
    let counter = |c: dm_diva::Counter| count(&|p| p.report.counter(c));
    let (decomp_s, tree_nodes) = layers::decomposition(wl);
    let new_s = median_sum(&|p| p.new_s);
    let alloc_s = median_sum(&|p| p.alloc_s);
    let run_s = median_sum(&|p| p.run_s);
    let kernel_s = match wl.app {
        App::Bh { .. } => layers::bh_kernel(wl, seed),
        // The key sampler is the only application code of a tape workload.
        App::Kv(_) => median_sum(&|p| p.gen_s),
    };
    // Only tape clients can be wrapped in a step timer: Barnes-Hut programs
    // are private to dm-apps, so on `bh-fig8` the step figures and `self_s`
    // do not exist and read 0.
    let (step_s, self_s) = match wl.app {
        App::Bh { .. } => (0.0, 0.0),
        App::Kv(_) => {
            let step_s = median_sum(&|p| tr(p).step_s);
            (step_s, median_sum(&|p| p.run_s - tr(p).step_s))
        }
    };
    let events = count(&|p| tr(p).pushes);
    let requests = count(&|p| p.report.serving.requests);
    let local_hits = count(&|p| p.report.serving.local_hits);
    let messages = count(&|p| p.report.messages_sent);
    let traversals = count(&|p| p.report.link_stats.total_msgs());
    let replay = layers::policy_replay(wl, seed);
    use dm_diva::Counter as C;
    vec![
        m("mesh.decomp_build_s", decomp_s, "s"),
        m("mesh.tree_nodes", tree_nodes as f64, "count"),
        m("diva.new_s", new_s, "s"),
        m("diva.alloc_s", alloc_s, "s"),
        m(
            "diva.vars_allocated",
            wl.vars_per_point() as f64 * wl.strategies.len() as f64,
            "count",
        ),
        m("diva.run_s", run_s, "s"),
        m("diva.events", events, "count"),
        m("diva.ns_per_event", ratio(run_s * 1e9, events), "ns"),
        m("diva.requests", requests, "count"),
        m("diva.local_hits", local_hits, "count"),
        m("diva.hit_ratio", ratio(local_hits, requests), "fraction"),
        m("diva.barriers", count(&|p| p.report.barriers), "count"),
        m(
            "diva.live_vars_high_water",
            last.iter()
                .map(|p| p.report.live_vars_high_water)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m("diva.self_s", self_s, "s"),
        m("policy.read_misses", counter(C::ReadMiss), "count"),
        m("policy.writes_remote", counter(C::WriteRemote), "count"),
        m("policy.invalidations", counter(C::Invalidations), "count"),
        m("policy.copies_created", counter(C::CopiesCreated), "count"),
        m("policy.control_msgs", counter(C::ControlMessages), "count"),
        m("policy.data_msgs", counter(C::DataMessages), "count"),
        m(
            "policy.bytes_moved",
            count(&|p| p.report.serving.bytes_moved),
            "bytes",
        ),
        m(
            "policy.on_access_ns",
            ratio(replay.access_ns as f64, replay.access_calls as f64),
            "ns",
        ),
        m(
            "policy.on_message_ns",
            ratio(replay.message_ns as f64, replay.message_calls as f64),
            "ns",
        ),
        m(
            "policy.calls",
            (replay.access_calls + replay.message_calls) as f64,
            "count",
        ),
        m("net.messages", messages, "count"),
        m("net.bytes", count(&|p| p.report.bytes_sent), "bytes"),
        m("net.link_traversals", traversals, "count"),
        m("net.hops_per_msg", ratio(traversals, messages), "hops"),
        m(
            "net.congestion_msgs",
            last.iter()
                .map(|p| p.report.congestion_msgs())
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m(
            "net.transmit_ns",
            ratio(replay.transmit_ns as f64, replay.transmit_calls as f64),
            "ns",
        ),
        m("net.transmit_calls", replay.transmit_calls as f64, "count"),
        m("queue.ops", count(&|p| tr(p).queue_ops), "count"),
        m(
            "queue.peak_len",
            last.iter().map(|p| tr(p).peak_len).max().unwrap_or(0) as f64,
            "count",
        ),
        m(
            "queue.replay_ns_per_op",
            median(
                traced
                    .iter()
                    .flat_map(|p| p.points.iter().map(|q| tr(q).replay_ns_per_op))
                    .collect(),
            ),
            "ns",
        ),
        m("apps.step_calls", count(&|p| tr(p).step_calls), "count"),
        m("apps.step_s", step_s, "s"),
        m("apps.kernel_s", kernel_s, "s"),
        m("apps.interactions", count(&|p| p.interactions), "count"),
        m("trace.overhead_s", overhead_s, "s"),
    ]
}

/// The result line: one JSON object.
fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wl = Workload::get(&args.workload, Size::Full).expect("workload name was checked");
    let out = run(&wl, args.seed, args.seconds, args.trace);
    // Spans stay in memory during the run and are written once, here.
    for (pass, point, name, a, b) in &out.spans {
        eprintln!("span pass={pass} point={point} name={name} start_us={a:.1} end_us={b:.1}");
    }
    println!(
        "workload {} seed {} passes {} plain / {} traced",
        wl.name, args.seed, out.passes.0, out.passes.1
    );
    for metric in &out.metrics {
        println!("{:<28} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{:<28} {:>18.6} fraction",
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64)
    );
    println!("{}", json_line(&out));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
