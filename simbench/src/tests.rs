//! Self-tests at smoke size.

use super::*;
use crate::digest::Fnv;
use crate::tape::{Tape, TapeSpec};

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("key present");
                let rest = &entry[at + key.len() + 2..];
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn smoke_run_emits_every_metric_with_its_unit() {
    for name in workload::NAMES {
        let wl = Workload::get(name, Size::Smoke).expect("known workload");
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(&wl, DEFAULT_SEED, 0.0, trace);
            assert_eq!(out.failed, 0, "{name} failed a check");
            assert!(out.attempted >= MIN_PASSES * wl.strategies.len());
            assert_eq!(emitted(&out), declared(list), "{name} {list}");
            for metric in &out.metrics {
                assert!(metric.value.is_finite(), "{name} {}", metric.name);
            }
            let line = json_line(&out);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
        }
    }
}

#[test]
fn tapes_are_a_function_of_the_seed() {
    let spec = TapeSpec {
        n_keys: 128,
        ops_per_client: 64,
        write_percent: 50,
        zipf_s: 1.2,
        val_bytes: 256,
    };
    let a = Tape::generate(&spec, 16, 7);
    assert_eq!(a, Tape::generate(&spec, 16, 7));
    assert_ne!(a, Tape::generate(&spec, 16, 8));
    assert_eq!(a.len(), 16 * 64);
    assert!(a.clients.iter().flatten().all(|op| op.key < 128));
    let writes = a
        .clients
        .iter()
        .flatten()
        .filter(|op| op.write.is_some())
        .count();
    assert!((400..624).contains(&writes), "{writes} writes of 1024");
}

#[test]
fn digest_check_rejects_a_perturbed_report() {
    let wl = Workload::get("kv-zipf-read", Size::Smoke).expect("known workload");
    let point = workload::run_point(&wl, 1, DEFAULT_SEED, false).expect("point runs");
    let topo = dm_mesh::Mesh::square(wl.side);
    let hash = |r: &dm_diva::RunReport| {
        let mut h = Fnv::default();
        digest::report(&mut h, r, &topo);
        h.finish()
    };
    let good = hash(&point.report);
    assert_eq!(good, hash(&point.report.clone()));
    let mut perturbed = point.report.clone();
    perturbed.serving.response_hist[3] += 1;
    let bad = hash(&perturbed);
    assert_ne!(good, bad);
    assert!(digest::check(None, Some(good), good).is_ok());
    assert!(digest::check(None, Some(good), bad).is_err());
    assert!(digest::check(Some(good), None, bad).is_err());
}

#[test]
fn pinned_digests_cover_the_default_and_held_out_seeds() {
    for name in workload::NAMES {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let want = digest::pinned(name, seed).expect("digest pinned");
            assert!(digest::check(Some(want), Some(want), want).is_ok());
            assert!(digest::check(Some(want), Some(want ^ 1), want ^ 1).is_err());
        }
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = parse("--workload bh-fig8 --seed 4 --seconds 2 --trace 1").expect("valid");
    assert_eq!((a.seed, a.seconds, a.trace), (4, 2.0, true));
    assert!(parse("--workload bh-fig9").is_err());
    assert!(parse("--workload bh-fig8 --trace 2").is_err());
    assert!(parse("--workload bh-fig8 --seed").is_err());
    assert!(parse("--workload bh-fig8 --sed 3").is_err());
}
