//! # dm-bench — the experiment harness of the DIVA reproduction
//!
//! One module per group of paper figures, plus shared helpers. Every figure of
//! the evaluation section has a corresponding binary in `src/bin/` that
//! regenerates the figure's rows:
//!
//! | binary  | paper figure | content |
//! |---------|--------------|---------|
//! | `fig3`  | Figure 3     | matrix multiplication on a fixed mesh: congestion and communication-time ratios vs block size |
//! | `fig4`  | Figure 4     | matrix multiplication with a fixed block size: ratios vs network size |
//! | `fig6`  | Figure 6     | bitonic sorting on a fixed mesh: ratios vs keys per processor |
//! | `fig7`  | Figure 7     | bitonic sorting with fixed keys: ratios vs network size |
//! | `fig8`  | Figure 8     | Barnes-Hut: total congestion and execution time vs number of bodies |
//! | `fig9`  | Figure 9     | Barnes-Hut: tree-building phase congestion and time |
//! | `fig10` | Figure 10    | Barnes-Hut: force-computation phase congestion, time and local computation |
//! | `fig11` | Figure 11    | Barnes-Hut: scaling the network size with N = bodies-per-processor · P |
//! | `fig12` | (beyond paper) | all five strategies across the four topologies (mesh, torus, hypercube, fat tree) at matched node counts, uniform-random + Barnes-Hut workloads |
//! | `fig13` | (beyond paper) | graceful degradation: the strategies under a seeded fault-scenario ladder (degraded links, failed links, failed nodes) with deltas vs the intact baseline |
//! | `fig14` | (beyond paper) | KV serving tier: the strategies under Zipf-skewed, migrating-hotspot and churning request workloads, with local-hit ratio, bytes moved, response-time percentiles and replication high-water |
//! | `scale` | (beyond paper) | network-size sweeps at 64×64/128×128: matmul + bitonic, or Barnes-Hut with `--bh` |
//!
//! All binaries run on the event-driven backend and accept four scale tiers
//! (see [`Scale`]): `--smoke` (seconds — the CI figure-suite gate), the
//! default (reduced scale preserving the qualitative shape of every result),
//! `--paper` (the paper's full scale) and `--mega` (beyond-paper scale:
//! 64×64 meshes, ≥100 000-body Barnes-Hut sweeps). `--json FILE` writes the
//! rows — plus sweep metadata for the Barnes-Hut figures — as JSON, and
//! turns on streaming JSONL checkpoints (`<FILE>.partial.jsonl`): a killed
//! sweep resumes with `--resume`, splits across machines with
//! `--shard i/n` + the `merge` binary, and `--snapshot FILE` emits the
//! normalized `BENCH_<fig>.json` snapshot the `trajectory` binary diffs
//! across commits (see [`stream`]). See `crates/bench/README.md` and
//! `docs/running-experiments.md` for per-binary flags and expected
//! runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bh_exp;
pub mod bitonic_exp;
pub mod executor;
pub mod fault_exp;
pub mod json;
pub mod kv_exp;
pub mod matmul_exp;
pub mod stream;
pub mod table;
pub mod timing;
pub mod topo_exp;

use dm_diva::{Diva, DivaConfig, StrategyKind};
use dm_engine::MachineConfig;
use dm_mesh::{AnyTopology, Mesh, TreeShape};
use json::ToJson;

/// The scale tier of a figure run. Every `fig*` binary supports all four
/// (the `scale` binary, already beyond-paper by design, has `--smoke` and
/// `--mega` tiers only); the exact sweep points per tier live next to the
/// figure's sweep function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast CI tier: tiny meshes and inputs, used by the figure-suite
    /// smoke gate which diffs the rendered tables against checked-in goldens.
    Smoke,
    /// The default: reduced scale preserving the qualitative shape of every
    /// result, re-tuned upwards for the event-driven backend.
    Default,
    /// The paper's full scale (16×16/32×32 meshes, up to 60 000 bodies).
    Paper,
    /// Beyond-paper scale: 64×64+ meshes and ≥100 000-body Barnes-Hut
    /// sweeps, only reachable on the event-driven backend.
    Mega,
}

impl Scale {
    /// Tier name as printed in figure titles and JSON metadata.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Paper => "paper",
            Scale::Mega => "mega",
        }
    }
}

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Run at the paper's full scale (`--paper`).
    pub paper: bool,
    /// Run at the tiny CI smoke scale (`--smoke`).
    pub smoke: bool,
    /// Run at beyond-paper scale (`--mega`; implies neither of the above).
    pub mega: bool,
    /// Optional path to write the result rows as JSON.
    pub json: Option<String>,
    /// Optional seed override.
    pub seed: u64,
    /// Per-step variable reclamation for the Barnes-Hut figures
    /// (`--no-reclaim` turns it off). Simulated quantities are bit-identical
    /// either way; only the live-variable peak — and the host memory of a
    /// long sweep — differ.
    pub reclaim: bool,
    /// Optional override of the Barnes-Hut time-step count
    /// (`--timesteps N`); reclamation is what makes large step counts
    /// affordable at mega scale.
    pub timesteps: Option<usize>,
    /// Worker-thread count of the parallel sweep executor (`--jobs N`).
    /// `None` uses the host's available parallelism; `1` runs the sweep
    /// serially on the calling thread. Every simulated quantity is identical
    /// for every value — only host wall-clock (and the per-job host-ms
    /// fields of the JSON sidecar) changes.
    pub jobs: Option<usize>,
    /// Resume from the checkpoint sidecar next to the `--json` output
    /// (`--resume`): completed jobs are restored from
    /// `<json>.partial.jsonl` and only the missing ones execute. The
    /// reassembled tables and JSON are byte-identical to an uninterrupted
    /// run (modulo per-job `host_ms`). See [`stream`].
    pub resume: bool,
    /// Run only shard `i` of `n` (`--shard i/n`): job `j` of the
    /// deterministic description-order job list belongs to shard `i` iff
    /// `j % n == i`. A shard run writes its own sidecar and renders
    /// nothing; the `merge` binary stitches shard sidecars back into the
    /// canonical one, which a final `--resume` run renders. See [`stream`].
    pub shard: Option<(usize, usize)>,
    /// Optional path for a normalized `BENCH_<fig>.json` perf-trajectory
    /// snapshot (`--snapshot FILE`): figure tag, tier, seed and the full
    /// result payload, in the shape the `trajectory` binary diffs across
    /// commits (simulated quantities exactly; `host_ms` informational).
    pub snapshot: Option<String>,
    /// Strike times of the fig13 fault scenarios (`--strike-at 0,25,50,75`),
    /// as percents of the group's *intact* run length. Empty means `[0]`
    /// (every fault strikes at t=0). A non-zero strike makes each faulted
    /// job run an intact calibration copy first to convert the percent into
    /// an absolute simulated time — jobs stay pure, so `--resume`/`--shard`
    /// keep working, at the cost of one extra run per non-zero-strike point.
    pub strike_at: Vec<u64>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            paper: false,
            smoke: false,
            mega: false,
            json: None,
            seed: 0x5EED,
            reclaim: true,
            timesteps: None,
            jobs: None,
            resume: false,
            shard: None,
            snapshot: None,
            strike_at: Vec::new(),
        }
    }
}

/// Which of a binary's extra boolean flags were present on the command line
/// (second half of [`HarnessOpts::parse`]).
#[derive(Debug, Clone)]
pub struct ExtraFlags {
    names: Vec<&'static str>,
    seen: Vec<bool>,
}

impl ExtraFlags {
    /// Whether `flag` (e.g. `"--bh"`) was given. Panics if the flag was not
    /// declared in the [`HarnessOpts::parse`] call — a typo in the binary,
    /// not a user error.
    pub fn has(&self, flag: &str) -> bool {
        match self.names.iter().position(|n| *n == flag) {
            Some(i) => self.seen[i],
            None => panic!("flag {flag} was not declared in HarnessOpts::parse"),
        }
    }
}

/// Why [`HarnessOpts::parse_args`] returned no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h` was given.
    Help,
    /// An unknown argument, or a flag with a missing or malformed value.
    Invalid(String),
}

/// The usage line of a figure binary with the given extra flags.
fn usage(extra_flags: &[&str]) -> String {
    let mut line = String::from(
        "usage: <fig> [--smoke|--paper|--mega] [--json FILE] [--seed N] [--jobs N] \
         [--resume] [--shard I/N] [--snapshot FILE] [--strike-at P1,P2,...] \
         [--no-reclaim] [--timesteps N]",
    );
    for f in extra_flags {
        line.push_str(&format!(" [{f}]"));
    }
    line
}

/// A positive integer flag value.
fn positive(flag: &str, v: &str) -> Result<usize, ArgError> {
    v.parse()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| ArgError::Invalid(format!("{flag} {v}: needs a positive integer")))
}

impl HarnessOpts {
    /// The selected scale tier. When several tier flags are given the
    /// largest wins (`--mega` > `--paper` > `--smoke`).
    pub fn scale(&self) -> Scale {
        if self.mega {
            Scale::Mega
        } else if self.paper {
            Scale::Paper
        } else if self.smoke {
            Scale::Smoke
        } else {
            Scale::Default
        }
    }

    /// The worker-thread count of the sweep executor: `--jobs N` if given,
    /// the host's available parallelism otherwise. Each simulation runs on
    /// one thread, so this is also the number of cores a sweep occupies.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The fig13 strike-time axis: the `--strike-at` percents, or `[0]`
    /// when the flag was not given (all faults strike at t=0).
    pub fn strikes(&self) -> Vec<u64> {
        if self.strike_at.is_empty() {
            vec![0]
        } else {
            self.strike_at.clone()
        }
    }

    /// Parse the options from the command line. Binaries with extra boolean
    /// flags of their own use [`HarnessOpts::parse`].
    pub fn from_args() -> Self {
        Self::parse(&[]).0
    }

    /// Parse the shared harness options plus the listed binary-specific
    /// boolean flags from the command line (see [`HarnessOpts::parse_args`]).
    /// `--help` prints the usage and exits 0; an unknown flag or a bad value
    /// prints the error and the usage to stderr and exits 2, so a typo never
    /// silently runs a different tier.
    pub fn parse(extra_flags: &[&'static str]) -> (Self, ExtraFlags) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_args(&args, extra_flags) {
            Ok(parsed) => parsed,
            Err(ArgError::Help) => {
                eprintln!("{}", usage(extra_flags));
                std::process::exit(0);
            }
            Err(ArgError::Invalid(msg)) => {
                eprintln!("error: {msg}\n{}", usage(extra_flags));
                std::process::exit(2);
            }
        }
    }

    /// Parse `args` (without the program name) into the shared harness
    /// options plus the listed binary-specific boolean flags. This is *the*
    /// flag parser of the figure suite: every binary shares the
    /// `--smoke/--paper/--mega/--json/--seed/--jobs/...` handling, and gets
    /// its extra flags back through [`ExtraFlags::has`].
    pub fn parse_args(
        args: &[String],
        extra_flags: &[&'static str],
    ) -> Result<(Self, ExtraFlags), ArgError> {
        let mut opts = HarnessOpts::default();
        let mut extra = ExtraFlags {
            names: extra_flags.to_vec(),
            seen: vec![false; extra_flags.len()],
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            // The value token of `flag`; a missing one or another flag in
            // its place is an error, not an empty value.
            let mut value = |what: &str| match args.next() {
                Some(v) if !v.starts_with('-') => Ok(v.as_str()),
                _ => Err(ArgError::Invalid(format!("{flag} needs {what}"))),
            };
            match flag.as_str() {
                "--paper" => opts.paper = true,
                "--smoke" => opts.smoke = true,
                "--mega" => opts.mega = true,
                "--no-reclaim" => opts.reclaim = false,
                "--resume" => opts.resume = true,
                "--json" => opts.json = Some(value("a file path")?.to_string()),
                "--snapshot" => opts.snapshot = Some(value("a file path")?.to_string()),
                "--seed" => {
                    let v = value("an integer value")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| ArgError::Invalid(format!("--seed {v}: not an integer")))?;
                }
                "--timesteps" => opts.timesteps = Some(positive(flag, value("a count")?)?),
                "--jobs" => opts.jobs = Some(positive(flag, value("a count")?)?),
                "--strike-at" => {
                    let v = value("a list of percents")?;
                    let list = v
                        .split(',')
                        .map(|t| t.trim().parse::<u64>().ok().filter(|p| *p < 100))
                        .collect::<Option<Vec<u64>>>()
                        .ok_or_else(|| {
                            ArgError::Invalid(format!(
                                "--strike-at {v}: needs a comma-separated list of \
                                 percents below 100 (e.g. 0,25,50,75)"
                            ))
                        })?;
                    opts.strike_at = list;
                }
                "--shard" => {
                    let v = value("i/n")?;
                    let parsed = v.split_once('/').and_then(|(a, b)| {
                        let (shard, of) = (a.parse::<usize>().ok()?, b.parse::<usize>().ok()?);
                        (shard < of).then_some((shard, of))
                    });
                    opts.shard = Some(parsed.ok_or_else(|| {
                        ArgError::Invalid(format!("--shard {v}: needs i/n with i < n (e.g. 0/2)"))
                    })?);
                }
                "--help" | "-h" => return Err(ArgError::Help),
                other => match extra_flags.iter().position(|f| *f == other) {
                    Some(idx) => extra.seen[idx] = true,
                    None => return Err(ArgError::Invalid(format!("unknown argument {other}"))),
                },
            }
        }
        Ok((opts, extra))
    }

    /// Write `rows` to the JSON file if one was requested.
    pub fn write_json<T: ToJson>(&self, rows: &T) {
        if let Some(path) = &self.json {
            std::fs::write(path, rows.to_json()).expect("writing JSON output");
            eprintln!("wrote {path}");
        }
    }

    /// Write a normalized perf-trajectory snapshot (`BENCH_<fig>.json`) if
    /// `--snapshot FILE` was given: the figure tag, scale tier and seed,
    /// plus the full result payload. The `trajectory` binary diffs two such
    /// snapshots, comparing every simulated quantity exactly and reporting
    /// `host_ms` drift informationally.
    pub fn write_snapshot<T: ToJson>(&self, fig: &str, payload: &T) {
        if let Some(path) = &self.snapshot {
            let mut out = String::from("{\"fig\":");
            fig.write_json(&mut out);
            out.push_str(",\"tier\":");
            self.scale().name().write_json(&mut out);
            out.push_str(",\"seed\":");
            self.seed.write_json(&mut out);
            out.push_str(",\"payload\":");
            payload.write_json(&mut out);
            out.push('}');
            std::fs::write(path, out).expect("writing snapshot");
            eprintln!("wrote {path}");
        }
    }
}

/// Construct a DIVA instance for a mesh experiment.
pub fn make_diva(side_rows: usize, side_cols: usize, strategy: StrategyKind, seed: u64) -> Diva {
    make_diva_on(
        AnyTopology::Mesh(Mesh::new(side_rows, side_cols)),
        strategy,
        seed,
    )
}

/// Construct a DIVA instance for an experiment on an arbitrary topology.
pub fn make_diva_on(topology: AnyTopology, strategy: StrategyKind, seed: u64) -> Diva {
    let cfg = DivaConfig::on(topology, strategy)
        .with_seed(seed)
        .with_machine(MachineConfig::parsytec_gcel());
    Diva::new(cfg)
}

/// The access-tree shapes evaluated by the Barnes-Hut figures, in the order
/// the paper lists them.
pub fn barnes_hut_shapes() -> Vec<(String, StrategyKind)> {
    vec![
        ("fixed home".to_string(), StrategyKind::FixedHome),
        (
            "16-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::hex16()),
        ),
        (
            "4-16-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::lk(4, 16)),
        ),
        (
            "4-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
        (
            "2-ary access tree".to_string(),
            StrategyKind::AccessTree(TreeShape::binary()),
        ),
    ]
}

/// Ratio of two quantities as used throughout the paper's figures.
pub fn ratio(value: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        f64::NAN
    } else {
        value as f64 / baseline as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_baseline() {
        assert!(ratio(5, 0).is_nan());
        assert!((ratio(30, 10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn barnes_hut_shape_list_matches_the_paper() {
        let shapes = barnes_hut_shapes();
        assert_eq!(shapes.len(), 5);
        assert_eq!(shapes[0].0, "fixed home");
        assert_eq!(shapes[4].0, "2-ary access tree");
    }

    #[test]
    fn make_diva_uses_the_requested_strategy() {
        let d = make_diva(4, 4, StrategyKind::FixedHome, 1);
        assert_eq!(d.num_procs(), 16);
        assert_eq!(d.config().strategy, StrategyKind::FixedHome);
    }

    #[test]
    fn strike_axis_defaults_to_time_zero() {
        let mut opts = HarnessOpts::default();
        assert_eq!(opts.strikes(), vec![0]);
        opts.strike_at = vec![0, 25, 50, 75];
        assert_eq!(opts.strikes(), vec![0, 25, 50, 75]);
    }

    fn parse(args: &[&str]) -> Result<(HarnessOpts, ExtraFlags), ArgError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        HarnessOpts::parse_args(&args, &["--bh"])
    }

    fn rejected(args: &[&str]) -> bool {
        matches!(parse(args), Err(ArgError::Invalid(_)))
    }

    #[test]
    fn unknown_and_removed_flags_are_rejected() {
        assert!(rejected(&["--paperr"]));
        assert!(rejected(&["--smoke", "stray"]));
        assert!(rejected(&["--workers", "2"]));
        assert!(rejected(&["--calibrated-delays"]));
        // An extra flag is only known to the binary that declares it.
        let args = vec!["--bh".to_string()];
        assert!(HarnessOpts::parse_args(&args, &[]).is_err());
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(rejected(&["--jobs", "0"]));
        assert!(rejected(&["--jobs", "many"]));
        assert!(rejected(&["--timesteps", "0"]));
        assert!(rejected(&["--seed", "abc"]));
        assert!(rejected(&["--shard", "2/2"]));
        assert!(rejected(&["--shard", "1"]));
        assert!(rejected(&["--strike-at", "100"]));
        assert!(rejected(&["--strike-at", "0,x"]));
    }

    #[test]
    fn value_flags_need_a_value() {
        for flag in ["--json", "--snapshot", "--seed", "--jobs", "--shard"] {
            assert!(rejected(&[flag]), "{flag} with no value");
            assert!(rejected(&[flag, "--smoke"]), "{flag} followed by a flag");
        }
    }

    #[test]
    fn help_flags_return_help() {
        assert_eq!(parse(&["--smoke", "-h"]).err(), Some(ArgError::Help));
        assert_eq!(parse(&["--help"]).err(), Some(ArgError::Help));
    }

    #[test]
    fn every_flag_in_use_is_accepted() {
        // The flag sets the goldens, CI and the determinism tests pass.
        let (opts, flags) = parse(&[
            "--smoke",
            "--jobs",
            "2",
            "--json",
            "out.json",
            "--resume",
            "--strike-at",
            "0,50",
            "--bh",
            "--no-reclaim",
        ])
        .unwrap();
        assert_eq!(opts.scale(), Scale::Smoke);
        assert_eq!(opts.jobs(), 2);
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert!(opts.resume && !opts.reclaim && flags.has("--bh"));
        assert_eq!(opts.strikes(), vec![0, 50]);
        let (opts, _) = parse(&[
            "--paper",
            "--shard",
            "1/4",
            "--snapshot",
            "BENCH_fig8.json",
            "--seed",
            "7",
            "--timesteps",
            "3",
            "--mega",
        ])
        .unwrap();
        assert_eq!(opts.scale(), Scale::Mega);
        assert_eq!(opts.shard, Some((1, 4)));
        assert_eq!(opts.snapshot.as_deref(), Some("BENCH_fig8.json"));
        assert_eq!((opts.seed, opts.timesteps), (7, Some(3)));
        let (opts, flags) = parse(&[]).unwrap();
        assert_eq!(opts.scale(), Scale::Default);
        assert!(!flags.has("--bh"));
    }
}
