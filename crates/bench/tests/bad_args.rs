//! Bad command lines fail loudly: an unknown flag or a malformed value makes
//! a figure binary print the usage to stderr and exit 2 before it runs
//! anything, instead of silently running the default tier. The accepted
//! flag sets are covered by `golden_smoke`, `jobs_determinism` and
//! `resume_determinism`, which run the binaries with them.

use std::process::Command;

/// Run `bin` with `args`; return (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_with_the_usage() {
    let fig8 = env!("CARGO_BIN_EXE_fig8");
    let cases: [(&str, &[&str]); 5] = [
        (fig8, &["--workers", "2"]),
        (fig8, &["--calibrated-delays"]),
        (fig8, &["--paperr"]),
        (fig8, &["--json", "--smoke"]),
        (env!("CARGO_BIN_EXE_fig13"), &["--paperr"]),
    ];
    for (bin, args) in cases {
        let (code, stdout, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stdout.is_empty(), "{bin} {args:?} ran: {stdout}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn help_exits_0_with_the_usage() {
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_scale"), &["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.is_empty());
    assert!(stderr.contains("[--bh]"), "{stderr}");
}
