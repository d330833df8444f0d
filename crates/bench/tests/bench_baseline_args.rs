//! `bench_baseline`'s command line is strict: a mistyped flag, a missing
//! value or an unparsable number is a usage error (exit 2) raised before
//! anything is measured, never a silently skipped regression gate.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_measuring() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-bench-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, tolerance) in [
        (&["--samples", "abc"][..], None),
        (&["--compare"], None),
        (&["--compre", "x"], None),
        (&["--compare", "x"], Some("abc")),
        (&["--compare", "x"], Some("nan")),
    ] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_bench_baseline"));
        command.args(args).current_dir(&dir).env_remove("BENCH_TOLERANCE");
        if let Some(tolerance) = tolerance {
            command.env("BENCH_TOLERANCE", tolerance);
        }
        let output = command.output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?} {tolerance:?}: {stderr}");
        assert!(
            !dir.join("BENCH_lattice.json").exists(),
            "{args:?} {tolerance:?} ran the baseline and wrote its report"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
