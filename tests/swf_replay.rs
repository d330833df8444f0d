//! `fairsched --swf` end to end: the sugar replays exactly what the
//! equivalent `--workload swf:` spec replays, its summary line is pinned,
//! and hostile logs either replay like their well-formed twins or end in
//! exit 1 with a typed message — never a panic.

use fairsched::workloads::spec::sample_swf_path;
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fairsched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(args)
        .output()
        .expect("fairsched binary runs")
}

/// A unique scratch log holding `bytes`, removed on drop.
struct TempLog(PathBuf);

impl TempLog {
    fn new(name: &str, bytes: impl AsRef<[u8]>) -> Self {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("fairsched-cli-swf-{}-{name}.swf", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        TempLog(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The JSON report of a successful run, minus the `dropped` fields.
fn report(output: &Output, dropped: &[&str]) -> Vec<(String, Value)> {
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = std::str::from_utf8(&output.stdout).unwrap();
    match serde_json::parse_value(text).unwrap() {
        Value::Object(fields) => fields
            .into_iter()
            .filter(|(key, _)| !dropped.contains(&key.as_str()))
            .collect(),
        other => panic!("report is not an object: {other:?}"),
    }
}

/// The typed error of a failed run: exit 1, no panic.
fn typed_error(output: &Output) -> String {
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

/// The fields that name the input file.
const SOURCE: [&str; 2] = ["workload", "workload_spec"];

const REPLAY: [&str; 7] =
    ["--orgs", "2", "--machines", "4", "--no-reference", "--json", "--seed"];

fn replay(path: &str) -> Output {
    let mut args = vec!["--swf", path];
    args.extend(REPLAY);
    args.push("3");
    fairsched(&args)
}

#[test]
fn swf_sugar_matches_the_workload_spec_and_pins_its_summary() {
    let path = sample_swf_path();
    for window in [["0", "20000"], ["10", "100"], ["50", "400"]] {
        let sugar = fairsched(&[
            "--swf",
            path,
            "--window-start",
            window[0],
            "--horizon",
            window[1],
            "--machines",
            "6",
            "--orgs",
            "3",
            "--json",
        ]);
        let spec = format!(
            "swf:end={},machines=6,orgs=3,path={path},start={}",
            window[0].parse::<u64>().unwrap() + window[1].parse::<u64>().unwrap(),
            window[0]
        );
        let registry =
            fairsched(&["--workload", &spec, "--horizon", window[1], "--json"]);
        let (sugar_doc, registry_doc) =
            (report(&sugar, &["workload"]), report(&registry, &["workload"]));
        assert_eq!(sugar_doc, registry_doc, "window {window:?}");
        // The summary describes the whole log, whatever the window.
        assert_eq!(
            String::from_utf8_lossy(&sugar.stderr),
            "parsed 14 jobs / 6 users, span 450, median runtime 45\n"
        );
        assert!(registry.stderr.is_empty());
    }
}

#[test]
fn hostile_logs_replay_like_their_twins_or_fail_typed() {
    let clean = "; header\n1 0 -1 5 2 -1 -1 2 -1 -1 1 7\n2 3 -1 4 1 -1 -1 1 -1 -1 1 9\n";
    let twin = TempLog::new("clean", clean);
    let expected = report(&replay(twin.path()), &SOURCE);

    for (name, text) in [
        ("no-final-newline", clean.trim_end().to_string()),
        ("crlf", clean.replace('\n', "\r\n")),
        ("nbsp", clean.replace(' ', "\u{a0}")),
        ("vt", clean.replace(' ', "\x0B")),
    ] {
        let log = TempLog::new(name, text);
        assert_eq!(report(&replay(log.path()), &SOURCE), expected, "{name}");
    }

    let mut non_utf8 = clean.as_bytes().to_vec();
    non_utf8.extend_from_slice(b"3 4 \xff 6 1 -1 -1 1 -1 -1 1 7\n");
    for (name, bytes, message) in [
        (
            "short-final-line",
            format!("{clean}3 4 -1").into_bytes(),
            "SWF line 4: expected at least 12 fields, found 3\n",
        ),
        (
            "non-utf8",
            non_utf8,
            "SWF line 4: I/O error: stream did not contain valid UTF-8\n",
        ),
        (
            "huge-processors",
            format!("{clean}3 4 -1 6 18446744073709551616 -1 -1 1 -1 -1 1 7\n")
                .into_bytes(),
            "SWF line 4: field 5 out of range: \"18446744073709551616\"\n",
        ),
    ] {
        let log = TempLog::new(name, bytes);
        assert_eq!(typed_error(&replay(log.path())), message, "{name}");
    }
}

/// A user whose first record lies after the window owns no jobs and does
/// not take an organization slot from the windowed users.
#[test]
fn user_first_seen_after_the_window_is_left_out() {
    let clean = "1 0 -1 5 2 -1 -1 2 -1 -1 1 7\n2 3 -1 4 1 -1 -1 1 -1 -1 1 9\n";
    let late =
        TempLog::new("late", format!("{clean}3 30000 -1 4 3 -1 -1 3 -1 -1 1 99\n"));
    let twin = TempLog::new("late-twin", clean);
    let output = replay(late.path());
    assert_eq!(report(&output, &SOURCE), report(&replay(twin.path()), &SOURCE));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "parsed 3 jobs / 3 users, span 30000, median runtime 4\n"
    );
}

#[test]
fn missing_log_is_a_typed_error() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-cli-swf-{}-missing.swf", std::process::id()));
    let path = path.to_str().unwrap();
    assert_eq!(
        typed_error(&replay(path)),
        format!(
            "cannot read workload file {path:?}: No such file or directory (os error 2)\n"
        )
    );
}

/// A window start near `u64::MAX` makes `start + horizon` overflow: exit
/// 1 with a message naming both flags, not a panic or an error about a
/// `swf:end` the user never wrote.
#[test]
fn window_end_overflow_is_a_typed_error() {
    let max = u64::MAX.to_string();
    let output = fairsched(&["--swf", sample_swf_path(), "--window-start", &max]);
    assert_eq!(
        typed_error(&output),
        format!("--window-start {max} plus --horizon 20000 overflows the window end\n")
    );
}
