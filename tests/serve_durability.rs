//! `journal ∘ snapshot = state` for a snapshot of any staleness: the
//! daemon rewrites `snapshot.json` only once the journal tail beyond it
//! reaches its cadence (64 applied messages) or a `stop` is applied, so a
//! `kill -9` almost always lands between snapshots. Wherever it lands, the
//! reopened daemon must be indistinguishable from one that never died.

use fairsched::core::schedule::Schedule;
use fairsched::serve::{Daemon, Message, ServeConfig, SubmissionQueue};
use serde_json::Value;
use std::path::{Path, PathBuf};

const WORKLOAD: &str = "fpt:horizon=120,k=2,maxdur=20,median=8";

/// The bound on the journal tail a reopen replays (the daemon's private
/// snapshot cadence, as `docs/SERVE.md` states it).
const REPLAY_BOUND: u64 = 64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-serve-durability-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn init(dir: &Path, scheduler: &str) -> SubmissionQueue {
    ServeConfig {
        workload: WORKLOAD.to_string(),
        scheduler: scheduler.to_string(),
        seed: 5,
    }
    .init(dir)
    .unwrap();
    SubmissionQueue::open(dir).unwrap()
}

/// The client's traffic: two cadences and a bit of submissions and
/// advances — some of them rejected, so result files differ in kind —
/// ending in a `stop`.
fn traffic() -> Vec<Message> {
    let mut clock = 0;
    let mut list: Vec<Message> = (0..2 * REPLAY_BOUND + 6)
        .map(|i| match i % 4 {
            3 => {
                clock += 3;
                Message::Advance { until: clock }
            }
            // Every tenth message names an organization that does not exist.
            _ => Message::Submit {
                org: if i % 10 == 9 { 7 } else { (i % 2) as u32 },
                release: clock + 1 + i % 3,
                proc_time: 2 + i % 5,
                deadline: i.is_multiple_of(6).then_some(clock + 40),
            },
        })
        .collect();
    list.push(Message::Stop);
    list
}

/// Everything a client or an operator can observe of a daemon's state.
#[derive(Debug, PartialEq)]
struct Observed {
    schedule: Schedule,
    results: Vec<(String, String)>,
    applied_seq: u64,
    stopped: bool,
    batch_check: bool,
}

fn observe(daemon: &Daemon) -> Observed {
    let mut results: Vec<(String, String)> =
        std::fs::read_dir(daemon.dir().join("queue/results"))
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
    results.sort();
    Observed {
        schedule: daemon.session().schedule().clone(),
        results,
        applied_seq: daemon.applied_seq(),
        stopped: daemon.stopped(),
        batch_check: daemon.batch_check().unwrap(),
    }
}

/// The journal position `snapshot.json` covers, if there is one.
fn snapshot_seq(dir: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join("snapshot.json")).ok()?;
    match serde_json::parse_value(&text).unwrap().get("applied_seq") {
        Some(Value::Number(n)) => n.parse().ok(),
        other => panic!("snapshot applied_seq: {other:?}"),
    }
}

/// The sweep: for every message index across two cadence boundaries, drop
/// the daemon un-finalized after that many messages, reopen it, send the
/// rest, and compare with the run that was never interrupted.
#[test]
fn a_daemon_killed_after_any_message_reopens_as_if_never_killed() {
    let list = traffic();
    let whole = temp_dir("uninterrupted");
    let queue = init(&whole, "ref");
    let mut daemon = Daemon::open(&whole).unwrap();
    for message in &list {
        queue.submit(message).unwrap();
        assert_eq!(daemon.drain().unwrap(), 1);
    }
    let expected = observe(&daemon);
    assert!(expected.stopped && expected.batch_check);
    assert_eq!(expected.applied_seq, list.len() as u64);
    assert_eq!(expected.results.len(), list.len());
    assert_eq!(snapshot_seq(&whole), Some(list.len() as u64), "stop always snapshots");
    drop(daemon);

    for killed_after in 0..list.len() {
        let dir = temp_dir("killed");
        let queue = init(&dir, "ref");
        let mut daemon = Daemon::open(&dir).unwrap();
        for message in &list[..killed_after] {
            queue.submit(message).unwrap();
        }
        assert_eq!(daemon.drain().unwrap(), killed_after);
        drop(daemon); // kill -9: no finalize, no further snapshot

        let applied = killed_after as u64;
        let covered = snapshot_seq(&dir).unwrap_or(0);
        assert!(
            covered <= applied && applied - covered < REPLAY_BOUND,
            "killed after {killed_after}: snapshot covers {covered}"
        );

        let mut daemon = Daemon::open(&dir).unwrap();
        assert_eq!(daemon.applied_seq(), applied, "killed after {killed_after}");
        for message in &list[killed_after..] {
            queue.submit(message).unwrap();
        }
        assert_eq!(daemon.drain().unwrap(), list.len() - killed_after);
        assert_eq!(observe(&daemon), expected, "killed after {killed_after}");
    }
    let _ = std::fs::remove_dir_all(whole);
    let _ = std::fs::remove_dir_all(
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("fairsched-serve-durability-killed"),
    );
}

/// An explicit `persist` restarts the cadence from the position it wrote.
#[test]
fn explicit_persist_restarts_the_cadence() {
    let dir = temp_dir("explicit");
    let queue = init(&dir, "fairshare");
    let mut daemon = Daemon::open(&dir).unwrap();
    let send = |daemon: &mut Daemon, until: u64| {
        queue.submit(&Message::Advance { until }).unwrap();
        assert_eq!(daemon.drain().unwrap(), 1);
    };
    for until in 1..=10 {
        send(&mut daemon, until);
    }
    assert_eq!(snapshot_seq(&dir), None);
    daemon.persist().unwrap();
    assert_eq!(snapshot_seq(&dir), Some(10));
    for until in 11..10 + REPLAY_BOUND {
        send(&mut daemon, until);
    }
    assert_eq!(snapshot_seq(&dir), Some(10), "63 messages past the snapshot");
    send(&mut daemon, 10 + REPLAY_BOUND);
    assert_eq!(snapshot_seq(&dir), Some(10 + REPLAY_BOUND));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A serve directory the previous commit's daemon left behind — a
/// snapshot it wrote after its third message, a fourth accepted but never
/// applied — opens under this one: same schemas, same replay.
#[test]
fn a_snapshot_written_by_the_previous_commit_still_opens() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve_dir_pr11");
    let dir = temp_dir("pr11");
    std::fs::create_dir_all(dir.join("queue/accepted")).unwrap();
    let mut journal = Vec::new();
    for name in ["config.json", "snapshot.json"] {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    for seq in 1..=4 {
        let name = format!("queue/accepted/seq-{seq:06}.json");
        std::fs::copy(fixture.join(&name), dir.join(&name)).unwrap();
        journal.push(std::fs::read_to_string(dir.join(&name)).unwrap());
    }
    assert_eq!(snapshot_seq(&dir), Some(3));

    let reopened = Daemon::open(&dir).unwrap();
    assert_eq!(reopened.applied_seq(), 4);
    assert_eq!(reopened.session().stepped_to(), Some(30));
    assert_eq!(reopened.session().admissions().len(), 2);
    assert!(reopened.batch_check().unwrap());

    // The same four messages through a fresh directory of this commit.
    let fresh_dir = temp_dir("pr11-fresh");
    let queue = init(&fresh_dir, "ref");
    let mut fresh = Daemon::open(&fresh_dir).unwrap();
    for text in &journal {
        queue.submit(&Message::from_json(text).unwrap()).unwrap();
    }
    assert_eq!(fresh.drain().unwrap(), 4);
    assert_eq!(reopened.session().schedule(), fresh.session().schedule());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// A megabyte of `[` in the inbox used to abort the daemon with a stack
/// overflow — on every restart, since acceptance precedes decoding. It is
/// one more malformed message now, and the queue moves on.
#[test]
fn hostile_nesting_is_rejected_and_the_next_message_still_drains() {
    let dir = temp_dir("nesting");
    let queue = init(&dir, "fairshare");
    let mut daemon = Daemon::open(&dir).unwrap();
    std::fs::write(
        dir.join("queue/inbox/00000000000000000000-hostile.json"),
        "[".repeat(1_000_000),
    )
    .unwrap();
    queue.submit(&Message::Advance { until: 20 }).unwrap();
    assert_eq!(daemon.drain().unwrap(), 2);

    let rejected = std::fs::read_to_string(queue.result_path(1)).unwrap();
    let rejected = serde_json::parse_value(&rejected).unwrap();
    assert_eq!(rejected.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(rejected.get("kind"), Some(&Value::String("malformed".to_string())));
    let advanced = std::fs::read_to_string(queue.result_path(2)).unwrap();
    assert!(advanced.contains("\"ok\": true"), "{advanced}");
    assert_eq!(daemon.session().stepped_to(), Some(20));

    // The journal replays the same rejection instead of aborting again.
    drop(daemon);
    let reopened = Daemon::open(&dir).unwrap();
    assert_eq!(reopened.applied_seq(), 2);
    assert_eq!(reopened.session().stepped_to(), Some(20));
    let _ = std::fs::remove_dir_all(&dir);
}
