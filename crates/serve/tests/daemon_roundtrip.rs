//! End-to-end daemon tests: the submission journal replayed through the
//! daemon — including through a simulated `kill -9` (a daemon dropped
//! without snapshotting its last acceptance) — reproduces the batch
//! engine's schedule bit-for-bit. The kill-point sweep across snapshot
//! cadences lives in the root package's `tests/serve_durability.rs`.

use fairsched_core::model::OrgId;
use fairsched_serve::{Daemon, HttpServer, Message, ServeConfig, SubmissionQueue};
use fairsched_sim::Simulation;
use std::io::{Read, Write};
use std::path::PathBuf;

const WORKLOAD: &str = "fpt:horizon=120,k=2,maxdur=20,median=8";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairsched-serve-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(scheduler: &str) -> ServeConfig {
    ServeConfig {
        workload: WORKLOAD.to_string(),
        scheduler: scheduler.to_string(),
        seed: 5,
    }
}

/// The headline test: drain, crash (drop a daemon that accepted a
/// message but never snapshotted it), reopen, finish — and the final
/// schedule is byte-identical to a from-scratch batch run over the grown
/// trace, for the exact REF scheduler whose φ rows the session reuses.
#[test]
fn crash_replay_reproduces_batch_schedule_bit_for_bit() {
    let dir = temp_dir("crash-replay");
    config("ref").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();

    queue.submit(&Message::Advance { until: 10 }).unwrap();
    queue
        .submit(&Message::Submit { org: 0, release: 15, proc_time: 5, deadline: None })
        .unwrap();
    queue.submit(&Message::Advance { until: 30 }).unwrap();

    let mut first = Daemon::open(&dir).unwrap();
    assert_eq!(first.drain().unwrap(), 3);
    assert_eq!(first.applied_seq(), 3);
    assert_eq!(first.session().stepped_to(), Some(30));

    // kill -9: a fourth message is accepted into the journal, but the
    // daemon dies before writing its result or snapshot. Dropping `first`
    // without finalize() models the process vanishing.
    let inbox = queue
        .submit(&Message::Submit {
            org: 1,
            release: 40,
            proc_time: 6,
            deadline: Some(80),
        })
        .unwrap();
    queue.accept(&inbox, 4).unwrap();
    drop(first);

    // Restart: three messages are short of a snapshot cadence, so the
    // whole journal (seq 1-4, the un-applied one included) replays.
    let mut second = Daemon::open(&dir).unwrap();
    assert_eq!(second.applied_seq(), 4);
    assert_eq!(second.session().admissions().len(), 2);

    queue.submit(&Message::Advance { until: 60 }).unwrap();
    queue.submit(&Message::Stop).unwrap();
    second.run(5).unwrap();
    assert!(second.stopped());
    second.finalize().unwrap();

    // Byte-for-byte equivalence with the batch engine over the grown trace.
    assert!(second.batch_check().unwrap());
    let batch = Simulation::new(second.session().trace())
        .scheduler("ref")
        .unwrap()
        .horizon(60)
        .seed(5)
        .run()
        .unwrap();
    assert_eq!(second.session().schedule(), &batch.schedule);

    // The on-disk artifacts agree too.
    let live = std::fs::read_to_string(dir.join("schedule.json")).unwrap();
    let check = std::fs::read_to_string(dir.join("schedule.batch.json")).unwrap();
    assert_eq!(live, check);

    // Every journal entry has a result; the replayed one succeeded.
    for seq in 1..=6u64 {
        let text = std::fs::read_to_string(queue.result_path(seq)).unwrap();
        assert!(text.contains("\"seq\""), "seq {seq}: {text}");
    }
    assert!(std::fs::read_to_string(queue.result_path(4)).unwrap().contains("true"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash before the *first* snapshot: the daemon restores from config
/// alone and replays the whole journal.
#[test]
fn reopen_without_snapshot_replays_whole_journal() {
    let dir = temp_dir("no-snapshot");
    config("fairshare").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    for (i, message) in [
        Message::Advance { until: 20 },
        Message::Submit { org: 1, release: 25, proc_time: 4, deadline: None },
        Message::Advance { until: 50 },
    ]
    .iter()
    .enumerate()
    {
        let path = queue.submit(message).unwrap();
        queue.accept(&path, (i as u64) + 1).unwrap(); // accepted, never snapshotted
    }

    let daemon = Daemon::open(&dir).unwrap();
    assert_eq!(daemon.applied_seq(), 3);
    assert_eq!(daemon.session().stepped_to(), Some(50));
    assert!(daemon.batch_check().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad input never wedges the queue: malformed JSON, unknown orgs, and
/// too-late releases are journaled as rejections and the loop continues.
#[test]
fn rejections_are_recorded_and_do_not_wedge_the_queue() {
    let dir = temp_dir("rejections");
    config("roundrobin").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    let mut daemon = Daemon::open(&dir).unwrap();

    queue.submit(&Message::Advance { until: 40 }).unwrap();
    assert_eq!(daemon.drain().unwrap(), 1);

    std::fs::write(dir.join("queue/inbox/00000000000000000000-0.json"), "{torn").unwrap();
    queue
        .submit(&Message::Submit { org: 99, release: 50, proc_time: 1, deadline: None })
        .unwrap();
    queue
        .submit(&Message::Submit { org: 0, release: 40, proc_time: 1, deadline: None })
        .unwrap(); // release == stepped_to: too late
    queue
        .submit(&Message::Submit { org: 0, release: 41, proc_time: 1, deadline: None })
        .unwrap(); // fine
    assert_eq!(daemon.drain().unwrap(), 4);

    let outcomes: Vec<bool> = (2..=5u64)
        .map(|seq| {
            let text = std::fs::read_to_string(queue.result_path(seq)).unwrap();
            !text.contains("\"ok\": false")
        })
        .collect();
    assert_eq!(outcomes, vec![false, false, false, true]);
    assert_eq!(daemon.session().admissions().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopening a serve directory under a different identity is refused.
#[test]
fn config_conflict_is_refused() {
    let dir = temp_dir("config-conflict");
    config("ref").init(&dir).unwrap();
    config("ref").init(&dir).unwrap(); // same identity: fine
    let err = config("fairshare").init(&dir).unwrap_err();
    assert!(err.to_string().contains("already initialized"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The general REF family holds a trace snapshot and cannot splice
/// admissions; the daemon journals the rejection instead of dying.
#[test]
fn non_admitting_scheduler_rejects_submissions_gracefully() {
    let dir = temp_dir("general-ref");
    config("general-ref:util=flowtime").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    let mut daemon = Daemon::open(&dir).unwrap();
    queue
        .submit(&Message::Submit { org: 0, release: 5, proc_time: 2, deadline: None })
        .unwrap();
    queue.submit(&Message::Advance { until: 30 }).unwrap();
    assert_eq!(daemon.drain().unwrap(), 2);
    let text = std::fs::read_to_string(queue.result_path(1)).unwrap();
    assert!(text.contains("mid-run job admission"), "{text}");
    assert_eq!(daemon.session().stepped_to(), Some(30));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stopped directory stays stopped: once the journal's `Stop` is
/// covered by the snapshot, reopening returns immediately from `run`
/// (e.g. a later offline `serve --batch-check`) instead of polling an
/// inbox that will never produce another message.
#[test]
fn reopened_stopped_directory_is_still_stopped() {
    let dir = temp_dir("stopped");
    config("fifo").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    queue.submit(&Message::Advance { until: 30 }).unwrap();
    queue.submit(&Message::Stop).unwrap();
    let mut daemon = Daemon::open(&dir).unwrap();
    daemon.run(5).unwrap();
    assert!(daemon.stopped());
    drop(daemon);

    let mut again = Daemon::open(&dir).unwrap();
    assert!(again.stopped(), "snapshot must carry the stopped flag");
    again.run(5).unwrap(); // returns immediately; would hang before the fix
    assert!(again.batch_check().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The HTTP endpoint serves live documents that track the session.
#[test]
fn http_endpoints_track_the_session() {
    let dir = temp_dir("http");
    config("fairshare").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    let mut daemon = Daemon::open(&dir).unwrap();
    let server = HttpServer::start("127.0.0.1:0", daemon.endpoints()).unwrap();
    let addr = server.addr();

    let fresh = get(addr, "/status");
    assert!(fresh.contains("\"stepped_to\":null"), "{fresh}");

    queue.submit(&Message::Advance { until: 25 }).unwrap();
    daemon.drain().unwrap();
    let status = get(addr, "/status");
    assert!(status.contains("\"stepped_to\":25"), "{status}");
    assert!(status.contains(&format!("\"workload\":{WORKLOAD:?}")), "{status}");

    // /report and /series are well-formed JSON documents.
    for path in ["/report", "/series"] {
        let body = body_of(&get(addr, path));
        serde_json::parse_value(&body).unwrap_or_else(|e| panic!("{path}: {e}\n{body}"));
    }
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Live stepping with interleaved admissions matches one batch run even
/// when driven entirely through queue messages (no direct session calls).
#[test]
fn interleaved_messages_match_batch_for_rand_scheduler() {
    let dir = temp_dir("rand");
    config("rand:perms=5").init(&dir).unwrap();
    let queue = SubmissionQueue::open(&dir).unwrap();
    let mut daemon = Daemon::open(&dir).unwrap();
    for message in [
        Message::Advance { until: 8 },
        Message::Submit { org: 1, release: 9, proc_time: 3, deadline: None },
        Message::Advance { until: 33 },
        Message::Submit { org: 0, release: 34, proc_time: 7, deadline: None },
        Message::Advance { until: 70 },
        Message::Stop,
    ] {
        queue.submit(&message).unwrap();
    }
    daemon.run(5).unwrap();
    assert!(daemon.batch_check().unwrap());

    // OrgId round-trip sanity: admissions recorded what was submitted.
    assert_eq!(daemon.session().admissions()[0].org, OrgId(1));
    assert_eq!(daemon.session().admissions().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn body_of(response: &str) -> String {
    response.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}
