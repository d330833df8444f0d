//! The journaled submission queue: three directories under the serve
//! root, each file one message, every transition an atomic rename.
//!
//! ```text
//! <dir>/queue/inbox/     <stamp>.json      dropped by `fairsched submit`
//! <dir>/queue/accepted/  seq-000042.json   renamed in by the daemon (the journal)
//! <dir>/queue/results/   seq-000042.json   outcome, written atomically
//! ```
//!
//! The protocol's durability argument:
//!
//! * **Submission** stages through a `.json.tmp` scratch and
//!   commit-renames into `inbox/` ([`fairsched_core::journal`]), so the
//!   daemon never observes a torn submission — a file is either complete
//!   or invisible.
//! * **Acceptance** is a single rename `inbox/<stamp>.json →
//!   accepted/seq-NNNNNN.json`. The sequence number assigns the total
//!   order; the `accepted/` directory *is* the replay journal.
//! * **Results** are written atomically and rewritten idempotently on
//!   replay, so a crash between acceptance and result costs nothing: the
//!   restart replays the accepted tail and reproduces the same result
//!   bytes (engine determinism).

use crate::message::Message;
use fairsched_core::journal::{atomic_write, commit_scratch, write_scratch, FsError};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Width of the zero-padded sequence number in journal file names
/// (`seq-000042.json`): lexicographic order equals numeric order.
const SEQ_WIDTH: usize = 6;

/// Where a submission stamp's leading component comes from.
///
/// Inbox stamps only *pre-order* submissions — the daemon's acceptance
/// rename assigns the journal sequence number, which is the replayed
/// total order — so a wall-clock default is sound in production. Tests
/// (and any caller wanting reproducible inbox file names) inject a
/// deterministic counter instead.
#[derive(Clone, Debug)]
pub enum StampSource {
    /// Zero-padded nanoseconds since the Unix epoch (production default).
    WallClock,
    /// A shared monotonically increasing counter: stamps are a pure
    /// function of submission count.
    Counter(Arc<AtomicU64>),
}

impl StampSource {
    /// A fresh deterministic counter source starting at zero.
    pub fn counter() -> Self {
        StampSource::Counter(Arc::new(AtomicU64::new(0)))
    }

    /// The next leading stamp component.
    fn next_lead(&self) -> u128 {
        match self {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall time only pre-orders inbox files; the journal seq assigned at acceptance is the replayed total order"
            )]
            StampSource::WallClock => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or(std::time::Duration::ZERO)
                .as_nanos(),
            StampSource::Counter(c) => u128::from(c.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

/// Handle on the three queue directories. Cheap to construct; all state
/// lives on disk.
#[derive(Clone, Debug)]
pub struct SubmissionQueue {
    inbox: PathBuf,
    accepted: PathBuf,
    results: PathBuf,
    stamps: StampSource,
}

impl SubmissionQueue {
    /// Opens (creating if needed) the queue under `dir/queue/` with
    /// wall-clock submission stamps.
    pub fn open(dir: &Path) -> Result<Self, FsError> {
        Self::open_with_stamps(dir, StampSource::WallClock)
    }

    /// [`SubmissionQueue::open`] with an explicit [`StampSource`].
    pub fn open_with_stamps(dir: &Path, stamps: StampSource) -> Result<Self, FsError> {
        let root = dir.join("queue");
        let queue = SubmissionQueue {
            inbox: root.join("inbox"),
            accepted: root.join("accepted"),
            results: root.join("results"),
            stamps,
        };
        for d in [&queue.inbox, &queue.accepted, &queue.results] {
            std::fs::create_dir_all(d).map_err(|e| FsError::new("create-dir", d, &e))?;
        }
        Ok(queue)
    }

    /// Drops a message into the inbox (scratch write + commit rename) and
    /// returns its path. Safe to call from any process while a daemon is
    /// draining: the daemon only sees the committed `.json`, never the
    /// `.json.tmp` scratch.
    pub fn submit(&self, message: &Message) -> Result<PathBuf, FsError> {
        let stamp = submission_stamp(&self.stamps);
        let mut bump = 0u32;
        let target = loop {
            let name = if bump == 0 {
                format!("{stamp}.json")
            } else {
                format!("{stamp}-{bump}.json")
            };
            let candidate = self.inbox.join(name);
            if !candidate.exists() {
                break candidate;
            }
            bump = bump.saturating_add(1);
        };
        let tmp = write_scratch(&target, &message.to_json())?;
        commit_scratch(&tmp, &target)?;
        Ok(target)
    }

    /// Committed inbox entries (`*.json`, scratches excluded), sorted by
    /// file name — submission-stamp order, which the daemon turns into
    /// sequence order.
    pub fn pending(&self) -> Result<Vec<PathBuf>, FsError> {
        let mut entries = list_json(&self.inbox)?;
        entries.sort();
        Ok(entries)
    }

    /// The journal path of sequence number `seq`.
    pub fn accepted_path(&self, seq: u64) -> PathBuf {
        self.accepted.join(format!("seq-{seq:0SEQ_WIDTH$}.json"))
    }

    /// Accepts an inbox file as sequence number `seq`: the single rename
    /// that commits the message into the journal.
    pub fn accept(&self, from: &Path, seq: u64) -> Result<PathBuf, FsError> {
        let to = self.accepted_path(seq);
        fairsched_core::journal::commit_scratch(from, &to)?;
        Ok(to)
    }

    /// Journal entries with sequence number strictly greater than
    /// `after`, in sequence order — the replay tail on restart.
    pub fn accepted_after(&self, after: u64) -> Result<Vec<(u64, PathBuf)>, FsError> {
        let mut tail: Vec<(u64, PathBuf)> = list_json(&self.accepted)?
            .into_iter()
            .filter_map(|p| parse_seq(&p).map(|seq| (seq, p)))
            .filter(|(seq, _)| *seq > after)
            .collect();
        tail.sort();
        Ok(tail)
    }

    /// The highest sequence number in the journal, if any.
    pub fn max_accepted_seq(&self) -> Result<Option<u64>, FsError> {
        Ok(list_json(&self.accepted)?.iter().filter_map(|p| parse_seq(p)).max())
    }

    /// The result path of sequence number `seq`.
    pub fn result_path(&self, seq: u64) -> PathBuf {
        self.results.join(format!("seq-{seq:0SEQ_WIDTH$}.json"))
    }

    /// Writes (or idempotently rewrites, on replay) the outcome of
    /// sequence number `seq`.
    pub fn write_result(&self, seq: u64, outcome: &Value) -> Result<(), FsError> {
        atomic_write(&self.result_path(seq), &outcome.to_json_pretty())
    }
}

/// A lexicographically ordered, collision-resistant inbox stamp: the
/// zero-padded [`StampSource`] lead (nanoseconds since the epoch, or a
/// deterministic counter), a process-local monotonic counter (so two
/// submissions with the same lead still sort in submission order — the
/// wall clock is coarser than a `submit` call), and the submitter's pid.
fn submission_stamp(stamps: &StampSource) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let lead = stamps.next_lead();
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{lead:020}-{count:06}-{}", std::process::id())
}

/// Committed `.json` files directly under `dir` (scratch `.json.tmp`
/// files have extension `tmp` and are excluded).
fn list_json(dir: &Path) -> Result<Vec<PathBuf>, FsError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| FsError::new("read-dir", dir, &e))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| FsError::new("read-dir", dir, &e))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            paths.push(path);
        }
    }
    Ok(paths)
}

/// `seq-000042.json` → `Some(42)`; anything else → `None`.
fn parse_seq(path: &Path) -> Option<u64> {
    path.file_name()?.to_str()?.strip_prefix("seq-")?.strip_suffix(".json")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_accept_result_lifecycle() {
        let dir = crate::scratch_dir("queue-lifecycle");
        let q = SubmissionQueue::open(&dir).unwrap();
        let first = q
            .submit(&Message::Submit { org: 0, release: 3, proc_time: 2, deadline: None })
            .unwrap();
        let second = q.submit(&Message::Advance { until: 10 }).unwrap();
        assert_ne!(first, second, "stamps must not collide");

        let pending = q.pending().unwrap();
        assert_eq!(pending, vec![first.clone(), second.clone()]);

        let journal = q.accept(&first, 1).unwrap();
        assert_eq!(journal, q.accepted_path(1));
        assert_eq!(q.pending().unwrap(), vec![second.clone()]);
        q.accept(&second, 2).unwrap();

        assert_eq!(q.max_accepted_seq().unwrap(), Some(2));
        let tail = q.accepted_after(1).unwrap();
        assert_eq!(tail, vec![(2, q.accepted_path(2))]);
        let text = std::fs::read_to_string(q.accepted_path(2)).unwrap();
        assert_eq!(Message::from_json(&text), Ok(Message::Advance { until: 10 }));

        q.write_result(1, &Value::Bool(true)).unwrap();
        q.write_result(1, &Value::Bool(true)).unwrap(); // idempotent rewrite
        assert!(q.result_path(1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_stamps_are_deterministic_and_ordered() {
        let dir = crate::scratch_dir("queue-counter-stamps");
        let q = SubmissionQueue::open_with_stamps(&dir, StampSource::counter()).unwrap();
        let first = q.submit(&Message::Advance { until: 1 }).unwrap();
        let second = q.submit(&Message::Advance { until: 2 }).unwrap();
        let name = |p: &PathBuf| p.file_name().unwrap().to_str().unwrap().to_string();
        // The lead component is the injected counter, not wall time:
        // submission 0 then 1, zero-padded to sort lexicographically.
        assert!(name(&first).starts_with("00000000000000000000-"), "{first:?}");
        assert!(name(&second).starts_with("00000000000000000001-"), "{second:?}");
        assert_eq!(q.pending().unwrap(), vec![first, second]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scratch_files_are_invisible_to_pending() {
        let dir = crate::scratch_dir("queue-scratch");
        let q = SubmissionQueue::open(&dir).unwrap();
        std::fs::write(dir.join("queue/inbox/123.json.tmp"), "{torn").unwrap();
        assert!(q.pending().unwrap().is_empty());
        assert_eq!(q.max_accepted_seq().unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
