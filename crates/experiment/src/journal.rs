//! The append-only run journal: one JSON line per cell state transition.
//!
//! The journal (`journal.jsonl` in the run directory) is *advisory*: the
//! content-addressed cell files are the source of truth, and resume
//! re-derives all state from them. The journal exists for humans and for
//! `fairsched experiment status` — it records the order cells were
//! attempted, retries, and failures, and it survives crashes by
//! construction: appends may be torn mid-line by a kill, so the reader
//! tolerates one trailing undecodable line (reported via
//! [`Journal::truncated`]) instead of failing the whole run.
//!
//! The filesystem mechanics — single-`write_all` appends, the tolerant
//! line reader — live in [`fairsched_core::journal`], shared with the
//! serving daemon's submission queue; this module only owns the typed
//! entry format.

use fairsched_core::journal as fs_journal;
use fairsched_sim::SimError;
use serde::Value;
use std::path::Path;

/// One journaled transition: cell `cell` entered `state` on attempt
/// number `attempt` (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// The cell's canonical key string.
    pub cell: String,
    /// The state entered: `running`, `done`, or `failed`.
    pub state: String,
    /// The 1-based attempt number for this cell.
    pub attempt: u64,
}

impl JournalEntry {
    /// The entry as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        Value::Object(vec![
            ("cell".into(), Value::String(self.cell.clone())),
            ("state".into(), Value::String(self.state.clone())),
            ("attempt".into(), Value::Number(self.attempt.to_string())),
        ])
        .to_json()
    }

    /// Decodes one journal line; `None` for anything torn or malformed.
    pub fn from_json_line(line: &str) -> Option<JournalEntry> {
        let v = serde_json::parse_value(line).ok()?;
        let string = |key: &str| match v.get(key) {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        };
        let attempt = match v.get("attempt") {
            Some(Value::Number(n)) => n.parse().ok()?,
            _ => return None,
        };
        Some(JournalEntry { cell: string("cell")?, state: string("state")?, attempt })
    }
}

/// A decoded journal: every intact entry, in append order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// The intact entries.
    pub entries: Vec<JournalEntry>,
    /// Whether the file ended in a torn or malformed line (the signature
    /// of a crash mid-append). Entries after the first bad line are not
    /// trusted.
    pub truncated: bool,
}

/// Appends one entry (plus newline) to the journal at `path`, creating
/// the file if needed ([`fairsched_core::journal::append_line`]).
pub fn append(path: &Path, entry: &JournalEntry) -> Result<(), SimError> {
    fs_journal::append_line(path, &entry.to_json_line()).map_err(SimError::from)
}

/// Reads the journal at `path`. A missing file is the empty journal;
/// decoding stops at the first undecodable line, which sets
/// [`Journal::truncated`] rather than erroring — a torn final line is an
/// expected crash artifact, not corruption.
pub fn read_journal(path: &Path) -> Result<Journal, SimError> {
    let (entries, truncated) =
        fs_journal::read_lines_tolerant(path, JournalEntry::from_json_line)?;
    Ok(Journal { entries, truncated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn entry(cell: &str, state: &str, attempt: u64) -> JournalEntry {
        JournalEntry { cell: cell.into(), state: state.into(), attempt }
    }

    #[test]
    fn line_round_trip() {
        let e = entry("fairsched-cell|w=fpt", "running", 2);
        assert_eq!(JournalEntry::from_json_line(&e.to_json_line()), Some(e));
    }

    #[test]
    fn append_then_read_preserves_order() {
        let dir = crate::scratch_dir("journal-order");
        let path = dir.join("journal.jsonl");
        let entries = vec![
            entry("a", "running", 1),
            entry("a", "done", 1),
            entry("b", "running", 1),
        ];
        for e in &entries {
            append(&path, e).unwrap();
        }
        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.entries, entries);
        assert!(!journal.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let dir = crate::scratch_dir("journal-none");
        assert_eq!(read_journal(&dir.join("journal.jsonl")).unwrap(), Journal::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_sets_truncated() {
        let dir = crate::scratch_dir("journal-torn");
        let path = dir.join("journal.jsonl");
        append(&path, &entry("a", "done", 1)).unwrap();
        // Simulate a kill mid-append: a partial JSON line with no close.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":\"b\",\"sta").unwrap();
        drop(f);
        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.entries, vec![entry("a", "done", 1)]);
        assert!(journal.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
