//! Crash-safe filesystem primitives shared by the durable runners: the
//! atomic write-then-rename commit and the torn-tail-tolerant line
//! journal.
//!
//! Extracted from `fairsched-experiment` (PR 7) so the experiment runner
//! and the online serving daemon (`fairsched-serve`) share one
//! implementation of the two idioms their durability proofs rest on:
//!
//! * **Atomic commit** — a file either carries its complete contents or
//!   does not exist: [`write_scratch`] writes `<path minus extension>
//!   .json.tmp`, [`commit_scratch`] renames it into place (rename is
//!   atomic on POSIX filesystems), and [`atomic_write`] is the two steps
//!   fused. Callers that interleave fault-injection sites between the
//!   steps (the experiment runner's `FAIRSCHED_FAILPOINTS`) call the two
//!   halves themselves.
//! * **Tolerant append-only journal** — [`append_line`] appends one line
//!   with a single `write_all` (the smallest torn window the filesystem
//!   allows); [`read_lines_tolerant`] decodes lines until the first
//!   undecodable one, which marks the journal truncated instead of
//!   failing the read — a torn final line is an expected crash artifact,
//!   not corruption.
//!
//! Errors are [`FsError`]: the interrupted operation, the path, and the
//! rendered OS error — the exact fields `fairsched_sim::SimError::Io`
//! carries, so downstream crates convert losslessly.

use std::io::Write;
use std::path::{Path, PathBuf};

/// A failed filesystem step: which operation, on which path, and the OS
/// error. Rendered strings keep the type `Clone` (like the typed
/// simulation errors it converts into) and serializable into cell files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsError {
    /// The attempted operation (`read`, `write`, `rename`, `append`, …).
    pub op: String,
    /// The path involved.
    pub path: String,
    /// The rendered OS error.
    pub message: String,
}

impl FsError {
    /// Wraps a [`std::io::Error`] with the operation and path it
    /// interrupted.
    pub fn new(op: &str, path: &Path, e: &std::io::Error) -> Self {
        FsError {
            op: op.to_string(),
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "io error ({} {}): {}", self.op, self.path, self.message)
    }
}

impl std::error::Error for FsError {}

/// The scratch (pre-commit) path of `path`: `path` with its extension
/// replaced by `json.tmp` — `cells/ab12.json` stages as
/// `cells/ab12.json.tmp`. The historical experiment-runner convention,
/// kept byte-identical so existing run directories stay recognizable.
pub fn scratch_path(path: &Path) -> PathBuf {
    path.with_extension("json.tmp")
}

/// Writes `contents` to the scratch path of `path` and returns it. The
/// first half of the atomic commit; pair with [`commit_scratch`].
pub fn write_scratch(path: &Path, contents: &str) -> Result<PathBuf, FsError> {
    let tmp = scratch_path(path);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one raw write: the scratch half of the commit"
    )]
    std::fs::write(&tmp, contents).map_err(|e| FsError::new("write", &tmp, &e))?;
    Ok(tmp)
}

/// Renames a staged file into place — the commit point. `tmp` is
/// usually [`write_scratch`]'s result, but any fully written file works
/// (serve's accept commits an inbox file into its journal). After this
/// returns, `path` carries the complete contents; before it, `path` is
/// untouched (a crash between the halves leaves only the staged file,
/// which the next run overwrites or retries).
#[expect(clippy::disallowed_methods, reason = "the one raw rename: the commit point")]
pub fn commit_scratch(tmp: &Path, path: &Path) -> Result<(), FsError> {
    std::fs::rename(tmp, path).map_err(|e| FsError::new("rename", path, &e))
}

/// [`write_scratch`] + [`commit_scratch`]: `path` atomically assumes
/// `contents` — readers see either the old complete file or the new one,
/// never a partial write.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), FsError> {
    let tmp = write_scratch(path, contents)?;
    commit_scratch(&tmp, path)
}

/// Appends `line` plus a newline to the journal at `path`, creating the
/// file if needed. A single `write_all` of one line keeps the torn
/// window as small as the filesystem allows.
pub fn append_line(path: &Path, line: &str) -> Result<(), FsError> {
    #[expect(clippy::disallowed_methods, reason = "the one raw append: the line journal")]
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| FsError::new("open-append", path, &e))?;
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    file.write_all(buf.as_bytes()).map_err(|e| FsError::new("append", path, &e))
}

/// Reads a line journal at `path`, decoding each non-blank line with
/// `decode`. A missing file is the empty journal. Decoding stops at the
/// first undecodable line, which sets the returned `truncated` flag
/// rather than erroring — entries after the first bad line are not
/// trusted (the signature of a crash mid-append).
pub fn read_lines_tolerant<T>(
    path: &Path,
    decode: impl Fn(&str) -> Option<T>,
) -> Result<(Vec<T>, bool), FsError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), false))
        }
        Err(e) => return Err(FsError::new("read", path, &e)),
    };
    let mut entries = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match decode(line) {
            Some(entry) => entries.push(entry),
            None => return Ok((entries, true)),
        }
    }
    Ok((entries, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_leaves_no_scratch() {
        let dir = crate::scratch_dir("journal-atomic");
        let path = dir.join("out.json");
        atomic_write(&path, "{\"a\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}");
        assert!(!scratch_path(&path).exists());
        // Overwrite is atomic too.
        atomic_write(&path, "{\"a\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scratch_then_commit_matches_fused_form() {
        let dir = crate::scratch_dir("journal-halves");
        let path = dir.join("cell.json");
        let tmp = write_scratch(&path, "body").unwrap();
        assert_eq!(tmp, scratch_path(&path));
        assert!(!path.exists(), "target must stay untouched before commit");
        commit_scratch(&tmp, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "body");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_then_read_preserves_order() {
        let dir = crate::scratch_dir("journal-order");
        let path = dir.join("journal.jsonl");
        for line in ["one", "two", "three"] {
            append_line(&path, line).unwrap();
        }
        let (entries, truncated) =
            read_lines_tolerant(&path, |l| Some(l.to_string())).unwrap();
        assert_eq!(entries, vec!["one", "two", "three"]);
        assert!(!truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let dir = crate::scratch_dir("journal-none");
        let path = dir.join("journal.jsonl");
        let (entries, truncated) =
            read_lines_tolerant(&path, |l| Some(l.to_string())).unwrap();
        assert!(entries.is_empty());
        assert!(!truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_sets_truncated() {
        let dir = crate::scratch_dir("journal-torn");
        let path = dir.join("journal.jsonl");
        append_line(&path, "good").unwrap();
        // Simulate a kill mid-append: a partial line with no newline.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"ba").unwrap();
        drop(f);
        let (entries, truncated) =
            read_lines_tolerant(&path, |l| (l == "good").then(|| l.to_string())).unwrap();
        assert_eq!(entries, vec!["good"]);
        assert!(truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blank_lines_are_skipped_not_truncating() {
        let dir = crate::scratch_dir("journal-blank");
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, "a\n\n  \nb\n").unwrap();
        let (entries, truncated) =
            read_lines_tolerant(&path, |l| Some(l.to_string())).unwrap();
        assert_eq!(entries, vec!["a", "b"]);
        assert!(!truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
