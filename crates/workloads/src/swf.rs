//! Standard Workload Format (SWF) parsing and writing.
//!
//! SWF is the Parallel Workload Archive's 18-field whitespace-separated
//! format; `;`-prefixed lines are header comments. The fields we consume:
//!
//! | # | field | use |
//! |---|---|---|
//! | 1 | job number | identity (informational) |
//! | 2 | submit time | release |
//! | 4 | run time | processing time |
//! | 5 | allocated processors | parallel width (expanded to copies) |
//! | 12 | user id | organization assignment |
//!
//! Jobs with non-positive runtime or processor counts (cancelled/failed
//! entries) are skipped, as is conventional when replaying archive logs.
//!
//! Lines are read as bytes and split by a hand-written scanner: ASCII
//! lines (all of a real archive log) never become a `String` or a `Vec` of
//! words, and integer fields skip the float parser. Any other UTF-8 line
//! takes the `str::split_whitespace` path, so the accepted inputs and the
//! values read are those of a plain `&str` parser. [`stream_trace`] turns a
//! log into a [`Trace`](fairsched_core::model::Trace) and its [`SwfStats`]
//! in one pass over the file.

use crate::assign::UserJob;
use fairsched_core::model::Time;
use std::fmt::Write as _;

/// One parsed SWF record (the subset of fields the experiments consume).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SwfJob {
    /// Job number (field 1).
    pub job_number: i64,
    /// Submit time in seconds since log start (field 2).
    pub submit: Time,
    /// Runtime in seconds (field 4).
    pub runtime: Time,
    /// Number of allocated processors (field 5).
    pub processors: u32,
    /// User id (field 12).
    pub user: u32,
}

/// Parse errors with line context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Fields a record needs: field 12 (the user id) is the last one read.
const FIELDS: usize = 12;

/// `char::is_whitespace` restricted to ASCII: the separators
/// `split_whitespace` honours on an ASCII line. (`u8::is_ascii_whitespace`
/// omits `\x0B`, so it would split differently.)
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// The whitespace-separated words of an ASCII line, found by a byte scan.
struct AsciiWords<'a>(&'a str);

impl<'a> Iterator for AsciiWords<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let start = self.0.bytes().position(|b| !is_separator(b))?;
        let rest = &self.0[start..];
        let len = rest.bytes().position(is_separator).unwrap_or(rest.len());
        let (word, tail) = rest.split_at(len);
        self.0 = tail;
        Some(word)
    }
}

/// A field's integer value, or why it has none. `-?[0-9]{1,15}` is read
/// exactly by hand; longer integer words (`[+-]?[0-9]{16,}`) are read
/// exactly by `str::parse::<i64>`, and one outside `i64` is out of range.
/// Every other word goes through `str::parse::<f64>`, truncated toward
/// zero and saturated, since some archive logs carry float fields.
fn parse_field(word: &str) -> Result<i64, &'static str> {
    let (negative, digits) = match word.strip_prefix('-') {
        Some(digits) => (true, digits),
        None => (false, word),
    };
    if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
        let magnitude =
            digits.bytes().fold(0i64, |decimal, b| decimal * 10 + i64::from(b - b'0'));
        return Ok(if negative { -magnitude } else { magnitude });
    }
    let unsigned = word.strip_prefix(['+', '-']).unwrap_or(word);
    if unsigned.len() > 15 && unsigned.bytes().all(|b| b.is_ascii_digit()) {
        return word.parse::<i64>().map_err(|_| "out of range");
    }
    word.parse::<f64>().map(|v| v as i64).map_err(|_| "is not numeric")
}

/// Builds a record from one line's words. `Ok(None)` for comment, blank
/// and cancelled lines.
fn record<'a>(
    line_no: usize,
    words: impl Iterator<Item = &'a str>,
) -> Result<Option<SwfJob>, SwfError> {
    let mut fields = [""; FIELDS];
    let mut found = 0;
    for (slot, word) in fields.iter_mut().zip(words) {
        *slot = word;
        found += 1;
    }
    if found == 0 || fields[0].starts_with(';') {
        return Ok(None);
    }
    let error = |message: String| SwfError { line: line_no, message };
    if found < FIELDS {
        return Err(error(format!("expected at least 12 fields, found {found}")));
    }
    let bad = |idx: usize, why: &str| {
        error(format!("field {} {why}: {:?}", idx + 1, fields[idx]))
    };
    let field = |idx: usize| parse_field(fields[idx]).map_err(|why| bad(idx, why));
    let job_number = field(0)?;
    let submit = field(1)?;
    let runtime = field(3)?;
    let processors = field(4)?;
    let user = field(11)?;
    if runtime <= 0 || processors <= 0 {
        return Ok(None); // cancelled / failed record
    }
    let narrow = |idx: usize, value: i64| {
        u32::try_from(value).map_err(|_| bad(idx, "out of range"))
    };
    Ok(Some(SwfJob {
        job_number,
        submit: submit.max(0) as Time,
        runtime: runtime as Time,
        processors: narrow(4, processors)?,
        user: narrow(11, user.max(0))?,
    }))
}

/// Parses one raw line, terminator included: ASCII lines through the byte
/// scanner, other UTF-8 lines through `split_whitespace`. A line that is
/// not UTF-8 is an error at its line number.
fn parse_bytes(line_no: usize, raw: &[u8]) -> Result<Option<SwfJob>, SwfError> {
    match std::str::from_utf8(raw) {
        Ok(line) if line.is_ascii() => record(line_no, AsciiWords(line)),
        Ok(line) => record(line_no, line.split_whitespace()),
        Err(_) => Err(SwfError {
            line: line_no,
            message: "I/O error: stream did not contain valid UTF-8".to_string(),
        }),
    }
}

/// Parses SWF text. Comment (`;`) and blank lines are skipped; cancelled
/// jobs (non-positive runtime or processors) are dropped; malformed lines
/// are errors.
pub fn parse(text: &str) -> Result<Vec<SwfJob>, SwfError> {
    records(text.as_bytes()).collect()
}

/// Streaming SWF reader: an iterator of records read line by line from any
/// [`BufRead`](std::io::BufRead) source, so archive logs larger than RAM
/// never materialize a `Vec<SwfJob>`. Yields exactly what [`parse`]
/// collects, in order, with the same per-line errors; I/O failures
/// mid-stream are reported as an [`SwfError`] at the failing line.
pub struct SwfRecords<R: std::io::BufRead> {
    reader: R,
    line_no: usize,
    buf: Vec<u8>,
    done: bool,
}

/// Starts streaming records from a [`BufRead`](std::io::BufRead) source.
/// `&[u8]` (in-memory text) and `std::io::BufReader<File>` both qualify.
pub fn records<R: std::io::BufRead>(reader: R) -> SwfRecords<R> {
    SwfRecords { reader, line_no: 0, buf: Vec::new(), done: false }
}

impl<R: std::io::BufRead> Iterator for SwfRecords<R> {
    type Item = Result<SwfJob, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.buf.clear();
            self.line_no += 1;
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => self.done = true,
                Ok(_) => match parse_bytes(self.line_no, &self.buf) {
                    Ok(None) => continue,
                    Ok(Some(job)) => return Some(Ok(job)),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                },
                Err(e) => {
                    self.done = true;
                    return Some(Err(SwfError {
                        line: self.line_no,
                        message: format!("I/O error: {e}"),
                    }));
                }
            }
        }
        None
    }
}

/// Serializes records back to SWF (unused fields written as `-1`), with a
/// minimal header. `parse(write(jobs)) == jobs` for valid records.
pub fn write(jobs: &[SwfJob]) -> String {
    let mut out = String::from("; generated by fairsched-workloads\n");
    for j in jobs {
        // 18 standard fields; unknown ones are -1 per SWF convention.
        let _ = writeln!(
            out,
            "{} {} -1 {} {} -1 -1 {} -1 -1 1 {} -1 -1 -1 -1 -1 -1",
            j.job_number, j.submit, j.runtime, j.processors, j.processors, j.user
        );
    }
    out
}

/// Expands parallel jobs into `processors` sequential unit copies — the
/// paper's preprocessing ("we replaced parallel jobs that required q > 1
/// processors with q copies of a sequential job having the same duration")
/// — and restricts to a `[start, end)` submit window, shifting submits so
/// the window begins at 0.
pub fn to_user_jobs(jobs: &[SwfJob], start: Time, end: Time) -> Vec<UserJob> {
    let mut out = Vec::new();
    for j in jobs {
        if j.submit < start || j.submit >= end {
            continue;
        }
        for _ in 0..j.processors {
            out.push(UserJob {
                user: j.user,
                release: j.submit - start,
                proc_time: j.runtime,
            });
        }
    }
    out.sort_by_key(|u| u.release);
    out
}

/// Summary statistics of a parsed log — the quantities used to calibrate
/// the synthetic presets against real archive logs.
#[derive(Clone, Debug, PartialEq)]
pub struct SwfStats {
    /// Number of (valid) jobs.
    pub jobs: usize,
    /// Number of distinct users.
    pub users: usize,
    /// Log span: last submit − first submit.
    pub span: Time,
    /// Total work in processor-seconds (`Σ runtime · processors`).
    pub total_work: u128,
    /// Runtime percentiles (p10, p50, p90).
    pub runtime_percentiles: (Time, Time, Time),
    /// Largest processor request.
    pub max_processors: u32,
    /// Offered load against a pool of `m` processors over the span:
    /// `total_work / (m · span)`. Computed by [`SwfStats::load`].
    pub mean_processors: f64,
}

impl SwfStats {
    /// Offered load against a pool of `m` processors.
    pub fn load(&self, m: usize) -> f64 {
        if self.span == 0 || m == 0 {
            return 0.0;
        }
        self.total_work as f64 / (m as f64 * self.span as f64)
    }
}

/// The p10/p50/p90 runtimes: the values a sorted column holds at index
/// `⌊(n − 1)·q⌋`, found by selection instead of a sort. Reorders
/// `runtimes`.
fn runtime_percentiles(runtimes: &mut [Time]) -> (Time, Time, Time) {
    let Some(last) = runtimes.len().checked_sub(1) else {
        return (0, 0, 0);
    };
    let rank = |q: f64| (last as f64 * q) as usize;
    let (r10, r50, r90) = (rank(0.1), rank(0.5), rank(0.9));
    // After the median is placed, the lower ranks lie below it and the
    // higher ones above it.
    let (below, &mut p50, above) = runtimes.select_nth_unstable(r50);
    let p10 = if r10 < r50 { *below.select_nth_unstable(r10).1 } else { p50 };
    let p90 = if r90 > r50 { *above.select_nth_unstable(r90 - r50 - 1).1 } else { p50 };
    (p10, p50, p90)
}

/// [`SwfStats`] gathered one record at a time, so [`stats`] and the
/// streaming pass compute them identically.
#[derive(Default)]
struct StatsSink {
    jobs: usize,
    /// First and last submit seen.
    submits: Option<(Time, Time)>,
    total_work: u128,
    total_procs: u64,
    max_processors: u32,
    runtimes: Vec<Time>,
}

impl StatsSink {
    fn add(&mut self, j: &SwfJob) {
        self.jobs += 1;
        self.submits = Some(match self.submits {
            Some((first, last)) => (first.min(j.submit), last.max(j.submit)),
            None => (j.submit, j.submit),
        });
        self.total_work += j.runtime as u128 * j.processors as u128;
        self.total_procs += u64::from(j.processors);
        self.max_processors = self.max_processors.max(j.processors);
        self.runtimes.push(j.runtime);
    }

    fn finish(mut self, users: usize) -> SwfStats {
        let (first, last) = self.submits.unwrap_or((0, 0));
        SwfStats {
            jobs: self.jobs,
            users,
            span: last - first,
            total_work: self.total_work,
            runtime_percentiles: runtime_percentiles(&mut self.runtimes),
            max_processors: self.max_processors,
            mean_processors: if self.jobs == 0 {
                0.0
            } else {
                self.total_procs as f64 / self.jobs as f64
            },
        }
    }
}

/// Computes [`SwfStats`] for a parsed log.
pub fn stats(jobs: &[SwfJob]) -> SwfStats {
    let mut users: Vec<u32> = jobs.iter().map(|j| j.user).collect();
    users.sort_unstable();
    users.dedup();
    let mut sink = StatsSink::default();
    jobs.iter().for_each(|j| sink.add(j));
    sink.finish(users.len())
}

/// Errors from the streaming log → trace path.
#[derive(Debug)]
pub enum SwfStreamError {
    /// Opening the log failed.
    Io {
        /// The path that failed to open.
        path: String,
        /// The underlying I/O message.
        message: String,
    },
    /// A line failed to parse (or the stream failed mid-read).
    Parse(SwfError),
    /// The submit window selected no jobs.
    EmptyWindow,
    /// The assembled trace failed validation.
    Trace(fairsched_core::model::TraceError),
}

impl std::fmt::Display for SwfStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfStreamError::Io { path, message } => {
                write!(f, "cannot open {path}: {message}")
            }
            SwfStreamError::Parse(e) => write!(f, "{e}"),
            SwfStreamError::EmptyWindow => {
                write!(f, "submit window selects no jobs")
            }
            SwfStreamError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SwfStreamError {}

impl From<SwfError> for SwfStreamError {
    fn from(e: SwfError) -> Self {
        SwfStreamError::Parse(e)
    }
}

/// Streams an SWF log at `path` into a [`Trace`] and the whole log's
/// [`SwfStats`] in a single pass, never materializing a `Vec<SwfJob>` or
/// `Vec<UserJob>`. Users are interned on first sight and each windowed
/// record's processor copies go straight to the
/// [`TraceBuilder`](fairsched_core::model::TraceBuilder) under the user's
/// slot; once the windowed user set is known, [`UserAssignment`] (which
/// depends only on that set) deals the users to organizations and the
/// builder's organization column is remapped in place. Peak memory is
/// O(records) for the runtime column the exact percentiles need, plus the
/// output jobs. The trace is identical to the materializing
/// `parse` → `to_user_jobs` → `to_trace` pipeline, and the stats to
/// `stats(&parse(..))`.
///
/// [`Trace`]: fairsched_core::model::Trace
/// [`UserAssignment`]: crate::assign::UserAssignment
pub fn stream_trace(
    path: &str,
    start: Time,
    end: Time,
    k: usize,
    total_machines: usize,
    split: crate::assign::MachineSplit,
    seed: u64,
) -> Result<(fairsched_core::model::Trace, SwfStats), SwfStreamError> {
    let file = std::fs::File::open(path).map_err(|e| SwfStreamError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    let reader = std::io::BufReader::with_capacity(1 << 16, file);
    replay(reader, start, end, k, total_machines, split, seed)
}

/// [`stream_trace`] over an open reader.
fn replay(
    reader: impl std::io::BufRead,
    start: Time,
    end: Time,
    k: usize,
    total_machines: usize,
    split: crate::assign::MachineSplit,
    seed: u64,
) -> Result<(fairsched_core::model::Trace, SwfStats), SwfStreamError> {
    use crate::assign::{split_machines, UserAssignment};
    use fairsched_core::model::OrgId;

    // Slot `i` is the `i`-th distinct user of the log and whether it
    // submitted inside the window; it is the provisional org id of that
    // user's jobs.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only: slots keep first-sight order in `slots`"
    )]
    let mut slot_of: std::collections::HashMap<u32, usize> = Default::default();
    let mut slots: Vec<(u32, bool)> = Vec::new();
    let mut sink = StatsSink::default();
    let mut b = fairsched_core::model::Trace::builder();
    for rec in records(reader) {
        let j = rec?;
        sink.add(&j);
        let slot = *slot_of.entry(j.user).or_insert_with(|| {
            slots.push((j.user, false));
            slots.len() - 1
        });
        if j.submit < start || j.submit >= end {
            continue;
        }
        slots[slot].1 = true;
        // The builder's stable sort by release keeps equal-release jobs
        // in file order, as the materializing path's sorted `Vec<UserJob>`.
        for _ in 0..j.processors {
            b.job(OrgId::from(slot), j.submit - start, j.runtime);
        }
    }
    let stats = sink.finish(slots.len());
    let windowed: Vec<u32> =
        slots.iter().filter(|&&(_, seen)| seen).map(|&(user, _)| user).collect();
    if windowed.is_empty() {
        return Err(SwfStreamError::EmptyWindow);
    }
    let assignment = UserAssignment::new(windowed, k, seed);
    let orgs: Vec<OrgId> = split_machines(total_machines, k, split, seed)
        .into_iter()
        .enumerate()
        .map(|(i, m)| b.org(format!("org{i}"), m))
        .collect();
    // Users never seen in the window own no jobs; any id serves them.
    let remap: Vec<OrgId> = slots
        .iter()
        .map(|&(user, _)| assignment.org_of(user).map_or(OrgId(0), |o| orgs[o]))
        .collect();
    b.remap_orgs(&remap);
    let trace = b.build().map_err(SwfStreamError::Trace)?;
    Ok((trace, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: Test cluster
1 0 10 100 2 -1 -1 2 -1 -1 1 7 1 -1 1 -1 -1 -1
2 50 5 200 1 -1 -1 1 -1 -1 1 3 1 -1 1 -1 -1 -1
3 60 0 -1 4 -1 -1 4 -1 -1 0 9 1 -1 1 -1 -1 -1
4 70 2 30 1 -1 -1 1 -1 -1 1 7 1 -1 1 -1 -1 -1
";

    /// The plain `&str` line parser the byte scanner replaced, kept as the
    /// differential oracle: `split_whitespace` words, `parse::<i64>` on
    /// integer words and `parse::<f64>` on every other field.
    fn parse_line(line_no: usize, raw: &str) -> Result<Option<SwfJob>, SwfError> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            return Ok(None);
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 12 {
            return Err(SwfError {
                line: line_no,
                message: format!("expected at least 12 fields, found {}", fields.len()),
            });
        }
        let parse_i64 = |idx: usize| -> Result<i64, SwfError> {
            let word = fields[idx];
            let unsigned = word.strip_prefix(['+', '-']).unwrap_or(word);
            if !unsigned.is_empty() && unsigned.bytes().all(|b| b.is_ascii_digit()) {
                return word.parse::<i64>().map_err(|_| SwfError {
                    line: line_no,
                    message: format!("field {} out of range: {:?}", idx + 1, word),
                });
            }
            word.parse::<f64>().map(|v| v as i64).map_err(|_| SwfError {
                line: line_no,
                message: format!("field {} is not numeric: {:?}", idx + 1, word),
            })
        };
        let job_number = parse_i64(0)?;
        let submit = parse_i64(1)?;
        let runtime = parse_i64(3)?;
        let processors = parse_i64(4)?;
        let user = parse_i64(11)?;
        if runtime <= 0 || processors <= 0 {
            return Ok(None);
        }
        let narrow = |idx: usize, value: i64| -> Result<u32, SwfError> {
            u32::try_from(value).map_err(|_| SwfError {
                line: line_no,
                message: format!("field {} out of range: {:?}", idx + 1, fields[idx]),
            })
        };
        Ok(Some(SwfJob {
            job_number,
            submit: submit.max(0) as Time,
            runtime: runtime as Time,
            processors: narrow(4, processors)?,
            user: narrow(11, user.max(0))?,
        }))
    }

    /// A unique scratch file holding `text`, removed on drop.
    struct TempLog(std::path::PathBuf);

    impl TempLog {
        fn new(name: &str, text: impl AsRef<[u8]>) -> Self {
            let path = crate::scratch_dir("swf").join(format!("{name}.swf"));
            std::fs::write(&path, text).unwrap();
            TempLog(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn stream(
        text: impl AsRef<[u8]>,
        start: Time,
        end: Time,
    ) -> Result<(fairsched_core::model::Trace, SwfStats), SwfStreamError> {
        use crate::assign::MachineSplit;
        replay(text.as_ref(), start, end, 2, 8, MachineSplit::Equal, 3)
    }

    /// The materializing pipeline [`stream_trace`] must reproduce.
    fn materialized(
        text: &str,
        start: Time,
        end: Time,
        split: crate::assign::MachineSplit,
        seed: u64,
    ) -> fairsched_core::model::Trace {
        let jobs = to_user_jobs(&parse(text).unwrap(), start, end);
        crate::assign::to_trace(&jobs, 2, 8, split, seed).unwrap()
    }

    #[test]
    fn parses_and_skips_cancelled() {
        let jobs = parse(SAMPLE).unwrap();
        // Job 3 has runtime -1: skipped.
        assert_eq!(jobs.len(), 3);
        assert_eq!(
            jobs[0],
            SwfJob { job_number: 1, submit: 0, runtime: 100, processors: 2, user: 7 }
        );
        assert_eq!(jobs[1].user, 3);
        assert_eq!(jobs[2].submit, 70);
    }

    #[test]
    fn rejects_short_lines() {
        let err = parse("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("12 fields"));
    }

    #[test]
    fn rejects_non_numeric() {
        let bad = "1 0 10 abc 2 -1 -1 2 -1 -1 1 7\n";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("not numeric"));
    }

    #[test]
    fn accepts_float_fields() {
        // Some archive logs carry float runtimes.
        let jobs = parse("1 0 10 99.5 2 -1 -1 2 -1 -1 1 7\n").unwrap();
        assert_eq!(jobs[0].runtime, 99);
        let jobs = parse("1 12.5 10 1e3 2 -1 -1 2 -1 -1 1 7\n").unwrap();
        assert_eq!((jobs[0].submit, jobs[0].runtime), (12, 1_000));
    }

    /// Processor counts and user ids that do not fit `u32` are typed
    /// errors naming the field: a cast would drop the record (2³²
    /// processors wrap to 0), ask for 4.3 × 10⁹ copies (2⁶⁴ saturates) or
    /// alias a smaller user id.
    #[test]
    fn out_of_range_fields_are_errors() {
        for (line, field) in [
            ("1 0 10 100 4294967296 -1 -1 2 -1 -1 1 7", 5),
            ("1 0 10 100 18446744073709551616 -1 -1 2 -1 -1 1 7", 5),
            ("1 0 10 100 1e10 -1 -1 2 -1 -1 1 7", 5),
            ("1 0 10 100 2 -1 -1 2 -1 -1 1 4294967296", 12),
            ("1 0 10 100 2 -1 -1 2 -1 -1 1 inf", 12),
            ("1 9223372036854775808 10 100 2 -1 -1 2 -1 -1 1 7", 2),
            ("-9223372036854775809 0 10 100 2 -1 -1 2 -1 -1 1 7", 1),
        ] {
            let err = parse(&format!("; header\n{line}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{line}");
            assert!(
                err.message.starts_with(&format!("field {field} out of range: ")),
                "{line}: {err}"
            );
            assert_eq!(Err(err), parse_line(2, line), "oracle agrees on {line}");
        }
        // The largest representable values still parse; negative users
        // clamp to 0 as before.
        let jobs = parse("1 0 10 100 4294967295 -1 -1 2 -1 -1 1 4294967295\n").unwrap();
        assert_eq!((jobs[0].processors, jobs[0].user), (u32::MAX, u32::MAX));
        // Integers past 15 digits are read exactly, not through `f64`
        // (which rounds 10^16 + 7 to 10^16 + 8), up to `i64::MAX`.
        let jobs = parse(
            "-10000000000000007 10000000000000007 10 9223372036854775807 \
             2 -1 -1 2 -1 -1 1 7\n",
        )
        .unwrap();
        assert_eq!(jobs[0].job_number, -10_000_000_000_000_007);
        assert_eq!(jobs[0].submit, 10_000_000_000_000_007);
        assert_eq!(jobs[0].runtime, i64::MAX as Time);
        assert_eq!(parse("1 0 10 100 2 -1 -1 2 -1 -1 1 -5\n").unwrap()[0].user, 0);
    }

    #[test]
    fn roundtrip_write_parse() {
        let jobs = parse(SAMPLE).unwrap();
        let text = write(&jobs);
        let again = parse(&text).unwrap();
        assert_eq!(jobs, again);
    }

    #[test]
    fn expands_parallel_jobs() {
        let jobs = parse(SAMPLE).unwrap();
        let user_jobs = to_user_jobs(&jobs, 0, 1_000);
        // Job 1 (2 procs) -> 2 copies; jobs 2, 4 -> 1 each.
        assert_eq!(user_jobs.len(), 4);
        assert_eq!(user_jobs.iter().filter(|u| u.user == 7).count(), 3);
    }

    #[test]
    fn window_restricts_and_shifts() {
        let jobs = parse(SAMPLE).unwrap();
        let user_jobs = to_user_jobs(&jobs, 50, 60);
        assert_eq!(user_jobs.len(), 1);
        assert_eq!(user_jobs[0].release, 0); // shifted by window start
        assert_eq!(user_jobs[0].user, 3);
    }

    #[test]
    fn empty_input() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("; only comments\n").unwrap().is_empty());
    }

    #[test]
    fn stats_summary() {
        let jobs = parse(SAMPLE).unwrap();
        let s = stats(&jobs);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.users, 2); // users 7 and 3
        assert_eq!(s.span, 70);
        assert_eq!(s.total_work, 100 * 2 + 200 + 30);
        assert_eq!(s.max_processors, 2);
        assert_eq!(s.runtime_percentiles.1, 100); // median of {30,100,200}
        assert!(s.load(4) > 0.0);
        assert_eq!(s.load(0), 0.0);
    }

    #[test]
    fn stats_empty() {
        let s = stats(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.load(10), 0.0);
    }

    #[test]
    fn records_iterator_matches_parse() {
        let streamed: Vec<SwfJob> =
            records(SAMPLE.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(streamed, parse(SAMPLE).unwrap());
        // Errors carry the same 1-based line numbers as `parse`.
        let bad = "; header\n1 2 3\n";
        let stream_err =
            records(bad.as_bytes()).find_map(Result::err).expect("short line must error");
        assert_eq!(stream_err, parse(bad).unwrap_err());
        assert_eq!(stream_err.line, 2);
    }

    #[test]
    fn records_iterator_stops_after_error() {
        let bad = "1 2 3\n1 0 10 100 2 -1 -1 2 -1 -1 1 7\n";
        let items: Vec<_> = records(bad.as_bytes()).collect();
        assert_eq!(items.len(), 1, "iterator must fuse after an error");
        assert!(items[0].is_err());
    }

    /// The streaming ingestion must produce the *identical* trace to the
    /// materializing parse → to_user_jobs → to_trace pipeline — the `swf:`
    /// workload family's byte-for-byte determinism contract.
    #[test]
    fn stream_trace_matches_materialized_pipeline() {
        use crate::assign::MachineSplit;

        let path = crate::spec::sample_swf_path();
        let text = std::fs::read_to_string(path).unwrap();
        for seed in [0u64, 1, 42] {
            for (start, end) in [(0, Time::MAX), (0, 80), (50, 500)] {
                for split in
                    [MachineSplit::Equal, MachineSplit::Zipf(1.0), MachineSplit::Uniform]
                {
                    let (streamed, summary) =
                        stream_trace(path, start, end, 2, 8, split, seed).unwrap();
                    assert_eq!(
                        streamed,
                        materialized(&text, start, end, split, seed),
                        "streamed and materialized traces diverged \
                         (seed {seed}, window [{start}, {end}))"
                    );
                    assert_eq!(summary, stats(&parse(&text).unwrap()));
                }
            }
        }
    }

    #[test]
    fn stream_trace_typed_errors() {
        use crate::assign::MachineSplit;
        let missing = stream_trace(
            "/definitely/not/here.swf",
            0,
            Time::MAX,
            2,
            4,
            MachineSplit::Equal,
            0,
        );
        assert!(matches!(missing, Err(SwfStreamError::Io { .. })));
        let empty = stream_trace(
            crate::spec::sample_swf_path(),
            1_000_000,
            Time::MAX,
            2,
            4,
            MachineSplit::Equal,
            0,
        );
        assert!(matches!(empty, Err(SwfStreamError::EmptyWindow)));
    }

    /// The replay reads its source once: every byte of the log is consumed
    /// exactly once.
    #[test]
    fn stream_trace_reads_the_log_once() {
        struct Counting<'a> {
            inner: &'a [u8],
            consumed: usize,
        }
        impl std::io::Read for Counting<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(out)?;
                self.consumed += n;
                Ok(n)
            }
        }
        impl std::io::BufRead for Counting<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Ok(self.inner)
            }
            fn consume(&mut self, n: usize) {
                self.inner = &self.inner[n..];
                self.consumed += n;
            }
        }
        let text = std::fs::read(crate::spec::sample_swf_path()).unwrap();
        let mut source = Counting { inner: &text, consumed: 0 };
        let (trace, summary) = replay(
            &mut source,
            0,
            Time::MAX,
            2,
            8,
            crate::assign::MachineSplit::Equal,
            0,
        )
        .unwrap();
        assert_eq!(source.consumed, text.len(), "every byte read exactly once");
        assert!(trace.n_jobs() > 0 && summary.jobs > 0);
    }

    /// Hostile logs through the file-based entry point: each either
    /// replays exactly as its well-formed twin or fails with a typed
    /// error at the offending line.
    #[test]
    fn hostile_logs_replay_or_fail_typed() {
        use crate::assign::MachineSplit;
        let replay_file = |name: &str, text: &[u8]| {
            let log = TempLog::new(name, text);
            stream_trace(log.path(), 0, Time::MAX, 2, 8, MachineSplit::Equal, 3)
        };
        let clean = "; h\n1 0 -1 5 2 -1 -1 2 -1 -1 1 7\n2 3 -1 4 1 -1 -1 1 -1 -1 1 9\n";
        let expected = stream(clean, 0, Time::MAX).unwrap();

        // A final line without its newline still counts.
        let truncated = clean.trim_end_matches('\n');
        assert_eq!(replay_file("truncated", truncated.as_bytes()).unwrap(), expected);
        // CRLF endings, NBSP and \x0B separators replay identically.
        for (name, text) in [
            ("crlf", clean.replace('\n', "\r\n")),
            ("nbsp", clean.replace(' ', "\u{a0}")),
            ("vt", clean.replace(' ', "\x0B")),
        ] {
            assert_eq!(replay_file(name, text.as_bytes()).unwrap(), expected, "{name}");
        }

        let parse_error = |result: Result<_, SwfStreamError>| match result {
            Err(SwfStreamError::Parse(e)) => (e.line, e.message),
            other => panic!("expected a parse error, got {other:?}"),
        };
        // A truncated final line too short to be a record.
        let (line, message) =
            parse_error(replay_file("short", format!("{clean}3 4 -1").as_bytes()));
        assert_eq!((line, message.as_str()), (4, "expected at least 12 fields, found 3"));
        // A non-UTF-8 byte in an unused field fails at that line.
        let mut bytes = clean.as_bytes().to_vec();
        bytes.extend_from_slice(b"3 4 \xff 6 1 -1 -1 1 -1 -1 1 7\n");
        let (line, message) = parse_error(replay_file("utf8", &bytes));
        assert_eq!(line, 4);
        assert!(message.contains("UTF-8"), "{message}");
        // A 2^64 processor count is out of range, not 4.3e9 copies.
        let huge = format!("{clean}3 4 -1 6 18446744073709551616 -1 -1 1 -1 -1 1 7\n");
        let (line, message) = parse_error(replay_file("huge", huge.as_bytes()));
        assert_eq!(line, 4);
        assert!(message.starts_with("field 5 out of range"), "{message}");
    }

    /// A user whose first record lies after the window counts towards the
    /// log's users but owns no jobs and takes no part in the assignment.
    #[test]
    fn user_first_seen_after_the_window() {
        let text = "1 0 -1 5 1 -1 -1 1 -1 -1 1 7\n2 2 -1 4 1 -1 -1 1 -1 -1 1 8\n\
                    3 50 -1 4 3 -1 -1 3 -1 -1 1 99\n";
        let (trace, summary) = stream(text, 0, 10).unwrap();
        assert_eq!(trace.n_jobs(), 2);
        assert_eq!(summary.users, 3);
        assert_eq!(summary.jobs, 3);
        assert_eq!(
            trace,
            materialized(text, 0, 10, crate::assign::MachineSplit::Equal, 3)
        );
    }

    mod properties {
        use super::*;
        use crate::assign::MachineSplit;
        use proptest::prelude::*;

        /// A strategy over valid SWF records (positive runtime/processors,
        /// the subset `write` can represent and `parse` keeps).
        fn jobs_strategy() -> impl Strategy<Value = Vec<SwfJob>> {
            collection::vec(
                (0i64..100_000, 0u64..1_000_000, 1u64..100_000, 1u32..256, 0u32..5_000)
                    .prop_map(|(job_number, submit, runtime, processors, user)| SwfJob {
                        job_number,
                        submit,
                        runtime,
                        processors,
                        user,
                    }),
                1..25,
            )
        }

        /// Small multi-processor logs with few users and clustered submits,
        /// so windows cut through them and releases tie.
        fn small_logs() -> impl Strategy<Value = Vec<SwfJob>> {
            collection::vec(
                (0u64..200, 1u64..50, 1u32..5, 0u32..12).prop_map(
                    |(submit, runtime, processors, user)| SwfJob {
                        job_number: 1,
                        submit,
                        runtime,
                        processors,
                        user,
                    },
                ),
                1..40,
            )
        }

        /// One word of a generated line, of a shape chosen by `kind` and
        /// filled from `n`: small integers, 1–20-digit integers (leading
        /// zeros included) bare or with `-` or `+`, decimals, exponents,
        /// special floats, garbage, non-ASCII words and a mid-line `;`.
        /// Most shapes are numeric, so many lines reach the later fields.
        fn word(kind: u64, n: u64) -> String {
            let digits: String = (0..1 + n % 20)
                .map(|i| char::from(b'0' + ((n >> (3 * i)) % 10) as u8))
                .collect();
            match kind % 16 {
                0 => digits,
                1 => format!("-{digits}"),
                2 => format!("+{digits}"),
                3 => format!("{}.{}", n % 1000, n % 7),
                4 => format!("{}e{}", n % 10, n % 25),
                5 => ["inf", "-inf", "NaN", "infinity", "-0", "1e400"][(n % 6) as usize]
                    .to_string(),
                6 => ["-", "+", ".", "1x", "0x10", "--1", "1-"][(n % 7) as usize]
                    .to_string(),
                7 => ["é", "１２", "9\u{300}", "λ7"][(n % 4) as usize].to_string(),
                8 => ";c".to_string(),
                _ => ((n % 1000) as i64 - 2).to_string(),
            }
        }

        /// Whitespace: every ASCII separator, plus Unicode spaces
        /// `split_whitespace` also honours.
        fn gap(n: u64) -> &'static str {
            [" ", "  ", "\t", "\x0B", "\x0C", "\r", " \t", "\u{a0}", "\u{2003}"]
                [(n % 9) as usize]
        }

        /// A generated line: a record of 0–16 words, a comment or a blank
        /// line, with optional leading and trailing whitespace.
        fn line(shape: (u64, u64), words: &[(u64, u64)]) -> String {
            let mut out = gap(shape.0).repeat((shape.0 >> 8) as usize % 2);
            match shape.1 % 8 {
                0 => out.push_str("; comment"),
                1 => {}
                _ => {
                    for (i, &(kind, n)) in words.iter().enumerate() {
                        if i > 0 {
                            out.push_str(gap(kind >> 8));
                        }
                        out.push_str(&word(kind, n));
                    }
                }
            }
            out.push_str(&gap(shape.1 >> 8).repeat((shape.0 >> 16) as usize % 2));
            out.push('\n');
            out
        }

        fn words() -> impl Strategy<Value = Vec<(u64, u64)>> {
            collection::vec((0u64..1 << 20, 0u64..u64::MAX), 0..17)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `parse ∘ write` is the identity on valid record sets.
            #[test]
            fn parse_write_identity(jobs in jobs_strategy()) {
                let text = write(&jobs);
                let again = parse(&text);
                prop_assert_eq!(again.as_ref().ok(), Some(&jobs), "parse failed or diverged");
            }

            /// `write ∘ parse` is the identity on canonical text (writing
            /// is a fixpoint).
            #[test]
            fn write_parse_identity_on_canonical_text(jobs in jobs_strategy()) {
                let text = write(&jobs);
                let reparsed = parse(&text).unwrap();
                prop_assert_eq!(write(&reparsed), text);
            }

            /// A malformed line anywhere in an otherwise valid log is
            /// reported with its exact 1-based line number and a reason
            /// naming the defect — comments and valid records around it
            /// must not shift the count.
            #[test]
            fn malformed_line_reports_position_and_reason(
                jobs in jobs_strategy(),
                at in 0usize..26,
                kind in 0u8..2,
            ) {
                let mut lines: Vec<String> =
                    write(&jobs).lines().map(str::to_string).collect();
                let idx = at.min(lines.len());
                let (bad, needle) = match kind {
                    0 => ("1 2 3".to_string(), "12 fields"),
                    _ => (
                        "1 0 10 oops 2 -1 -1 2 -1 -1 1 7".to_string(),
                        "not numeric",
                    ),
                };
                lines.insert(idx, bad);
                let text = lines.join("\n");
                let err = parse(&text).expect_err("malformed line must error");
                prop_assert_eq!(err.line, idx + 1, "wrong line number: {}", err);
                prop_assert!(
                    err.message.contains(needle),
                    "reason {:?} should mention {:?}", err.message, needle
                );
                prop_assert!(
                    err.to_string().contains(&format!("line {}", idx + 1)),
                    "Display must carry the line number: {}", err
                );
            }

            /// Cancelled records (non-positive runtime or processors) are
            /// skipped silently wherever they appear, never errors.
            #[test]
            fn cancelled_records_are_skipped_not_errors(
                jobs in jobs_strategy(),
                at in 0usize..26,
            ) {
                let mut lines: Vec<String> =
                    write(&jobs).lines().map(str::to_string).collect();
                let idx = at.min(lines.len());
                lines.insert(idx, "99 10 0 -1 4 -1 -1 4 -1 -1 0 9".to_string());
                let parsed = parse(&lines.join("\n")).unwrap();
                prop_assert_eq!(parsed, jobs);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The byte scanner agrees with the `&str` oracle on every
            /// generated line: the same record, skip, or error (line and
            /// message).
            #[test]
            fn byte_scanner_matches_str_oracle(
                shape in (0u64..1 << 20, 0u64..1 << 20),
                words in words(),
                line_no in 1usize..1000,
            ) {
                let text = line(shape, &words);
                prop_assert_eq!(
                    parse_bytes(line_no, text.as_bytes()),
                    parse_line(line_no, &text),
                    "line {:?}", text
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The single pass reproduces the materializing pipeline's
            /// trace and `stats(&parse(..))` on random multi-processor
            /// logs, windows and machine splits.
            #[test]
            fn streamed_replay_matches_materialized_pipeline(
                jobs in small_logs(),
                window in (0u64..150, 1u64..250),
                split in 0u8..3,
                seed in 0u64..1_000,
            ) {
                let text = write(&jobs);
                let (start, end) = (window.0, window.0 + window.1);
                let split = match split {
                    0 => MachineSplit::Equal,
                    1 => MachineSplit::Uniform,
                    _ => MachineSplit::Zipf(1.0),
                };
                let windowed = to_user_jobs(&jobs, start, end);
                let streamed = replay(text.as_bytes(), start, end, 2, 8, split, seed);
                if windowed.is_empty() {
                    prop_assert!(matches!(streamed, Err(SwfStreamError::EmptyWindow)));
                    return Ok(());
                }
                let (trace, summary) = streamed.unwrap();
                prop_assert_eq!(trace, materialized(&text, start, end, split, seed));
                prop_assert_eq!(summary, stats(&jobs));
            }
        }
    }
}
