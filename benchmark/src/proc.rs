//! Process plumbing: the per-run scratch directory, building and spawning
//! the `fairsched` CLI, and peak-RSS readings.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// A per-run scratch directory under `benchmark/out/`, removed on drop.
/// Every generated file (SWF logs, run dirs, serve dirs) lives here, so a
/// run leaves nothing behind and never writes outside its checkout.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let path =
            repo_root().join("benchmark/out").join(format!("tmp-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory path (not created: `experiment run` and
    /// `ServeConfig::init` create their own).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Builds the release `fairsched` binary from the checkout's sources and
/// returns its path. Not part of any metric: `setup_s` excludes the build.
pub fn build_cli() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "fairsched"])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the fairsched binary failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release/fairsched");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

/// One finished child process.
pub struct Spawned {
    /// Spawn → stdout EOF → reaped.
    pub wall_s: f64,
    /// The child's own peak resident set, from its `rusage`.
    pub peak_rss_mb: f64,
    /// Exit code; `128 + signal` for a signalled child.
    pub code: i32,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `bin args…` in `cwd` to completion, capturing stdout and the
/// child's peak RSS. stderr goes to a file in `cwd` (the CLI prints at
/// most a line there) and is read back for failure messages.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn run_cli(
    bin: &Path,
    args: &[String],
    cwd: &Path,
    env: &[(&str, &str)],
) -> std::io::Result<Spawned> {
    let err_path = cwd.join("stderr.log");
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(std::fs::File::create(&err_path)?))
        .spawn()?;
    let mut stdout = Vec::new();
    child.stdout.take().expect("stdout was piped").read_to_end(&mut stdout)?;
    let mut status = 0i32;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `wait4` is the libc function std already links; `status` and
    // `usage` are valid, exclusively borrowed out-parameters laid out as the
    // kernel ABI of 64-bit Linux expects (see `Rusage`), and the pid is a
    // child of this process that nothing else reaps — `Child::wait` is never
    // called on it.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let code =
        if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    Ok(Spawned {
        wall_s,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        code,
        stdout,
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    })
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so a later reading covers
/// only the work after this call. Best effort: where the kernel refuses,
/// the peak simply also covers set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
