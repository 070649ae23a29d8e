//! What the benchmark reads from and leaves on the host: CPU time and peak
//! RSS of this process, the scratch directory, and child processes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks; Linux reports them at 100 Hz).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// `VmHWM` of this process in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kib * 1024
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line a command prints, or `"unknown"` when it cannot run.
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The one directory graph files, spill files, snapshots and child output
/// live in. It sits beside the executable, so inside the build directory
/// of the checkout, and is removed when the guard drops: on success, on
/// failure and while a panic unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("ripples-benchmark-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Runs this executable again with `args`, alone and to completion, and
/// returns what it printed; `None` when it failed, died or overran
/// `limit` (it is killed and reaped then). Spill files of the child go to
/// the scratch directory through `TMPDIR`.
pub fn run_child(args: &[String], scratch: &Path, limit: Duration) -> Option<String> {
    let out_path = scratch.join("child.out");
    let out = fs::File::create(&out_path).ok()?;
    let mut child = Command::new(std::env::current_exe().ok()?)
        .args(args)
        .env("TMPDIR", scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .spawn()
        .ok()?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < limit => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = fs::read_to_string(&out_path).ok()?;
    status.filter(|s| s.success()).map(|_| text)
}
