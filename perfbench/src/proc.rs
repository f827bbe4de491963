//! Running the shipped binaries: one-shot commands and servers.
//!
//! Every child is waited for. A [`Server`] is killed and reaped when it
//! is dropped, so an early return or a panic never leaves a daemon
//! behind.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Where the built binaries live.
pub struct Bins {
    dir: PathBuf,
}

impl Bins {
    /// Binaries in `dir`; each one the benchmark uses must exist.
    pub fn new(dir: &Path) -> Result<Bins, String> {
        for name in ["simulate", "analyze", "queryd", "dynaddrd"] {
            if !dir.join(name).is_file() {
                return Err(format!("binary {} not found in {}", name, dir.display()));
            }
        }
        Ok(Bins {
            dir: dir.to_path_buf(),
        })
    }

    /// A command for binary `name`, logging kept to warnings.
    pub fn command(&self, name: &str) -> Command {
        let mut cmd = Command::new(self.dir.join(name));
        cmd.env("DYNADDR_LOG", "warn")
            .env("DYNADDR_HEARTBEAT_SECS", "3600");
        cmd
    }
}

/// What one command took.
pub struct Ran {
    /// From spawn to exit.
    pub wall_s: f64,
    /// User + system CPU time of the command.
    pub cpu_s: f64,
    pub stderr: String,
}

/// Runs `cmd` to completion; a nonzero exit is an error.
pub fn run(mut cmd: Command) -> Result<Ran, String> {
    let what = format!("{:?}", cmd.get_program());
    let cpu_before = children_cpu_s()?;
    let start = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = children_cpu_s()? - cpu_before;
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{what} exited with {}: {}",
            out.status,
            stderr.trim()
        ));
    }
    Ok(Ran {
        wall_s,
        cpu_s,
        stderr,
    })
}

/// CPU seconds (user + system) of every child this process has waited
/// for: `cutime` + `cstime` of `/proc/self/stat`, in the clock ticks
/// Linux fixes at 100 per second for user space.
fn children_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // cutime and cstime are fields 16 and 17.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<u64>().ok());
    match (tick(16), tick(17)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / 100.0),
        _ => Err("/proc/self/stat: no cutime/cstime".into()),
    }
}

/// Flushes every file under `dir` to disk. Called between measurements,
/// so the kernel's delayed writeback of one step's output does not land
/// in the middle of a later step's timing.
pub fn sync_tree(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else if path.is_file() {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The `peak_rss_bytes: N` line `analyze` prints on exit, in MiB.
pub fn peak_rss_mb(stderr: &str) -> Option<f64> {
    stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("peak_rss_bytes: "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|b| b as f64 / (1u64 << 20) as f64)
}

/// A running server process, killed and reaped on drop.
pub struct Server {
    child: Option<Child>,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `cmd` with standard output discarded and standard error
    /// sent to `stderr`.
    pub fn spawn(mut cmd: Command, stderr: Stdio) -> Result<Server, String> {
        let spawned = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{:?}: {e}", cmd.get_program()))?;
        Ok(Server {
            child: Some(child),
            spawned,
        })
    }

    /// Waits up to `timeout` for the process to exit by itself.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        let child = self.child.as_mut().expect("child present until drop");
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err(format!("server did not exit within {timeout:?}")),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `cpu` line of `/proc/stat`: ticks the hypervisor stole from this
/// machine's CPUs, and all ticks, so far. Zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_child_cpu_time() {
        let before = children_cpu_s().expect("readable");
        let ran = run(Command::new("true")).expect("true runs");
        assert!(ran.cpu_s >= 0.0 && ran.wall_s > 0.0);
        assert!(children_cpu_s().expect("readable") >= before);
    }

    #[test]
    fn parses_peak_rss() {
        let err = "some log\npeak_rss_bytes: 2097152\n";
        assert_eq!(peak_rss_mb(err), Some(2.0));
        assert_eq!(peak_rss_mb("nothing"), None);
    }
}
