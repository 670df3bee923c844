//! Facts about the machine and build a result is only meaningful with.

use resource_discovery::obs::json::escape;
use std::process::Command;

/// Stamped on every output file. A fact the host does not expose reads
/// `"unknown"` rather than a guess.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub available_parallelism: usize,
    pub mem_total_kib: u64,
    pub kernel: String,
    pub thp: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostFacts {
    pub fn gather() -> HostFacts {
        HostFacts {
            available_parallelism: available_parallelism(),
            mem_total_kib: proc_kib("/proc/meminfo", "MemTotal:").unwrap_or(0),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            thp: read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled"),
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"mem_total_kib\": {}, \"kernel\": {}, \"thp\": {}, \"rustc\": {}, \"git_commit\": {}}}",
            self.available_parallelism,
            self.mem_total_kib,
            escape(&self.kernel),
            escape(&self.thp),
            escape(&self.rustc),
            escape(&self.git_commit)
        )
    }
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    proc_kib("/proc/self/status", "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Size of the last-level cache of CPU 0, in bytes.
pub fn last_level_cache_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            break;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        let kib: u64 = size.trim().strip_suffix('K')?.parse().ok()?;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, kib * 1024));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// The kB value of the line of `path` that starts with `key`.
fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or("unknown".into(), |s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}
