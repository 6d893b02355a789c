//! The few things the benchmark asks the operating system directly: CPU pinning,
//! a process's peak resident set and CPU time, and the facts of the environment
//! header. Linux only (`/proc`), like the container the benchmark runs in.

use std::fs;
use std::path::Path;
use std::process::Command;

extern "C" {
    // Both come from the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Cores available to this process (read before pinning: the answer follows the
/// affinity mask).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Pin process (or thread) `pid` to `cpus`; `pid` 0 is the caller. Returns whether
/// the kernel accepted the mask — a refusal (restricted container) leaves the
/// process where it was, and the environment header says so.
pub fn pin(pid: u32, cpus: std::ops::Range<usize>) -> bool {
    let mut mask = [0u64; 16];
    for cpu in cpus {
        if cpu < mask.len() * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is a live, properly aligned buffer of exactly the byte length
    // passed; the call only reads it.
    unsafe { sched_setaffinity(pid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Peak resident set (`VmHWM`) of a live process in MiB. A zombie has no `Vm*`
/// lines, so read this before asking the process to exit.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds consumed so far by process `pid` (all its threads).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // utime is field 14 overall
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    Some((utime + stime) / if ticks > 0 { ticks as f64 } else { 100.0 })
}

/// File-system type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, kind) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind.to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line a command prints, or "unknown" (no git metadata in a driver
/// checkout, for one).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
