//! Process CPU time and memory high-water mark from `/proc/self`.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Thread id of the running host probe, 0 when none runs.
static PROBE_TID: AtomicU64 = AtomicU64::new(0);

/// User plus system CPU seconds of this process, all threads but the
/// host probe's included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let all = cpu_seconds_of(&stat).expect("/proc/self/stat has utime and stime");
    let probe = match PROBE_TID.load(Ordering::Acquire) {
        0 => 0.0,
        tid => fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
            .ok()
            .and_then(|s| cpu_seconds_of(&s))
            .unwrap_or(0.0),
    };
    all - probe
}

/// Leaves the calling thread's CPU out of [`cpu_seconds`] (`true`) or
/// stops doing so (`false`). Only the host probe calls it.
pub fn exclude_this_thread(exclude: bool) {
    let tid = if exclude {
        fs::read_to_string("/proc/thread-self/stat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    } else {
        0
    };
    PROBE_TID.store(tid, Ordering::Release);
}

/// Parses fields 14 (utime) and 15 (stime) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may hold spaces, so fields are counted from
/// its closing parenthesis.
pub fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM present in /proc/self/status") as f64
        / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let line = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(cpu_seconds_of(line), Some(3.0));
        assert_eq!(cpu_seconds_of("42 (x) R 1"), None);
        assert!(cpu_seconds() >= 0.0 && peak_rss_mib() > 0.0);
    }
}
