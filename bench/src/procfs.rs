//! CPU time and peak memory of a process, and host steal time, from `/proc`.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux architecture rust supports; reading it needs libc, which this
/// offline tree does not have.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After comm: state is field 3, so utime (14) and stime (15) are the
    // 12th and 13th whitespace-separated items of `rest`.
    let mut it = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`) in MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    let line =
        status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// The steal column of the aggregate `cpu` line of `/proc/stat`, in ticks.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// `"self"` or a pid, as the path component under `/proc`.
fn read(pid: Option<u32>, file: &str) -> Option<String> {
    let who = pid.map_or_else(|| "self".to_owned(), |p| p.to_string());
    fs::read_to_string(format!("/proc/{who}/{file}")).ok()
}

/// CPU seconds consumed so far by `pid` (`None` = this process); 0 if
/// the process is gone.
pub fn cpu_s(pid: Option<u32>) -> f64 {
    read(pid, "stat").and_then(|s| parse_stat_cpu_s(&s)).unwrap_or(0.0)
}

/// Peak resident set of `pid` (`None` = this process) in MiB.
pub fn hwm_mib(pid: Option<u32>) -> f64 {
    read(pid, "status").and_then(|s| parse_status_mib(&s, "VmHWM")).unwrap_or(0.0)
}

/// Host-wide steal ticks so far (0 where the kernel reports none).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_steal_ticks(&s)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        // comm = "a) b (c" — spaces and both parentheses inside.
        let stat = "1234 (a) b (c) S 1 1234 1234 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 7 0 \
                    100 1000000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("no parens here"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn stat_cpu_of_this_process_moves() {
        let before = cpu_s(None);
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_s(None) >= before + 0.03, "60 ms of spinning is at least 3 ticks");
    }

    #[test]
    fn status_fields_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(1.0));
        assert_eq!(parse_status_mib(status, "Vm"), None, "prefix of a name is not the name");
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
        assert!(hwm_mib(None) > 0.0);
    }

    #[test]
    fn steal() {
        let stat = "cpu  10 20 30 40 50 60 70 80 90 100\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(80));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
    }
}
