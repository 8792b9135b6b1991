//! What the kernel reports about this process: CPU time per thread, peak
//! resident memory, core count. Read from `/proc`, so Linux only — the same
//! platform the epoll data path under test needs.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at 100
/// on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Cores this process may run on; every workload's thread counts are checked
/// against it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `utime + stime` in milliseconds from a `stat` line. The command name in
/// parentheses may contain spaces, so fields are counted from the last `)`.
fn cpu_ms_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e3 / TICKS_PER_SEC)
}

/// CPU milliseconds the whole process has used, exited threads included
/// (the `cxx_thread` and `cxx_async` models spawn and join threads per
/// region; their time survives only in the process total).
pub fn process_cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ms_of_stat(&s))
        .unwrap_or(0.0)
}

/// CPU milliseconds thread `tid` has used; 0 once it has exited.
pub fn thread_cpu_ms(tid: u32) -> f64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|s| cpu_ms_of_stat(&s))
        .unwrap_or(0.0)
}

/// The calling thread's kernel id, for [`thread_cpu_ms`].
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_command_parses() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(cpu_ms_of_stat(line), Some(3000.0));
    }

    #[test]
    fn this_process_has_a_tid_and_memory() {
        assert!(current_tid() > 0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
