//! Process cost read from `/proc`, outside the daemon: CPU time, peak
//! RSS, context switches, thread count.

use std::fs;
use std::io;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// for every architecture it exports to user space.
pub const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub threads: u64,
}

impl Stat {
    pub fn cpu_ticks(&self) -> u64 {
        self.utime_ticks + self.stime_ticks
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may
/// itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime, stime and num_threads are
    // fields 14, 15 and 20.
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    Some(Stat {
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
        threads: f.get(17)?.parse().ok()?,
    })
}

/// A `Key:   123 kB`-style field of `/proc/<pid>/status`.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

pub fn stat(pid: u32) -> io::Result<Stat> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| io::Error::other(format!("unparseable /proc/{pid}/stat")))
}

/// Peak resident set (`VmHWM`), KiB.
pub fn rss_peak_kib(pid: u32) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&text, "VmHWM").ok_or_else(|| io::Error::other("no VmHWM in status"))
}

/// Voluntary + involuntary context switches summed over the process's
/// live threads (`/proc/<pid>/status` alone covers only the main thread).
pub fn ctx_switches(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between readdir and read; it then simply
        // stops contributing.
        let Ok(text) = fs::read_to_string(task?.path().join("status")) else {
            continue;
        };
        total += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (io fwd) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                        731 269 0 0 20 0 7 0 123456 1000000 2500 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_survives_a_hostile_comm() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(
            s,
            Stat {
                utime_ticks: 731,
                stime_ticks: 269,
                threads: 7
            }
        );
        assert_eq!(s.cpu_ticks(), 1000);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tiofwdd\nVmPeak:\t  200000 kB\nVmHWM:\t   53212 kB\n\
                      Threads:\t7\nvoluntary_ctxt_switches:\t9001\n\
                      nonvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM"), Some(53212));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(9001));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "VmSwap"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(stat(me).unwrap().threads >= 1);
        assert!(rss_peak_kib(me).unwrap() > 0);
        ctx_switches(me).unwrap();
    }
}
