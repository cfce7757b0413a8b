//! CPU time, context switches and memory of processes, read from `/proc`.
//!
//! CPU time is the benchmark's primary efficiency signal because it is what
//! an optimisation removes and, unlike wall-clock throughput, it does not
//! move when the hypervisor steals a core for a while.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux ABI; there is no way to ask without libc, so it is fixed.
const TICKS_PER_SEC: u64 = 100;
const NS_PER_TICK: u64 = 1_000_000_000 / TICKS_PER_SEC;

/// Cumulative CPU time of one process (all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// User-mode nanoseconds.
    pub user_ns: u64,
    /// Kernel-mode nanoseconds.
    pub sys_ns: u64,
}

impl CpuTimes {
    /// User + kernel nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// Component-wise `self - earlier` (saturating).
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns + other.user_ns,
            sys_ns: self.sys_ns + other.sys_ns,
        }
    }
}

/// Parses the `utime`/`stime` fields (14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state (3), ppid (4), ... utime is field 14:
    // the 12th field after the command name.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_ns: utime * NS_PER_TICK,
        sys_ns: stime * NS_PER_TICK,
    })
}

/// Parses the first field of `/proc/<pid>/schedstat`: nanoseconds spent on
/// a CPU (user + kernel), at scheduler-clock resolution.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Extracts a `Name:   <number> [kB]` field from `/proc/<pid>/status` text.
pub fn parse_status_field(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU time of process `pid` so far, or `None` once it is gone.
pub fn cpu_times(pid: u32) -> Option<CpuTimes> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// On-CPU nanoseconds of this process's main thread — the whole process when
/// it is single-threaded, which is how the simulator workloads run. Falls
/// back to the 10 ms-granular `stat` when the kernel has no schedstats.
pub fn self_on_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat)
        .filter(|ns| *ns > 0)
        .or_else(|| cpu_times(std::process::id()).map(|c| c.total_ns()))
        .unwrap_or(0)
}

/// Voluntary + involuntary context switches summed over every thread of
/// `pid` (`/proc/<pid>/status` alone covers only the main thread).
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Pids whose command line mentions `needle` (used to prove no node process
/// of this run outlived it), excluding this process.
pub fn pids_with_cmdline(needle: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| *pid != me)
        .filter(|pid| {
            fs::read(format!("/proc/{pid}/cmdline"))
                .map(|raw| String::from_utf8_lossy(&raw).contains(needle))
                .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let line = "4242 (basil node) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 269 0 0 20 0 14 0 12345 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let cpu = parse_stat(line).expect("parses");
        assert_eq!(cpu.user_ns, 7_310_000_000);
        assert_eq!(cpu.sys_ns, 2_690_000_000);
        assert_eq!(cpu.total_ns(), 10_000_000_000);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn cpu_times_arithmetic() {
        let a = CpuTimes {
            user_ns: 10,
            sys_ns: 4,
        };
        let b = CpuTimes {
            user_ns: 25,
            sys_ns: 5,
        };
        assert_eq!(
            b.since(&a),
            CpuTimes {
                user_ns: 15,
                sys_ns: 1
            }
        );
        assert_eq!(a.since(&b), CpuTimes::default());
        assert_eq!(a.plus(&b).total_ns(), 44);
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(parse_schedstat("940106 139829 2\n"), Some(940_106));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tbasil-node\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20_480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(cpu_times(me).is_some());
        assert!(peak_rss_mb(me) > 0.0);
        assert!(pids_with_cmdline("definitely-not-a-real-command-line-7f3a").is_empty());
    }
}
