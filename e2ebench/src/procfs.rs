//! Process CPU time and peak resident set, read from `/proc/self`.

/// Kernel clock ticks per second (`USER_HZ`), the unit of the CPU fields
/// of `/proc/<pid>/stat`. Linux fixes it at 100 on every mainstream
/// architecture (`getconf CLK_TCK`).
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of the whole process, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// User-mode CPU seconds (all threads).
    pub user_s: f64,
    /// Kernel-mode CPU seconds (all threads).
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may hold spaces
/// and parentheses, so fields are counted after its last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th field after it.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / CLOCK_TICKS_PER_SEC,
        sys_s: stime as f64 / CLOCK_TICKS_PER_SEC,
    })
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// into mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// Parses the machine's steal time, in seconds, from the aggregate `cpu`
/// line of `/proc/stat` (its eighth value): time a virtual CPU wanted to
/// run while the hypervisor ran something else.
pub fn parse_proc_stat_steal(proc_stat: &str) -> Option<f64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / CLOCK_TICKS_PER_SEC)
}

/// The machine's steal time so far, in seconds (0 on bare metal).
///
/// # Panics
///
/// Panics if `/proc/stat` is unreadable or has no steal column.
pub fn machine_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    parse_proc_stat_steal(&stat).expect("/proc/stat has a steal column")
}

/// The process's CPU time so far.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: the benchmark
/// cannot measure CPU without it.
pub fn process_cpu() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu(&stat).expect("/proc/self/stat has utime and stime")
}

/// The `stat` file of the calling thread, readable from any thread of the
/// process.
///
/// # Panics
///
/// Panics if `/proc/thread-self` is missing (Linux before 3.17).
pub fn thread_stat_path() -> std::path::PathBuf {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self resolves");
    std::path::Path::new("/proc").join(link).join("stat")
}

/// The CPU time so far of the thread whose `stat` file is `path` (see
/// [`thread_stat_path`]).
///
/// # Panics
///
/// Panics if the file is unreadable or malformed.
pub fn thread_cpu(path: &std::path::Path) -> CpuTimes {
    let stat = std::fs::read_to_string(path).expect("the thread's stat file is readable");
    parse_stat_cpu(&stat).expect("a thread's stat has utime and stime")
}

/// The process's peak resident set so far, in mebibytes.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_mb(&status).expect("/proc/self/status has a VmHWM line")
}
