//! What the benchmark reads about its own process and the host: CPU
//! clocks, peak resident memory, and the host's CPU steal counter.
//!
//! Everything here only reads: the process and thread CPU clocks through
//! `clock_gettime`, and `/proc/self/status` and `/proc/stat`.

/// `struct timespec` as the C library lays it out on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by every thread of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time consumed by the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` that outlives the
    // call, and both clock ids are fixed constants Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU of the whole process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// Sum of every accounted state.
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl CpuTicks {
    /// Steal as a percentage of all ticks between `self` and `later`.
    pub fn steal_pct_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of a `/proc/stat` text. Its fields are
/// user, nice, system, idle, iowait, irq, softirq, steal, then guest time
/// that is already counted in user and nice.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<Vec<u64>>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// The host's aggregate CPU ticks now, if `/proc/stat` is readable.
pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn proc_stat_steal_and_total() {
        let text = "cpu  100 5 20 800 10 1 2 62 7 0\ncpu0 50 2 10 400 5 0 1 31 0 0\nintr 1\n";
        let t = parse_proc_stat(text).expect("cpu line");
        assert_eq!(t.steal, 62);
        // Guest time (the last two fields) is already part of user time.
        assert_eq!(t.total, 100 + 5 + 20 + 800 + 10 + 1 + 2 + 62);
        let later = CpuTicks {
            total: t.total + 200,
            steal: t.steal + 10,
        };
        assert!((t.steal_pct_until(&later) - 5.0).abs() < 1e-12);
        assert_eq!(t.steal_pct_until(&t), 0.0);
    }

    #[test]
    fn proc_stat_rejects_short_or_garbled_lines() {
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3 x 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn cpu_clocks_advance() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }
}
