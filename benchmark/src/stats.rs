//! Estimators, `/proc` readers and the box-speed sentinels. No repo API here.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What a run reports for one metric: the estimate, how far apart the
/// quartiles of its samples were, and how many samples there were.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
}

impl Estimate {
    /// Median of per-round (or per-repetition) statistics.
    pub fn median_of(samples: &[f64]) -> Estimate {
        let s = sorted(samples);
        Estimate {
            value: quantile_sorted(&s, 0.5),
            iqr: quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25),
            samples: s.len(),
        }
    }

    /// A value measured once, or one that repeats exactly.
    pub fn single(value: f64) -> Estimate {
        Estimate { value, iqr: 0.0, samples: 1 }
    }
}

/// The spread the driver gates on: inter-quartile distance as a share of
/// the median, quartiles as `statistics.quantiles(values, n=4)` gives them
/// (exclusive method: positions `(n + 1) * k / 4`).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: f64| {
        let pos = ((n + 1) as f64 * k / 4.0 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    let med = at(2.0);
    if med == 0.0 {
        0.0
    } else {
        (at(3.0) - at(1.0)) / med.abs()
    }
}

/// The kernel's CPU-time clocks. Time the hypervisor steals from this
/// virtual machine, and time other processes hold the core, is on neither,
/// which is why a single query is timed on its thread's (see the README's
/// noise findings).
mod cpu_clock {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    /// Seconds on `clock`; `None` where the clock is missing.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn seconds(clock: i32) -> Option<f64> {
        let mut time = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer, and on 64-bit Linux that is two 64-bit integers, which is
        // the layout of `Timespec`; `time` lives across the call.
        let rc = unsafe { clock_gettime(clock, &mut time) };
        (rc == 0).then(|| time.sec as f64 + time.nsec as f64 / 1e9)
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn seconds(_clock: i32) -> Option<f64> {
        None
    }
}

/// What a timed call took: on the CPU, and on the wall.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// A stopwatch on a CPU-time clock and on the wall clock at once. Where
/// the CPU-time clock is missing, the wall time stands in for it.
pub struct CpuTimer {
    clock: i32,
    cpu_s: Option<f64>,
    wall: Instant,
}

impl CpuTimer {
    /// For a call that runs on the calling thread alone (one query).
    pub fn thread() -> CpuTimer {
        CpuTimer {
            clock: cpu_clock::THREAD,
            wall: Instant::now(),
            cpu_s: cpu_clock::seconds(cpu_clock::THREAD),
        }
    }

    /// For a call that may use the library's worker threads: the CPU time
    /// of all threads of the process, summed.
    pub fn process() -> CpuTimer {
        CpuTimer {
            clock: cpu_clock::PROCESS,
            wall: Instant::now(),
            cpu_s: cpu_clock::seconds(cpu_clock::PROCESS),
        }
    }

    pub fn stop(&self) -> Spent {
        let cpu_s = cpu_clock::seconds(self.clock).zip(self.cpu_s).map(|(end, start)| end - start);
        let wall_s = self.wall.elapsed().as_secs_f64();
        Spent { cpu_s: cpu_s.unwrap_or(wall_s), wall_s }
    }
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// `(minor, major)` page faults of this process so far.
pub fn page_faults() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')',
    // where field 3 (the state) comes first.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let field =
        |n: usize| rest.split_whitespace().nth(n - 3).and_then(|t| t.parse().ok()).unwrap_or(0.0);
    (field(10), field(12))
}

/// Harness-only probes of how fast the box was while a run measured; they
/// call nothing in the repository.
pub struct Sentinels {
    buffer: Vec<u64>,
    file: std::fs::File,
    pub stream_read_gb_s: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub fsync_us: Vec<f64>,
    /// Share of the compute chain's wall time its thread was on the CPU:
    /// 1.0 on a quiet box, less when the hypervisor or another process took
    /// the core.
    pub on_cpu_share: Vec<f64>,
}

impl Sentinels {
    pub fn new(scratch: &Path) -> std::io::Result<Sentinels> {
        let file = std::fs::File::create(scratch)?;
        Ok(Sentinels {
            buffer: (0..(32u64 << 20) / 8).collect(),
            file,
            stream_read_gb_s: Vec::new(),
            compute_ms: Vec::new(),
            fsync_us: Vec::new(),
            on_cpu_share: Vec::new(),
        })
    }

    pub fn sample(&mut self) {
        let t = Instant::now();
        let sum = self.buffer.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        black_box(sum);
        self.stream_read_gb_s
            .push((self.buffer.len() * 8) as f64 / t.elapsed().as_secs_f64() / 1e9);

        // Four independent multiply-add chains, long enough (tens of
        // milliseconds) to be above timer and scheduler granularity.
        let t = CpuTimer::thread();
        let mut acc = [1.0f64, 1.1, 1.2, 1.3];
        for _ in 0..black_box(6_000_000u32) {
            for a in acc.iter_mut() {
                *a = a.mul_add(0.999_999_9, 1e-9);
            }
        }
        black_box(acc);
        let spent = t.stop();
        self.compute_ms.push(spent.wall_s * 1e3);
        self.on_cpu_share.push(spent.cpu_s / spent.wall_s.max(1e-9));

        let t = Instant::now();
        let ok = self.file.write_all(&[0u8; 4096]).and_then(|()| self.file.sync_data()).is_ok();
        if ok {
            self.fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let e = Estimate::median_of(&v);
        assert_eq!((e.value, e.iqr, e.samples), (2.5, 1.5, 4));
    }

    #[test]
    fn cpu_clocks_tick_while_the_thread_works() {
        let (thread, process) = (CpuTimer::thread(), CpuTimer::process());
        let mut acc = 1.0f64;
        while thread.stop().wall_s < 0.02 {
            acc = black_box(acc * 1.000_001);
        }
        let (t, p) = (thread.stop(), process.stop());
        assert!(t.cpu_s > 0.0 && t.cpu_s <= t.wall_s * 1.5, "{t:?}");
        assert!(p.cpu_s >= t.cpu_s * 0.5, "{p:?} {t:?}");
    }

    #[test]
    fn relative_iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
