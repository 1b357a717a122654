//! The host side of the noise protocol: CPU pinning, the fixed `H2`
//! hierarchy every pool/server/worker is built on, the host stamp, and
//! the process's peak resident set.

use mo_core::rt::{HwHierarchy, HwLevel};

use crate::stats::{quartiles, Quartiles};

/// Words in the affinity masks passed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as `sched_{get,set}affinity` take it.
pub type CpuMask = [u64; MASK_WORDS];

// std already links libc, so the two affinity calls are declared here
// rather than pulling in a crate for them.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's affinity mask, or `None` when the kernel
/// refuses the query.
pub fn current_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restrict the calling thread (and every thread it creates from now
/// on) to `mask`. Returns whether the kernel accepted it.
pub fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed; the call only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

fn cpus_in(mask: &CpuMask) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// What pinning achieved, for the host stamp and for the one probe
/// (`core.rt.speedup_2cpu`) that needs the original mask back.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// Whether the process now runs on exactly one CPU.
    pub pinned: bool,
    /// The CPU it was pinned to (the highest one allowed), if pinned.
    pub cpu: Option<usize>,
    /// CPUs the process was allowed on before pinning (`nproc`).
    pub allowed: usize,
    /// The mask before pinning; `None` when it could not be read.
    pub original: Option<CpuMask>,
}

/// The outcome reported when pinning is refused or not attempted
/// (`--no-pin`): the process keeps whatever CPUs it had.
pub fn unpinned() -> Pinning {
    let original = current_mask();
    Pinning {
        pinned: false,
        cpu: None,
        allowed: original.as_ref().map_or(0, |m| cpus_in(m).len()),
        original,
    }
}

/// Pin the calling thread to the highest CPU of its current affinity
/// mask. Must run before any other thread exists so that every later
/// thread inherits the mask. Falls back to `pinned: false` (never an
/// error) where the kernel refuses either call.
pub fn pin_to_one_cpu() -> Pinning {
    let before = unpinned();
    let target = before.original.as_ref().and_then(|m| cpus_in(m).pop());
    let pinned = target.is_some_and(|cpu| {
        let mut one: CpuMask = [0; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set_mask(&one)
    });
    Pinning {
        pinned,
        cpu: target.filter(|_| pinned),
        ..before
    }
}

/// The fixed three-level hierarchy every `SbPool`, `Server` and fleet
/// worker of the benchmark is built on: a 6144-word private L1, a
/// 262144-word private L2 and a 4 Mi-word L3 shared by two cores.
/// Never detected from the host, so admission levels, the L1 batching
/// cut-off and the pool width (2) are the same everywhere, and the
/// structured two-worker code paths still run when pinned to one CPU.
pub fn h2() -> HwHierarchy {
    HwHierarchy::new(vec![
        HwLevel {
            capacity: 6144,
            fanout: 1,
        },
        HwLevel {
            capacity: 262_144,
            fanout: 1,
        },
        HwLevel {
            capacity: 4 << 20,
            fanout: 2,
        },
    ])
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The detected (sysfs) hierarchy as `capacity×fanout` per level —
/// recorded only so two result files can be told apart by host; the
/// benchmark never schedules against it.
fn sysfs_hierarchy() -> String {
    HwHierarchy::detect()
        .levels()
        .iter()
        .map(|l| format!("{}w x{}", l.capacity, l.fanout))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One-line JSON object describing the host and the pinning outcome.
pub fn stamp_json(pin: &Pinning) -> String {
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"pinned\": {}, \"cpu\": {}, \"nproc\": {}, \"sysfs_hierarchy\": \"{}\", \"kernel\": \"{}\", \"hierarchy\": \"H2 = 6144w x1, 262144w x1, 4194304w x2\"}}",
        pin.pinned,
        pin.cpu.map_or("null".to_string(), |c| c.to_string()),
        pin.allowed,
        sysfs_hierarchy(),
        kernel.replace(['"', '\\'], "")
    )
}

/// A fixed piece of work whose duration tracks how fast this CPU is
/// clocked right now.
///
/// On a shared host the speed of one pinned CPU drifts by 10 to 15 %
/// over seconds to minutes with no steal time reported to the guest:
/// the core clock follows the neighbours' load. The kernel is a
/// dependent multiply chain — a fixed number of core cycles that
/// nothing else on the core, no cache and no memory can speed up or
/// slow down — so its duration is the reciprocal of the clock. A run
/// takes a reading before every set-up cycle and after every round;
/// its *host factor* ([`Self::factor`]) is the median reading over
/// [`Self::NOMINAL_S`], and wall times divided by it are *calibrated
/// seconds*, which is what every end-to-end time is reported in. One
/// factor for the whole run, because a single reading is good to ± 5 %
/// only and the estimators pick the fastest rounds: with a factor per
/// round they picked the rounds whose factor read high. (A pointer
/// chase was tried as a second part, for the shared cache; its reading
/// depended on what had run just before and made the result noisier,
/// not steadier.)
#[derive(Default)]
pub struct Calibrator {
    readings: Vec<f64>,
}

impl Calibrator {
    /// The kernel's duration on the quiet reference host (the lowest
    /// readings seen there). Only fixes the scale: on that host, quiet,
    /// a calibrated second is a wall second.
    pub const NOMINAL_S: f64 = 0.0064;
    const CHAIN_STEPS: u32 = 4_000_000;

    /// Run the kernel once (≈ 6.5 ms) and keep its wall time.
    pub fn sample(&mut self) {
        let t = std::time::Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..Self::CHAIN_STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        std::hint::black_box(x);
        self.readings.push(t.elapsed().as_secs_f64());
    }

    /// Quartiles of the readings so far, over the nominal reading.
    pub fn factors(&self) -> Quartiles {
        let f: Vec<f64> = self.readings.iter().map(|r| r / Self::NOMINAL_S).collect();
        quartiles(&f)
    }

    /// The run's host factor: the median reading over the nominal one.
    pub fn factor(&self) -> f64 {
        self.factors().median
    }
}

/// Tells whether this CPU's sibling hyperthread is busy.
///
/// The vCPUs of a shared host are hyperthreads. While the sibling of
/// ours runs somebody else's work, throughput-bound code here runs 1.3
/// to 1.8 times slower for seconds at a time, and the dependent chain
/// of [`Calibrator`] does not notice (it leaves the core's ports idle).
/// The probe is the opposite kind of kernel: a sum over a 16 KiB buffer,
/// bound by load ports, ≈ 5 µs a pass. A reading is the fastest of
/// three passes; the sibling counts as busy while a reading is more than
/// [`Self::BUSY_RATIO`] times the fastest reading this process has seen.
/// On a host where nothing contends, no reading ever is.
pub struct SiblingProbe {
    buf: Vec<u64>,
    /// Fastest reading so far, in seconds.
    floor: f64,
}

impl SiblingProbe {
    /// Quiet readings sit within 1.15 of the floor (the core clock
    /// moves that much), busy ones at 1.35 to 1.8.
    pub const BUSY_RATIO: f64 = 1.25;
    const WORDS: usize = 2048;
    const SUMS_PER_PASS: usize = 20;

    pub fn new() -> Self {
        let mut p = Self {
            buf: (0..Self::WORDS as u64).collect(),
            floor: f64::MAX,
        };
        for _ in 0..32 {
            p.ratio();
        }
        p
    }

    /// The current reading over the floor (1 = as fast as ever seen).
    pub fn ratio(&mut self) -> f64 {
        let pass = |buf: &[u64]| {
            let t = std::time::Instant::now();
            let mut sum = 0u64;
            for _ in 0..Self::SUMS_PER_PASS {
                for &v in std::hint::black_box(buf) {
                    sum = sum.wrapping_add(v);
                }
            }
            std::hint::black_box(sum);
            t.elapsed().as_secs_f64()
        };
        let reading = (0..3).map(|_| pass(&self.buf)).fold(f64::MAX, f64::min);
        self.floor = self.floor.min(reading);
        reading / self.floor
    }

    /// Spin until the sibling is idle or `budget` has passed; returns
    /// the time spent waiting.
    pub fn wait_quiet(&mut self, budget: std::time::Duration) -> std::time::Duration {
        let t = std::time::Instant::now();
        while self.ratio() > Self::BUSY_RATIO && t.elapsed() < budget {
            std::hint::spin_loop();
        }
        t.elapsed()
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) this process has consumed, in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100/s on
    // every Linux configuration in use).
    let rest = stat.rsplit_once(')')?.1;
    let mut it = rest.split_whitespace().skip(11);
    let utime: f64 = it.next()?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
