//! Process and host counters: a counting global allocator, process CPU time
//! from `/proc/self/stat`, and host steal/busy deltas from `/proc/stat`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocation calls, process-wide and per
/// thread (the per-thread count isolates one rank of the two-rank
/// `dist-tcp` world, whose ranks share the process).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation calls made by the current thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' field 3 (state) is index 0, so utime (14) and stime (15)
    // sit at 11 and 12.
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    idle: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the current counters (zeros where `/proc/stat` is unreadable).
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = stat.lines().next().unwrap_or("");
        let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already folded into user/nice).
        HostTicks { total: (0..8).map(at).sum(), idle: at(3) + at(4), steal: at(7) }
    }

    /// `(steal %, busy %)` of all host CPU time elapsed since `earlier`;
    /// busy counts everything but idle and iowait, this process included.
    pub fn since(&self, earlier: &HostTicks) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let idle = self.idle.saturating_sub(earlier.idle) as f64;
        (100.0 * steal / total, 100.0 * (total - idle) / total)
    }
}

/// Online CPUs as the OS reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
