//! The untraced demand path must not allocate.
//!
//! Every simulated load/store walks `MemorySystem::demand_access`; with no
//! trace sink and no metrics registry attached, that walk — TLB, caches,
//! MSHR merge, DRAM model, always-on telemetry histograms — runs entirely
//! over preallocated flat storage. A stray allocation there costs more than
//! the work it interrupts, so this test pins the invariant with a counting
//! global allocator: after warm-up (MSHR vectors at steady-state capacity),
//! millions of accesses perform **zero** heap operations.
//!
//! The same counting allocator also pins down the host-profiling layer
//! (`prodigy_sim::hostprof`): `demand_access` is littered with
//! [`prodigy_sim::ScopeGuard`]s, so the zero-allocation budget proves a
//! *disabled* profiler adds no heap traffic to the hot path, and a
//! profiled re-run of the identical access sequence must leave every
//! simulated counter byte-identical.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! concurrently running neighbour test would alias it.

use prodigy_sim::{hostprof, AccessKind, MemorySystem, Stats, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation entry point, delegating to the system allocator.
/// Also feeds [`hostprof::note_alloc`], mirroring what `prodigy-eval
/// --host-profile` installs, so scope attribution is exercised here too.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        hostprof::note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        hostprof::note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        hostprof::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A mix of random reads and writes over `range` bytes (hits and misses at
/// every level, evictions, writebacks, MSHR merges).
fn hammer(m: &mut MemorySystem, s: &mut Stats, n: u64, seed: &mut u64, now: &mut u64) {
    for i in 0..n {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = (*seed >> 16) % (8 << 20);
        let kind = if i % 4 == 3 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let r = m.demand_access(0, addr, kind, *now, s);
        *now += 1 + r.latency / 8;
    }
}

#[test]
fn untraced_demand_path_performs_zero_allocations() {
    let mut m = MemorySystem::new(SystemConfig::scaled(4).with_cores(1));
    let mut s = Stats::default();
    let mut seed = 9u64;
    let mut now = 0u64;

    // Warm-up: let every lazily-grown buffer (MSHR vectors, DRAM queues)
    // reach steady-state capacity.
    hammer(&mut m, &mut s, 200_000, &mut seed, &mut now);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    hammer(&mut m, &mut s, 1_000_000, &mut seed, &mut now);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(
        delta, 0,
        "untraced demand_access allocated {delta} times in 1M accesses"
    );
    assert!(s.dram_reads > 0, "the mix must include real misses");

    // The demand path above crossed hostprof scopes (hierarchy walk, DRAM
    // and TLB ticks) on every access; with profiling disabled each one must
    // be a true no-op — nothing attributed, no allocations noted.
    assert!(
        !hostprof::is_enabled(),
        "profiling must be off by default in this process"
    );
    assert!(
        hostprof::snapshot_thread().is_empty(),
        "a disabled profiler recorded work: {:?}",
        hostprof::snapshot_thread()
    );

    // Parity: the identical access sequence with profiling enabled must
    // leave every simulated counter byte-identical. Profiling observes
    // host time only; it may never perturb simulated state.
    let twin = |n: u64| -> Stats {
        let mut m = MemorySystem::new(SystemConfig::scaled(4).with_cores(1));
        let mut s = Stats::default();
        let (mut seed, mut now) = (9u64, 0u64);
        let _g = hostprof::ScopeGuard::enter(hostprof::Component::Kernel);
        hammer(&mut m, &mut s, n, &mut seed, &mut now);
        s
    };
    let unprofiled = twin(50_000);
    hostprof::set_enabled(true);
    hostprof::reset_thread();
    let profiled = twin(50_000);
    let hp = hostprof::snapshot_thread();
    hostprof::set_enabled(false);
    hostprof::reset_thread();

    // Stats carries no host-side data, so the Debug rendering covers every
    // counter (it has no PartialEq impl to compare directly).
    assert_eq!(
        format!("{unprofiled:?}"),
        format!("{profiled:?}"),
        "profiling perturbed simulated counters"
    );
    assert!(
        hp.components[hostprof::Component::HierarchyWalk as usize].self_ns > 0,
        "a profiled run must attribute time to the hierarchy walk: {hp:?}"
    );
    assert!(
        hp.total_self_ns() > 0 && !hp.is_empty(),
        "a profiled run must record a nonzero profile"
    );
}
