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
//! This file holds exactly one test: the counter is process-global, and a
//! concurrently running neighbour test would alias it.

use prodigy_sim::{AccessKind, MemorySystem, Stats, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation entry point, delegating to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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
}
