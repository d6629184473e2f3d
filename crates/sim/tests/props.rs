//! Property-based tests of the simulator's primitive models.

use prodigy_sim::mem::address_space::AddressSpace;
use prodigy_sim::mem::dram::Dram;
use prodigy_sim::mem::tlb::Tlb;
use prodigy_sim::stats::{CpiStack, StallCause};
use prodigy_sim::{
    AccessKind, DramConfig, HistQuantiles, Log2Hist, MemorySystem, Stats, SystemConfig,
};
use proptest::prelude::*;

proptest! {
    /// Address-space reads return exactly what was written, for arbitrary
    /// addresses, sizes and overlapping writes applied in order.
    #[test]
    fn address_space_roundtrips(
        writes in prop::collection::vec((0u64..1u64 << 24, any::<u64>(), prop::sample::select(vec![1u8, 2, 4, 8])), 1..60)
    ) {
        let mut a = AddressSpace::new();
        // Apply all writes, then verify the final value of each location by
        // replaying into a reference byte map.
        let mut reference = std::collections::HashMap::new();
        for &(addr, v, size) in &writes {
            a.write_uint(addr, v, size);
            for i in 0..size as u64 {
                reference.insert(addr + i, (v >> (8 * i)) as u8);
            }
        }
        for (&addr, &byte) in &reference {
            prop_assert_eq!(a.read_u8(addr), byte);
        }
    }

    /// DRAM: latency is never below the uncontended access latency, and
    /// queueing is non-negative and bounded by the backlog we created.
    #[test]
    fn dram_latency_bounds(reqs in prop::collection::vec((0u64..1u64 << 22, 0u64..10_000), 1..100)) {
        let cfg = DramConfig { access_latency: 120, channels: 4, cycles_per_transfer: 13, queue_depth: 32 };
        let mut d = Dram::new(cfg);
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|&(_, t)| t);
        for (i, &(addr, t)) in sorted.iter().enumerate() {
            let r = d.read(addr * 64, t);
            prop_assert!(r.latency >= cfg.access_latency);
            prop_assert!(r.queue_wait <= (i as u64 + 1) * cfg.cycles_per_transfer);
            prop_assert_eq!(r.latency, r.queue_wait + cfg.access_latency);
        }
    }

    /// TLB: an access immediately after an access to the same page hits.
    #[test]
    fn tlb_immediate_rereference_hits(pages in prop::collection::vec(0u64..1u64 << 20, 1..50)) {
        let mut t = Tlb::new(16);
        for &p in &pages {
            t.access(p * 4096);
            prop_assert!(t.access(p * 4096 + 123), "same page must hit");
        }
    }

    /// CPI stacks: accumulate is associative with respect to totals, and
    /// normalization always yields a unit (or zero) total.
    #[test]
    fn cpi_stack_algebra(parts in prop::collection::vec((0u8..5, 0.0f64..1e6), 0..20)) {
        let mut s = CpiStack::default();
        let mut total = 0.0;
        for &(c, v) in &parts {
            let cause = [StallCause::Dram, StallCause::Cache, StallCause::Branch,
                         StallCause::Dependency, StallCause::Other][c as usize % 5];
            s.add(cause, v);
            total += v;
        }
        prop_assert!((s.total() - total).abs() < 1e-6 * total.max(1.0));
        let n = s.normalized();
        if total > 0.0 {
            prop_assert!((n.total() - 1.0).abs() < 1e-9);
        }
    }

    /// Normalization holds its `total() == 1.0` invariant *exactly*, even
    /// when the stack is an accumulation of near-zero (subnormal-range)
    /// contributions — the regime where naive per-bucket division drifts.
    #[test]
    fn cpi_stack_normalized_sum_never_drifts(
        parts in prop::collection::vec((0u8..6, 1.0f64..1000.0), 1..30),
        exponent in -320i32..-250,
        repeats in 1usize..200,
    ) {
        let tiny = 10f64.powi(exponent);
        let mut one = CpiStack::default();
        for &(c, v) in &parts {
            match c % 6 {
                0 => one.no_stall += v * tiny,
                1 => one.dram += v * tiny,
                2 => one.cache += v * tiny,
                3 => one.branch += v * tiny,
                4 => one.dependency += v * tiny,
                _ => one.other += v * tiny,
            }
        }
        let mut acc = CpiStack::default();
        for _ in 0..repeats {
            acc.accumulate(&one);
        }
        if acc.total() > 0.0 {
            let n = acc.normalized();
            prop_assert_eq!(n.total(), 1.0, "bucket-sum drift in {:?}", n);
            // Every bucket stays a sane proportion.
            for b in [n.no_stall, n.dram, n.cache, n.branch, n.dependency, n.other] {
                prop_assert!((0.0..=1.0).contains(&b), "bucket out of range: {:?}", n);
            }
        }
    }

    /// Log2Hist quantiles are monotone in q: a higher quantile can never
    /// report a lower bucket interval (both bounds), and the p50 ≤ p90 ≤
    /// p99 ≤ max chain of the standard set holds.
    #[test]
    fn hist_quantiles_monotone_in_q(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut h = Log2Hist::new();
        for &v in &samples {
            h.record(v);
        }
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let a = h.quantile(lo_q).expect("non-empty");
        let b = h.quantile(hi_q).expect("non-empty");
        prop_assert!(a.0 <= b.0 && a.1 <= b.1, "quantile({lo_q}) = {a:?} above quantile({hi_q}) = {b:?}");
        let q = HistQuantiles::from_hist(&h).expect("non-empty");
        for (low, high) in [(q.p50, q.p90), (q.p90, q.p99), (q.p99, q.max)] {
            prop_assert!(low.0 <= high.0 && low.1 <= high.1, "chain broken in {q:?}");
        }
    }

    /// A quantile's `[lo, hi]` interval brackets the true nearest-rank
    /// value of the recorded samples.
    #[test]
    fn hist_quantile_brackets_true_value(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = Log2Hist::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let (lo, hi) = h.quantile(q).expect("non-empty");
        prop_assert!(
            lo <= truth && truth <= hi,
            "true q={q} value {truth} outside reported [{lo}, {hi}]"
        );
        let (mlo, mhi) = h.max_interval().expect("non-empty");
        let max = *sorted.last().expect("non-empty");
        prop_assert!(mlo <= max && max <= mhi, "max {max} outside [{mlo}, {mhi}]");
    }

    /// When every sample lands in one bucket, every quantile reports
    /// exactly that bucket's interval — and the single-valued buckets
    /// (values 0 and 1) collapse it to an exact point.
    #[test]
    fn hist_quantiles_exact_on_single_bucket(v in 0u64..1u64 << 40, n in 1u64..100) {
        let mut h = Log2Hist::new();
        for _ in 0..n {
            h.record(v);
        }
        let q = HistQuantiles::from_hist(&h).expect("non-empty");
        prop_assert_eq!(q.p50, q.p90);
        prop_assert_eq!(q.p90, q.p99);
        prop_assert_eq!(q.p99, q.max);
        let (lo, hi) = q.max;
        prop_assert!(lo <= v && v <= hi, "{v} outside its own bucket [{lo}, {hi}]");
        if v <= 1 {
            prop_assert_eq!((lo, hi), (v, v), "buckets 0 and 1 are single-valued");
        }
    }

    /// An empty histogram has no quantiles, whatever q is asked for.
    #[test]
    fn hist_quantiles_empty_is_none(q in 0.0f64..1.0) {
        let h = Log2Hist::new();
        prop_assert!(h.quantile(q).is_none());
        prop_assert!(h.max_interval().is_none());
        prop_assert!(HistQuantiles::from_hist(&h).is_none());
    }

    /// Provenance accounting: at every metrics-style sample point of an
    /// arbitrary interleaving of demand accesses and tagged/untagged
    /// prefetches, each level's per-source occupancy buckets (demand +
    /// untagged + every tagged source) sum to exactly the level's resident
    /// line count — the sidecar never loses or double-counts a line.
    #[test]
    fn occupancy_buckets_always_sum_to_resident_lines(
        ops in prop::collection::vec(
            // (op selector, line index, source tag)
            (0u8..4, 0u64..1u64 << 12, 0u16..6), 1..300),
    ) {
        let mut m = MemorySystem::new(SystemConfig::scaled(64).with_cores(2));
        let mut s = Stats::default();
        let mut now = 0u64;
        for (i, &(op, line, tag)) in ops.iter().enumerate() {
            let vaddr = line * 64;
            let core = (line % 2) as usize;
            match op {
                0 => { m.demand_access(core, vaddr, AccessKind::Read, now, &mut s); }
                1 => { m.demand_access(core, vaddr, AccessKind::Write, now, &mut s); }
                2 => { m.prefetch(core, vaddr, now, &mut s); }
                _ => { m.prefetch_tagged(core, vaddr, now, &mut s, Some(tag)); }
            }
            now += 50;
            // Sample at a metrics-window cadence, not only at the end, so
            // intermediate (mid-eviction) states are checked too.
            if i % 16 == 0 || i == ops.len() - 1 {
                let snap = m.occupancy();
                let resident = m.resident_lines();
                for (lvl, occ) in [&snap.l1, &snap.l2, &snap.l3].iter().enumerate() {
                    let bucket_sum =
                        occ.demand + occ.untagged + occ.sources.values().sum::<u64>();
                    prop_assert_eq!(bucket_sum, occ.total(), "level {} buckets", lvl);
                    prop_assert_eq!(occ.total(), resident[lvl], "level {} vs resident", lvl);
                }
                prop_assert!(snap.near.is_none() && snap.far.is_none(), "single-tier machine");
            }
        }
    }
}
