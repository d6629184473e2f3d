//! The traced pass: every cell re-driven from public calls, with timed
//! wrappers at each layer boundary, from outside the library.
//!
//! * `WorkloadSpec::instantiate_seeded`, `Kernel::prepare`, `Kernel::run`
//!   are timed directly;
//! * [`TimedRunner`] is the `PhaseRunner` the kernel runs against; it times
//!   `System::run_phase`;
//! * [`TimedPf`] wraps each core's `AnyPrefetcher` and times `on_demand`
//!   and `on_fill`; on core 0 it also records the demand stream, which
//!   [`replay`] feeds into a fresh single-core `MemorySystem`.
//!
//! [`pass`] mirrors `prodigy_workloads::run_workload` step for step,
//! so the traced pass simulates exactly what the sweep does; the caller
//! checks that by comparing digests.

use crate::alloc;
use crate::stats::Calibration;
use crate::suite;
use prodigy::{DigProgram, ProdigyConfig, ProdigyPrefetcher, ProdigyStats};
use prodigy_bench::Cell;
use prodigy_sim::core::InsnStream;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::{
    AccessKind, AddressSpace, MemorySystem, NullPrefetcher, Stats, System, SystemConfig,
};
use prodigy_workloads::{AnyPrefetcher, PhaseRunner};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls into one layer: how many, the host time they recorded, and the
/// allocations made inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Timed calls.
    pub calls: u64,
    /// Sum of recorded durations, in ns (timer bias included).
    pub ns: u64,
    /// Allocations inside the calls.
    pub allocs: u64,
}

impl Span {
    /// Runs `f` as one timed call.
    #[inline(always)]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a = alloc::count();
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.allocs += alloc::count() - a;
        self.calls += 1;
        r
    }

    fn add(&mut self, o: &Span) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.allocs += o.allocs;
    }
}

/// Measures the timer's cost with the same [`Span::time`] the wrappers use.
pub fn calibrate() -> Calibration {
    let mut x = 0u64;
    let mut span = Span::default();
    crate::stats::calibrate(
        2_000_000,
        || x = black_box(x.wrapping_add(1)),
        |f| {
            let before = span.ns;
            span.time(f);
            span.ns - before
        },
    )
}

/// One demand access seen by core 0's prefetcher.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    vaddr: u64,
    write: bool,
    now: u64,
}

/// Per-kind prefetcher totals, keyed by `Prefetcher::name`.
#[derive(Debug, Default)]
pub struct PfTotals {
    /// `on_demand` calls.
    pub demand: Span,
    /// `on_fill` calls.
    pub fill: Span,
}

/// Where wrappers deposit their counters when dropped.
#[derive(Debug, Default)]
struct Sink {
    pf: BTreeMap<&'static str, PfTotals>,
    stream: Vec<Demand>,
    record_allocs: u64,
}

/// A timed prefetcher. `as_any_mut` delegates to the wrapped prefetcher, so
/// DIG programming and the Prodigy-stats downcast work unchanged.
pub struct TimedPf {
    inner: AnyPrefetcher,
    demand: Span,
    fill: Span,
    record: bool,
    record_allocs: u64,
    stream: Vec<Demand>,
    sink: Arc<Mutex<Sink>>,
}

impl TimedPf {
    fn new(inner: AnyPrefetcher, record: bool, sink: &Arc<Mutex<Sink>>) -> Self {
        TimedPf {
            inner,
            demand: Span::default(),
            fill: Span::default(),
            record,
            record_allocs: 0,
            stream: Vec::new(),
            sink: Arc::clone(sink),
        }
    }
}

impl Prefetcher for TimedPf {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    #[inline]
    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, access: &DemandAccess) {
        if self.record {
            // Growing the recording allocates inside `run_phase`; count it
            // so the phase's own allocations can leave it out.
            let a = alloc::count();
            self.stream.push(Demand {
                vaddr: access.vaddr,
                write: access.is_write,
                now: ctx.now,
            });
            self.record_allocs += alloc::count() - a;
        }
        let inner = &mut self.inner;
        self.demand.time(|| inner.on_demand(ctx, access));
    }
    #[inline]
    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        let inner = &mut self.inner;
        self.fill.time(|| inner.on_fill(ctx, fill));
    }
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

impl Drop for TimedPf {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper panicked mid-deposit; the
        // counters are only host telemetry, so keep what is there.
        let mut s = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let t = s.pf.entry(self.inner.name()).or_default();
        t.demand.add(&self.demand);
        t.fill.add(&self.fill);
        s.stream.append(&mut self.stream);
        s.record_allocs += self.record_allocs;
    }
}

/// The `PhaseRunner` the traced kernel runs against: `System::run_phase`,
/// timed.
pub struct TimedRunner<'a> {
    sys: &'a mut System<TimedPf>,
    /// `run_phase` calls.
    pub phase: Span,
}

impl PhaseRunner for TimedRunner<'_> {
    fn cores(&self) -> usize {
        self.sys.config().cores as usize
    }
    fn space(&self) -> &AddressSpace {
        self.sys.address_space()
    }
    fn space_mut(&mut self) -> &mut AddressSpace {
        self.sys.address_space_mut()
    }
    fn run_streams(&mut self, streams: Vec<InsnStream>) {
        let sys = &mut *self.sys;
        self.phase.time(|| sys.run_phase(streams));
    }
    fn reprogram(&mut self, program: &DigProgram) {
        self.sys.program_prefetchers(|p| program.apply(p));
    }
}

/// What the traced pass measured, summed over a workload's cells.
#[derive(Debug, Default)]
pub struct Traced {
    /// Host seconds of the traced cells (set-up, simulation and harvest;
    /// replays excluded).
    pub wall_s: f64,
    /// `instantiate_seeded` calls.
    pub instantiate: Span,
    /// `Kernel::prepare` calls.
    pub prepare: Span,
    /// `Kernel::run` calls.
    pub kernel: Span,
    /// `System::run_phase` calls.
    pub phase: Span,
    /// Allocations made recording core 0's demand stream (inside
    /// `run_phase`, outside the prefetchers).
    pub record_allocs: u64,
    /// Prefetcher calls by kind.
    pub pf: BTreeMap<&'static str, PfTotals>,
    /// Simulated counters by prefetcher kind (issued / useful prefetches,
    /// instructions).
    pub sim: BTreeMap<&'static str, Stats>,
    /// Simulated instructions, all cells.
    pub instructions: u64,
    /// Prodigy's internal counters, summed.
    pub prodigy: ProdigyStats,
    /// Core-0 demand accesses replayed into `MemorySystem::demand_access`.
    pub replay: Span,
    /// Counters of the replays.
    pub replay_stats: Stats,
    /// Workload digest, comparable with an untraced pass's.
    pub digest: u64,
    /// Per-cell results, in cell order.
    pub results: Vec<suite::CellResult>,
}

impl Traced {
    /// Every allocation and call count, in a fixed order: these repeat
    /// exactly between traced passes of one seed.
    pub fn counts(&self) -> Vec<u64> {
        let mut v = vec![
            self.instantiate.allocs,
            self.prepare.allocs,
            self.kernel.allocs,
            self.phase.calls,
            self.phase.allocs,
            self.record_allocs,
            self.replay.calls,
        ];
        for p in self.pf.values() {
            v.extend([p.demand.calls, p.demand.allocs, p.fill.calls, p.fill.allocs]);
        }
        v
    }
}

/// Runs every cell through the timed wrappers.
pub fn pass(cells: &[Cell], seed: u64) -> Traced {
    let sys_cfg = suite::context(cells, seed).sys;
    let mut t = Traced::default();
    for cell in cells {
        let sink = Arc::new(Mutex::new(Sink::default()));
        let start = Instant::now();
        let result = run_cell(cell, sys_cfg, seed, &sink, &mut t);
        t.wall_s += start.elapsed().as_secs_f64();
        t.results.push(result);
        let s = std::mem::take(&mut *sink.lock().unwrap_or_else(|e| e.into_inner()));
        for (k, v) in s.pf {
            let e = t.pf.entry(k).or_default();
            e.demand.add(&v.demand);
            e.fill.add(&v.fill);
        }
        t.record_allocs += s.record_allocs;
        replay(sys_cfg, &s.stream, &mut t.replay, &mut t.replay_stats);
    }
    t.digest = suite::fold(t.results.iter().map(|r| match r {
        suite::CellResult::Done { digest, .. } => *digest,
        suite::CellResult::Failed(e) => unreachable!("traced cells never fail softly: {e}"),
    }));
    t
}

/// `run_workload` for one cell, rebuilt from public calls with timed
/// wrappers.
fn run_cell(
    cell: &Cell,
    sys_cfg: SystemConfig,
    seed: u64,
    sink: &Arc<Mutex<Sink>>,
    t: &mut Traced,
) -> suite::CellResult {
    let mut kernel = t.instantiate.time(|| cell.spec.instantiate_seeded(seed));
    let sys_cfg = if cell.cores == 0 {
        sys_cfg
    } else {
        sys_cfg.with_cores(cell.cores)
    };
    let mut sys: System<TimedPf> = System::with_prefetchers(sys_cfg, |_| {
        TimedPf::new(AnyPrefetcher::None(NullPrefetcher::new()), false, sink)
    });
    let dig = t.prepare.time(|| kernel.prepare(sys.address_space_mut()));
    let program = DigProgram::from_dig(&dig);
    let pcfg = ProdigyConfig {
        pfhr_entries: cell.pfhr,
        ..ProdigyConfig::default()
    };
    sys.set_prefetchers(|core| {
        TimedPf::new(AnyPrefetcher::build(cell.kind, &dig, pcfg), core == 0, sink)
    });
    sys.program_prefetchers(|p| program.apply(p));

    let mut runner = TimedRunner {
        sys: &mut sys,
        phase: Span::default(),
    };
    let checksum = t.kernel.time(|| kernel.run(&mut runner));
    t.phase.add(&runner.phase);

    let mut prodigy: Option<ProdigyStats> = None;
    let mut kind = "";
    sys.program_prefetchers(|p| {
        kind = p.name();
        if let Some(pp) = p.as_any_mut().downcast_mut::<ProdigyPrefetcher>() {
            let s = pp.prodigy_stats();
            let a = prodigy.get_or_insert_with(ProdigyStats::default);
            a.sequences_initiated += s.sequences_initiated;
            a.sequences_dropped += s.sequences_dropped;
            a.single_prefetches += s.single_prefetches;
            a.ranged_prefetches += s.ranged_prefetches;
            a.trigger_prefetches += s.trigger_prefetches;
            a.inline_advances += s.inline_advances;
            a.pfhr_drops += s.pfhr_drops;
            a.elements_advanced += s.elements_advanced;
            a.range_elements_tracked += s.range_elements_tracked;
        }
    });
    sys.memory_mut().capture_occupancy();
    let summary = sys.summary();
    let digest = suite::digest(checksum, &summary, sys.telemetry(), &prodigy);

    t.instructions += summary.stats.instructions;
    t.sim.entry(kind).or_default().accumulate(&summary.stats);
    if let Some(p) = prodigy {
        t.prodigy.sequences_initiated += p.sequences_initiated;
        t.prodigy.pfhr_drops += p.pfhr_drops;
        t.prodigy.elements_advanced += p.elements_advanced;
    }
    suite::CellResult::done(checksum, digest, &summary)
}

/// Replays a recorded demand stream into a fresh single-core memory system
/// on the cell's configuration, timing `demand_access` as one span.
fn replay(cfg: SystemConfig, stream: &[Demand], span: &mut Span, stats: &mut Stats) {
    let mut mem = MemorySystem::new(cfg.with_cores(1));
    let mut s = Stats::default();
    let t = Instant::now();
    for d in stream {
        let kind = if d.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        black_box(mem.demand_access(0, d.vaddr, kind, d.now, &mut s));
    }
    span.ns += t.elapsed().as_nanos() as u64;
    span.calls += stream.len() as u64;
    stats.accumulate(&s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_bench::WorkloadSpec;
    use prodigy_workloads::PrefetcherKind;

    /// Calls `NullPrefetcher::on_demand` through [`TimedPf`] `n` times and
    /// returns the calibrated ns per call, which should be about 0.
    fn null_demand_residual(cal: &Calibration, n: u64) -> f64 {
        let sink = Arc::new(Mutex::new(Sink::default()));
        let cfg = SystemConfig::bench().with_cores(1);
        let mut mem = MemorySystem::new(cfg);
        let space = AddressSpace::new();
        let mut stats = Stats::default();
        let mut fills = prodigy_sim::prefetch::FillQueue::new();
        let mut pf = TimedPf::new(AnyPrefetcher::None(NullPrefetcher::new()), false, &sink);
        let access = DemandAccess {
            vaddr: 0x1000,
            size: 8,
            is_write: false,
            pc: 1,
            served: prodigy_sim::ServedBy::L1,
        };
        for i in 0..n {
            let mut ctx = PrefetchCtx::new(0, i, &mut mem, &space, &mut stats, &mut fills);
            pf.on_demand(&mut ctx, &access);
        }
        cal.own(pf.demand.ns as f64, pf.demand.calls) / pf.demand.calls as f64
    }

    #[test]
    fn span_counts_calls_and_allocations() {
        let mut s = Span::default();
        let v = s.time(|| vec![1u8; 32]);
        s.time(|| black_box(3));
        assert_eq!((s.calls, s.allocs), (2, 1));
        assert_eq!(v.len(), 32);
    }

    #[test]
    fn calibrated_null_prefetcher_costs_about_nothing() {
        let cal = calibrate();
        let r = null_demand_residual(&cal, 2_000_000);
        assert!(r.abs() < 10.0, "residual {r} ns/call, calibration {cal:?}");
    }

    #[test]
    fn traced_pass_matches_the_sweep() {
        // The traced pass, rebuilt from public calls, simulates exactly
        // what the sweep does: the digests agree cell by cell.
        let cells: Vec<Cell> = [
            PrefetcherKind::Prodigy,
            PrefetcherKind::Droplet,
            PrefetcherKind::None,
        ]
        .into_iter()
        .map(|k| Cell::new(WorkloadSpec::graph("bfs", "po", 256), k))
        .collect();
        let traced = pass(&cells, 11);
        let untraced = suite::untraced_pass(&cells, 11);
        assert_eq!(traced.results, untraced.results);
        assert_eq!(traced.digest, untraced.digest());
        assert!(traced.phase.calls > 0 && traced.replay.calls > 0);
        assert!(traced.pf["prodigy"].demand.calls > 0);
        assert!(traced.prodigy.elements_advanced > 0);
        // Allocation and call counts repeat exactly.
        let again = pass(&cells, 11);
        for (k, v) in &traced.pf {
            assert_eq!(v.demand.calls, again.pf[k].demand.calls, "{k}");
            assert_eq!(v.demand.allocs, again.pf[k].demand.allocs, "{k}");
            assert_eq!(v.fill.allocs, again.pf[k].fill.allocs, "{k}");
        }
        assert_eq!(traced.phase.allocs, again.phase.allocs);
        assert_eq!(traced.kernel.allocs, again.kernel.allocs);
    }
}
