//! The benchmark's workloads and the untraced measurement: set-up, the
//! `FunctionalRunner` reference checksums, and timed passes through the
//! public sweep entry (`Ctx::warm`, as `prodigy-eval` runs cells).

use prodigy::ProdigyStats;
use prodigy_bench::workload_set::{per_algorithm, try_dataset_graph, GRAPH_ALGS};
use prodigy_bench::{Cell, Ctx, SweepConfig, WorkloadSpec};
use prodigy_sim::{RunSummary, TelemetrySummary};
use prodigy_workloads::graph::datasets::Dataset;
use prodigy_workloads::kernels::FunctionalRunner;
use prodigy_workloads::{PhaseRunner, PrefetcherKind, RunOutcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["prodigy-per9", "none-per9", "baselines-gap5"];

/// A cell that fails instead of hanging: well above the slowest cell's
/// host time, well below the run's time limit.
const CELL_TIMEOUT: Duration = Duration::from_secs(60);

/// The cells of workload `name`, or `None` for an unknown name.
pub fn cells(name: &str) -> Option<Vec<Cell>> {
    let per9 = |kind| {
        per_algorithm(4)
            .into_iter()
            .map(|s| Cell::new(s, kind))
            .collect()
    };
    Some(match name {
        "prodigy-per9" => per9(PrefetcherKind::Prodigy),
        "none-per9" => per9(PrefetcherKind::None),
        "baselines-gap5" => {
            let kinds = [
                PrefetcherKind::Stride,
                PrefetcherKind::Stream,
                PrefetcherKind::GhbGdc,
                PrefetcherKind::Imp,
                PrefetcherKind::AinsworthJones,
                PrefetcherKind::Droplet,
            ];
            GRAPH_ALGS
                .iter()
                .flat_map(|&alg| {
                    kinds
                        .iter()
                        .map(move |&k| Cell::new(WorkloadSpec::graph(alg, "lj", 8), k))
                })
                .collect()
        }
        _ => return None,
    })
}

/// The distinct inputs of `cells`, in first-use order (several cells may
/// share one spec).
pub fn specs(cells: &[Cell]) -> Vec<WorkloadSpec> {
    let mut seen = std::collections::BTreeSet::new();
    cells
        .iter()
        .filter(|c| seen.insert(c.spec.name.clone() + "|" + &c.spec.scale.to_string()))
        .map(|c| c.spec.clone())
        .collect()
}

/// The sweep context every pass and the traced run share: the bench machine,
/// one worker, the run's seed.
pub fn context(cells: &[Cell], seed: u64) -> Ctx {
    let scale = cells.first().map_or(8, |c| c.spec.scale);
    Ctx::new(scale).with_sweep(SweepConfig {
        threads: 1,
        base_seed: seed,
        cell_timeout: Some(CELL_TIMEOUT),
    })
}

/// One set-up: input generation and layout for every spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Table II graph generation (each distinct data set once).
    pub graph_gen_s: f64,
    /// `WorkloadSpec::instantiate_seeded` (stencil, cg and is generators
    /// included; graphs come from the process cache).
    pub instantiate_s: f64,
    /// `Kernel::prepare`.
    pub prepare_s: f64,
}

impl Setup {
    /// The whole set-up time.
    pub fn total_s(&self) -> f64 {
        self.graph_gen_s + self.instantiate_s + self.prepare_s
    }
}

/// Sets up every spec once and returns its timing. With `reference`, also
/// runs each prepared kernel under `FunctionalRunner` (untimed) and records
/// its checksum by spec name.
pub fn set_up(
    specs: &[WorkloadSpec],
    seed: u64,
    cores: u32,
    mut reference: Option<&mut BTreeMap<String, u64>>,
) -> Setup {
    let mut s = Setup::default();
    let mut graphs = std::collections::BTreeSet::new();
    for spec in specs {
        if let Some(d) = spec.dataset.filter(|d| graphs.insert((*d, spec.scale))) {
            let t = Instant::now();
            let g = Dataset::by_name(d)
                .expect("roster data set")
                .instantiate(spec.scale);
            s.graph_gen_s += t.elapsed().as_secs_f64();
            black_box(g);
            // The kernels below take their graph from the process cache;
            // fill it outside the timed region.
            try_dataset_graph(d, spec.scale, spec.reorder).expect("roster data set");
        }
        let t = Instant::now();
        let mut kernel = spec.instantiate_seeded(seed);
        s.instantiate_s += t.elapsed().as_secs_f64();
        let mut runner = FunctionalRunner::new(cores as usize);
        let t = Instant::now();
        black_box(kernel.prepare(runner.space_mut()));
        s.prepare_s += t.elapsed().as_secs_f64();
        if let Some(r) = reference.as_deref_mut() {
            r.insert(spec.name.clone(), kernel.run(&mut runner));
        }
    }
    s
}

/// Digest of everything a cell simulated: the checksum, every counter, the
/// energy estimate, the telemetry and Prodigy's internal counters. Host
/// timing is not part of it.
pub fn digest(
    checksum: u64,
    summary: &RunSummary,
    telemetry: &TelemetrySummary,
    prodigy: &Option<ProdigyStats>,
) -> u64 {
    fnv(format!("{checksum}|{summary:?}|{telemetry:?}|{prodigy:?}").as_bytes())
}

/// [`digest`] of a sweep outcome.
pub fn outcome_digest(o: &RunOutcome) -> u64 {
    digest(o.checksum, &o.summary, &o.telemetry, &o.prodigy)
}

/// Folds per-cell digests, in cell order, into one workload digest.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv(&bytes)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// Simulated, with this checksum and stats digest; the rest is printed
    /// for information.
    Done {
        /// Kernel checksum.
        checksum: u64,
        /// [`digest`] of the cell.
        digest: u64,
        /// Simulated cycles.
        cycles: u64,
        /// Simulated instructions per cycle.
        ipc: f64,
        /// Useful / resolved prefetches, when any resolved.
        accuracy: Option<f64>,
    },
    /// Panicked or timed out.
    Failed(String),
}

impl CellResult {
    /// A simulated cell.
    pub fn done(checksum: u64, digest: u64, summary: &RunSummary) -> Self {
        CellResult::Done {
            checksum,
            digest,
            cycles: summary.stats.cycles,
            ipc: summary.stats.ipc(),
            accuracy: summary.stats.prefetch_use.accuracy(),
        }
    }
}

/// Cells that failed or whose checksum differs from the reference.
pub fn count_failed(
    cells: &[Cell],
    results: &[CellResult],
    reference: &BTreeMap<String, u64>,
) -> u64 {
    cells
        .iter()
        .zip(results)
        .filter(|(c, r)| match r {
            CellResult::Done { checksum, .. } => reference.get(&c.spec.name) != Some(checksum),
            CellResult::Failed(_) => true,
        })
        .count() as u64
}

/// One untraced pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds `Ctx::warm` took for all cells.
    pub wall_s: f64,
    /// Sum of the cells' own `RunTiming` host time, in seconds.
    pub cells_s: f64,
    /// Simulated instructions over all cells.
    pub instructions: u64,
    /// Per-cell results, in cell order.
    pub results: Vec<CellResult>,
}

impl Pass {
    /// Digest of the pass (failed cells contribute their error text).
    pub fn digest(&self) -> u64 {
        fold(self.results.iter().map(|r| match r {
            CellResult::Done { digest, .. } => *digest,
            CellResult::Failed(e) => fnv(e.as_bytes()),
        }))
    }
}

/// Simulates every cell once through a fresh sweep context.
pub fn untraced_pass(cells: &[Cell], seed: u64) -> Pass {
    let ctx = context(cells, seed);
    let t = Instant::now();
    ctx.warm(cells.to_vec());
    let wall_s = t.elapsed().as_secs_f64();
    let (mut cells_s, mut instructions) = (0.0, 0);
    let results = cells
        .iter()
        .map(|c| match ctx.try_run(c) {
            Ok(o) => {
                cells_s += o.timing.host_nanos as f64 * 1e-9;
                instructions += o.summary.stats.instructions;
                CellResult::done(o.checksum, outcome_digest(&o), &o.summary)
            }
            Err(e) => CellResult::Failed(e.to_string()),
        })
        .collect();
    Pass {
        wall_s,
        cells_s,
        instructions,
        results,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_cells() {
        let p = cells("prodigy-per9").unwrap();
        let n = cells("none-per9").unwrap();
        let b = cells("baselines-gap5").unwrap();
        assert_eq!((p.len(), n.len(), b.len()), (9, 9, 30));
        assert!(p.iter().all(|c| c.kind == PrefetcherKind::Prodigy));
        assert!(n.iter().all(|c| c.kind == PrefetcherKind::None));
        // Same inputs with and without Prodigy: their difference is
        // Prodigy's cost.
        let names = |v: &[Cell]| v.iter().map(|c| c.spec.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&p), names(&n));
        assert!(b
            .iter()
            .all(|c| c.kind != PrefetcherKind::Prodigy && c.kind != PrefetcherKind::None));
        assert_eq!(specs(&b).len(), 5);
        assert!(cells("nope").is_none());
        for w in WORKLOADS {
            assert!(crate::stats::valid_name(w));
        }
    }

    #[test]
    fn a_wrong_checksum_counts_as_a_failed_cell() {
        let cs = cells("none-per9").unwrap();
        let reference: BTreeMap<String, u64> = cs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.spec.name.clone(), i as u64))
            .collect();
        let done = |checksum| CellResult::Done {
            checksum,
            digest: 0,
            cycles: 1,
            ipc: 1.0,
            accuracy: None,
        };
        let mut results: Vec<CellResult> = (0..cs.len() as u64).map(done).collect();
        assert_eq!(count_failed(&cs, &results, &reference), 0);
        // Force one checksum wrong and one cell to panic.
        results[2] = done(999);
        results[5] = CellResult::Failed("panicked".into());
        assert_eq!(count_failed(&cs, &results, &reference), 2);
        // A cell with no reference at all is not counted as correct.
        let mut partial = reference.clone();
        partial.remove(&cs[0].spec.name);
        results[2] = done(2);
        assert_eq!(count_failed(&cs, &results, &partial), 2);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        // Two independent simulations of one small cell digest equally, and
        // any simulated difference changes the digest.
        let spec = WorkloadSpec::graph("bfs", "po", 256);
        let cell = [Cell::new(spec, PrefetcherKind::Stride)];
        let a = untraced_pass(&cell, 3);
        let b = untraced_pass(&cell, 3);
        assert_eq!(a.digest(), b.digest());
        let CellResult::Done {
            digest: d,
            checksum,
            ..
        } = a.results[0]
        else {
            panic!("cell failed: {:?}", a.results[0]);
        };
        let ctx = context(&cell, 3);
        let o = ctx.try_run(&cell[0]).unwrap();
        assert_eq!(outcome_digest(&o), d);
        let mut summary = o.summary.clone();
        summary.stats.cycles += 1;
        assert_ne!(digest(checksum, &summary, &o.telemetry, &o.prodigy), d);
        assert_ne!(
            digest(checksum ^ 1, &o.summary, &o.telemetry, &o.prodigy),
            d
        );
        assert_ne!(fold([1, 2]), fold([2, 1]));
    }

    #[test]
    fn reference_checksums_match_the_simulation() {
        let spec = WorkloadSpec::plain("is", 256);
        let cell = [Cell::new(spec.clone(), PrefetcherKind::None)];
        let mut reference = BTreeMap::new();
        let cores = context(&cell, 5).sys.cores;
        set_up(&[spec], 5, cores, Some(&mut reference));
        let pass = untraced_pass(&cell, 5);
        assert_eq!(count_failed(&cell, &pass.results, &reference), 0);
    }
}
