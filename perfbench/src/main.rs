//! Simulator-speed benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <prodigy-per9|none-per9|baselines-gap5> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times untraced passes over the workload's cells
//! through the public sweep entry and reports the end-to-end metrics; with
//! `--trace 1` it alternates an untraced pass with a traced one and reports
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object. See `README.md` beside this file for the metrics, the
//! workloads and how to read them.

mod alloc;
mod stats;
mod suite;
mod traced;

use stats::{median, push, ratio, Calibration, Metric};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// The prefetchers with per-layer metrics (`pf.<kind>.*`).
const PF_KINDS: [&str; 7] = [
    "stride",
    "stream",
    "ghb-gdc",
    "imp",
    "ainsworth-jones",
    "droplet",
    "prodigy",
];

/// `|pf.none.demand_ns|` above this means the timer calibration does not
/// describe the traced pass, and no per-layer time can be trusted.
const NONE_RESIDUAL_NS: f64 = 8.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(cells) = suite::cells(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; valid workloads: {}",
            args.workload,
            suite::WORKLOADS.join(" ")
        );
        std::process::exit(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let specs = suite::specs(&cells);
    let cores = suite::context(&cells, args.seed).sys.cores;

    let mut reference = BTreeMap::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let r = (i == 0).then_some(&mut reference);
        setups.push(suite::set_up(&specs, args.seed, cores, r));
    }

    let start = Instant::now();
    let line = if args.trace {
        traced_run(&cells, &args, &reference, &setups, start, budget)
    } else {
        untraced_run(&cells, &args, &reference, &setups, start, budget)
    };
    println!("{line}");
}

/// Whether another pass fits: passes continue while the predicted end of
/// the next one stays within half a pass of the budget.
fn another(start: Instant, budget: Duration, last: f64) -> bool {
    start.elapsed().as_secs_f64() + last / 2.0 < budget.as_secs_f64()
}

fn untraced_run(
    cells: &[prodigy_bench::Cell],
    args: &Args,
    reference: &BTreeMap<String, u64>,
    setups: &[suite::Setup],
    start: Instant,
    budget: Duration,
) -> String {
    let mut passes: Vec<suite::Pass> = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        let p = suite::untraced_pass(cells, args.seed);
        let last = p.wall_s;
        passes.push(p);
        // The peak of set-up plus one pass: later passes leave the
        // allocator's heaps a little more fragmented each time, so the
        // process peak would grow with the number of passes that fit.
        peak_rss_mb
            .get_or_insert_with(|| suite::peak_rss_mb().expect("/proc/self/status reports VmHWM"));
        if !another(start, budget, last) {
            break;
        }
    }
    let failed: u64 = passes
        .iter()
        .map(|p| suite::count_failed(cells, &p.results, reference))
        .sum();
    let attempted = (cells.len() * passes.len()) as u64;
    let digest = passes[0].digest();
    let repeatable = passes.iter().all(|p| p.digest() == digest);
    if !repeatable {
        eprintln!("perfbench: simulated results differ between passes of one run");
    }
    report_cells(cells, &passes[0]);
    println!(
        "workload {} seed {}: {} passes, digest {digest:016x}",
        args.workload,
        args.seed,
        passes.len()
    );

    let m = end_to_end_metrics(
        &passes,
        setups,
        peak_rss_mb.expect("one pass ran"),
        failed,
        attempted,
    );
    stats::result_json(failed == 0 && repeatable, attempted, failed, &m)
}

/// The end-to-end metrics of a run's untraced passes.
fn end_to_end_metrics(
    passes: &[suite::Pass],
    setups: &[suite::Setup],
    peak_rss_mb: f64,
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mips: Vec<f64> = passes
        .iter()
        .map(|p| p.instructions as f64 / p.wall_s / 1e6)
        .collect();
    let setup: Vec<f64> = setups.iter().map(suite::Setup::total_s).collect();
    let mut m = Vec::new();
    push(&mut m, "wall_s", median(&walls), "s");
    push(&mut m, "sim_mips", median(&mips), "Minsn/s");
    push(&mut m, "setup_s", median(&setup), "s");
    push(&mut m, "peak_rss_mb", peak_rss_mb, "MB");
    push(
        &mut m,
        "cells_ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "frac",
    );
    m
}

/// Per-cell simulated results (cycles, IPC, prefetch accuracy, digest),
/// printed for information: they are not scored.
fn report_cells(cells: &[prodigy_bench::Cell], pass: &suite::Pass) {
    for (c, r) in cells.iter().zip(&pass.results) {
        match r {
            suite::CellResult::Done {
                checksum,
                digest,
                cycles,
                ipc,
                accuracy,
            } => println!(
                "cell {}: cycles {cycles} ipc {ipc:.4} accuracy {} checksum {checksum:016x} digest {digest:016x}",
                c.key(),
                accuracy.map_or("n/a".to_string(), |a| format!("{a:.4}"))
            ),
            suite::CellResult::Failed(e) => println!("cell {} FAILED: {e}", c.key()),
        }
    }
}

fn traced_run(
    cells: &[prodigy_bench::Cell],
    args: &Args,
    reference: &BTreeMap<String, u64>,
    setups: &[suite::Setup],
    start: Instant,
    budget: Duration,
) -> String {
    let cal = traced::calibrate();
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut correct = true;
    let mut counts: Option<Vec<u64>> = None;
    loop {
        let u = suite::untraced_pass(cells, args.seed);
        let t = traced::pass(cells, args.seed);
        attempted += 2 * cells.len() as u64;
        failed += suite::count_failed(cells, &u.results, reference)
            + suite::count_failed(cells, &t.results, reference);
        if t.digest != u.digest() {
            eprintln!(
                "perfbench: traced digest {:016x} != untraced {:016x}",
                t.digest,
                u.digest()
            );
            correct = false;
        }
        let c = t.counts();
        if counts.get_or_insert_with(|| c.clone()) != &c {
            eprintln!("perfbench: allocation or call counts differ between traced passes");
            correct = false;
        }
        let m = layer_metrics(&t, &u, setups, &cal);
        let none = m
            .iter()
            .find(|x| x.name == "pf.none.demand_ns")
            .map_or(0.0, |x| x.value);
        if none.abs() > NONE_RESIDUAL_NS {
            eprintln!("perfbench: calibrated pf.none.demand_ns is {none:.2}, not about 0");
            correct = false;
        }
        let last = u.wall_s + t.wall_s;
        runs.push(m);
        if !another(start, budget, last) {
            break;
        }
    }
    println!(
        "workload {} seed {}: {} traced passes, timer {:.1} ns/call (bias {:.1} ns)",
        args.workload,
        args.seed,
        runs.len(),
        cal.outer_ns,
        cal.inner_ns
    );
    // Each metric's median over the passes; counts are equal in all of them.
    let m: Vec<Metric> = runs[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: median(&runs.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..first.clone()
        })
        .collect();
    stats::result_json(correct && failed == 0, attempted, failed, &m)
}

/// The per-layer metrics of one traced pass `t`, with `u` the untraced pass
/// run just before it.
fn layer_metrics(
    t: &traced::Traced,
    u: &suite::Pass,
    setups: &[suite::Setup],
    cal: &Calibration,
) -> Vec<Metric> {
    let med = |f: fn(&suite::Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let insns = t.instructions as f64;
    let per_insn = |ns: f64| ratio(ns, insns);
    let per_kinsn = |n: f64| ratio(n * 1e3, insns);
    let pf_calls: u64 = t.pf.values().map(|p| p.demand.calls + p.fill.calls).sum();
    let pf_allocs: u64 = t.pf.values().map(|p| p.demand.allocs + p.fill.allocs).sum();
    let pf_ns = |p: &traced::PfTotals| {
        cal.own(p.demand.ns as f64, p.demand.calls) + cal.own(p.fill.ns as f64, p.fill.calls)
    };
    let phase_ns = cal.span(t.phase.ns as f64, t.phase.calls, pf_calls);
    let pf_total: f64 = t.pf.values().map(pf_ns).sum();
    let kernel_ns = cal.span(t.kernel.ns as f64, t.kernel.calls, t.phase.calls)
        - cal.own(t.phase.ns as f64, t.phase.calls);

    let mut m = Vec::new();
    push(&mut m, "workloads.graph_gen_s", med(|s| s.graph_gen_s), "s");
    push(&mut m, "workloads.prepare_s", med(|s| s.prepare_s), "s");
    push(
        &mut m,
        "workloads.kernel_ns_per_insn",
        per_insn(kernel_ns),
        "ns/insn",
    );
    push(
        &mut m,
        "workloads.kernel_allocs_per_kinsn",
        per_kinsn((t.kernel.allocs - t.phase.allocs) as f64),
        "allocs/kinsn",
    );
    push(
        &mut m,
        "sim.run_phase_ns_per_insn",
        per_insn(phase_ns),
        "ns/insn",
    );
    push(
        &mut m,
        "sim.core_mem_ns_per_insn",
        per_insn(phase_ns - pf_total),
        "ns/insn",
    );
    push(
        &mut m,
        "sim.run_phase_allocs_per_kinsn",
        per_kinsn((t.phase.allocs - pf_allocs - t.record_allocs) as f64),
        "allocs/kinsn",
    );
    push(&mut m, "sim.phases", t.phase.calls as f64, "count");
    push(&mut m, "sim.instructions", insns, "count");
    let r = &t.replay_stats;
    push(
        &mut m,
        "sim.mem.demand_ns",
        ratio(t.replay.ns as f64, t.replay.calls as f64),
        "ns",
    );
    push(
        &mut m,
        "sim.mem.l1d_miss_ratio",
        ratio(r.l1d.misses as f64, (r.l1d.hits + r.l1d.misses) as f64),
        "frac",
    );
    push(
        &mut m,
        "sim.mem.l3_miss_ratio",
        ratio(r.l3.misses as f64, (r.l3.hits + r.l3.misses) as f64),
        "frac",
    );
    let empty = traced::PfTotals::default();
    let none = t.pf.get("none").unwrap_or(&empty);
    push(
        &mut m,
        "pf.none.demand_ns",
        ratio(
            cal.own(none.demand.ns as f64, none.demand.calls),
            none.demand.calls as f64,
        ),
        "ns",
    );
    for k in PF_KINDS {
        let p = t.pf.get(k).unwrap_or(&empty);
        let s = t.sim.get(k).cloned().unwrap_or_default();
        let k_insns = s.instructions as f64;
        push(
            &mut m,
            format!("pf.{k}.demand_ns"),
            ratio(
                cal.own(p.demand.ns as f64, p.demand.calls),
                p.demand.calls as f64,
            ),
            "ns",
        );
        push(
            &mut m,
            format!("pf.{k}.fill_ns"),
            ratio(cal.own(p.fill.ns as f64, p.fill.calls), p.fill.calls as f64),
            "ns",
        );
        push(
            &mut m,
            format!("pf.{k}.share"),
            ratio(pf_ns(p), phase_ns),
            "frac",
        );
        push(
            &mut m,
            format!("pf.{k}.allocs_per_kinsn"),
            ratio((p.demand.allocs + p.fill.allocs) as f64 * 1e3, k_insns),
            "allocs/kinsn",
        );
        push(
            &mut m,
            format!("pf.{k}.issued_per_kinsn"),
            ratio(s.prefetches_issued as f64 * 1e3, k_insns),
            "1/kinsn",
        );
        push(
            &mut m,
            format!("pf.{k}.accuracy"),
            ratio(s.prefetch_use.useful() as f64, s.prefetches_issued as f64),
            "frac",
        );
    }
    let pr = &t.prodigy;
    let prodigy_ns = t.pf.get("prodigy").map_or(0.0, pf_ns);
    push(
        &mut m,
        "prodigy.ns_per_element",
        ratio(prodigy_ns, pr.elements_advanced as f64),
        "ns",
    );
    push(
        &mut m,
        "prodigy.elements_advanced",
        pr.elements_advanced as f64,
        "count",
    );
    push(
        &mut m,
        "prodigy.sequences_initiated",
        pr.sequences_initiated as f64,
        "count",
    );
    push(&mut m, "prodigy.pfhr_drops", pr.pfhr_drops as f64, "count");
    push(&mut m, "bench.harness_s", u.wall_s - u.cells_s, "s");
    push(&mut m, "trace.timer_ns", cal.outer_ns, "ns");
    push(
        &mut m,
        "trace.overhead_frac",
        t.wall_s / u.wall_s - 1.0,
        "frac",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// the two modes print, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let pass = suite::Pass {
            wall_s: 1.0,
            cells_s: 1.0,
            instructions: 1,
            results: Vec::new(),
        };
        let setups = [suite::Setup::default()];
        let cal = Calibration {
            inner_ns: 0.0,
            outer_ns: 0.0,
        };
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').expect("list ends") + start;
            json[start..end].to_string()
        };
        for (key, metrics) in [
            (
                "end_to_end",
                end_to_end_metrics(std::slice::from_ref(&pass), &setups, 1.0, 0, 1),
            ),
            (
                "per_layer",
                layer_metrics(&traced::Traced::default(), &pass, &setups, &cal),
            ),
        ] {
            let listed = section(key);
            assert_eq!(listed.matches("\"name\"").count(), metrics.len(), "{key}");
            for m in &metrics {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(listed.contains(&entry), "{key} lacks {entry}");
            }
        }
        for w in suite::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
