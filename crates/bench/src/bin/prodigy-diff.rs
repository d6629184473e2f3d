//! Run-to-run diff/regression gate for benchmark artifacts.
//!
//! ```text
//! prodigy-diff OLD.json NEW.json [--threshold FRAC] [--slo SPEC]...
//! prodigy-diff REPORT.json --slo SPEC [--slo SPEC]...
//! ```
//!
//! Compares two sweep reports (`prodigy-eval --json`) or two windowed
//! metrics dumps (`prodigy-eval --metrics FILE`), prints a deterministic
//! per-metric delta report, and exits nonzero when a tier-1 metric
//! regresses past the threshold:
//!
//! - exit 0 — no regression (deltas, if any, are within budget)
//! - exit 1 — regression: a cell's cycle count grew (or a metrics run's
//!   mean IPC fell) beyond `--threshold` (default 0.02 = 2%), the two
//!   runs' result checksums disagree, or a `--slo` assertion is violated
//! - exit 2 — usage, I/O, parse, or malformed-SLO error
//!
//! Only simulated sections are compared (see `prodigy_bench::compare`): a
//! same-seed pair must diff to zero changes.
//!
//! ## Latency SLOs
//!
//! `--slo "load_to_use_p99<=N"` asserts a simulated-latency quantile
//! against every cell of the report under test (the NEW report when two
//! are given; the sole report in single-report mode). The histograms are
//! the `Quantiles` fields of the `CellStats` record declaration (including
//! the per-tier rows two-tier cells report), and the quantiles the fields
//! of `HistQuantiles` (`p50`, `p90`, `p99`, `max`). Quantiles are
//! bucket-bound intervals `[lo, hi]`; the assertion compares the
//! conservative upper bound `hi`, so a passing SLO holds for the exact
//! (unbucketed) value too. Cells without the quantile (failed cells, empty
//! histograms) are reported as n/a and do not violate.
//!
//! ## Scalar SLOs
//!
//! `--slo "pollution_rate<=0.05"` asserts a per-cell scalar stat with a
//! fractional bound. The scalars are the `Ratio` fields of `CellStats`
//! (accuracy, coverage, pollution rate, occupancy shares). A `null` stat
//! (e.g. a cell whose prefetcher issued nothing) is n/a and does not
//! violate, matching the quantile convention.

use prodigy_bench::compare::{diff_reports, parse_json, Json};
use prodigy_bench::CellStats;
use prodigy_sim::record::{fields_of, Kind};
use prodigy_sim::HistQuantiles;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: prodigy-diff OLD.json NEW.json [--threshold FRAC] [--slo SPEC]...
       prodigy-diff REPORT.json --slo SPEC [--slo SPEC]...

  OLD.json / NEW.json   sweep reports (prodigy-eval --json) or metrics
                        dumps (prodigy-eval --metrics FILE); both must be
                        the same kind
  --threshold FRAC      tier-1 regression budget as a fraction
                        (default 0.02 = 2%)
  --slo SPEC            assert a latency quantile or scalar stat on the
                        report under test (NEW.json, or the sole report).
                        Quantile SPEC is <hist>_<quantile><=<cycles>, e.g.
                        load_to_use_p99<=4096; quantile: {}.
                        Scalar SPEC is <stat><=<fraction>, e.g.
                        pollution_rate<=0.05. Repeatable; every spec must
                        hold on every cell that reports the value
                        (null/absent counts as n/a, not a violation).
                        hist: {}
                        stat: {}

exit status: 0 ok, 1 regression/checksum mismatch/SLO violation, 2 bad input",
        slo_quantiles().join(", "),
        slo_hists().join(", "),
        slo_scalars().join(", "),
    )
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("prodigy-diff: {msg}");
    eprintln!("{}", usage());
    ExitCode::from(2)
}

/// One parsed `--slo` assertion: a latency-quantile bound
/// (`<hist>_<quantile><=<cycles>`) or a scalar-stat bound
/// (`<stat><=<fraction>`).
enum SloKind {
    Quantile {
        hist: String,
        quantile: String,
        bound: u64,
    },
    Scalar {
        key: String,
        bound: f64,
    },
}

struct Slo {
    kind: SloKind,
    raw: String,
}

/// Gateable histograms: the quantile fields of a cell's `stats`.
fn slo_hists() -> Vec<&'static str> {
    fields_of::<CellStats>(Kind::Quantiles)
}

/// Gateable per-cell scalar stats: the ratio fields of a cell's `stats`
/// (fractions, so the bound parses as f64 rather than integer cycles).
fn slo_scalars() -> Vec<&'static str> {
    fields_of::<CellStats>(Kind::Ratio)
}

/// Gateable quantiles: the intervals of a histogram's quantile record.
fn slo_quantiles() -> Vec<&'static str> {
    fields_of::<HistQuantiles>(Kind::Interval)
}

fn parse_slo(spec: &str) -> Result<Slo, String> {
    let bad = |why: &str| {
        format!(
            "malformed --slo {spec:?}: {why} (e.g. load_to_use_p99<=4096 or pollution_rate<=0.05)"
        )
    };
    let (lhs, rhs) = spec
        .split_once("<=")
        .ok_or_else(|| bad("expected <hist>_<quantile><=<cycles> or <stat><=<fraction>"))?;
    let lhs = lhs.trim();
    if slo_scalars().contains(&lhs) {
        let bound = rhs
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|b| b.is_finite() && *b >= 0.0)
            .ok_or_else(|| bad("bound must be a finite non-negative fraction"))?;
        return Ok(Slo {
            kind: SloKind::Scalar {
                key: lhs.to_string(),
                bound,
            },
            raw: spec.to_string(),
        });
    }
    let bound = rhs
        .trim()
        .parse::<u64>()
        .map_err(|_| bad("bound must be a non-negative integer cycle count"))?;
    let (hist, quantile) = lhs
        .rsplit_once('_')
        .ok_or_else(|| bad("expected <hist>_<quantile> before <="))?;
    if !slo_hists().contains(&hist) {
        return Err(bad(&format!(
            "unknown histogram {hist:?}; expected one of {:?} (or a scalar of {:?})",
            slo_hists(),
            slo_scalars()
        )));
    }
    if !slo_quantiles().contains(&quantile) {
        return Err(bad(&format!(
            "unknown quantile {quantile:?}; expected one of {:?}",
            slo_quantiles()
        )));
    }
    Ok(Slo {
        kind: SloKind::Quantile {
            hist: hist.to_string(),
            quantile: quantile.to_string(),
            bound,
        },
        raw: spec.to_string(),
    })
}

/// One SLO's outcome over a report's cells.
#[derive(Default)]
struct Verdict {
    checked: usize,
    na: usize,
    worst: Option<String>,
    offenders: Vec<String>,
}

/// Checks `value(stats) <= bound` on every cell; `show` renders a value.
fn gate<T: PartialOrd + Copy + std::fmt::Display>(
    cells: &[Json],
    bound: T,
    value: impl Fn(&Json) -> Option<T>,
    show: impl Fn(T) -> String,
) -> Verdict {
    let mut v = Verdict::default();
    let mut worst: Option<T> = None;
    for cell in cells {
        let key = cell.get("key").and_then(Json::as_str).unwrap_or("?");
        let Some(x) = cell.get("stats").and_then(&value) else {
            v.na += 1;
            continue;
        };
        v.checked += 1;
        if worst.is_none_or(|w| x > w) {
            worst = Some(x);
            v.worst = Some(format!("worst {} ({key})", show(x)));
        }
        if x > bound {
            v.offenders
                .push(format!("    VIOLATED: {key} — {} > {bound}\n", show(x)));
        }
    }
    v
}

/// Evaluates every SLO against every cell of a sweep report. Returns the
/// rendered verdict text and whether any assertion was violated; `Err` when
/// the report is not a sweep report.
fn check_slos(report: &Json, slos: &[Slo]) -> Result<(String, bool), String> {
    let Some(cells) = report.get("cells").and_then(Json::as_arr) else {
        return Err("--slo needs a sweep report (prodigy-eval --json), not a metrics dump".into());
    };
    let mut out = String::new();
    let mut violated = false;
    for slo in slos {
        let v = match &slo.kind {
            // stats.<hist> is {"p50":[lo,hi],...} or null; the upper bound
            // is read exactly (it can be `u64::MAX`).
            SloKind::Quantile {
                hist,
                quantile,
                bound,
            } => gate(
                cells,
                *bound,
                |s| match s.get(hist)?.get(quantile)?.as_arr()? {
                    [_, hi] => hi.as_int::<u64>(),
                    _ => None,
                },
                |x| x.to_string(),
            ),
            // stats.<stat> is a fraction or null (n/a).
            SloKind::Scalar { key, bound } => gate(
                cells,
                *bound,
                |s| s.get(key)?.as_f64(),
                |x| format!("{x:.6}"),
            ),
        };
        violated |= !v.offenders.is_empty();
        out.push_str(&format!(
            "slo {}: {} — {} cells checked, {} n/a, {}\n{}",
            slo.raw,
            if v.offenders.is_empty() {
                "OK"
            } else {
                "VIOLATED"
            },
            v.checked,
            v.na,
            v.worst.as_deref().unwrap_or("no cell reports this value"),
            v.offenders.concat(),
        ));
    }
    Ok((out, violated))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.02f64;
    let mut slos: Vec<Slo> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return fail("--threshold needs a numeric fraction");
                };
                if !(v.is_finite() && v >= 0.0) {
                    return fail("--threshold must be a finite fraction >= 0");
                }
                threshold = v;
                i += 2;
            }
            "--slo" => {
                let Some(spec) = args.get(i + 1) else {
                    return fail("--slo needs a spec like load_to_use_p99<=4096");
                };
                match parse_slo(spec) {
                    Ok(s) => slos.push(s),
                    Err(e) => return fail(&e),
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return fail(&format!("unknown flag {flag}"));
            }
            p => {
                paths.push(p);
                i += 1;
            }
        }
    }
    let single_slo_mode = paths.len() == 1 && !slos.is_empty();
    if paths.len() != 2 && !single_slo_mode {
        return fail("expected exactly two report files (or one with --slo)");
    }

    let mut parsed = Vec::new();
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {p}: {e}")),
        };
        match parse_json(&text) {
            Ok(v) => parsed.push(v),
            Err(e) => return fail(&format!("cannot parse {p}: {e}")),
        }
    }

    let mut bad = false;
    if paths.len() == 2 {
        let report = match diff_reports(&parsed[0], &parsed[1], threshold) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        print!("{}", report.render());
        bad = report.regressed();
    }
    if !slos.is_empty() {
        // SLOs gate the report under test: the NEW report, or the only one.
        let under_test = parsed.last().expect("at least one report");
        let (text, violated) = match check_slos(under_test, &slos) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        print!("{text}");
        bad = bad || violated;
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
