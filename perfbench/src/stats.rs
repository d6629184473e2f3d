//! Small numeric helpers: medians, timer calibration arithmetic, metric
//! names and the one-line JSON result.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted (a layer the workload never
/// enters reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cost of timing one call, measured on this host before the traced
/// pass.
///
/// A timed call reads the clock and the allocation counter before and after
/// the wrapped call. Two quantities follow from that:
/// * `inner_ns`: how much the recorded duration of a call over-reports its
///   work (the part of the bookkeeping that falls between the two clock
///   reads);
/// * `outer_ns`: how much one timed call adds to the span that encloses it
///   (all of the bookkeeping). This is `trace.timer_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Bias of one recorded duration, in ns.
    pub inner_ns: f64,
    /// Host time one timed call adds to its enclosing span, in ns.
    pub outer_ns: f64,
}

impl Calibration {
    /// Derives the calibration from a loop of `n` calls to an empty body:
    /// `plain_ns` is the loop's time untimed, `timed_ns` its time with
    /// every call timed, and `recorded_ns` the sum of the durations the
    /// timed calls recorded.
    pub fn from_loops(n: u64, plain_ns: f64, timed_ns: f64, recorded_ns: f64) -> Self {
        let n = n.max(1) as f64;
        Calibration {
            inner_ns: (recorded_ns - plain_ns) / n,
            outer_ns: (timed_ns - plain_ns) / n,
        }
    }

    /// The work inside `calls` timed calls whose recorded durations sum to
    /// `recorded_ns`.
    pub fn own(&self, recorded_ns: f64, calls: u64) -> f64 {
        recorded_ns - calls as f64 * self.inner_ns
    }

    /// The work of a span that recorded `recorded_ns` over `calls` timed
    /// calls of its own (whose bias is removed) and enclosed
    /// `nested_calls` timed calls of a lower layer (whose full cost is).
    pub fn span(&self, recorded_ns: f64, calls: u64, nested_calls: u64) -> f64 {
        self.own(recorded_ns, calls) - nested_calls as f64 * self.outer_ns
    }
}

/// Runs `body` `n` times untimed and timed, and derives the calibration.
/// `timed` must wrap its argument exactly as the traced wrappers do and
/// return the duration it recorded, in ns.
pub fn calibrate(
    n: u64,
    mut body: impl FnMut(),
    mut timed: impl FnMut(&mut dyn FnMut()) -> u64,
) -> Calibration {
    // Three rounds, keeping the cheapest: a preempted round only inflates.
    let mut best: Option<Calibration> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..n {
            body();
        }
        let plain = t0.elapsed().as_nanos() as f64;
        let mut recorded = 0u64;
        let t1 = Instant::now();
        for _ in 0..n {
            recorded += timed(&mut body);
        }
        let all = t1.elapsed().as_nanos() as f64;
        let c = Calibration::from_loops(n, plain, all, recorded as f64);
        if best.is_none_or(|b| c.outer_ns < b.outer_ns) {
            best = Some(c);
        }
    }
    best.expect("three rounds ran")
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ns`, `count`, ...).
    pub unit: &'static str,
}

/// Appends a metric.
pub fn push(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
///
/// # Panics
/// Panics on an invalid or duplicate metric name, or a non-finite value:
/// both are bugs in this benchmark.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
            assert!(seen.insert(&m.name), "duplicate metric {:?}", m.name);
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            // `{:?}` prints an f64 with every digit it has and always as a
            // JSON number (`1.0`, `0.000123`, `1e-7`).
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn calibration_recovers_a_known_cost() {
        // 1000 calls of a 2 ns body; the timer adds 30 ns to the enclosing
        // loop and 12 ns to each recorded duration.
        let c = Calibration::from_loops(1000, 2_000.0, 32_000.0, 14_000.0);
        assert_eq!(c.inner_ns, 12.0);
        assert_eq!(c.outer_ns, 30.0);
        // A layer that recorded 14 us over those 1000 calls did 2 us of work.
        assert_eq!(c.own(14_000.0, 1000), 2_000.0);
        // Its parent recorded 100 us over 10 calls of its own and enclosed
        // the 1000 child calls: their 30 us of timer cost comes off, as does
        // the parent's own 120 ns of bias.
        assert_eq!(c.span(100_000.0, 10, 1000), 100_000.0 - 120.0 - 30_000.0);
    }

    #[test]
    fn calibrate_measures_a_positive_timer_cost() {
        let mut x = 0u64;
        let c = calibrate(
            10_000,
            || x = std::hint::black_box(x + 1),
            |f| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            },
        );
        assert!(c.outer_ns > 0.0, "{c:?}");
        assert!(c.outer_ns < 10_000.0, "{c:?}");
    }

    #[test]
    fn metric_names() {
        for ok in [
            "wall_s",
            "pf.ghb-gdc.demand_ns",
            "sim.mem.l3_miss_ratio",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "pf/x", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = Vec::new();
        push(&mut m, "wall_s", 1.25, "s");
        push(&mut m, "sim.phases", 7.0, "count");
        assert_eq!(
            result_json(true, 9, 0, &m),
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"sim.phases\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Vec::new();
        push(&mut m, "wall_s", 1.0, "s");
        push(&mut m, "wall_s", 2.0, "s");
        result_json(true, 1, 0, &m);
    }
}
