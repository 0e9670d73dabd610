//! Pure measurement rules: percentiles over due-time latencies, the
//! tail-percentile sample rule, the backlog detector, the capacity
//! search, the metric-name grammar, and process counters read from
//! `/proc`. Everything here is deterministic and unit-tested.

/// Nearest-rank percentile (`p` in `[0, 100]`) of `sorted`, which must
/// be ascending. Rank `ceil(p/100 · n)`, 1-based; `p = 0` gives the
/// minimum. `None` on an empty sample.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    Some(sorted[rank(p, n).clamp(1, n) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`, robust to
/// the rounding of `p / 100 · n` (99.9% of 10 000 is rank 9 990).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least `beyond` samples strictly above its nearest rank in a sample of
/// `n`. A p99 needs `n ≥ 100 · beyond`.
#[must_use]
pub fn highest_supported(n: usize, candidates: &[f64], beyond: usize) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n >= r + beyond
    })
}

/// Latencies of one open-loop phase, in arrival order: `Some(ms)` for a
/// request that completed (timed from its due time), `None` for one
/// that was shed or failed — which misses every latency limit.
#[derive(Debug, Clone, Default)]
pub struct PhaseLatency {
    /// Per-request due-time latency in arrival order.
    pub by_arrival: Vec<Option<f64>>,
}

impl PhaseLatency {
    /// Nearest-rank percentile over every *offered* request, with
    /// missing requests ranked as infinitely late.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v: Vec<f64> = self
            .by_arrival
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, p).unwrap_or(f64::INFINITY)
    }

    /// The requests after the first `n`, in arrival order.
    #[must_use]
    pub fn after(&self, n: usize) -> PhaseLatency {
        PhaseLatency {
            by_arrival: self.by_arrival[n.min(self.by_arrival.len())..].to_vec(),
        }
    }

    /// Completed requests whose latency is at most `limit_ms`.
    #[must_use]
    pub fn count_within(&self, limit_ms: f64) -> u64 {
        self.by_arrival
            .iter()
            .flatten()
            .filter(|&&l| l <= limit_ms)
            .count() as u64
    }

    /// How much the phase's latency grew: the median of its last
    /// quarter (by arrival) minus the first quarter's, ms. An open loop
    /// past capacity builds a queue whose latency rises for as long as
    /// arrivals continue, even when nothing is shed.
    #[must_use]
    pub fn backlog_growth_ms(&self) -> f64 {
        let n = self.by_arrival.len();
        if n < 8 {
            return 0.0;
        }
        let q = n / 4;
        let median = |part: &[Option<f64>]| {
            PhaseLatency {
                by_arrival: part.to_vec(),
            }
            .percentile(50.0)
        };
        median(&self.by_arrival[n - q..]) - median(&self.by_arrival[..q])
    }
}

/// The verdict on one offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, requests per second.
    pub qps: f64,
    /// p99 due-time latency over offered requests, ms.
    pub p99_ms: f64,
    /// (shed + failed + degraded) / offered.
    pub error_frac: f64,
    /// Backlog growth ([`PhaseLatency::backlog_growth_ms`]), ms.
    pub growth_ms: f64,
}

/// The limits a rate must meet to count as sustainable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// p99 due-time latency limit, ms.
    pub sla_ms: f64,
    /// Largest tolerated (shed + failed + degraded) share.
    pub max_error_frac: f64,
    /// Largest tolerated backlog growth, ms.
    pub backlog_margin_ms: f64,
}

impl Probe {
    /// How close the probe came to its limits: the largest of p99 over
    /// the SLA, error share over its limit, and backlog growth over its
    /// margin. A rate is sustainable while the score stays ≤ 1.
    #[must_use]
    pub fn score(&self, limits: &Limits) -> f64 {
        (self.p99_ms / limits.sla_ms)
            .max(self.error_frac / limits.max_error_frac)
            .max(self.growth_ms / limits.backlog_margin_ms)
    }

    /// Whether the probe meets every capacity condition.
    #[must_use]
    pub fn passes(&self, limits: &Limits) -> bool {
        self.score(limits) <= 1.0
    }
}

/// Result of a capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// The estimated highest sustainable rate.
    pub qps: f64,
    /// Highest probed rate that passed (0 if none did).
    pub pass_qps: f64,
    /// Lowest probed rate that failed (`f64::INFINITY` if none did).
    pub fail_qps: f64,
    /// Every probe, in the order run.
    pub probes: Vec<Probe>,
}

/// Doubling steps up a capacity search takes past its `max_probes`:
/// together they reach ≈ 126 coarse steps above the last fixed one.
pub const WIDENING_STEPS: usize = 6;

/// Searches for the highest rate meeting `limits`.
///
/// A coarse walk from `start` steps up by `step` (a fraction of
/// `start`), or down by twice that, until a passing and a failing rate
/// bracket the answer. After `max_probes` rates that all pass, each step
/// up doubles, for at most [`WIDENING_STEPS`] more rates, so an engine
/// far faster than `start` is still bracketed rather than reported at
/// the walk's ceiling. Host noise (other
/// guests' CPU steal) only ever makes a probe look worse, so a pass
/// stands, but a failing rate is probed once more and the better of the
/// two counts. Near capacity a single
/// probe's verdict is at the mercy of queueing noise and of the host, so
/// the estimate is not read off one probe: `fine` more rates are probed,
/// evenly spaced over a window from half a bracket below the pass to half
/// a bracket above the fail, and the estimate is where the least-squares
/// line of ln([`Probe::score`]) against rate, fitted to every probe in the
/// window, crosses 0 (score 1), clamped to the window.
///
/// Every call of `probe`, repeats included, counts against `max_calls`;
/// when they run out the search stops with what it has measured, so a
/// host that slows every probe cannot stretch the run.
pub fn search_capacity(
    start: f64,
    step: f64,
    max_probes: usize,
    fine: usize,
    max_calls: usize,
    limits: &Limits,
    mut probe: impl FnMut(f64) -> Probe,
) -> Capacity {
    let mut calls = 0;
    let mut best_of_two = |qps: f64| {
        if calls >= max_calls {
            return None;
        }
        calls += 1;
        let p = probe(qps);
        if p.passes(limits) || calls >= max_calls {
            return Some(p);
        }
        calls += 1;
        let again = probe(qps);
        Some(if again.score(limits) < p.score(limits) {
            again
        } else {
            p
        })
    };
    let delta = start * step;
    let mut probes: Vec<Probe> = Vec::new();
    let mut next = start;
    let (pass, fail) = loop {
        let Some(p) = best_of_two(next) else {
            break bracket(&probes, limits);
        };
        probes.push(p);
        let (pass, fail) = bracket(&probes, limits);
        match (pass, fail) {
            (Some(_), Some(_)) => break (pass, fail),
            (Some(a), None) if probes.len() < max_probes => next = a.qps + delta,
            (Some(a), None) if probes.len() < max_probes + WIDENING_STEPS => {
                let widened = probes.len() + 1 - max_probes;
                next = a.qps + delta * f64::from(1u32 << widened);
            }
            // Down in double steps, limited only by `max_calls`: a slow
            // host must still find a pass.
            (None, Some(b)) if b.qps > 2.0 * delta => next = b.qps - 2.0 * delta,
            _ => break (pass, fail),
        }
    };
    let qps = match (pass, fail) {
        (Some(a), Some(b)) => {
            let half = (b.qps - a.qps) / 2.0;
            let (lo, hi) = ((a.qps - half).max(a.qps / 2.0), b.qps + half);
            for k in 1..=fine {
                match best_of_two(lo + (hi - lo) * k as f64 / (fine + 1) as f64) {
                    Some(p) => probes.push(p),
                    None => break,
                }
            }
            let window: Vec<Probe> = probes
                .iter()
                .filter(|p| (lo..=hi).contains(&p.qps))
                .copied()
                .collect();
            crossing(&window, limits)
                .map_or_else(|| interpolate(&a, &b, limits), |q| q.clamp(lo, hi))
        }
        (Some(a), None) => a.qps,
        (None, _) => 0.0,
    };
    Capacity {
        qps,
        pass_qps: pass.map_or(0.0, |p| p.qps),
        fail_qps: fail.map_or(f64::INFINITY, |p| p.qps),
        probes,
    }
}

/// Rate where the least-squares line of ln(score) against rate crosses
/// 0, or `None` when the line does not rise. Scores are clamped to
/// `[1/4, 4]` first: far below and far above capacity a probe only says
/// which side it is on, and a stalled or lossy probe (score ∞) weighs
/// as one clear miss, not an unbounded one.
fn crossing(probes: &[Probe], limits: &Limits) -> Option<f64> {
    let n = probes.len() as f64;
    let xs: Vec<f64> = probes.iter().map(|p| p.qps).collect();
    let ys: Vec<f64> = probes
        .iter()
        .map(|p| p.score(limits).clamp(0.25, 4.0).ln())
        .collect();
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let slope = sxy / sxx;
    (slope > 0.0).then(|| mx - my / slope)
}

/// The highest passing probe below the lowest failing one (a noisy pass
/// above a fail does not count), and that failing probe.
fn bracket(probes: &[Probe], limits: &Limits) -> (Option<Probe>, Option<Probe>) {
    let fail = probes
        .iter()
        .filter(|p| !p.passes(limits))
        .min_by(|x, y| x.qps.total_cmp(&y.qps))
        .copied();
    let ceiling = fail.map_or(f64::INFINITY, |f| f.qps);
    let pass = probes
        .iter()
        .filter(|p| p.passes(limits) && p.qps < ceiling)
        .max_by(|x, y| x.qps.total_cmp(&y.qps))
        .copied();
    (pass, fail)
}

/// Rate at which the score crosses 1 on the line through the passing
/// probe `a` and the failing probe `b`, clamped to `[a.qps, b.qps]`.
fn interpolate(a: &Probe, b: &Probe, limits: &Limits) -> f64 {
    let (sa, sb) = (a.score(limits), b.score(limits));
    if !sb.is_finite() || sb <= sa {
        return a.qps;
    }
    let t = ((1.0 - sa) / (sb - sa)).clamp(0.0, 1.0);
    a.qps + t * (b.qps - a.qps)
}

/// Whether `name` follows the metric-name grammar: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.`, `-`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` follows the unit grammar: 1–16 characters of letters,
/// digits, `_`, `/`, `%`, `.`, `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Process CPU time (user + system) in milliseconds, from
/// `/proc/self/stat`. `None` where the file is unavailable.
#[must_use]
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line (12 and 13 after the name).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1e3 / clock_ticks_per_sec())
}

/// `sysconf(_SC_CLK_TCK)` without libc: Linux fixes USER_HZ at 100 on
/// every architecture the engine builds for.
fn clock_ticks_per_sec() -> f64 {
    100.0
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
#[must_use]
pub fn cpu_steal() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of host CPU time stolen by other guests since `since` (a
/// [`cpu_steal`] reading), or 0 when `/proc/stat` is unreadable.
#[must_use]
pub fn steal_since(since: Option<(f64, f64)>) -> f64 {
    match (since, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
        _ => 0.0,
    }
}

/// Median of `v` (mean of the middle two on even lengths); `NaN` when
/// empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(1000, &c, 10), Some(99.0));
        assert_eq!(highest_supported(999, &c, 10), Some(90.0));
        assert_eq!(highest_supported(10_000, &c, 10), Some(99.9));
        assert_eq!(highest_supported(100, &c, 10), Some(90.0));
        assert_eq!(highest_supported(15, &c, 10), None);
    }

    #[test]
    fn missing_requests_rank_as_infinitely_late() {
        let mut by_arrival: Vec<Option<f64>> = (1..=99).map(|i| Some(f64::from(i))).collect();
        by_arrival.push(None);
        let l = PhaseLatency { by_arrival };
        assert_eq!(l.percentile(99.0), 99.0);
        assert!(l.percentile(100.0).is_infinite());
    }

    /// Shaped like the measured 80 req/s overload: nothing shed, every
    /// request completes, latency climbs steadily across the phase.
    #[test]
    fn backlog_detector_fires_on_silent_overload() {
        let rising = PhaseLatency {
            by_arrival: (0..1000).map(|i| Some(30.0 + 1.3 * f64::from(i))).collect(),
        };
        assert!(rising.backlog_growth_ms() > 25.0);
        let steady = PhaseLatency {
            by_arrival: (0..1000).map(|i| Some(30.0 + f64::from(i % 17))).collect(),
        };
        assert!(steady.backlog_growth_ms() < 25.0);
    }

    /// A single FIFO server with deterministic service time `s` has
    /// capacity `1/s`; an open loop at a rate `r` below it sees latency
    /// `s`, above it a queue growing by `1/r - s` per arrival.
    fn single_server(qps: f64, service_ms: f64, n: usize) -> PhaseLatency {
        let gap = 1000.0 / qps;
        let mut free_at = 0.0f64;
        let by_arrival = (0..n)
            .map(|i| {
                let due = i as f64 * gap;
                let start = free_at.max(due);
                free_at = start + service_ms;
                Some(free_at - due)
            })
            .collect();
        PhaseLatency { by_arrival }
    }

    #[test]
    fn capacity_search_finds_a_known_single_server_capacity() {
        let service_ms = 2.0; // capacity 500 req/s
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        let cap = search_capacity(300.0, 0.2, 8, 3, 64, &limits, |qps| {
            let l = single_server(qps, service_ms, 2000);
            Probe {
                qps,
                p99_ms: l.percentile(99.0),
                error_frac: 0.0,
                growth_ms: l.backlog_growth_ms(),
            }
        });
        assert!(cap.pass_qps <= 500.0 && cap.fail_qps > 500.0, "{cap:?}");
        assert!((cap.qps - 500.0).abs() <= 0.05 * 500.0, "{cap:?}");
    }

    #[test]
    fn capacity_search_walks_down_from_an_overloaded_start() {
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        // Three times over capacity, and a probe limit the walk down
        // must not stop at.
        let cap = search_capacity(1600.0, 0.1, 2, 4, 64, &limits, |qps| {
            let l = single_server(qps, 2.0, 2000);
            Probe {
                qps,
                p99_ms: l.percentile(99.0),
                error_frac: 0.0,
                growth_ms: l.backlog_growth_ms(),
            }
        });
        assert!(cap.pass_qps > 0.0 && cap.pass_qps <= 500.0, "{cap:?}");
        assert!(cap.fail_qps > 500.0, "{cap:?}");
        assert!((cap.qps - 500.0).abs() <= 0.1 * 500.0, "{cap:?}");
    }

    /// Five times the start rate, far past the fixed steps up: the
    /// widening steps must still bracket it rather than report the
    /// walk's ceiling.
    #[test]
    fn capacity_search_brackets_a_capacity_far_above_its_start() {
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        let cap = search_capacity(100.0, 0.1, 3, 4, 64, &limits, |qps| {
            let l = single_server(qps, 2.0, 2000);
            Probe {
                qps,
                p99_ms: l.percentile(99.0),
                error_frac: 0.0,
                growth_ms: l.backlog_growth_ms(),
            }
        });
        assert!(cap.pass_qps <= 500.0 && cap.fail_qps > 500.0, "{cap:?}");
        assert!(cap.fail_qps.is_finite(), "{cap:?}");
        assert!((cap.qps - 500.0).abs() <= 0.1 * 500.0, "{cap:?}");
    }

    #[test]
    fn one_stalled_probe_barely_moves_the_capacity() {
        let service_ms = 2.0; // capacity 500 req/s
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        let search = |stalled: usize| {
            let mut calls = 0;
            search_capacity(300.0, 0.2, 8, 4, 64, &limits, |qps| {
                calls += 1;
                let l = single_server(qps, service_ms, 2000);
                Probe {
                    qps,
                    // A stall of the host adds a second to the tail.
                    p99_ms: l.percentile(99.0) + if calls == stalled { 1e3 } else { 0.0 },
                    error_frac: 0.0,
                    growth_ms: l.backlog_growth_ms(),
                }
            })
        };
        let clean = search(0);
        for stalled in 1..clean.probes.len() {
            let noisy = search(stalled);
            assert!(
                (noisy.qps - clean.qps).abs() <= 0.1 * clean.qps,
                "{noisy:?} vs {clean:?}"
            );
        }
    }

    /// A host so slow that every probe fails: the search must stop at
    /// its call budget, not walk on.
    #[test]
    fn capacity_search_stops_at_its_call_budget() {
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        let mut calls = 0;
        let cap = search_capacity(1e6, 1e-6, 5, 4, 7, &limits, |qps| {
            calls += 1;
            Probe {
                qps,
                p99_ms: 1e3,
                error_frac: 0.0,
                growth_ms: 0.0,
            }
        });
        assert_eq!(calls, 7);
        assert_eq!(cap.qps, 0.0);
    }

    #[test]
    fn errors_alone_fail_a_probe() {
        let limits = Limits {
            sla_ms: 20.0,
            max_error_frac: 0.01,
            backlog_margin_ms: 5.0,
        };
        let p = Probe {
            qps: 10.0,
            p99_ms: 1.0,
            error_frac: 0.02,
            growth_ms: 0.0,
        };
        assert!(!p.passes(&limits));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "p99_ms.heavy",
            "capacity_qps",
            "rpc.rtt_p50_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "p99 ms", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "GB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
