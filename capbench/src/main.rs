//! The repository's benchmark: latency-bounded capacity of the live
//! serving engine on three traffic mixes.
//!
//! ```text
//! cargo run --release --offline --manifest-path capbench/Cargo.toml -- \
//!     --workload rm1_tcp_skew --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run of one workload:
//!
//! 1. generates the workload's request pool from `--seed` (the only
//!    thing the seed drives);
//! 2. sets the deployment up several times — build, plan (with row
//!    profiling), shard services, transport, partition, warm-up — and
//!    keeps the last (more set-ups follow the traffic; `setup_s` is the
//!    median of all);
//! 3. offers seeded open-loop Poisson traffic at the frozen `light` and
//!    `heavy` rates. Latency runs from each request's *due* time to the
//!    end of its `RequestE2E` span, so a stalled generator counts
//!    against the system;
//! 4. with `--trace 1`, also searches for the highest rate whose p99
//!    meets the SLA with ≤ 1% errors and no growing backlog, reruns the
//!    heavy phase with the benchmark's wrappers recording, and replays
//!    requests closed-loop for operator and shard attribution (see
//!    `layers`). The capacity is a per-layer figure, not a bounded one:
//!    on a shared host, other guests' CPU steal moves it by a fifth or
//!    more between runs of the same code;
//! 5. tears the deployment down and checks every prediction against a
//!    reference, and every phase's accounting identities.
//!
//! The last line of stdout is the result JSON; lines before it name the
//! host and any per-layer metric a workload cannot produce. A run whose
//! outputs or accounting are wrong prints no result and exits 1.

mod layers;
mod sol;
mod stats;
mod tracing;
mod workloads;

use stats::{median, search_capacity, Limits, Probe};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Deployment, Kind, PhaseOutcome, Traffic};

/// Set-ups per run, in two equal batches (before the traffic and after
/// it, so one slow stretch of a shared host cannot hold every sample):
/// each batch has at least `SETUP_REPS / 2` set-ups, and more until
/// `SETUP_SECONDS / 2` have gone on it, so a set-up of a few
/// milliseconds is timed as often as its noise needs. `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 6;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest requests in a measured phase: a p99 then has ≥ 10 samples
/// beyond it.
const MIN_PHASE: usize = 1000;
/// Chunks the heavy rate is measured in. Heavy carries the bounded
/// figures (`sla_frac.heavy`, `cpu_ms_per_req`); light, with only
/// per-layer ones, runs as one chunk.
const HEAVY_CHUNKS: usize = 7;
/// Requests of the untimed open-loop phase before the first measured one.
const WARM_PHASE: usize = 300;
/// Shares of `--seconds` spent on the light phase, the heavy phase, and
/// each capacity probe. A probe's request count follows the rate probed,
/// so every probe lasts the same time and the search's length is set by
/// `SEARCH_CALLS`, however slow the host.
const LIGHT_SHARE: f64 = 0.1;
const HEAVY_SHARE: f64 = 0.06;
const PROBE_SHARE: f64 = 0.075;
/// Share of `--seconds` each capacity probe offers before its measured
/// part, at the probed rate. A probe starts from an idle engine, and
/// near capacity its queue takes a while to reach its steady depth: the
/// backlog detector would read that climb as growth and fail a rate the
/// engine sustains.
const PROBE_LEAD_SHARE: f64 = 0.025;
/// Capacity search: step between coarse probes (share of the start
/// rate), most coarse rates on the way up, fine probes around the
/// bracket, and most probes in all (repeats included).
const SEARCH_STEP: f64 = 0.08;
const SEARCH_PROBES: usize = 5;
const SEARCH_FINE: usize = 4;
const SEARCH_CALLS: usize = 14;
/// Largest (shed + failed + degraded) share a sustainable rate may have.
const MAX_ERROR_FRAC: f64 = 0.01;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one run produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    late_p99_ms: f64,
    steal_frac: f64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            println!("{}", host_line(r.late_p99_ms, r.steal_frac));
            for n in &r.notes {
                println!("{n}");
            }
            println!("{}", result_json(&r));
        }
        Err(e) => {
            eprintln!("capbench: FAIL: {e}");
            std::process::exit(1);
        }
    }
}

/// Scratch and trace output, inside the checkout.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("capbench/out");
    std::fs::create_dir_all(dir.join("tmp"))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<RunResult, String> {
    let out = out_dir()?;
    // The paged storage tier spills tables to the temp directory; keep
    // it inside the checkout. Set before any thread starts.
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(out.join("tmp")).map_err(|e| e.to_string())?,
    );

    let steal0 = stats::cpu_steal();
    let kind = args.kind;
    let rates = kind.rates();
    let traffic = Traffic::generate(kind, args.seed);

    let mut setups = Vec::new();
    let dep = set_up(kind, &traffic, args.trace, &mut setups)?;

    let count = |qps: f64, share: f64| MIN_PHASE.max((qps * share * args.seconds).ceil() as usize);
    let mut next_id = 0u64;
    let mut phase_tag = 0u64;
    let mut run_phase = |qps: f64, n: usize| -> PhaseOutcome {
        phase_tag += 1;
        let input = traffic.phase(phase_tag, qps, n, next_id);
        next_id += n as u64 + 16;
        let o = dep.run_phase(input);
        eprintln!(
            "capbench: phase {phase_tag} {qps:.0}/s p50 {:.2} ms p99 {:.2} ms steal {:.3}",
            o.latency.percentile(50.0),
            o.latency.percentile(99.0),
            o.steal_frac
        );
        o
    };

    // Untimed: the first open-loop traffic after set-up pays one-off
    // costs (worker buffer pools, lazily grown connection pools, page
    // mappings) that no later phase sees.
    let warm = run_phase(rates.heavy, WARM_PHASE);
    // The heavy rate runs as chunks interleaved over the run (the last
    // after the light phase and any capacity search, the rest before),
    // each chunk large enough for its own p99. Its figures are its
    // chunks' median, so one slow stretch of a shared host moves one
    // chunk, not the result.
    let light_n = count(rates.light, LIGHT_SHARE);
    let heavy_n = count(rates.heavy, HEAVY_SHARE);
    let mut heavy = Vec::with_capacity(HEAVY_CHUNKS);
    for _ in 0..HEAVY_CHUNKS - 1 {
        heavy.push(run_phase(rates.heavy, heavy_n));
    }
    let mut probes: Vec<PhaseOutcome> = Vec::new();
    let limits = Limits {
        sla_ms: workloads::SLA_MS,
        max_error_frac: MAX_ERROR_FRAC,
        backlog_margin_ms: workloads::BACKLOG_MARGIN_MS,
    };
    let capacity = args.trace.then(|| {
        search_capacity(
            rates.search_start,
            SEARCH_STEP,
            SEARCH_PROBES,
            SEARCH_FINE,
            SEARCH_CALLS,
            &limits,
            |qps| {
                let lead = (qps * PROBE_LEAD_SHARE * args.seconds).ceil() as usize;
                let o = run_phase(qps, lead + count(qps, PROBE_SHARE));
                let measured = o.latency.after(lead);
                let p = Probe {
                    qps,
                    p99_ms: measured.percentile(99.0),
                    error_frac: o.error_frac(),
                    growth_ms: measured.backlog_growth_ms(),
                };
                eprintln!(
                    "capbench: probe {qps:.1}/s p99 {:.2} ms errors {:.4} backlog growth {:.2} ms -> {}",
                    p.p99_ms,
                    p.error_frac,
                    p.growth_ms,
                    if p.passes(&limits) { "pass" } else { "fail" }
                );
                probes.push(o);
                p
            },
        )
    });

    let light = vec![run_phase(rates.light, light_n)];
    heavy.push(run_phase(rates.heavy, heavy_n));

    let mut late: Vec<f64> = light
        .iter()
        .chain(&heavy)
        .flat_map(|p| &p.late_ms)
        .chain(probes.iter().flat_map(|p| &p.late_ms))
        .copied()
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99_ms = stats::nearest_rank(&late, 99.0).unwrap_or(0.0);

    let mut notes = Vec::new();
    let traced = args.trace.then(|| {
        let n = count(rates.heavy, HEAVY_SHARE);
        layers::traced_phase(&dep, || run_phase(rates.heavy, n))
    });
    let layer_metrics = if let (Some(traced), Some(capacity)) = (&traced, &capacity) {
        let path = out.join(format!("trace-{}-{}.jsonl", kind.name(), args.seed));
        let m = layers::per_layer(
            layers::LayerInputs {
                dep: &dep,
                p50_ms: (
                    median_of(&light, |l| l.latency.percentile(50.0)),
                    median_of(&heavy, |h| h.latency.percentile(50.0)),
                ),
                p99_ms: (
                    median_of(&light, |l| l.latency.percentile(99.0)),
                    median_of(&heavy, |h| h.latency.percentile(99.0)),
                ),
                traced,
                pool: &traffic.pools[0],
                capacity,
                late_p99_ms,
            },
            &path,
        )?;
        if path.exists() {
            notes.push(format!("trace: {}", path.display()));
        }
        Some(m)
    } else {
        None
    };
    let single_plan = match &dep {
        Deployment::Single(s) => Some(s.plan.clone()),
        Deployment::Coloc { .. } => None,
    };
    dep.shutdown();
    set_up(kind, &traffic, args.trace, &mut setups)?.shutdown();
    eprintln!(
        "capbench: {} set-ups, median {:.4} s",
        setups.len(),
        median(&setups)
    );

    // Correctness: accounting identities, then every prediction.
    let mut phases: Vec<(&str, &PhaseOutcome)> = vec![("warm-up", &warm)];
    phases.extend(light.iter().map(|l| ("light", l)));
    phases.extend(heavy.iter().map(|h| ("heavy", h)));
    phases.extend(probes.iter().map(|p| ("probe", p)));
    phases.extend(traced.iter().map(|t| ("traced heavy", &t.outcome)));
    let reference = workloads::reference(&traffic, single_plan.as_ref())?;
    let tol = workloads::tolerance(kind);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (name, p) in &phases {
        if let Some(v) = p.violations.first() {
            return Err(format!("{name} phase at {:.1}/s: {v}", p.qps));
        }
        let reported = *name != "warm-up";
        if reported
            && stats::highest_supported(p.offered as usize, &[50.0, 90.0, 99.0], 10) != Some(99.0)
        {
            return Err(format!(
                "{name} phase: {} requests cannot support a p99",
                p.offered
            ));
        }
        attempted += p.offered;
        failed += p.failed;
        for (t, k, pred) in &p.predictions {
            let want = &reference[*t][*k];
            let ok = if tol == 0.0 {
                let bits = |m: &dlrm_core::tensor::Matrix| {
                    m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                bits(pred) == bits(want)
            } else {
                pred.max_abs_diff(want) <= tol
            };
            if !ok {
                return Err(format!(
                    "{name} phase: {} prediction for pool entry {k} differs from the reference by {}",
                    traffic.specs[*t].0,
                    pred.max_abs_diff(want)
                ));
            }
        }
    }

    let metrics = match layer_metrics {
        Some(layer) => {
            for m in &layer {
                if let Some(why) = m.absent {
                    notes.push(format!("absent on {}: {} ({why})", kind.name(), m.name));
                }
            }
            layer
                .into_iter()
                .map(|m| Metric {
                    name: m.name,
                    value: m.value,
                    unit: m.unit,
                })
                .collect()
        }
        None => end_to_end(&light, &heavy, median(&setups)),
    };
    // A p99 that lands on a shed request is unbounded, and JSON has no
    // infinity: such a metric reads 0, with a note saying why.
    let metrics = metrics
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                m
            } else {
                notes.push(format!("not finite on {}: {}", kind.name(), m.name));
                Metric { value: 0.0, ..m }
            }
        })
        .collect();
    Ok(RunResult {
        steal_frac: stats::steal_since(steal0),
        attempted,
        failed,
        metrics,
        notes,
        late_p99_ms,
    })
}

/// One batch of set-ups of `kind`: builds it at least `SETUP_REPS / 2`
/// times and until `SETUP_SECONDS / 2` have gone on it, appending each
/// set-up's time to `times`, and returns the last deployment.
fn set_up(
    kind: Kind,
    traffic: &Traffic,
    trace: bool,
    times: &mut Vec<f64>,
) -> Result<Deployment, String> {
    let start = times.len();
    let mut dep: Option<Deployment> = None;
    while times.len() - start < SETUP_REPS / 2
        || times[start..].iter().sum::<f64>() < SETUP_SECONDS / 2.0
    {
        if let Some(d) = dep.take() {
            d.shutdown();
        }
        let t = Instant::now();
        dep = Some(Deployment::build(kind, traffic, trace)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(dep.expect("at least one set-up"))
}

fn end_to_end(light: &[PhaseOutcome], heavy: &[PhaseOutcome], setup_s: f64) -> Vec<Metric> {
    let sum = |f: fn(&PhaseOutcome) -> u64| light.iter().chain(heavy).map(f).sum::<u64>();
    let errors = sum(|p| p.shed + p.failed + p.degraded);
    let offered = sum(|p| p.offered).max(1);
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric(
            "sla_frac.heavy",
            median_of(heavy, |h| h.sla_hits as f64 / h.offered.max(1) as f64),
            "frac",
        ),
        metric("served_frac", 1.0 - errors as f64 / offered as f64, "frac"),
        metric(
            "cpu_ms_per_req",
            median(
                &least_stolen(heavy)
                    .iter()
                    .map(|h| h.cpu_ms / h.completed.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0), "MiB"),
    ]
}

/// The half of `phases` (rounded up) during which other guests stole
/// the least host CPU. On a shared host a process's CPU time per request
/// rises with the steal around it (`rm1_tcp_skew` on the 2-core
/// reference host: 3.3 ms at 0.5% steal, 3.9 ms at 23%), so a CPU
/// figure is read where the host interfered least.
fn least_stolen(phases: &[PhaseOutcome]) -> Vec<&PhaseOutcome> {
    let mut by_steal: Vec<&PhaseOutcome> = phases.iter().collect();
    by_steal.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
    by_steal.truncate(phases.len().div_ceil(2));
    by_steal
}

/// Median of `f` over `phases`.
fn median_of(phases: &[PhaseOutcome], f: impl Fn(&PhaseOutcome) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// The host fingerprint every result carries. `steal_frac` is the share
/// of host CPU time stolen by other guests during the run — the noise a
/// shared machine adds, which no process counter shows.
fn host_line(late_p99_ms: f64, steal_frac: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "host: {{\"cores\": {cores}, \"simd\": \"{}\", \"DLRM_THREADS\": \"{}\", \"DLRM_SIMD\": \"{}\", \"loadgen.late_p99_ms\": {}, \"steal_frac\": {}}}",
        dlrm_core::runtime::KernelDispatch::detect().level().name(),
        env("DLRM_THREADS"),
        env("DLRM_SIMD"),
        json_number(late_p99_ms),
        json_number(steal_frac),
    )
}

/// `v` as a JSON number; a negative zero reads as 0.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "{v} has no JSON form");
    format!("{}", v + 0.0)
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            assert!(
                stats::valid_metric_name(m.name) && stats::valid_unit(m.unit),
                "metric {} / unit {} breaks the grammar",
                m.name,
                m.unit
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}
