//! The traced run: per-layer metrics measured from outside the engine.
//!
//! 1. The heavy phase runs again with the RPC decorator recording; its
//!    frontend spans, RPC timings, transport counters and kernel
//!    dispatch counters give the frontend, `rpc`, `wire`, `cache` and
//!    `kernels.simd_frac` rows, and its p50 against the untraced heavy
//!    p50 gives the tracing overhead.
//! 2. A closed-loop replay runs pool requests one at a time through
//!    `run_overlapped` under the operator observer, with the decorator
//!    tagging each RPC with the replayed request: operator self times,
//!    the exposed RPC wait, and the shard requests to replay.
//! 3. Those shard requests are replayed through `ShardService::execute`
//!    (shard service time and SLS rate) and through the SLS kernel
//!    alone, against the speed-of-light probes.
//!
//! Every span of 2–3 shares the replayed request's id and is written
//! out as JSON lines when the run ends.

use crate::stats::{median, nearest_rank, Capacity, PhaseLatency};
use crate::tracing::{batch_groups, self_time, OpObserver, RpcRecord};
use crate::workloads::{Deployment, PhaseOutcome, Single, SLA_MS};
use dlrm_core::model::{OpGroup, Pool, Workspace};
use dlrm_core::runtime::{KernelDispatch, KernelStats, KernelSummary, SimdLevel};
use dlrm_core::serving::replica::TransportSummary;
use dlrm_core::sharding::rpc::ShardRequest;
use dlrm_core::trace::{RpcId, ServerId, Span, SpanKind, TraceCollector, TraceId};
use dlrm_core::workload::BatchInputs;
use std::time::Instant;

/// Requests replayed closed-loop for operator attribution.
const REPLAY: usize = 24;

/// One per-layer metric: name, value, unit, and — for metrics a
/// workload cannot produce — why.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Value (0 when absent).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Why the metric is absent on this workload.
    pub absent: Option<&'static str>,
}

fn present(name: &'static str, value: f64, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        value,
        unit,
        absent: None,
    }
}

fn absent(name: &'static str, unit: &'static str, why: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        value: 0.0,
        unit,
        absent: Some(why),
    }
}

/// What the traced heavy phase left behind.
pub struct TracedPhase {
    /// The phase itself.
    pub outcome: PhaseOutcome,
    /// Kernel dispatch counts over the phase.
    pub kernels: KernelSummary,
    /// Transport counters over the phase (TCP only).
    pub transport: Option<TransportSummary>,
    /// The decorator's records of the phase.
    pub rpcs: Vec<RpcRecord>,
}

/// Runs `phase` with every benchmark wrapper recording.
pub fn traced_phase(dep: &Deployment, run: impl FnOnce() -> PhaseOutcome) -> TracedPhase {
    let log = match dep {
        Deployment::Single(s) => s.log.clone(),
        Deployment::Coloc { .. } => None,
    };
    let t0 = dep.transport_summary();
    let k0 = KernelStats::global().summary();
    if let Some(l) = &log {
        l.set_recording(true);
    }
    let outcome = run();
    if let Some(l) = &log {
        l.set_recording(false);
    }
    let kernels = KernelStats::global().summary().since(&k0);
    let transport = match (t0, dep.transport_summary()) {
        (Some(a), Some(b)) => Some(delta(&a, &b)),
        _ => None,
    };
    TracedPhase {
        outcome,
        kernels,
        transport,
        rpcs: log.map(|l| l.take_records()).unwrap_or_default(),
    }
}

fn delta(a: &TransportSummary, b: &TransportSummary) -> TransportSummary {
    let mut d = b.clone();
    d.wire.frames_sent -= a.wire.frames_sent;
    d.wire.frames_received -= a.wire.frames_received;
    d.wire.bytes_sent -= a.wire.bytes_sent;
    d.wire.bytes_received -= a.wire.bytes_received;
    d.wire.serde_ns -= a.wire.serde_ns;
    d.rows_sent -= a.rows_sent;
    d
}

/// Per-request results of the closed-loop replay.
#[derive(Debug, Default)]
struct Replay {
    fc_ms: Vec<f64>,
    sls_ms: Vec<f64>,
    transform_ms: Vec<f64>,
    exposed_ms: Vec<f64>,
    fc_flops: f64,
    fc_total_ms: f64,
    rpc_rtt_ms: Vec<f64>,
    service_us: Vec<f64>,
    service_bytes: f64,
    service_s: f64,
    kernel_bytes: f64,
    kernel_s: f64,
    spans: TraceCollector,
}

/// FC FLOPs per item row of `s`'s model, from the tensor shapes of one
/// sequential pass over `inputs`.
fn fc_flops_per_row(s: &Single, inputs: &BatchInputs) -> Result<f64, String> {
    let mut ws = Workspace::new();
    inputs.load_into(&s.dist.spec, &mut ws);
    let mut flops = 0.0;
    for net in &s.dist.nets {
        for op in net.ops() {
            op.run(&mut ws).map_err(|e| e.to_string())?;
            if op.group() == OpGroup::Fc {
                let x = ws
                    .dense(&op.inputs()[0], "shape walk")
                    .map_err(|e| e.to_string())?;
                let y = ws
                    .dense(&op.outputs()[0], "shape walk")
                    .map_err(|e| e.to_string())?;
                flops += 2.0 * (x.rows() * x.cols() * y.cols()) as f64;
            }
        }
    }
    Ok(flops / inputs.batch_size() as f64)
}

fn sls_bytes(s: &Single, req: &ShardRequest) -> f64 {
    req.slices
        .iter()
        .map(|sl| (sl.indices.len() * s.dist.spec.tables[sl.table.0].dim as usize * 4) as f64)
        .sum()
}

fn replay(s: &Single, pool: &[BatchInputs]) -> Result<Replay, String> {
    let log = s.log.as_ref().expect("traced deployments carry a log");
    let per_row = fc_flops_per_row(s, &pool[0])?;
    let mut out = Replay::default();
    let origin = Instant::now();
    // The decorator's clock, read at the replay clock's zero.
    let log_zero = log.ms(origin);
    let mut rpc_seq = 0u64;
    for (i, inputs) in pool.iter().take(REPLAY).enumerate() {
        let id = i as u64;
        let mut ws = Workspace::new();
        inputs.load_into(&s.dist.spec, &mut ws);
        let mut obs = OpObserver::new(origin);
        log.set_request(Some(id));
        log.set_recording(true);
        let t0 = origin.elapsed().as_secs_f64() * 1e3;
        s.dist
            .run_overlapped(&mut ws, &mut obs)
            .map_err(|e| e.to_string())?;
        let t1 = origin.elapsed().as_secs_f64() * 1e3;
        log.set_recording(false);
        log.set_request(None);
        // Records land as RPCs finish; captures as they start. One
        // thread issued them all, so start order pairs the two.
        let mut rpcs = log.take_records();
        rpcs.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        let captured = log.take_captured();

        let sum = |groups: &[OpGroup]| -> f64 {
            obs.ops
                .iter()
                .filter(|o| !o.is_async && groups.contains(&o.group))
                .map(|o| o.ms)
                .sum()
        };
        let fc = sum(&[OpGroup::Fc]);
        out.fc_ms.push(fc);
        out.sls_ms.push(sum(&[OpGroup::Sls]));
        out.transform_ms.push(sum(&[
            OpGroup::TensorTransform,
            OpGroup::Activation,
            OpGroup::Other,
        ]));
        let sync: Vec<(f64, f64)> = obs
            .ops
            .iter()
            .filter(|o| !o.is_async)
            .map(|o| (o.end_ms - o.ms, o.end_ms))
            .collect();
        out.exposed_ms.push(self_time(t0, t1, &sync));
        out.fc_flops += per_row * inputs.batch_size() as f64;
        out.fc_total_ms += fc;

        let trace = TraceId(id);
        out.spans.record(Span {
            trace,
            server: ServerId::MAIN,
            kind: SpanKind::RequestE2E,
            start: t0,
            duration: t1 - t0,
            cpu: false,
        });
        for o in &obs.ops {
            out.spans.record(Span {
                trace,
                server: ServerId::MAIN,
                kind: match (o.is_async, o.group) {
                    (true, _) => SpanKind::NetOverhead,
                    (false, OpGroup::Sls) => SpanKind::SparseOp(None),
                    (false, _) => SpanKind::DenseOp,
                },
                start: o.end_ms - o.ms,
                duration: o.ms,
                cpu: !o.is_async,
            });
        }
        // RPC spans (re-based onto the replay clock) and the shard
        // service replay of each.
        for (r, req) in rpcs.iter().zip(&captured) {
            let rpc = RpcId(rpc_seq);
            rpc_seq += 1;
            let rtt = r.end_ms - r.start_ms;
            out.rpc_rtt_ms.push(rtt);
            let start = r.start_ms - log_zero;
            out.spans.record(Span {
                trace,
                server: ServerId::MAIN,
                kind: SpanKind::RpcOutstanding(rpc),
                start,
                duration: rtt,
                cpu: false,
            });
            let service = &s.dist.shards[r.shard];
            let ts = Instant::now();
            service.execute(req).map_err(|e| e.to_string())?;
            let svc = ts.elapsed().as_secs_f64();
            out.service_us.push(svc * 1e6);
            out.service_s += svc;
            out.service_bytes += sls_bytes(s, req);
            out.spans.record(Span {
                trace,
                server: ServerId::sparse(r.shard),
                kind: SpanKind::ShardService(rpc),
                start,
                duration: svc * 1e3,
                cpu: true,
            });
            // The SLS kernel alone, on whole (unpartitioned) tables.
            let seq = Pool::sequential();
            for sl in &req.slices {
                if s.plan.placement(sl.table).parts() != 1 {
                    continue;
                }
                let table = &s.tables[sl.table.0];
                let tk = Instant::now();
                std::hint::black_box(table.sparse_lengths_sum_par(&sl.indices, &sl.lengths, &seq));
                out.kernel_s += tk.elapsed().as_secs_f64();
                out.kernel_bytes += (sl.indices.len() * table.dim() * 4) as f64;
            }
        }
    }
    Ok(out)
}

/// Everything the traced run reports.
pub struct LayerInputs<'a> {
    /// The deployment.
    pub dep: &'a Deployment,
    /// Median p50 of the untraced light and heavy chunks, ms.
    pub p50_ms: (f64, f64),
    /// Median p99 of the same chunks, ms.
    pub p99_ms: (f64, f64),
    /// The traced heavy phase.
    pub traced: &'a TracedPhase,
    /// Pool inputs of the first tenant.
    pub pool: &'a [BatchInputs],
    /// The capacity search.
    pub capacity: &'a Capacity,
    /// Generator lateness p99 over the untraced phases, ms.
    pub late_p99_ms: f64,
}

/// Computes every per-layer metric, writing the replay's spans to
/// `trace_path`.
///
/// # Errors
///
/// Engine failures during replay, or the trace file not being writable.
pub fn per_layer(
    inp: LayerInputs<'_>,
    trace_path: &std::path::Path,
) -> Result<Vec<LayerMetric>, String> {
    let t = inp.traced;
    let o = &t.outcome;
    let mut m = vec![
        present("loadgen.late_p99_ms", inp.late_p99_ms, "ms"),
        present("tail.p50_ms.light", inp.p50_ms.0, "ms"),
        present("tail.p50_ms.heavy", inp.p50_ms.1, "ms"),
        present("tail.p99_ms.light", inp.p99_ms.0, "ms"),
        present("tail.p99_ms.heavy", inp.p99_ms.1, "ms"),
    ];

    let f = &o.frontend;
    m.push(present("frontend.queue_wait_ms", f.queue_wait_ms, "ms"));
    m.push(present("frontend.batch_wait_ms", f.batch_wait_ms, "ms"));
    m.push(present(
        "frontend.batch_wait_p99_ms",
        f.batch_wait_p99_ms,
        "ms",
    ));
    m.push(present("frontend.exec_ms", f.exec_ms, "ms"));
    m.push(present(
        "frontend.batch_requests",
        f.batch_requests,
        "count",
    ));
    m.push(present(
        "frontend.max_queue_depth",
        f.max_queue_depth,
        "count",
    ));
    m.push(present(
        "frontend.shed_frac",
        o.shed as f64 / o.offered.max(1) as f64,
        "frac",
    ));

    let single = match inp.dep {
        Deployment::Single(s) => Some(s),
        Deployment::Coloc { .. } => None,
    };
    const NO_DECORATOR: &str =
        "colocated tenants build their own in-process tiered clients; no decorator seam";
    let replay = match single {
        Some(s) => Some(replay(s, inp.pool)?),
        None => None,
    };

    // RPC fan-out, from the decorator over the traced heavy phase.
    if single.is_some() {
        let rtts: Vec<f64> = {
            let mut v: Vec<f64> = t.rpcs.iter().map(|r| r.end_ms - r.start_ms).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let n = t.rpcs.len().max(1) as f64;
        let slowest: Vec<f64> = batch_groups(&t.rpcs)
            .iter()
            .map(|g| g.iter().map(|r| r.end_ms - r.start_ms).fold(0.0, f64::max))
            .collect();
        m.push(present(
            "rpc.per_req",
            t.rpcs.len() as f64 / o.completed.max(1) as f64,
            "count",
        ));
        m.push(present(
            "rpc.rtt_p50_ms",
            nearest_rank(&rtts, 50.0).unwrap_or(0.0),
            "ms",
        ));
        m.push(present(
            "rpc.rtt_p99_ms",
            nearest_rank(&rtts, 99.0).unwrap_or(0.0),
            "ms",
        ));
        m.push(present(
            "rpc.slowest_ms",
            slowest.iter().sum::<f64>() / slowest.len().max(1) as f64,
            "ms",
        ));
        m.push(present(
            "rpc.lookups_per_rpc",
            t.rpcs.iter().map(|r| r.lookups as f64).sum::<f64>() / n,
            "count",
        ));
        m.push(present("rpc.retry_frac", o.rpc_retries as f64 / n, "frac"));
    } else {
        for (name, unit) in [
            ("rpc.per_req", "count"),
            ("rpc.rtt_p50_ms", "ms"),
            ("rpc.rtt_p99_ms", "ms"),
            ("rpc.slowest_ms", "ms"),
            ("rpc.lookups_per_rpc", "count"),
            ("rpc.retry_frac", "frac"),
        ] {
            m.push(absent(name, unit, NO_DECORATOR));
        }
    }

    // Wire, from the TCP transport's counters over the traced phase.
    match (&t.transport, &replay) {
        (Some(tr), Some(r)) => {
            let n = t.rpcs.len().max(1) as f64;
            m.push(present(
                "wire.bytes_per_rpc",
                (tr.wire.bytes_sent + tr.wire.bytes_received) as f64 / n,
                "B",
            ));
            m.push(present(
                "wire.serde_us_per_rpc",
                tr.wire.serde_ns as f64 / n / 1e3,
                "us",
            ));
            let rtt = r.rpc_rtt_ms.iter().sum::<f64>() / r.rpc_rtt_ms.len().max(1) as f64;
            let svc = r.service_us.iter().sum::<f64>() / r.service_us.len().max(1) as f64;
            m.push(present("wire.net_us_per_rpc", rtt * 1e3 - svc, "us"));
        }
        _ => {
            let why = if single.is_some() {
                "threaded transport: shard RPCs cross a channel, no wire"
            } else {
                NO_DECORATOR
            };
            for (name, unit) in [
                ("wire.bytes_per_rpc", "B"),
                ("wire.serde_us_per_rpc", "us"),
                ("wire.net_us_per_rpc", "us"),
            ] {
                m.push(absent(name, unit, why));
            }
        }
    }

    // Shard service and model, from the closed-loop replay.
    if let Some(r) = &replay {
        let mut svc = r.service_us.clone();
        svc.sort_by(f64::total_cmp);
        m.push(present(
            "shard.service_p50_us",
            nearest_rank(&svc, 50.0).unwrap_or(0.0),
            "us",
        ));
        m.push(present(
            "shard.service_p99_us",
            nearest_rank(&svc, 99.0).unwrap_or(0.0),
            "us",
        ));
        m.push(present(
            "shard.sls_gb_s",
            r.service_bytes / r.service_s.max(1e-12) / 1e9,
            "GB/s",
        ));
    } else {
        for (name, unit) in [
            ("shard.service_p50_us", "us"),
            ("shard.service_p99_us", "us"),
            ("shard.sls_gb_s", "GB/s"),
        ] {
            m.push(absent(name, unit, NO_DECORATOR));
        }
    }

    // Hot-row cache.
    let cached = o.cache_hits + o.cache_misses;
    match (&t.transport, cached > 0) {
        (Some(tr), true) => {
            m.push(present(
                "cache.hit_frac",
                o.cache_hits as f64 / cached as f64,
                "frac",
            ));
            let local = o.cache_local_rows as f64;
            m.push(present(
                "cache.local_row_frac",
                local / (local + tr.rows_sent as f64).max(1.0),
                "frac",
            ));
        }
        _ => {
            for name in ["cache.hit_frac", "cache.local_row_frac"] {
                m.push(absent(
                    name,
                    "frac",
                    "plan carries no hot rows, so no cache tier",
                ));
            }
        }
    }

    // Model operators.
    if let Some(r) = &replay {
        m.push(present("model.fc_ms", median(&r.fc_ms), "ms"));
        m.push(present("model.sls_ms", median(&r.sls_ms), "ms"));
        m.push(present("model.transform_ms", median(&r.transform_ms), "ms"));
        m.push(present("model.rpc_exposed_ms", median(&r.exposed_ms), "ms"));
    } else {
        for name in [
            "model.fc_ms",
            "model.sls_ms",
            "model.transform_ms",
            "model.rpc_exposed_ms",
        ] {
            m.push(absent(name, "ms", NO_DECORATOR));
        }
    }

    // Kernels against the speed-of-light probes.
    let stream = crate::sol::stream_read_gb_s();
    let (scalar, avx2, fma) = crate::sol::gemm_tiers();
    let peak = match KernelDispatch::detect().level() {
        SimdLevel::Scalar => scalar,
        SimdLevel::Avx2 => avx2.unwrap_or(scalar),
        SimdLevel::Avx2Fma => fma.unwrap_or(scalar),
    };
    if let Some(r) = &replay {
        let gflops = r.fc_flops / (r.fc_total_ms / 1e3).max(1e-12) / 1e9;
        m.push(present("kernels.gemm_gflops", gflops, "GFLOP/s"));
        m.push(present("kernels.gemm_frac_of_peak", gflops / peak, "frac"));
        let sls = r.kernel_bytes / r.kernel_s.max(1e-12) / 1e9;
        m.push(present("kernels.sls_gb_s", sls, "GB/s"));
        m.push(present("kernels.sls_frac_of_bw", sls / stream, "frac"));
    } else {
        for (name, unit) in [
            ("kernels.gemm_gflops", "GFLOP/s"),
            ("kernels.gemm_frac_of_peak", "frac"),
            ("kernels.sls_gb_s", "GB/s"),
            ("kernels.sls_frac_of_bw", "frac"),
        ] {
            m.push(absent(name, unit, NO_DECORATOR));
        }
    }
    m.push(present(
        "kernels.simd_frac",
        t.kernels.simd_fraction(),
        "frac",
    ));
    m.push(present("kernels.peak_gflops", peak, "GFLOP/s"));
    m.push(present("kernels.peak_gflops.scalar", scalar, "GFLOP/s"));
    const NO_TIER: &str = "the CPU lacks this SIMD tier";
    m.push(match avx2 {
        Some(v) => present("kernels.peak_gflops.avx2", v, "GFLOP/s"),
        None => absent("kernels.peak_gflops.avx2", "GFLOP/s", NO_TIER),
    });
    m.push(match fma {
        Some(v) => present("kernels.peak_gflops.fma", v, "GFLOP/s"),
        None => absent("kernels.peak_gflops.fma", "GFLOP/s", NO_TIER),
    });
    m.push(present("kernels.stream_gb_s", stream, "GB/s"));

    // Tenancy, from the benchmark's own pressure ticks.
    if let Deployment::Coloc { all_dram, .. } = inp.dep {
        let ticks = &o.ticks;
        let n = ticks.len().max(1) as f64;
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        m.push(present(
            "tenancy.tick_ms",
            ticks.iter().map(|t| t.ms).sum::<f64>() / n,
            "ms",
        ));
        m.push(present(
            "tenancy.cutovers",
            ticks.iter().map(|t| t.actions).sum::<usize>() as f64,
            "count",
        ));
        m.push(present(
            "tenancy.resident_frac",
            ticks.iter().map(|t| t.bytes.resident() as f64).sum::<f64>() / n / *all_dram as f64,
            "frac",
        ));
        m.push(present(
            "tenancy.quantized_mib",
            ticks.iter().map(|t| mib(t.bytes.quantized)).sum::<f64>() / n,
            "MiB",
        ));
        m.push(present(
            "tenancy.paged_mib",
            ticks.iter().map(|t| mib(t.bytes.paged)).sum::<f64>() / n,
            "MiB",
        ));
        let names = [
            "tenancy.rm1.p99_ms",
            "tenancy.rm2.p99_ms",
            "tenancy.rm3.p99_ms",
        ];
        let mut worst: f64 = 1.0;
        for (name, lat) in names.iter().zip(&o.tenant_latency) {
            m.push(present(name, lat.percentile(99.0), "ms"));
            worst = worst.min(sla_frac(lat, SLA_MS));
        }
        m.push(present("tenancy.worst_sla_frac", worst, "frac"));
    } else {
        const SOLO: &str = "one tenant, no DRAM pressure";
        for (name, unit) in [
            ("tenancy.tick_ms", "ms"),
            ("tenancy.cutovers", "count"),
            ("tenancy.resident_frac", "frac"),
            ("tenancy.quantized_mib", "MiB"),
            ("tenancy.paged_mib", "MiB"),
            ("tenancy.rm1.p99_ms", "ms"),
            ("tenancy.rm2.p99_ms", "ms"),
            ("tenancy.rm3.p99_ms", "ms"),
            ("tenancy.worst_sla_frac", "frac"),
        ] {
            m.push(absent(name, unit, SOLO));
        }
    }

    m.push(present("capacity.qps", inp.capacity.qps, "1/s"));
    m.push(present("capacity.pass_qps", inp.capacity.pass_qps, "1/s"));
    m.push(if inp.capacity.fail_qps.is_finite() {
        present("capacity.fail_qps", inp.capacity.fail_qps, "1/s")
    } else {
        absent("capacity.fail_qps", "1/s", "no probed rate failed")
    });
    let base = inp.p50_ms.1;
    m.push(present(
        "trace.overhead_frac",
        (o.latency.percentile(50.0) - base) / base,
        "frac",
    ));

    if let Some(r) = &replay {
        std::fs::write(trace_path, dlrm_core::trace::export::to_jsonl(&r.spans))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }
    Ok(m)
}

/// Share of `lat`'s offered requests that completed within `sla_ms`.
#[must_use]
pub fn sla_frac(lat: &PhaseLatency, sla_ms: f64) -> f64 {
    lat.count_within(sla_ms) as f64 / lat.by_arrival.len().max(1) as f64
}
