//! The three workloads: what model, placement and transport each
//! deploys, the traffic the seed generates for it, how one open-loop
//! phase runs against it, and the reference its outputs are checked
//! against.
//!
//! Only the traffic depends on the seed. Model weights, row profiling
//! and plans use fixed seeds: they are the engine's configuration, not
//! its input.

use crate::stats::PhaseLatency;
use crate::tracing::{RpcLog, TimedClient};
use dlrm_core::model::graph::NoopObserver;
use dlrm_core::model::{build_model, rm, EmbeddingTable, ModelSpec, Workspace};
use dlrm_core::serving::fault::FaultPlan;
use dlrm_core::serving::frontend::{run_frontend, FrontendConfig, FrontendReport, FrontendRequest};
use dlrm_core::serving::replica::{HealthPolicy, TransportSummary};
use dlrm_core::serving::shard_server::TcpShardPool;
use dlrm_core::serving::tenancy::{
    run_tenant_set, PressureConfig, TenancyRunConfig, TenantSet, TenantSpec, TenantWorkload,
    TierBytes,
};
use dlrm_core::serving::threaded::ThreadedShardPool;
use dlrm_core::sharding::{
    partition, partition_with_clients, plan, plan_with_stats, DistributedModel, HotRowConfig,
    ShardService, ShardingPlan, ShardingStrategy,
};
use dlrm_core::sim::SimRng;
use dlrm_core::tensor::Matrix;
use dlrm_core::trace::SpanKind;
use dlrm_core::workload::{
    materialize_request_with, ArrivalSchedule, BatchInputs, IndexDist, PoolingProfile, RowStats,
    TraceDb,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every model's weights (engine configuration).
const MODEL_SEED: u64 = 0x00c0_ffee;
/// Seed of the offline row profiling the hot-row plan is built from.
const PROFILE_SEED: u64 = 0x0070_f11e;
/// Sampled accesses per table for row profiling.
const PROFILE_SAMPLES: usize = 4_000;
/// Sparse shards of every deployment.
const SHARDS: usize = 2;
/// Frontend worker threads (one per core of the reference host).
const WORKERS: usize = 2;
/// Admission-queue slots: deep enough that no phase sheds, so overload
/// shows as latency (the backlog detector), not as refusals.
const QUEUE_CAPACITY: usize = 1 << 14;
/// Batch-size cap and formation deadline (the frontend's defaults).
const MAX_BATCH_REQUESTS: usize = 8;
const BATCH_TIMEOUT: Duration = Duration::from_millis(2);
/// Distinct request inputs the seed generates per model; each offered
/// request draws one, so every output can be checked against a
/// reference computed once per input. Request sizes are lognormal, so
/// a pool this large keeps one seed's mean request cost within a few
/// percent of another's (256 let it differ by ≈ 10%).
const POOL: usize = 1024;
/// Requests each frontend worker runs sequentially through a fresh
/// deployment before set-up ends, so every connection concurrent
/// batches use is open; the untimed open-loop warm-up phase warms the
/// rest. Kept few: each is a round trip of thread hand-offs, whose time
/// on a shared host follows other guests' CPU steal more than the
/// engine's set-up work (on the 2-core reference host, 16 made
/// `rm3_inproc`'s `setup_s` two-thirds warm-up, and its median over a
/// run vary 0.03–0.07 s with the steal).
const WARMUP: usize = 4;

/// RM1 for `rm1_tcp_skew`: tables scaled to 256 MiB, far beyond any
/// cache.
const RM1_BYTES: u64 = 256 << 20;
/// Mean items per request of the RM1/RM2 models and colocated RM3.
const ITEMS: f64 = 4.0;
/// Share of the RM1/RM2 pooling factors kept.
const POOLING_SCALE: f64 = 1.0 / 16.0;
/// Hidden-layer narrowing of the RM1/RM2 MLPs. At full width one
/// request costs ≈ 25 ms of CPU on the reference host, most of it
/// streaming the top MLP's weights behind the 186-way dot interaction;
/// a phase of ≥ 1000 requests at 30% of capacity would then outlast a
/// run. Narrowed 16×, the sparse side (fan-out, wire, shard SLS) stays
/// on the critical path.
const MLP_NARROWING: usize = 16;
/// Zipf exponent of RM1 row popularity.
const RM1_SKEW: f64 = 0.8;
/// Mean items per `rm3_inproc` request: about 1 ms of work each, so
/// the frontend sees thousands of arrivals per second.
const RM3_ITEMS: f64 = 10.0;
/// Scale of every `rm3_inproc` and `coloc_pressure` model.
const SMALL_BYTES: u64 = 1 << 20;
/// How far below the all-DRAM footprint the tight budget sits, as a
/// share of that footprint.
const TIGHT_SHARE: f64 = 0.9;
/// The DRAM budget flips between tight and unconstrained this often.
const FLIP_EVERY: Duration = Duration::from_millis(400);
/// The benchmark's pressure-controller tick period.
const TICK_EVERY: Duration = Duration::from_millis(50);

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// RM1 at 256 MiB, Zipf rows, hot-row plan + cache, TCP loopback.
    Rm1TcpSkew,
    /// RM3 at 1 MiB, uniform rows, capacity-balanced, threaded shards.
    Rm3Inproc,
    /// RM1 + RM2 + RM3 at 1 MiB colocated under flipping DRAM pressure.
    ColocPressure,
}

/// Frozen rates and limits of a workload, measured once on the
/// reference host (2 cores) and fixed so runs stay comparable.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// `light` offered rate, requests/s (≈ 15–25% of capacity on a
    /// quiet host).
    pub light: f64,
    /// `heavy` offered rate, requests/s (≈ 30–40% of capacity: nearer
    /// the knee, latency on a shared host tracks other guests' CPU
    /// steal more than the engine).
    pub heavy: f64,
    /// Where the capacity search starts, requests/s: just below the
    /// capacity measured on a quiet host, so the walk brackets it in a
    /// step or two.
    pub search_start: f64,
}

/// p99 latency limit of every workload, ms.
pub const SLA_MS: f64 = 200.0;
/// Backlog margin of every workload: how far a phase's last-quarter
/// median latency may exceed its first quarter's, ms.
pub const BACKLOG_MARGIN_MS: f64 = 50.0;

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Rm1TcpSkew, Kind::Rm3Inproc, Kind::ColocPressure];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rm1TcpSkew => "rm1_tcp_skew",
            Kind::Rm3Inproc => "rm3_inproc",
            Kind::ColocPressure => "coloc_pressure",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The frozen rates.
    #[must_use]
    pub fn rates(self) -> Rates {
        match self {
            Kind::Rm1TcpSkew => Rates {
                light: 150.0,
                heavy: 250.0,
                search_start: 800.0,
            },
            Kind::Rm3Inproc => Rates {
                light: 550.0,
                heavy: 800.0,
                search_start: 2400.0,
            },
            Kind::ColocPressure => Rates {
                light: 400.0,
                heavy: 620.0,
                search_start: 1500.0,
            },
        }
    }

    /// The models this workload serves, one per tenant.
    fn specs(self) -> Vec<(&'static str, ModelSpec)> {
        match self {
            Kind::Rm1TcpSkew => {
                let mut spec = rm::rm1().scaled_to_bytes(RM1_BYTES);
                spec.mean_items_per_request = ITEMS;
                shrink_two_net(&mut spec);
                vec![("rm1", spec)]
            }
            Kind::Rm3Inproc => {
                let mut spec = rm::rm3().scaled_to_bytes(SMALL_BYTES);
                spec.mean_items_per_request = RM3_ITEMS;
                vec![("rm3", spec)]
            }
            Kind::ColocPressure => [("rm1", rm::rm1()), ("rm2", rm::rm2()), ("rm3", rm::rm3())]
                .into_iter()
                .map(|(name, base)| {
                    let mut spec = base.scaled_to_bytes(SMALL_BYTES);
                    spec.mean_items_per_request = ITEMS;
                    if name != "rm3" {
                        shrink_two_net(&mut spec);
                    }
                    (name, spec)
                })
                .collect(),
        }
    }

    fn index_dist(self) -> IndexDist {
        match self {
            Kind::Rm1TcpSkew => IndexDist::Zipf(RM1_SKEW),
            _ => IndexDist::Uniform,
        }
    }
}

/// Cuts a two-net (RM1/RM2-shaped) model's request cost: pooling by
/// [`POOLING_SCALE`], every hidden MLP layer by [`MLP_NARROWING`]
/// (each stack keeps its output width).
fn shrink_two_net(spec: &mut ModelSpec) {
    for t in &mut spec.tables {
        t.pooling_factor *= POOLING_SCALE;
    }
    for net in &mut spec.nets {
        for mlp in [&mut net.bottom_mlp, &mut net.top_mlp] {
            let hidden = mlp.len() - 1;
            for w in &mut mlp[..hidden] {
                *w /= MLP_NARROWING;
            }
        }
    }
}

/// The seed-generated inputs: a pool of distinct requests per tenant.
#[derive(Debug)]
pub struct Traffic {
    seed: u64,
    /// Model spec per tenant.
    pub specs: Vec<(&'static str, ModelSpec)>,
    /// Distinct request inputs per tenant.
    pub pools: Vec<Vec<BatchInputs>>,
}

impl Traffic {
    /// Generates the request pools for `kind` from `seed`.
    #[must_use]
    pub fn generate(kind: Kind, seed: u64) -> Self {
        let specs = kind.specs();
        let pools = specs
            .iter()
            .enumerate()
            .map(|(t, (_, spec))| {
                let tseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64;
                let db = TraceDb::generate(spec, POOL, tseed);
                (0..POOL)
                    .map(|i| {
                        materialize_request_with(
                            spec,
                            db.get(i),
                            usize::MAX,
                            tseed ^ 0x5a5a,
                            kind.index_dist(),
                        )
                        .into_iter()
                        .next()
                        .expect("a request has at least one item")
                    })
                    .collect()
            })
            .collect();
        Self { seed, specs, pools }
    }

    /// One phase's offered traffic: `n` requests in total at `qps` in
    /// total, split evenly over the tenants, ids from `first_id`. The
    /// `phase` tag makes every phase's draws independent.
    #[must_use]
    pub fn phase(&self, phase: u64, qps: f64, n: usize, first_id: u64) -> PhaseInput {
        let tenants = self.pools.len();
        let per = n.div_ceil(tenants);
        let mut next_id = first_id;
        let per_tenant = self
            .pools
            .iter()
            .enumerate()
            .map(|(t, pool)| {
                let stream = self.seed ^ (phase << 8) ^ t as u64;
                let mut rng = SimRng::seed_from(stream).fork(0xd1ce);
                let picks: Vec<usize> = (0..per)
                    .map(|_| rng.next_u64_below(pool.len() as u64) as usize)
                    .collect();
                let requests = picks
                    .iter()
                    .map(|&k| {
                        let id = next_id;
                        next_id += 1;
                        FrontendRequest {
                            id,
                            inputs: pool[k].clone(),
                        }
                    })
                    .collect::<Vec<_>>();
                let schedule = ArrivalSchedule::poisson(per, qps / tenants as f64, stream);
                TenantInput {
                    first_id: requests[0].id,
                    requests,
                    schedule,
                    picks,
                }
            })
            .collect();
        PhaseInput { qps, per_tenant }
    }
}

/// One tenant's share of a phase.
#[derive(Debug)]
pub struct TenantInput {
    first_id: u64,
    requests: Vec<FrontendRequest>,
    schedule: ArrivalSchedule,
    /// Pool index of each request, in id order.
    picks: Vec<usize>,
}

/// One phase's offered traffic.
#[derive(Debug)]
pub struct PhaseInput {
    qps: f64,
    per_tenant: Vec<TenantInput>,
}

/// Frontend-layer figures of one phase, over completed requests.
#[derive(Debug, Clone, Default)]
pub struct FrontendFigures {
    /// Mean admission-queue wait, ms.
    pub queue_wait_ms: f64,
    /// Mean wait from batcher pickup to execution start, ms.
    pub batch_wait_ms: f64,
    /// p99 of the same wait, ms.
    pub batch_wait_p99_ms: f64,
    /// Mean batch execution time, ms.
    pub exec_ms: f64,
    /// Mean requests per executed batch.
    pub batch_requests: f64,
    /// Admission-queue high-water mark.
    pub max_queue_depth: f64,
}

/// One DRAM-pressure tick as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Duration of `pressure_tick`, ms.
    pub ms: f64,
    /// Tier transitions it published.
    pub actions: usize,
    /// Bytes by tier after it.
    pub bytes: TierBytes,
}

/// Everything measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Offered rate.
    pub qps: f64,
    /// Due-time latency of every offered request, arrival order.
    pub latency: PhaseLatency,
    /// The same, per tenant.
    pub tenant_latency: Vec<PhaseLatency>,
    /// Generator lateness (enqueue − due) per offered request, ms.
    pub late_ms: Vec<f64>,
    /// Admission accounting.
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub completed: u64,
    pub failed: u64,
    pub degraded: u64,
    /// Completed and degraded-free requests within the SLA, per the
    /// due-time clock.
    pub sla_hits: u64,
    /// Accounting identities that did not hold.
    pub violations: Vec<String>,
    /// `(tenant, pool index, prediction)` of every completed request.
    pub predictions: Vec<(usize, usize, Matrix)>,
    /// Frontend-layer figures.
    pub frontend: FrontendFigures,
    /// Hot-row cache and retry counters of the frontend report.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_local_rows: u64,
    pub rpc_retries: u64,
    /// Process CPU time over the phase, ms.
    pub cpu_ms: f64,
    /// Share of host CPU time other guests stole during the phase.
    pub steal_frac: f64,
    /// Pressure ticks during the phase.
    pub ticks: Vec<Tick>,
    /// `(due, latency)` of every offered request, due-time order.
    due_order: Vec<(f64, Option<f64>)>,
}

impl PhaseOutcome {
    /// (shed + failed + degraded) / offered.
    #[must_use]
    pub fn error_frac(&self) -> f64 {
        (self.shed + self.failed + self.degraded) as f64 / self.offered.max(1) as f64
    }
}

enum Transport {
    Tcp(TcpShardPool),
    Threaded(ThreadedShardPool),
}

/// One model served over a sharded transport.
pub struct Single {
    /// The partitioned model the frontend serves.
    pub dist: DistributedModel,
    /// The model's tables (for kernel-level replay).
    pub tables: Vec<Arc<EmbeddingTable>>,
    /// The plan (for the reference).
    pub plan: ShardingPlan,
    transport: Transport,
    /// The RPC decorator's log, when tracing.
    pub log: Option<Arc<RpcLog>>,
}

/// A deployed workload.
pub enum Deployment {
    /// One model.
    Single(Box<Single>),
    /// Colocated tenants.
    Coloc {
        /// The tenants.
        set: TenantSet,
        /// Their all-DRAM footprint.
        all_dram: u64,
    },
}

impl Deployment {
    /// Builds, plans, spawns, partitions and warms `kind`'s deployment.
    /// With `trace`, every shard client is wrapped in the decorator.
    ///
    /// # Errors
    ///
    /// Any build, plan, spawn or warm-up failure.
    pub fn build(kind: Kind, traffic: &Traffic, trace: bool) -> Result<Self, String> {
        if kind == Kind::ColocPressure {
            return build_coloc(traffic);
        }
        let spec = &traffic.specs[0].1;
        let model = build_model(spec, MODEL_SEED).map_err(|e| e.to_string())?;
        let profile = PoolingProfile::from_spec(spec);
        let plan = match kind {
            Kind::Rm1TcpSkew => plan_with_stats(
                spec,
                &profile,
                ShardingStrategy::HotRowAware(SHARDS),
                &RowStats::for_spec(spec, PROFILE_SAMPLES, RM1_SKEW, PROFILE_SEED),
                &HotRowConfig::default(),
            ),
            _ => plan(spec, &profile, ShardingStrategy::CapacityBalanced(SHARDS)),
        }
        .map_err(|e| e.to_string())?;
        let services: Vec<Arc<ShardService>> = plan
            .shards()
            .map(|s| Arc::new(ShardService::build(&model.tables, &plan, s)))
            .collect();
        let (transport, clients) = if kind == Kind::Rm1TcpSkew {
            let pool = TcpShardPool::spawn(
                services.clone(),
                1,
                Duration::ZERO,
                &FaultPlan::none(),
                HealthPolicy::default(),
            )
            .map_err(|e| format!("spawn TCP shards: {e}"))?;
            let clients = pool.clients();
            (Transport::Tcp(pool), clients)
        } else {
            let pool = ThreadedShardPool::spawn(services.clone());
            let clients = pool.clients();
            (Transport::Threaded(pool), clients)
        };
        let log = trace.then(RpcLog::new);
        let clients = match &log {
            Some(log) => TimedClient::wrap_all(clients, log),
            None => clients,
        };
        let tables = model.tables.clone();
        let dist =
            partition_with_clients(model, &plan, services, clients).map_err(|e| e.to_string())?;
        if let (Some(cache), Transport::Tcp(pool)) = (&dist.cache, &transport) {
            pool.attach_cache(Arc::clone(cache));
        }
        let single = Single {
            dist,
            tables,
            plan,
            transport,
            log,
        };
        // One warm-up stream per frontend worker, concurrently, so the
        // transport opens the connections concurrent batches will use.
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let dist = &single.dist;
                    s.spawn(move || {
                        traffic.pools[0]
                            .iter()
                            .skip(w * WARMUP)
                            .take(WARMUP)
                            .try_for_each(|inputs| predict(dist, inputs).map(drop))
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        })?;
        Ok(Deployment::Single(Box::new(single)))
    }

    /// Runs one open-loop phase to completion.
    #[must_use]
    pub fn run_phase(&self, input: PhaseInput) -> PhaseOutcome {
        let cpu0 = crate::stats::process_cpu_ms().unwrap_or(0.0);
        let steal0 = crate::stats::cpu_steal();
        let qps = input.qps;
        let mut out = match self {
            Deployment::Single(s) => {
                let t = input.per_tenant.into_iter().next().expect("one tenant");
                let cfg = FrontendConfig {
                    queue_capacity: QUEUE_CAPACITY,
                    max_batch_requests: MAX_BATCH_REQUESTS,
                    batch_timeout: BATCH_TIMEOUT,
                    sla: Duration::from_secs_f64(SLA_MS / 1e3),
                    workers: WORKERS,
                };
                let meta = TenantMeta::of(&t);
                let report = run_frontend(&s.dist, t.requests, &t.schedule, &cfg);
                let mut out = PhaseOutcome::default();
                digest(&mut out, 0, &meta, &report);
                out.frontend = frontend_figures(&[&report]);
                out.cache_hits = report.cache_hits;
                out.cache_misses = report.cache_misses;
                out.cache_local_rows = report.cache_local_rows;
                out.rpc_retries = report.rpc_retries;
                out
            }
            Deployment::Coloc { set, all_dram } => {
                let metas: Vec<TenantMeta> = input.per_tenant.iter().map(TenantMeta::of).collect();
                let workloads = input
                    .per_tenant
                    .into_iter()
                    .map(|t| TenantWorkload {
                        requests: t.requests,
                        schedule: t.schedule,
                    })
                    .collect();
                let cfg = TenancyRunConfig {
                    max_batch_requests: MAX_BATCH_REQUESTS,
                    batch_timeout: BATCH_TIMEOUT,
                    workers: WORKERS,
                    pressure_every: None,
                };
                let done = AtomicBool::new(false);
                let (report, ticks) = std::thread::scope(|s| {
                    let pressure = s.spawn(|| pressure_loop(set, *all_dram, &done));
                    let report = run_tenant_set(set, workloads, &cfg);
                    done.store(true, Ordering::SeqCst);
                    (report, pressure.join().expect("pressure thread panicked"))
                });
                let mut out = PhaseOutcome::default();
                for (t, (meta, r)) in metas.iter().zip(&report.per_tenant).enumerate() {
                    digest(&mut out, t, meta, r);
                }
                for f in &report.verify_failures {
                    out.violations.push(format!("dual-read verify: {f}"));
                }
                let per: Vec<&FrontendReport> = report.per_tenant.iter().collect();
                out.frontend = frontend_figures(&per);
                out.frontend.max_queue_depth = report.combined.max_queue_depth as f64;
                out.ticks = ticks;
                out
            }
        };
        out.qps = qps;
        out.cpu_ms = crate::stats::process_cpu_ms().unwrap_or(0.0) - cpu0;
        out.steal_frac = crate::stats::steal_since(steal0);
        out
    }

    /// Transport counters so far (TCP only).
    #[must_use]
    pub fn transport_summary(&self) -> Option<TransportSummary> {
        match self {
            Deployment::Single(s) => match &s.transport {
                Transport::Tcp(pool) => Some(pool.transport_summary()),
                Transport::Threaded(_) => None,
            },
            Deployment::Coloc { .. } => None,
        }
    }

    /// Stops every shard server or worker.
    pub fn shutdown(self) {
        if let Deployment::Single(s) = self {
            let s = *s;
            drop(s.dist);
            match s.transport {
                Transport::Tcp(pool) => pool.shutdown(),
                Transport::Threaded(pool) => pool.shutdown(),
            }
        }
    }
}

fn build_coloc(traffic: &Traffic) -> Result<Deployment, String> {
    let specs: Vec<TenantSpec> = traffic
        .specs
        .iter()
        .enumerate()
        .map(|(i, (name, spec))| TenantSpec {
            name: (*name).to_string(),
            spec: spec.clone(),
            seed: MODEL_SEED + i as u64,
            strategy: ShardingStrategy::CapacityBalanced(SHARDS),
            weight: 1,
            queue_capacity: QUEUE_CAPACITY,
            sla: Duration::from_secs_f64(SLA_MS / 1e3),
        })
        .collect();
    let set = TenantSet::build(
        specs,
        PressureConfig {
            max_actions_per_tick: 1,
            ..PressureConfig::default()
        },
    )?;
    let all_dram = set.bytes_by_tier().resident();
    for t in set.tenants() {
        t.probe_current()?;
    }
    Ok(Deployment::Coloc { set, all_dram })
}

/// Flips the DRAM budget between tight and unconstrained every
/// [`FLIP_EVERY`] and ticks the controller every [`TICK_EVERY`] until
/// `done`; restores the unconstrained budget on exit.
fn pressure_loop(set: &TenantSet, all_dram: u64, done: &AtomicBool) -> Vec<Tick> {
    let tight = (all_dram as f64 * TIGHT_SHARE) as u64;
    let start = Instant::now();
    let mut ticks = Vec::new();
    while !done.load(Ordering::SeqCst) {
        let flips = start.elapsed().as_nanos() / FLIP_EVERY.as_nanos();
        set.controller().set_budget(if flips.is_multiple_of(2) {
            tight
        } else {
            u64::MAX
        });
        let t0 = Instant::now();
        let actions = set.pressure_tick().len();
        ticks.push(Tick {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            actions,
            bytes: set.bytes_by_tier(),
        });
        std::thread::sleep(TICK_EVERY);
    }
    set.controller().set_budget(u64::MAX);
    ticks
}

/// What the digest needs to know about a tenant's offered traffic.
struct TenantMeta {
    first_id: u64,
    due_ms: Vec<f64>,
    picks: Vec<usize>,
}

impl TenantMeta {
    fn of(t: &TenantInput) -> Self {
        Self {
            first_id: t.first_id,
            due_ms: t.schedule.offsets_ms().to_vec(),
            picks: t.picks.clone(),
        }
    }
}

/// Folds one frontend report into `out`: due-time latencies from the
/// report's RequestE2E spans, admission accounting and its identities,
/// and the predictions keyed by pool index.
fn digest(out: &mut PhaseOutcome, tenant: usize, meta: &TenantMeta, r: &FrontendReport) {
    let n = meta.due_ms.len();
    let name = format!("tenant {tenant}");
    if r.offered != n as u64 || r.offered != r.admitted + r.shed {
        out.violations.push(format!(
            "{name}: offered {} != admitted {} + shed {} (n {n})",
            r.offered, r.admitted, r.shed
        ));
    }
    if r.completed + r.failed != r.admitted {
        out.violations.push(format!(
            "{name}: completed {} + failed {} != admitted {}",
            r.completed, r.failed, r.admitted
        ));
    }
    if r.predictions.len() as u64 != r.completed {
        out.violations.push(format!(
            "{name}: {} predictions for {} completions",
            r.predictions.len(),
            r.completed
        ));
    }
    let mut end_ms: Vec<Option<f64>> = vec![None; n];
    let mut enq_ms: Vec<Option<f64>> = vec![None; n];
    for s in r.trace.spans() {
        if s.kind == SpanKind::RequestE2E {
            if let Some(i) = s.trace.0.checked_sub(meta.first_id).map(|i| i as usize) {
                if i < n {
                    end_ms[i] = Some(s.end());
                    enq_ms[i] = Some(s.start);
                }
            }
        }
    }
    let mut completed = vec![false; n];
    for (id, pred) in &r.predictions {
        let i = (id - meta.first_id) as usize;
        completed[i] = true;
        out.predictions.push((tenant, meta.picks[i], pred.clone()));
    }
    let lat = PhaseLatency {
        by_arrival: (0..n)
            .map(|i| {
                if completed[i] {
                    end_ms[i].map(|e| e - meta.due_ms[i])
                } else {
                    None
                }
            })
            .collect(),
    };
    out.late_ms
        .extend((0..n).filter_map(|i| enq_ms[i].map(|e| e - meta.due_ms[i])));
    // Degraded requests are not identified per request; none may meet
    // the SLA, so they come off the hits.
    out.sla_hits += lat.count_within(SLA_MS).saturating_sub(r.degraded);
    // Merge into the phase-wide latency, keeping due-time order (the
    // tenants of one phase share its clock).
    let mut merged: Vec<(f64, Option<f64>)> = out.due_order.drain(..).collect();
    merged.extend(
        meta.due_ms
            .iter()
            .copied()
            .zip(lat.by_arrival.iter().copied()),
    );
    merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.latency.by_arrival = merged.iter().map(|&(_, l)| l).collect();
    out.due_order = merged;
    out.offered += r.offered;
    out.admitted += r.admitted;
    out.shed += r.shed;
    out.completed += r.completed;
    out.failed += r.failed;
    out.degraded += r.degraded;
    out.tenant_latency.push(lat);
}

/// Frontend figures pooled over one or more reports, from their
/// per-request QueueWait / BatchExecute spans.
fn frontend_figures(reports: &[&FrontendReport]) -> FrontendFigures {
    let mut queue = Vec::new();
    let mut batch_wait = Vec::new();
    let mut exec = Vec::new();
    let mut batches = 0u64;
    let mut batched = 0.0;
    let mut depth = 0usize;
    for r in reports {
        let mut qw_end: HashMap<u64, f64> = HashMap::new();
        for s in r.trace.spans() {
            if s.kind == SpanKind::QueueWait {
                queue.push(s.duration);
                qw_end.insert(s.trace.0, s.end());
            }
        }
        for s in r.trace.spans() {
            if s.kind == SpanKind::BatchExecute {
                if let Some(&q) = qw_end.get(&s.trace.0) {
                    batch_wait.push(s.start - q);
                    exec.push(s.duration);
                }
            }
        }
        batches += r.batches;
        batched += r.mean_batch_requests * r.batches as f64;
        depth = depth.max(r.max_queue_depth);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut sorted = batch_wait.clone();
    sorted.sort_by(f64::total_cmp);
    FrontendFigures {
        queue_wait_ms: mean(&queue),
        batch_wait_ms: mean(&batch_wait),
        batch_wait_p99_ms: crate::stats::nearest_rank(&sorted, 99.0).unwrap_or(0.0),
        exec_ms: mean(&exec),
        batch_requests: batched / batches.max(1) as f64,
        max_queue_depth: depth as f64,
    }
}

/// Runs one request through `dist` on the calling thread.
///
/// # Errors
///
/// The engine's error, stringified.
pub fn predict(dist: &DistributedModel, inputs: &BatchInputs) -> Result<Matrix, String> {
    let mut ws = Workspace::new();
    inputs.load_into(&dist.spec, &mut ws);
    dist.run_overlapped(&mut ws, &mut NoopObserver)
        .map_err(|e| e.to_string())
}

/// The reference predictions of every pool entry, per tenant, from a
/// solo in-process partition built with the same plan and seed (or,
/// for colocated tenants, the all-DRAM model their tiers must stay
/// within tolerance of).
///
/// # Errors
///
/// Any build or engine failure.
pub fn reference(
    traffic: &Traffic,
    single_plan: Option<&ShardingPlan>,
) -> Result<Vec<Vec<Matrix>>, String> {
    traffic
        .specs
        .iter()
        .enumerate()
        .map(|(t, (_, spec))| {
            let (seed, p) = match single_plan {
                Some(p) => (MODEL_SEED, p.clone()),
                None => (
                    MODEL_SEED + t as u64,
                    plan(
                        spec,
                        &PoolingProfile::from_spec(spec),
                        ShardingStrategy::CapacityBalanced(SHARDS),
                    )
                    .map_err(|e| e.to_string())?,
                ),
            };
            let dist = partition(build_model(spec, seed).map_err(|e| e.to_string())?, &p)
                .map_err(|e| e.to_string())?;
            traffic.pools[t].iter().map(|i| predict(&dist, i)).collect()
        })
        .collect()
}

/// The output tolerance of `kind`: bitwise for the f32 workloads, the
/// pressure controller's quantized tolerance for the tiered one.
#[must_use]
pub fn tolerance(kind: Kind) -> f32 {
    match kind {
        Kind::ColocPressure => PressureConfig::default().quantized_tolerance,
        _ => 0.0,
    }
}
