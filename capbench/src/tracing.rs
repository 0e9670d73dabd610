//! The benchmark's own instrumentation, wrapped around the engine's
//! public seams so no program code changes:
//!
//! - [`TimedClient`], an `Arc<dyn SparseShardClient>` decorator timing
//!   every shard RPC from `begin_execute` to `wait`, and capturing a
//!   sample of the `ShardRequest`s it forwards for shard-side replay;
//! - [`OpObserver`], an `ExecutionObserver` timing every operator of a
//!   closed-loop replay through `DistributedModel::run_overlapped`.
//!
//! Recording is switched by [`RpcLog::set_recording`]; while off the
//! decorator only forwards. Spans stay in memory until the run writes
//! them out with `dlrm_trace::export::to_jsonl`.

use dlrm_core::model::graph::{ExecutionObserver, Operator};
use dlrm_core::model::OpGroup;
use dlrm_core::sharding::rpc::{
    RpcCompletion, ShardRequest, ShardResponse, SparseShardClient, WaitOutcome,
};
use dlrm_core::sharding::{RpcError, ShardId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One timed shard RPC, on the log's clock (ms since its origin).
#[derive(Debug, Clone)]
pub struct RpcRecord {
    /// Issuing thread: RPCs of one batch share it.
    pub thread: ThreadId,
    /// Target shard index.
    pub shard: usize,
    /// Issuing net index.
    pub net: usize,
    /// Embedding lookups carried.
    pub lookups: usize,
    /// `begin_execute` entry.
    pub start_ms: f64,
    /// `wait` return.
    pub end_ms: f64,
}

/// Shared sink of the decorator's records.
#[derive(Debug)]
pub struct RpcLog {
    origin: Instant,
    recording: AtomicBool,
    /// Request id of the closed-loop replay in progress (`u64::MAX`: none).
    request: AtomicU64,
    records: Mutex<Vec<RpcRecord>>,
    captured: Mutex<Vec<ShardRequest>>,
}

impl RpcLog {
    /// An empty log, not recording.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            request: AtomicU64::new(u64::MAX),
            records: Mutex::new(Vec::new()),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Turns recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Tags subsequent RPCs with a replayed request id.
    pub fn set_request(&self, id: Option<u64>) {
        self.request.store(id.unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    /// Milliseconds from the log's origin to `at`.
    #[must_use]
    pub fn ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Takes every record made so far.
    pub fn take_records(&self) -> Vec<RpcRecord> {
        std::mem::take(&mut *self.records.lock().expect("rpc log lock"))
    }

    /// Takes the shard requests captured so far, in issue order.
    pub fn take_captured(&self) -> Vec<ShardRequest> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock"))
    }
}

/// Decorator timing every RPC to one shard.
#[derive(Debug)]
pub struct TimedClient {
    inner: Arc<dyn SparseShardClient>,
    log: Arc<RpcLog>,
}

impl TimedClient {
    /// Wraps every client of a pool.
    #[must_use]
    pub fn wrap_all(
        clients: Vec<Arc<dyn SparseShardClient>>,
        log: &Arc<RpcLog>,
    ) -> Vec<Arc<dyn SparseShardClient>> {
        clients
            .into_iter()
            .map(|inner| {
                Arc::new(TimedClient {
                    inner,
                    log: Arc::clone(log),
                }) as Arc<dyn SparseShardClient>
            })
            .collect()
    }

    fn started(&self, request: &ShardRequest) -> Pending {
        let shard = self.inner.shard_id().0;
        let id = self.log.request.load(Ordering::SeqCst);
        if id != u64::MAX {
            // A replayed request: keep its shard requests for the
            // shard-side replay.
            self.log
                .captured
                .lock()
                .expect("capture lock")
                .push(request.clone());
        }
        Pending {
            log: Arc::clone(&self.log),
            thread: std::thread::current().id(),
            shard,
            net: request.net.0,
            lookups: request.total_lookups(),
            start: Instant::now(),
        }
    }
}

/// What the decorator knows about an RPC in flight.
struct Pending {
    log: Arc<RpcLog>,
    thread: ThreadId,
    shard: usize,
    net: usize,
    lookups: usize,
    start: Instant,
}

impl Pending {
    fn finish(self) {
        let rec = RpcRecord {
            thread: self.thread,
            shard: self.shard,
            net: self.net,
            lookups: self.lookups,
            start_ms: self.log.ms(self.start),
            end_ms: self.log.ms(Instant::now()),
        };
        self.log.records.lock().expect("rpc log lock").push(rec);
    }
}

impl SparseShardClient for TimedClient {
    fn shard_id(&self) -> ShardId {
        self.inner.shard_id()
    }

    fn execute(&self, request: &ShardRequest) -> Result<ShardResponse, RpcError> {
        if !self.log.recording.load(Ordering::Relaxed) {
            return self.inner.execute(request);
        }
        let pending = self.started(request);
        let out = self.inner.execute(request);
        pending.finish();
        out
    }

    fn begin_execute(&self, request: &ShardRequest) -> Result<Box<dyn RpcCompletion>, RpcError> {
        if !self.log.recording.load(Ordering::Relaxed) {
            return self.inner.begin_execute(request);
        }
        let pending = self.started(request);
        let inner = self.inner.begin_execute(request)?;
        Ok(Box::new(TimedCompletion { inner, pending }))
    }
}

struct TimedCompletion {
    inner: Box<dyn RpcCompletion>,
    pending: Pending,
}

impl RpcCompletion for TimedCompletion {
    fn wait(self: Box<Self>) -> Result<ShardResponse, RpcError> {
        let out = self.inner.wait();
        self.pending.finish();
        out
    }

    fn wait_deadline(self: Box<Self>, deadline: Instant) -> WaitOutcome {
        let Self { inner, pending } = *self;
        match inner.wait_deadline(deadline) {
            WaitOutcome::Ready(out) => {
                pending.finish();
                WaitOutcome::Ready(out)
            }
            WaitOutcome::Pending(inner) => {
                WaitOutcome::Pending(Box::new(TimedCompletion { inner, pending }))
            }
        }
    }

    fn abandon_timed_out(self: Box<Self>) {
        self.inner.abandon_timed_out();
    }
}

/// One operator run of a closed-loop replay.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operator group.
    pub group: OpGroup,
    /// Whether it was an asynchronous (RPC) operator, whose reported
    /// window is issue → collect rather than CPU time.
    pub is_async: bool,
    /// End of the run on the observer's clock, ms.
    pub end_ms: f64,
    /// Duration, ms.
    pub ms: f64,
}

/// Observer recording every operator of one request's execution.
#[derive(Debug)]
pub struct OpObserver {
    origin: Instant,
    /// The operators, in completion order.
    pub ops: Vec<OpRecord>,
}

impl OpObserver {
    /// A fresh observer whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            ops: Vec::new(),
        }
    }
}

impl ExecutionObserver for OpObserver {
    fn on_op(&mut self, _net: &str, op: &dyn Operator, elapsed_secs: f64) {
        self.ops.push(OpRecord {
            group: op.group(),
            is_async: op.as_async().is_some(),
            end_ms: self.origin.elapsed().as_secs_f64() * 1e3,
            ms: elapsed_secs * 1e3,
        });
    }
}

/// Length of `[start, end]` not covered by any of `children` (which
/// may overlap each other): a span's self time.
#[must_use]
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start - covered).max(0.0)
}

/// Splits the RPCs of one thread into per-batch groups: a batch issues
/// each (net, shard) pair at most once, so a repeated pair starts the
/// next batch.
#[must_use]
pub fn batch_groups(records: &[RpcRecord]) -> Vec<Vec<&RpcRecord>> {
    let mut by_thread: std::collections::BTreeMap<String, Vec<&RpcRecord>> =
        std::collections::BTreeMap::new();
    for r in records {
        by_thread
            .entry(format!("{:?}", r.thread))
            .or_default()
            .push(r);
    }
    let mut groups = Vec::new();
    for mut rs in by_thread.into_values() {
        rs.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        let mut cur: Vec<&RpcRecord> = Vec::new();
        for r in rs {
            if cur.iter().any(|c| c.net == r.net && c.shard == r.shard) {
                groups.push(std::mem::take(&mut cur));
            }
            cur.push(r);
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 4.0), (3.0, 6.0)]), 6.0);
        assert_eq!(self_time(0.0, 10.0, &[(-5.0, 1.0), (9.0, 20.0)]), 8.0);
        assert_eq!(self_time(0.0, 10.0, &[(0.0, 10.0), (1.0, 2.0)]), 0.0);
    }

    #[test]
    fn repeated_net_shard_pair_starts_a_new_batch() {
        let t = std::thread::current().id();
        let rec = |net, shard, start| RpcRecord {
            thread: t,
            shard,
            net,
            lookups: 1,
            start_ms: start,
            end_ms: start + 1.0,
        };
        let records = vec![
            rec(0, 0, 0.0),
            rec(0, 1, 0.1),
            rec(1, 0, 0.5),
            rec(0, 0, 2.0),
            rec(0, 1, 2.1),
        ];
        let groups = batch_groups(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 2);
    }
}
