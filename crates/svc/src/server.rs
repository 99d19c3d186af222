//! The daemon: a TCP acceptor feeding a crossbeam-channel worker pool.
//!
//! Each accepted connection gets its own thread that reassembles frames
//! (`wire::try_parse_frame`) from a pending buffer and hands decoded
//! requests to the pool; the connection thread blocks on the reply so
//! responses on one connection preserve request order. Workers run method
//! handlers under `catch_unwind`, so a panicking handler costs one error
//! response, never a wedged worker.
//!
//! The acceptor blocks in `accept`, so a client's first request waits on
//! nothing but the connection thread. WAL maintenance runs on its own
//! timer thread.
//!
//! Shutdown is graceful by construction: `begin_shutdown` flips a flag,
//! wakes the timer threads, and wakes the acceptor with a loopback
//! connection, which it drops; the acceptor stops taking connections,
//! and every request already *accepted* (decoded off the socket and
//! queued) is still answered — connection threads only hang up after
//! writing the pending reply. A connection holding half a frame when the
//! drain starts gets a short grace period to finish it before the socket
//! closes.

use crate::cache::VerdictCache;
use crate::gossip::{self, GossipConfig};
use crate::methods::{self, RpcError};
use crate::wal::{CompactionPolicy, Wal, WalRecord};
use crate::wire::{self, Request};
use crossbeam::channel::{self, Receiver, Sender};
use minobs_cluster::{LinkPolicy, PeerTable};
use minobs_obs::{
    replay_event, sample_keep, stamp_root_span, Counter, FlightRecorder, Gauge, Histogram,
    JsonlSink, MemoryRecorder, MetricsRecorder, MetricsRegistry, Recorder, SpanGuard, SpanIds,
    TraceContext, TraceEvent,
};
use minobs_synth::cache::Merge;
use serde_json::Value;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long the acceptor backs off after a failed `accept` (say, out of
/// file descriptors), so a persistent error cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Dial timeout for the loopback connection that wakes the acceptor at
/// shutdown. Only a full accept backlog can make the dial wait, and then
/// the acceptor has connections to return with anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);
/// Read timeout on connection sockets; bounds drain-flag latency.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long a draining connection may take to finish a half-read frame.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// How often the maintenance thread runs WAL maintenance (flush +
/// compaction check) — keeps appends off the request critical path while
/// bounding the crash-loss window.
const WAL_MAINTENANCE: Duration = Duration::from_secs(1);

/// Server-side caps applied to every request's budget.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Hard cap on checker states per request.
    pub max_states: usize,
    /// Hard cap on checker wall-clock per request, in milliseconds.
    pub max_millis: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_states: 5_000_000,
            max_millis: 10_000,
        }
    }
}

/// Daemon configuration; `from_env` reads the `MINOBS_SVC_*` variables.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size.
    pub workers: usize,
    /// Cap on concurrent connection threads; connections past it are
    /// answered with a `busy` error and closed, so a peer opening
    /// sockets in a loop cannot drive unbounded thread creation.
    pub max_connections: usize,
    /// Per-request budget caps.
    pub limits: Limits,
    /// Where to write the `svc_*` event trace, if anywhere.
    pub trace_path: Option<PathBuf>,
    /// Where to persist verdicts (`minobs/wal/v1`); unset runs
    /// memory-only. See `docs/PERSISTENCE.md`.
    pub wal_path: Option<PathBuf>,
    /// Cluster peers to gossip verdicts with (`host:port`); empty runs
    /// single-node. See `docs/CLUSTER.md`.
    pub peers: Vec<String>,
    /// Time between anti-entropy rounds; each round exchanges digests
    /// with one peer, round-robin.
    pub gossip_interval: Duration,
    /// Per-link fault injection for gossip rounds; production daemons
    /// leave this unset (always deliver). Chaos harnesses install a
    /// seeded policy here.
    pub link_policy: Option<LinkPolicy>,
    /// Stable node identity stamped on trace lines and reported by
    /// `health`; defaults to the bound `host:port` (after the
    /// `MINOBS_NODE_ID` environment variable).
    pub node_id: Option<String>,
    /// The p99 latency target the SLO burn counter
    /// (`svc.slo_p99_violations`) measures against, in milliseconds.
    pub slo_p99_ms: u64,
    /// Flight-recorder ring capacity in events. The ring is always on;
    /// this only bounds how much history a dump can recover.
    pub flight_events: usize,
    /// Where automatic flight dumps land on panic, WAL degradation,
    /// `peer_down`, and degrading health edges; unset disables auto-dumps
    /// (the `dump_trace` RPC still works).
    pub flight_dir: Option<PathBuf>,
    /// Tail-sampling keep probability for unremarkable request traces in
    /// `[0, 1]`; `1.0` (the default) keeps every trace, preserving
    /// pre-sampling behaviour byte for byte.
    pub trace_sample: f64,
    /// Root requests at or above this many milliseconds are always kept
    /// regardless of `trace_sample`; `None` falls back to `slo_p99_ms`.
    pub trace_slow_ms: Option<u64>,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_workers(),
            max_connections: 256,
            limits: Limits::default(),
            trace_path: None,
            wal_path: None,
            peers: Vec::new(),
            gossip_interval: Duration::from_millis(500),
            link_policy: None,
            node_id: None,
            slo_p99_ms: 50,
            flight_events: minobs_obs::DEFAULT_FLIGHT_EVENTS,
            flight_dir: None,
            trace_sample: 1.0,
            trace_slow_ms: None,
        }
    }
}

fn default_workers() -> usize {
    thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(2)
        .clamp(2, 16)
}

impl SvcConfig {
    /// Configuration from `MINOBS_SVC_ADDR` (default `127.0.0.1:0`),
    /// `MINOBS_SVC_WORKERS` (default: available parallelism, clamped to
    /// `[2, 16]`), `MINOBS_SVC_MAX_CONNS` (default 256, clamped to
    /// `[1, 4096]`), `MINOBS_SVC_TRACE` (a JSONL path; unset = no
    /// trace), `MINOBS_SVC_WAL` (a verdict-log path; unset = no
    /// persistence), `MINOBS_SVC_PEERS` (comma-separated `host:port`
    /// cluster peers; unset = single-node), `MINOBS_SVC_GOSSIP_MS`
    /// (anti-entropy interval, default 500, clamped to `[10, 60000]`),
    /// `MINOBS_NODE_ID` (stable node identity; default: the bound
    /// `host:port`), `MINOBS_SVC_SLO_P99_MS` (SLO p99 target,
    /// default 50, clamped to `[1, 60000]`), `MINOBS_FLIGHT_EVENTS`
    /// (flight-ring capacity, default 65536, clamped to `[64, 1048576]`),
    /// `MINOBS_FLIGHT_DIR` (auto-dump directory; unset = no auto-dumps),
    /// `MINOBS_TRACE_SAMPLE` (tail-sampling keep probability, default
    /// 1.0, clamped to `[0, 1]`), and `MINOBS_TRACE_SLOW_MS`
    /// (always-keep latency threshold; default: the SLO p99 target; `0`
    /// keeps every timed request).
    pub fn from_env() -> SvcConfig {
        let mut config = SvcConfig::default();
        if let Ok(addr) = std::env::var("MINOBS_SVC_ADDR") {
            if !addr.trim().is_empty() {
                config.addr = addr.trim().to_string();
            }
        }
        if let Ok(workers) = std::env::var("MINOBS_SVC_WORKERS") {
            if let Ok(n) = workers.trim().parse::<usize>() {
                config.workers = n.clamp(1, 256);
            }
        }
        if let Ok(conns) = std::env::var("MINOBS_SVC_MAX_CONNS") {
            if let Ok(n) = conns.trim().parse::<usize>() {
                config.max_connections = n.clamp(1, 4096);
            }
        }
        if let Ok(path) = std::env::var("MINOBS_SVC_TRACE") {
            if !path.trim().is_empty() {
                config.trace_path = Some(PathBuf::from(path.trim()));
            }
        }
        if let Ok(path) = std::env::var("MINOBS_SVC_WAL") {
            if !path.trim().is_empty() {
                config.wal_path = Some(PathBuf::from(path.trim()));
            }
        }
        if let Ok(peers) = std::env::var("MINOBS_SVC_PEERS") {
            config.peers = peers
                .split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect();
        }
        if let Ok(interval) = std::env::var("MINOBS_SVC_GOSSIP_MS") {
            if let Ok(ms) = interval.trim().parse::<u64>() {
                config.gossip_interval = Duration::from_millis(ms.clamp(10, 60_000));
            }
        }
        if let Ok(node_id) = std::env::var("MINOBS_NODE_ID") {
            if !node_id.trim().is_empty() {
                config.node_id = Some(node_id.trim().to_string());
            }
        }
        if let Ok(target) = std::env::var("MINOBS_SVC_SLO_P99_MS") {
            if let Ok(ms) = target.trim().parse::<u64>() {
                config.slo_p99_ms = ms.clamp(1, 60_000);
            }
        }
        if let Ok(events) = std::env::var("MINOBS_FLIGHT_EVENTS") {
            if let Ok(n) = events.trim().parse::<usize>() {
                config.flight_events = n.clamp(64, 1_048_576);
            }
        }
        if let Ok(dir) = std::env::var("MINOBS_FLIGHT_DIR") {
            if !dir.trim().is_empty() {
                config.flight_dir = Some(PathBuf::from(dir.trim()));
            }
        }
        if let Ok(sample) = std::env::var("MINOBS_TRACE_SAMPLE") {
            if let Ok(p) = sample.trim().parse::<f64>() {
                if p.is_finite() {
                    config.trace_sample = p.clamp(0.0, 1.0);
                }
            }
        }
        if let Ok(slow) = std::env::var("MINOBS_TRACE_SLOW_MS") {
            if let Ok(ms) = slow.trim().parse::<u64>() {
                config.trace_slow_ms = Some(ms);
            }
        }
        config
    }
}

enum TraceSink {
    None,
    File(JsonlSink<BufWriter<File>>),
}

/// A point-in-time health verdict; see [`ServerState::evaluate_health`].
#[derive(Debug, Clone, Copy)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"`.
    pub status: &'static str,
    /// True while the node should receive traffic.
    pub ready: bool,
    /// True whenever the daemon can evaluate health at all.
    pub live: bool,
    /// Requests accepted but not yet answered.
    pub queued: u64,
    /// Peers currently reachable (0 of 0 in single-node mode).
    pub peers_alive: usize,
    /// Peers past the consecutive-failure threshold.
    pub peers_down: usize,
    /// True once the WAL has latched memory-only mode.
    pub wal_degraded: bool,
}

/// State shared by the acceptor, connection threads, and workers.
pub struct ServerState {
    shutting_down: AtomicBool,
    /// Paired with `drain_cv`; timer threads wait on it for a drain.
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
    /// The bound address, dialled to wake the acceptor at shutdown.
    local_addr: SocketAddr,
    seq: AtomicU64,
    registry: Arc<MetricsRegistry>,
    cache: VerdictCache,
    limits: Limits,
    workers: usize,
    started: Instant,
    metrics: Mutex<MetricsRecorder>,
    trace: Mutex<TraceSink>,
    /// The verdict log. `None` when persistence is off or after the
    /// first write failure — degradation is latched by `take()`ing the
    /// [`Wal`], so a disk that failed once is never written again.
    wal: Mutex<Option<Wal>>,
    /// What startup replay found; `None` when persistence is off.
    replay: Option<crate::wal::ReplayReport>,
    /// Gossip health per configured peer; empty in single-node mode.
    peers: Mutex<PeerTable>,
    /// Stable node identity: config override, else `MINOBS_NODE_ID`,
    /// else the bound `host:port`. Stamped on every trace line.
    node_id: String,
    /// The acceptor's connection cap, kept for the health queue check.
    max_connections: usize,
    /// SLO p99 target in nanoseconds; responses slower than this burn
    /// `svc.slo_p99_violations`.
    slo_target_ns: u64,
    slo_violations: Arc<Counter>,
    ready_gauge: Arc<Gauge>,
    /// Last emitted health verdict, packed as `ready | (status_ok << 1)`;
    /// `u64::MAX` until the first evaluation, so the first flip always
    /// emits a `health` trace event (edge-triggered).
    health_state: AtomicU64,
    /// The trace context of the most recent cache-filling request, held
    /// for the next gossip exchange so replication of that verdict is
    /// attributable to the request that produced it.
    gossip_ctx: Mutex<Option<TraceContext>>,
    /// The always-on flight ring: a bounded copy of everything the trace
    /// plane sees (sampled or not), snapshotted by `dump_trace` and the
    /// auto-dump triggers.
    flight: FlightRecorder,
    /// Where auto-dumps land; `None` disables them.
    flight_dir: Option<PathBuf>,
    /// Monotone auto-dump counter, naming dump files stably.
    flight_dumps: AtomicU64,
    /// Tail-sampling keep probability for unremarkable request traces.
    trace_sample: f64,
    /// Requests at or above this many nanoseconds are always kept.
    slow_ns: u64,
}

impl ServerState {
    pub(crate) fn new(config: &SvcConfig, local_addr: SocketAddr) -> io::Result<ServerState> {
        let registry = Arc::new(MetricsRegistry::new());
        let cache = VerdictCache::new(&registry);
        let node_id = config
            .node_id
            .clone()
            .unwrap_or_else(|| minobs_obs::node_id_from_env(&local_addr.to_string()));
        let sample = config.trace_sample.clamp(0.0, 1.0);
        let slow_ms = config.trace_slow_ms.unwrap_or(config.slo_p99_ms);
        let sampled = sample < 1.0;
        let flight = FlightRecorder::with_meta(config.flight_events, Some(node_id.clone()), sampled);
        let trace = match &config.trace_path {
            Some(path) => {
                let mut sink = JsonlSink::create(path)?;
                sink.set_node_id(&node_id);
                if sampled {
                    // Mark the stream as tail-sampled so downstream tools
                    // (`trace profile`'s coverage check) read missing span
                    // blocks as dropped-by-policy, not instrumentation gaps.
                    sink.record(TraceEvent::TraceSampled { sample, slow_ms });
                }
                TraceSink::File(sink)
            }
            None => TraceSink::None,
        };
        let state = ServerState {
            shutting_down: AtomicBool::new(false),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            local_addr,
            seq: AtomicU64::new(0),
            metrics: Mutex::new(MetricsRecorder::new(Arc::clone(&registry))),
            cache,
            limits: config.limits,
            workers: config.workers,
            started: Instant::now(),
            trace: Mutex::new(trace),
            wal: Mutex::new(None),
            replay: None,
            peers: Mutex::new(PeerTable::new(&config.peers)),
            node_id,
            max_connections: config.max_connections.max(1),
            slo_target_ns: config.slo_p99_ms.max(1).saturating_mul(1_000_000),
            slo_violations: registry.counter("svc.slo_p99_violations"),
            ready_gauge: registry.gauge("svc.ready"),
            health_state: AtomicU64::new(u64::MAX),
            gossip_ctx: Mutex::new(None),
            flight,
            flight_dir: config.flight_dir.clone(),
            flight_dumps: AtomicU64::new(0),
            trace_sample: sample,
            slow_ns: slow_ms.saturating_mul(1_000_000),
            registry,
        };
        state.open_wal(config)
    }

    /// Replays and attaches the configured WAL. A log that cannot be
    /// opened degrades the daemon to memory-only instead of refusing to
    /// start: availability first, persistence best-effort.
    fn open_wal(mut self, config: &SvcConfig) -> io::Result<ServerState> {
        let Some(path) = &config.wal_path else {
            return Ok(self);
        };
        match Wal::open(path, &self.cache, CompactionPolicy::default()) {
            Ok((wal, report)) => {
                lock(&self.metrics).on_wal_replay(report.records, report.bytes, report.dropped_tail);
                if let TraceSink::File(sink) = &mut *lock(&self.trace) {
                    sink.on_wal_replay(report.records, report.bytes, report.dropped_tail);
                }
                // Clones share the ring; a throwaway clone borrows the
                // `&mut self` Recorder hooks from a `&self` call site.
                self.flight
                    .clone()
                    .on_wal_replay(report.records, report.bytes, report.dropped_tail);
                *lock(&self.wal) = Some(wal);
                self.replay = Some(report);
            }
            Err(e) => self.degrade_wal(&e),
        }
        Ok(self)
    }

    /// Latches memory-only mode: drops the log handle, flips the
    /// `svc.wal_degraded` gauge, emits a `wal_degraded` trace event, and
    /// auto-dumps the flight ring — the history leading up to a disk
    /// failure is exactly what post-hoc debugging wants.
    fn degrade_wal(&self, error: &io::Error) {
        lock(&self.wal).take();
        let message = error.to_string();
        lock(&self.metrics).on_wal_degraded(&message);
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            sink.on_wal_degraded(&message);
        }
        self.flight.clone().on_wal_degraded(&message);
        self.auto_dump("wal_degraded");
    }

    fn append_wal(&self, record: &WalRecord) {
        let result = match lock(&self.wal).as_mut() {
            Some(wal) => wal.append(record),
            None => return,
        };
        match result {
            Ok(bytes) => {
                let (op, key) = (record.op(), record.key());
                lock(&self.metrics).on_wal_append(op, key, bytes);
                if let TraceSink::File(sink) = &mut *lock(&self.trace) {
                    sink.on_wal_append(op, key, bytes);
                }
                self.flight.clone().on_wal_append(op, key, bytes);
            }
            Err(e) => self.degrade_wal(&e),
        }
    }

    /// Merges a definite horizon verdict into the cache and, when it
    /// is new ([`Merge::Applied`]), appends it to the WAL. Method
    /// handlers and gossip call this instead of touching the cache
    /// directly, so every new verdict survives a restart and an implied
    /// or contradicting one never reaches the log.
    pub fn record_horizon(&self, key: &str, k: usize, solvable: bool) -> Merge {
        let merge = self.cache.record_horizon(key, k, solvable);
        if merge == Merge::Applied {
            self.append_wal(&WalRecord::Horizon {
                key: key.to_string(),
                k,
                solvable,
            });
        }
        merge
    }

    /// Memoises a Theorem III.8 result like [`ServerState::record_horizon`]:
    /// the WAL sees it only when it is new.
    pub fn record_theorem(&self, key: &str, result: Value) -> Merge {
        let merge = self.cache.record_theorem(key, result.clone());
        if merge == Merge::Applied {
            self.append_wal(&WalRecord::Theorem {
                key: key.to_string(),
                result,
            });
        }
        merge
    }

    /// What startup replay found, when persistence is configured.
    pub fn wal_replay_report(&self) -> Option<crate::wal::ReplayReport> {
        self.replay
    }

    /// True while the verdict log is attached and healthy.
    pub fn wal_active(&self) -> bool {
        lock(&self.wal).is_some()
    }

    /// Periodic background WAL work, run from the maintenance thread (off
    /// the request path): push buffered appends to the OS and rewrite
    /// the log when dead deltas dominate. Any failure degrades.
    fn wal_maintenance(&self) {
        let mut guard = lock(&self.wal);
        let Some(wal) = guard.as_mut() else { return };
        let result = wal.flush().and_then(|()| wal.maybe_compact(&self.cache));
        if let Err(e) = result {
            drop(guard);
            self.degrade_wal(&e);
        }
    }

    /// True once a drain has started.
    pub fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Starts the drain: stop accepting, answer what was taken, exit.
    /// Wakes the timer threads and the blocked acceptor, so no thread
    /// waits out a period before it notices.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        {
            // Taking the lock orders the flag before any waiter's check.
            let _guard = lock(&self.drain_lock);
            self.drain_cv.notify_all();
        }
        let mut addr = self.local_addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        // A failed dial means the acceptor is gone or has a backlog to
        // return with; either way it sees the flag.
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
    }

    /// Blocks for `period` or until a drain starts, whichever is first;
    /// true once draining. Timer threads pace themselves with this.
    pub(crate) fn wait_for_drain(&self, period: Duration) -> bool {
        let deadline = Instant::now() + period;
        let mut guard = lock(&self.drain_lock);
        while !self.draining() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            guard = self
                .drain_cv
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// The verdict cache.
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// The metrics registry backing `stats` and the cache counters.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Per-request budget caps.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// This node's stable identity (trace `node_id`, `health.node_id`).
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// The SLO p99 target, in milliseconds.
    pub fn slo_p99_ms(&self) -> u64 {
        self.slo_target_ns / 1_000_000
    }

    /// Timed responses that exceeded the SLO p99 target so far.
    pub fn slo_violations(&self) -> u64 {
        self.slo_violations.get()
    }

    /// The acceptor's connection cap (the health plane's queue bound).
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Takes the trace context stashed by the last cache-filling
    /// request, if any, for the next gossip exchange to parent under.
    pub(crate) fn take_gossip_ctx(&self) -> Option<TraceContext> {
        lock(&self.gossip_ctx).take()
    }

    /// Stashes `ctx` for the next gossip exchange. Last writer wins;
    /// gossip attribution is best-effort, not a queue.
    pub(crate) fn stash_gossip_ctx(&self, ctx: TraceContext) {
        *lock(&self.gossip_ctx) = Some(ctx);
    }

    fn on_request(&self, seq: u64, method: &str) {
        lock(&self.metrics).on_svc_request(seq, method);
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            sink.on_svc_request(seq, method);
        }
        self.flight.clone().on_svc_request(seq, method);
    }

    /// The tail-sampling verdict for one finished request. Errors,
    /// budget-exhausted outcomes, requests at or above the slow
    /// threshold, and anything served while the WAL is degraded are
    /// always kept; the rest keep with probability `trace_sample`,
    /// decided by [`sample_keep`] on the trace id so every node in a
    /// fleet keeps or drops the same distributed trace.
    pub(crate) fn keep_trace(
        &self,
        seq: u64,
        ok: bool,
        nanos: u64,
        budget_exhausted: bool,
        trace_id: Option<u128>,
    ) -> bool {
        if self.trace_sample >= 1.0 {
            return true;
        }
        if !ok || budget_exhausted || nanos >= self.slow_ns {
            return true;
        }
        if self.registry.gauge("svc.wal_degraded").get() != 0 {
            return true;
        }
        // Context-free requests sample on the local seq: still
        // deterministic, just not fleet-correlated (nothing to stitch).
        sample_keep(trace_id.unwrap_or(u128::from(seq)), self.trace_sample)
    }

    /// Folds one finished request into the metrics, the trace, and the
    /// flight ring. The request's buffered span events are flushed *as a
    /// block* right before its `svc_response`, under the same lock
    /// acquisition, so the shared trace stream interleaves whole requests
    /// — each block is self-balanced and `trace_lint`'s span bracketing
    /// holds per stream. When `keep` is false (tail sampling dropped the
    /// trace) the span block is withheld from the trace file only: metrics
    /// still fold every span, the `svc_request`/`svc_response` pair is
    /// still written (lint pairing), and the flight ring still records
    /// everything.
    fn on_response(&self, finished: FinishedRequest<'_>) {
        let FinishedRequest {
            seq,
            method,
            ok,
            cache,
            nanos,
            spans,
            keep,
        } = finished;
        if nanos > self.slo_target_ns {
            self.slo_violations.add(1);
        }
        {
            let mut metrics = lock(&self.metrics);
            for event in spans {
                replay_event(&mut *metrics, event);
            }
            metrics.on_svc_response(seq, method, ok, cache, nanos);
        }
        if keep && nanos > 0 {
            if let Some(trace_id) = block_trace_id(spans) {
                let bounds = Histogram::latency_bounds();
                self.registry
                    .histogram("svc.request_latency_ns", &bounds)
                    .record_exemplar(nanos, trace_id);
                self.registry
                    .histogram(&format!("svc.method.{method}.latency_ns"), &bounds)
                    .record_exemplar(nanos, trace_id);
            }
        }
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            if keep {
                for event in spans {
                    sink.record(event.clone());
                }
            }
            sink.on_svc_response(seq, method, ok, cache, nanos);
        }
        self.flight.push_block(spans);
        self.flight.clone().on_svc_response(seq, method, ok, cache, nanos);
    }

    /// The always-on flight ring; `dump_trace` snapshots it.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The configured tail-sampling keep probability.
    pub fn trace_sample(&self) -> f64 {
        self.trace_sample
    }

    /// Auto-dumps taken so far (panic, WAL degradation, `peer_down`,
    /// degrading health edges).
    pub fn flight_dumps(&self) -> u64 {
        self.flight_dumps.load(Ordering::SeqCst)
    }

    /// Writes a flight-ring snapshot into `flight_dir`, named by the
    /// monotone dump counter plus the trigger reason. Disabled dir or a
    /// failed write costs only the dump — incident evidence is
    /// best-effort and must never take the serving path down with it.
    fn auto_dump(&self, reason: &str) {
        let Some(dir) = &self.flight_dir else { return };
        let snapshot = self.flight.dump(reason);
        let n = self.flight_dumps.fetch_add(1, Ordering::SeqCst);
        let path = dir.join(format!("flight-{n:03}-{reason}.trace.jsonl"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, snapshot.jsonl.as_bytes()));
        if written.is_ok() {
            self.registry.counter("svc.flight_dumps").add(1);
        }
    }

    fn flush_trace(&self) {
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            let _ = sink.flush();
        }
    }

    /// The `peers` section of `stats`: summary counters plus one row per
    /// configured peer; `count: 0` with an empty table in single-node mode.
    pub fn peers_json(&self) -> Value {
        lock(&self.peers).to_json()
    }

    /// Evaluates the health plane and publishes it.
    ///
    /// * `live` — true whenever the daemon can run the evaluation;
    /// * `ready` — the node should receive traffic: not draining, the
    ///   backlog is below the connection cap, and (with peers
    ///   configured) at least one peer is reachable;
    /// * `status` — `"ok"` when ready with a healthy WAL and every peer
    ///   alive, `"degraded"` otherwise.
    ///
    /// Sets the `svc.ready` gauge on every call and emits one
    /// edge-triggered `health` trace event whenever the packed verdict
    /// changes (including the first evaluation).
    pub fn evaluate_health(&self) -> HealthReport {
        let accepted = self.registry.counter("svc.requests").get();
        let answered = self.registry.counter("svc.responses_ok").get()
            + self.registry.counter("svc.responses_err").get();
        let queued = accepted.saturating_sub(answered);
        let (peer_count, peers_alive) = {
            let peers = lock(&self.peers);
            (peers.len(), peers.alive())
        };
        let wal_degraded = self.registry.gauge("svc.wal_degraded").get() != 0;
        let ready = !self.draining()
            && queued < self.max_connections as u64
            && (peer_count == 0 || peers_alive > 0);
        let status_ok = ready && !wal_degraded && peers_alive == peer_count;
        let status = if status_ok { "ok" } else { "degraded" };
        self.ready_gauge.set(ready as u64);
        let packed = ready as u64 | ((status_ok as u64) << 1);
        if self.health_state.swap(packed, Ordering::SeqCst) != packed {
            lock(&self.metrics).on_health(status, ready, true);
            if let TraceSink::File(sink) = &mut *lock(&self.trace) {
                sink.on_health(status, ready, true);
            }
            self.flight.clone().on_health(status, ready, true);
            if !status_ok {
                // Dump on the *degrading* edge only: the ring holds the
                // lead-up to the burn, and edge-triggering means a long
                // outage costs one dump, not one per probe.
                self.auto_dump("health_degraded");
            }
        }
        HealthReport {
            status,
            ready,
            live: true,
            queued,
            peers_alive,
            peers_down: peer_count - peers_alive,
            wal_degraded,
        }
    }

    /// Folds one completed gossip exchange into the peer table, the
    /// metrics, and the trace. `spans` carries the exchange's buffered
    /// `gossip.exchange` span block (possibly ctx-stamped), flushed next
    /// to its `gossip_round` under the same lock acquisitions so the
    /// shared stream stays whole-block interleaved.
    pub(crate) fn gossip_success(
        &self,
        peer: &str,
        sent: u64,
        received: u64,
        lag: u64,
        nanos: u64,
        spans: &[TraceEvent],
    ) {
        lock(&self.peers).record_success(peer, sent, received, lag);
        {
            let mut metrics = lock(&self.metrics);
            for event in spans {
                replay_event(&mut *metrics, event);
            }
            metrics.on_gossip_round(peer, sent, received, nanos);
        }
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            // Gossip exchanges are never sampled out: one per interval is
            // cheap, and replication evidence is the first thing a
            // cross-node incident reconstruction reaches for.
            for event in spans {
                sink.record(event.clone());
            }
            sink.on_gossip_round(peer, sent, received, nanos);
        }
        self.flight.push_block(spans);
        self.flight.clone().on_gossip_round(peer, sent, received, nanos);
    }

    /// Records a failed gossip exchange; emits `peer_down` (once per
    /// outage) on the round that crosses the failure threshold.
    pub(crate) fn gossip_failure(&self, peer: &str) {
        let down_edge = lock(&self.peers).record_failure(peer);
        if let Some(failures) = down_edge {
            lock(&self.metrics).on_peer_down(peer, failures);
            if let TraceSink::File(sink) = &mut *lock(&self.trace) {
                sink.on_peer_down(peer, failures);
            }
            self.flight.clone().on_peer_down(peer, failures);
            self.auto_dump("peer_down");
        }
    }

    /// Records one replicated delta's ingest outcome.
    pub(crate) fn on_gossip_apply(&self, peer: &str, op: &'static str, key: &str, accepted: bool) {
        lock(&self.metrics).on_gossip_apply(peer, op, key, accepted);
        if let TraceSink::File(sink) = &mut *lock(&self.trace) {
            sink.on_gossip_apply(peer, op, key, accepted);
        }
        self.flight.clone().on_gossip_apply(peer, op, key, accepted);
    }
}

/// One finished request as the trace plane folds it: the response row,
/// its buffered span block, and the tail-sampling verdict.
struct FinishedRequest<'a> {
    seq: u64,
    method: &'a str,
    ok: bool,
    cache: &'static str,
    nanos: u64,
    spans: &'a [TraceEvent],
    keep: bool,
}

/// The distributed trace id carried by a request's span block, if any.
fn block_trace_id(spans: &[TraceEvent]) -> Option<u128> {
    spans.iter().find_map(|event| match event {
        TraceEvent::SpanStart { trace_id, .. } => *trace_id,
        _ => None,
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Job {
    seq: u64,
    request: Request,
    reply: Sender<Value>,
}

/// A running daemon; keep it alive for as long as you serve.
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    /// Timer threads (WAL maintenance, gossip); each exits on drain.
    timers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<Sender<Job>>,
}

/// Binds and starts serving; returns once the socket is listening.
pub fn serve(config: SvcConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(&config, local_addr)?);

    let (job_tx, job_rx) = channel::unbounded::<Job>();
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let rx = job_rx.clone();
            let st = Arc::clone(&state);
            thread::spawn(move || worker_loop(&st, &rx))
        })
        .collect();
    drop(job_rx);

    let acceptor = {
        let st = Arc::clone(&state);
        let tx = job_tx.clone();
        let max_connections = config.max_connections.max(1);
        thread::spawn(move || acceptor_loop(&listener, &st, &tx, max_connections))
    };

    let mut timers = Vec::new();
    if state.wal_active() {
        let st = Arc::clone(&state);
        timers.push(thread::spawn(move || {
            while !st.wait_for_drain(WAL_MAINTENANCE) {
                st.wal_maintenance();
            }
        }));
    }
    if !config.peers.is_empty() {
        let st = Arc::clone(&state);
        let gossip_config = GossipConfig {
            self_addr: local_addr.to_string(),
            peers: config.peers.clone(),
            interval: config.gossip_interval,
            link_policy: config.link_policy.clone(),
        };
        timers.push(thread::spawn(move || {
            gossip::gossip_loop(&st, &gossip_config)
        }));
    }

    Ok(Server {
        local_addr,
        state,
        acceptor: Some(acceptor),
        timers,
        workers,
        job_tx: Some(job_tx),
    })
}

impl Server {
    /// The bound address (with the resolved port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state, for tests and in-process inspection.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Starts the drain; pair with [`Server::join`].
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the drain completes and every thread has exited.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for timer in self.timers.drain(..) {
            let _ = timer.join();
        }
        // Acceptor (and all connection threads it joined) are gone; no
        // producer remains, so workers drain the queue and exit.
        drop(self.job_tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Drain complete: every answered verdict is in the cache, so one
        // last flush makes the log as warm as the cache was.
        self.state.wal_maintenance();
        self.state.flush_trace();
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    job_tx: &Sender<Job>,
    max_connections: usize,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) if state.draining() => break,
            Err(_) => {
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if state.draining() {
            // `begin_shutdown`'s wake-up, or a client racing the drain:
            // hang up without reading.
            break;
        }
        connections.retain(|handle| !handle.is_finished());
        if connections.len() >= max_connections {
            // At the cap: answer with `busy` and hang up rather than
            // spawning an unbounded number of threads.
            let mut writer = &stream;
            let _ = wire::write_frame(
                &mut writer,
                &wire::err_response(0, "busy", "connection limit reached"),
            );
            continue;
        }
        let st = Arc::clone(state);
        let tx = job_tx.clone();
        connections.push(thread::spawn(move || serve_connection(stream, &st, &tx)));
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn serve_connection(stream: TcpStream, state: &Arc<ServerState>, job_tx: &Sender<Job>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = &stream;
    let mut writer = &stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut drain_seen: Option<Instant> = None;

    loop {
        // Dispatch every complete frame already buffered.
        loop {
            match wire::try_parse_frame(&pending) {
                Ok(Some((value, consumed))) => {
                    pending.drain(..consumed);
                    if !handle_frame(&mut writer, state, job_tx, &value) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = wire::write_frame(
                        &mut writer,
                        &wire::err_response(0, "bad_frame", &e.to_string()),
                    );
                    return;
                }
            }
        }

        if state.draining() {
            // Answered everything complete; allow a short grace window
            // for a half-received frame, then hang up.
            if pending.is_empty() {
                return;
            }
            match drain_seen {
                None => drain_seen = Some(Instant::now()),
                Some(t) if t.elapsed() > DRAIN_GRACE => return,
                Some(_) => {}
            }
        }

        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decodes and dispatches one framed value. Returns false when the
/// connection should close (write failure or the queue is gone).
fn handle_frame<W: Write>(
    writer: &mut W,
    state: &Arc<ServerState>,
    job_tx: &Sender<Job>,
    value: &Value,
) -> bool {
    let request = match wire::parse_request(value) {
        Ok(request) => request,
        Err(message) => {
            let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
            let reply = wire::err_response(id, "bad_request", &message);
            return wire::write_frame(writer, &reply).is_ok();
        }
    };

    let seq = state.next_seq();
    state.on_request(seq, &request.method);
    let id = request.id;
    let (reply_tx, reply_rx) = channel::bounded::<Value>(1);
    if job_tx
        .send(Job {
            seq,
            request,
            reply: reply_tx,
        })
        .is_err()
    {
        // Workers already gone: only possible in late teardown.
        let reply = wire::err_response(id, "shutting_down", "daemon is draining");
        let _ = wire::write_frame(writer, &reply);
        return false;
    }
    match reply_rx.recv() {
        Ok(reply) => wire::write_frame(writer, &reply).is_ok(),
        Err(_) => {
            let reply = wire::err_response(id, "internal", "worker dropped the request");
            let _ = wire::write_frame(writer, &reply);
            false
        }
    }
}

/// A static span name per known method, so request spans carry stable
/// `rpc.*` labels without leaking attacker-chosen method strings into
/// span-name keyed metrics.
fn method_span(method: &str) -> &'static str {
    match method {
        "solvable" => "rpc.solvable",
        "check_horizon" => "rpc.check_horizon",
        "first_horizon" => "rpc.first_horizon",
        "net_solvable" => "rpc.net_solvable",
        "simulate" => "rpc.simulate",
        "stats" => "rpc.stats",
        "metrics" => "rpc.metrics",
        "gossip" => "rpc.gossip",
        "health" => "rpc.health",
        "dump_trace" => "rpc.dump_trace",
        "shutdown" => "rpc.shutdown",
        _ => "rpc.unknown",
    }
}

fn worker_loop(state: &Arc<ServerState>, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let start = Instant::now();
        // Spans are buffered request-locally and flushed with the
        // response; `starting_at(seq << 20)` carves each request a
        // disjoint id block so ids stay unique across the shared stream.
        let mut request_spans = MemoryRecorder::new();
        let mut span_ids = SpanIds::starting_at(job.seq << 20);
        let span = SpanGuard::begin(
            &mut request_spans,
            &mut span_ids,
            0,
            None,
            method_span(&job.request.method),
        );
        let root_span = span.as_ref().map(SpanGuard::id);
        let outcome = catch_unwind(AssertUnwindSafe(|| methods::handle(state, &job.request)));
        if let Some(span) = span {
            span.end(&mut request_spans);
        }
        let (result, disposition) = outcome.unwrap_or_else(|_| {
            // The ring just recorded the request that blew up; snapshot
            // it before the error response papers over the evidence.
            state.auto_dump("panic");
            (
                Err(RpcError::new("internal", "method handler panicked")),
                "none",
            )
        });
        let ok = result.is_ok();
        let nanos = (start.elapsed().as_nanos() as u64).max(1);
        let mut events = request_spans.into_events();
        if let Some(ctx) = &job.request.ctx {
            // Adopt the caller's trace: the request root span joins the
            // caller's trace_id and remembers the remote parent. Local
            // parenting stays `None`, so per-stream span bracketing is
            // untouched — `trace stitch` resolves the cross-node edge.
            stamp_root_span(&mut events, ctx);
            if ok && disposition == "miss" {
                // A fresh verdict will ship on the next gossip round;
                // stash a child context so that exchange is attributable
                // to the request that produced the delta.
                if let Some(root_span) = root_span {
                    state.stash_gossip_ctx(ctx.child(root_span));
                }
            }
        }
        let budget_exhausted = result.as_ref().ok().is_some_and(|value| {
            value.get("budget_exhausted").is_some()
                || value.get("outcome").and_then(Value::as_str) == Some("budget_exhausted")
        });
        let keep = state.keep_trace(
            job.seq,
            ok,
            nanos,
            budget_exhausted,
            job.request.ctx.as_ref().map(|ctx| ctx.trace_id),
        );
        state.on_response(FinishedRequest {
            seq: job.seq,
            method: &job.request.method,
            ok,
            cache: disposition,
            nanos,
            spans: &events,
            keep,
        });
        let reply = match result {
            Ok(value) => wire::ok_response(job.request.id, value),
            Err(e) => wire::err_response(job.request.id, e.code, &e.message),
        };
        let _ = job.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::ReplayReport;
    use std::path::Path;

    /// A socket-free state persisting to a fresh log under `name`.
    fn state_with_wal(name: &str) -> (ServerState, PathBuf) {
        let dir = std::env::temp_dir().join(format!("minobs-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.wal");
        let _ = std::fs::remove_file(&path);
        let config = SvcConfig {
            wal_path: Some(path.clone()),
            ..SvcConfig::default()
        };
        let state = ServerState::new(&config, "127.0.0.1:0".parse().unwrap()).unwrap();
        assert!(state.wal_active());
        (state, path)
    }

    fn wal_appends(state: &ServerState) -> u64 {
        state.registry().counter("svc.wal_appends").get()
    }

    /// What a fresh process would replay from the log at `path`.
    fn replayed(path: &Path) -> ReplayReport {
        let cache = VerdictCache::new(&MetricsRegistry::new());
        Wal::open(path, &cache, CompactionPolicy::default()).unwrap().1
    }

    #[test]
    fn only_applied_verdicts_reach_the_wal() {
        let (state, path) = state_with_wal("merge-wal");
        assert_eq!(state.record_horizon("k|a", 4, true), Merge::Applied);
        assert_eq!(wal_appends(&state), 1);
        // Implied (exact and subsumed) and contradicting verdicts.
        assert_eq!(state.record_horizon("k|a", 4, true), Merge::Implied);
        assert_eq!(state.record_horizon("k|a", 6, true), Merge::Implied);
        assert_eq!(state.record_horizon("k|a", 5, false), Merge::Contradiction);
        assert_eq!(wal_appends(&state), 1);

        assert_eq!(state.record_theorem("k|t", Value::from(1u64)), Merge::Applied);
        assert_eq!(state.record_theorem("k|t", Value::from(1u64)), Merge::Implied);
        assert_eq!(
            state.record_theorem("k|t", Value::from(2u64)),
            Merge::Contradiction
        );
        assert_eq!(wal_appends(&state), 2);

        drop(state);
        let report = replayed(&path);
        assert_eq!((report.records, report.dropped_tail), (2, false));
        let _ = std::fs::remove_file(&path);
    }

    /// Serves `config`, then drains with no client ever connected.
    fn drain_idle(config: SvcConfig) {
        let server = serve(SvcConfig {
            workers: 1,
            ..config
        })
        .unwrap();
        server.shutdown();
        server.join();
    }

    #[test]
    fn idle_drain_wakes_a_loopback_bound_acceptor() {
        drain_idle(SvcConfig::default());
    }

    #[test]
    fn idle_drain_wakes_a_wildcard_bound_acceptor_over_loopback() {
        drain_idle(SvcConfig {
            addr: "0.0.0.0:0".to_string(),
            ..SvcConfig::default()
        });
    }

    #[test]
    fn drain_wakes_the_wal_maintenance_timer() {
        let dir = std::env::temp_dir().join(format!("minobs-drain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.wal");
        let _ = std::fs::remove_file(&path);
        let started = Instant::now();
        drain_idle(SvcConfig {
            wal_path: Some(path.clone()),
            ..SvcConfig::default()
        });
        // Joining the timer must not wait out its period.
        let took = started.elapsed();
        assert!(took < WAL_MAINTENANCE, "drain took {took:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_exhaustion_is_never_recorded() {
        let (state, path) = state_with_wal("budget-wal");
        let request = Request {
            id: 1,
            method: "check_horizon".to_string(),
            params: serde_json::from_str(r#"{"scheme":"r1","horizon":8,"max_states":2}"#)
                .unwrap(),
            ctx: None,
        };
        let (result, _) = methods::handle(&state, &request);
        let reply = result.unwrap();
        assert_eq!(reply.get("solvable"), Some(&Value::Null));
        assert!(reply.get("budget_exhausted").is_some(), "{reply:?}");
        assert_eq!(state.cache().entries(), 0);
        assert_eq!(wal_appends(&state), 0);

        drop(state);
        assert_eq!(replayed(&path).records, 0);
        let _ = std::fs::remove_file(&path);
    }
}
