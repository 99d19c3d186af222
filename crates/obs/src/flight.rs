//! The always-on flight recorder and the tail-sampling keep policy.
//!
//! A [`FlightRecorder`] is a lock-sharded, fixed-capacity ring of the
//! most recent [`TraceEvent`]s. It is cheap enough to leave attached to
//! a production daemon behind a [`crate::TeeRecorder`]: recording is one
//! atomic fetch-add plus one uncontended shard lock, and the ring
//! overwrites its oldest events instead of growing. When something goes
//! wrong — a panic, a WAL degradation, an SLO burn — [`FlightRecorder::dump`]
//! snapshots the ring into well-formed `minobs/trace/v1` JSONL that
//! `trace_lint` accepts and `trace stitch` can merge with other nodes'
//! dumps, so the evidence for an incident survives the incident.
//!
//! Because the ring is bounded, a snapshot can catch span trees half
//! evicted or half written. The dump therefore runs a well-formedness
//! pass over the seq-ordered events: `span_end`s whose start was
//! overwritten are dropped, still-open spans are closed with a
//! synthesized `span_end` carrying `"truncated":true`, and unpaired
//! `svc_request`/`svc_response` halves are dropped. The pass makes every
//! dump a valid stream, not a best-effort fragment.
//!
//! [`sample_keep`] is the companion tail-sampling primitive: a pure,
//! deterministic keep/drop decision on the trace id, so every node in a
//! fleet keeps or drops the *same* traces without coordination and
//! `trace stitch` never sees a request with half its nodes missing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// Default ring capacity per node, overridable via `MINOBS_FLIGHT_EVENTS`.
pub const DEFAULT_FLIGHT_EVENTS: usize = 65_536;

/// Shard count: small enough that `dump` holding every lock is cheap,
/// large enough that concurrent workers rarely collide on one mutex.
const SHARDS: usize = 8;

/// One shard's ring: slots filled in push order up to the shard
/// capacity, then overwritten oldest-first at the write cursor.
#[derive(Debug)]
struct Ring {
    slots: Vec<(u64, TraceEvent)>,
    next: usize,
}

#[derive(Debug)]
struct Inner {
    seq: AtomicU64,
    shards: Vec<Mutex<Ring>>,
    /// Slots per shard. Each ring reserves this much up front but only
    /// writes (and so makes resident) the slots it fills.
    per_shard: usize,
    /// Stamped on every dumped line, like `JsonlSink::set_node_id`.
    node_id: Option<String>,
    /// Recorded into each dump's `flight_dump` header so offline tooling
    /// knows whether the stream behind the ring was tail-sampled.
    sampled: bool,
}

/// Statistics and rendered JSONL from one [`FlightRecorder::dump`].
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// The dump: one `minobs/trace/v1` object per line, headed by a
    /// `flight_dump` meta line.
    pub jsonl: String,
    /// Event lines kept (header excluded).
    pub events: u64,
    /// Events discarded by the well-formedness pass.
    pub dropped: u64,
    /// Synthesized `span_end`s for spans still open at snapshot time.
    pub truncated: u64,
}

/// A cloneable handle to a shared flight-recorder ring.
///
/// Clones share the ring, so one clone can sit inside a
/// [`crate::TeeRecorder`] on the hot path while another serves `dump`
/// requests from a control thread.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (clamped to ≥ [`SHARDS`]),
    /// with no node stamp and sampling reported off.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_meta(capacity, None, false)
    }

    /// A ring that stamps `node_id` on dumped lines and reports `sampled`
    /// in every dump header.
    pub fn with_meta(
        capacity: usize,
        node_id: Option<String>,
        sampled: bool,
    ) -> FlightRecorder {
        let per_shard = capacity.max(SHARDS).div_ceil(SHARDS);
        let shards = (0..SHARDS)
            .map(|_| {
                Mutex::new(Ring {
                    slots: Vec::with_capacity(per_shard),
                    next: 0,
                })
            })
            .collect();
        FlightRecorder {
            inner: Arc::new(Inner {
                seq: AtomicU64::new(0),
                shards,
                per_shard,
                node_id: node_id.filter(|id| !id.is_empty()),
                sampled,
            }),
        }
    }

    /// Total ring capacity in events.
    pub fn capacity(&self) -> usize {
        SHARDS * self.inner.per_shard
    }

    /// Events recorded over the ring's lifetime (not the retained count).
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    fn push_at(&self, seq: u64, event: TraceEvent) {
        let mut ring = lock(&self.inner.shards[(seq as usize) % SHARDS]);
        if ring.slots.len() < self.inner.per_shard {
            ring.slots.push((seq, event));
        } else {
            let at = ring.next;
            ring.slots[at] = (seq, event);
            ring.next = (at + 1) % self.inner.per_shard;
        }
    }

    /// Records one event.
    pub fn push(&self, event: TraceEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.push_at(seq, event);
    }

    /// Records a block of events under one contiguous seq range, so a
    /// request's span tree stays un-interleaved with concurrent blocks
    /// when the dump re-sorts by seq.
    pub fn push_block(&self, events: &[TraceEvent]) {
        let base = self
            .inner
            .seq
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        for (offset, event) in events.iter().enumerate() {
            self.push_at(base + offset as u64, event.clone());
        }
    }

    /// Snapshots the ring into well-formed `minobs/trace/v1` JSONL.
    ///
    /// Acquires every shard lock in index order (writers only ever hold
    /// one, so this cannot deadlock), sorts the retained events by seq,
    /// then repairs ring-truncation damage: orphan `span_end`s and
    /// unpaired `svc_request`/`svc_response` halves are dropped, and
    /// spans still open at the end are closed with synthesized ends
    /// marked `"truncated":true`.
    pub fn dump(&self, reason: &str) -> FlightSnapshot {
        let mut entries: Vec<(u64, TraceEvent)> = Vec::new();
        {
            let guards: Vec<_> = self.inner.shards.iter().map(lock).collect();
            for guard in &guards {
                entries.extend(guard.slots.iter().cloned());
            }
        }
        entries.sort_by_key(|(seq, _)| *seq);

        // Pass 1: svc request/response pairing. Responses follow their
        // requests, so eviction can orphan either half; keep only seqs
        // present as a full pair.
        let mut req_seqs = std::collections::HashSet::new();
        let mut resp_seqs = std::collections::HashSet::new();
        for (_, event) in &entries {
            match event {
                TraceEvent::SvcRequest { seq, .. } => {
                    req_seqs.insert(*seq);
                }
                TraceEvent::SvcResponse { seq, .. } => {
                    resp_seqs.insert(*seq);
                }
                _ => {}
            }
        }

        // Pass 2: span bracketing over the seq-ordered stream. Blocks
        // recorded via `push_block` are contiguous, so a single stack
        // sees properly nested spans; an end with no matching open start
        // lost its start to eviction.
        let mut lines: Vec<Value> = Vec::new();
        let mut open: Vec<(u64, String)> = Vec::new();
        let mut dropped = 0u64;
        for (_, event) in &entries {
            match event {
                TraceEvent::SpanStart { span_id, name, .. } => {
                    open.push((*span_id, name.clone()));
                    lines.push(event.to_json());
                }
                TraceEvent::SpanEnd { span_id, name, .. } => {
                    if open
                        .last()
                        .is_some_and(|(id, n)| id == span_id && n == name)
                    {
                        open.pop();
                        lines.push(event.to_json());
                    } else {
                        dropped += 1;
                    }
                }
                TraceEvent::SvcRequest { seq, .. } if !resp_seqs.contains(seq) => {
                    dropped += 1;
                }
                TraceEvent::SvcResponse { seq, .. } if !req_seqs.contains(seq) => {
                    dropped += 1;
                }
                _ => lines.push(event.to_json()),
            }
        }
        // Spans still open when the ring was snapshotted: close them
        // innermost-first with synthesized, explicitly-truncated ends so
        // the dump stays bracketed without inventing durations.
        let truncated = open.len() as u64;
        for (span_id, name) in open.into_iter().rev() {
            let mut end = TraceEvent::SpanEnd {
                round: 0,
                span_id,
                name,
                nanos: 0,
            }
            .to_json();
            if let Value::Object(map) = &mut end {
                map.insert("truncated".to_string(), Value::from(true));
            }
            lines.push(end);
        }

        let events = lines.len() as u64;
        let header = TraceEvent::FlightDump {
            reason: reason.to_string(),
            events,
            dropped,
            truncated,
            sampled: self.inner.sampled,
        }
        .to_json();
        let mut jsonl = String::new();
        for mut line in std::iter::once(header).chain(lines) {
            if let (Some(node_id), Value::Object(map)) = (&self.inner.node_id, &mut line) {
                map.insert("node_id".to_string(), Value::from(node_id.as_str()));
            }
            jsonl.push_str(&serde_json::to_string(&line).unwrap_or_default());
            jsonl.push('\n');
        }
        FlightSnapshot {
            jsonl,
            events,
            dropped,
            truncated,
        }
    }
}

/// The hot-path integration: every event the tee forwards lands in the
/// ring via the `record` funnel.
impl Recorder for FlightRecorder {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The deterministic tail-sampling keep decision for an unremarkable
/// trace: `true` iff `trace_id` hashes under the `sample` fraction of
/// the 64-bit space.
///
/// The decision is a pure function of the trace id (finalizer-mixed so
/// sequential ids spread uniformly), which is what makes independent
/// per-node decisions fleet-consistent: every node that sees a span of
/// trace `T` computes the same verdict, so a kept trace is kept whole
/// across the cluster and a dropped one vanishes everywhere.
pub fn sample_keep(trace_id: u128, sample: f64) -> bool {
    if sample >= 1.0 {
        return true;
    }
    if sample <= 0.0 {
        return false;
    }
    let mut x = (trace_id as u64) ^ ((trace_id >> 64) as u64);
    // splitmix64-style avalanche: every input bit affects every output bit.
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    // Compare in integer space: sample of the full u64 range, no float
    // rounding at the boundary.
    (x as f64) < sample * (u64::MAX as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MessageStatus;

    fn parse(jsonl: &str) -> Vec<Value> {
        jsonl
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn dump_is_headed_and_ordered() {
        let flight = FlightRecorder::new(64);
        let mut flight_rec = flight.clone();
        flight_rec.on_svc_request(1, "stats");
        flight_rec.on_svc_response(1, "stats", true, "none", 10);
        let snap = flight.dump("rpc");
        let lines = parse(&snap.jsonl);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("event").and_then(Value::as_str),
            Some("flight_dump")
        );
        assert_eq!(lines[0].get("reason").and_then(Value::as_str), Some("rpc"));
        assert_eq!(lines[0].get("events").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.events, 2);
        assert_eq!((snap.dropped, snap.truncated), (0, 0));
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_capacity() {
        let capacity = 16;
        // Partly filled, exactly full, and wrapped once or several times.
        for pushes in [5, capacity, capacity + 1, capacity + 7, capacity + 84] {
            let flight = FlightRecorder::new(capacity);
            assert_eq!(flight.capacity(), capacity);
            for round in 0..pushes {
                flight.push(TraceEvent::Message {
                    round,
                    from: 0,
                    to: 1,
                    status: MessageStatus::Delivered,
                });
            }
            assert_eq!(flight.capacity(), capacity);
            assert_eq!(flight.recorded(), pushes as u64);
            let snap = flight.dump("rpc");
            let kept = pushes.min(capacity) as u64;
            assert_eq!(snap.events, kept);
            let lines = parse(&snap.jsonl);
            // Only the newest `capacity` survive, still in emission order.
            let rounds: Vec<u64> = lines[1..]
                .iter()
                .map(|l| l.get("round").and_then(Value::as_u64).unwrap())
                .collect();
            let newest: Vec<u64> = (pushes as u64 - kept..pushes as u64).collect();
            assert_eq!(rounds, newest);
        }
    }

    #[test]
    fn open_spans_get_synthesized_truncated_ends() {
        let flight = FlightRecorder::new(64);
        flight.push_block(&[
            TraceEvent::SpanStart {
                round: 0,
                span_id: 7,
                parent: None,
                name: "rpc.check".to_string(),
                trace_id: Some(0xabc),
                ctx_parent: None,
            },
            TraceEvent::SpanStart {
                round: 0,
                span_id: 8,
                parent: Some(7),
                name: "check.eval".to_string(),
                trace_id: None,
                ctx_parent: None,
            },
        ]);
        let snap = flight.dump("panic");
        assert_eq!(snap.truncated, 2);
        let lines = parse(&snap.jsonl);
        // Innermost closes first, so the dump stays properly bracketed.
        let tail: Vec<(&str, u64, bool)> = lines[3..]
            .iter()
            .map(|l| {
                (
                    l.get("name").and_then(Value::as_str).unwrap(),
                    l.get("span_id").and_then(Value::as_u64).unwrap(),
                    l.get("truncated").and_then(Value::as_bool).unwrap(),
                )
            })
            .collect();
        assert_eq!(tail, vec![("check.eval", 8, true), ("rpc.check", 7, true)]);
    }

    #[test]
    fn orphan_span_ends_and_unpaired_svc_halves_are_dropped() {
        let flight = FlightRecorder::new(64);
        let mut rec = flight.clone();
        // An end whose start was (notionally) evicted.
        rec.on_span_end(0, 99, "lost", 5);
        // A request whose response never arrived, and vice versa.
        rec.on_svc_request(1, "stats");
        rec.on_svc_response(2, "stats", true, "none", 3);
        let snap = flight.dump("rpc");
        assert_eq!(snap.events, 0);
        assert_eq!(snap.dropped, 3);
    }

    #[test]
    fn eviction_of_a_span_start_drops_its_end() {
        // Capacity 8: one balanced pair recorded early gets half evicted
        // by later traffic; the dump must not keep the dangling end.
        let flight = FlightRecorder::new(8);
        let mut rec = flight.clone();
        rec.on_span_start(0, 1, None, "early");
        for round in 0..7 {
            rec.on_message(round, 0, 1, MessageStatus::Delivered);
        }
        // The start is now the oldest slot; two more events evict it
        // (shard rings overwrite their own oldest residue class).
        rec.on_span_end(0, 1, "early", 10);
        for round in 7..20 {
            rec.on_message(round, 0, 1, MessageStatus::Delivered);
        }
        let snap = flight.dump("rpc");
        let lines = parse(&snap.jsonl);
        for line in &lines[1..] {
            assert_ne!(
                line.get("event").and_then(Value::as_str),
                Some("span_end"),
                "dangling span_end survived: {line:?}"
            );
        }
    }

    #[test]
    fn dump_stamps_node_id_and_sampled_flag() {
        let flight = FlightRecorder::with_meta(32, Some("127.0.0.1:7400".to_string()), true);
        flight.push(TraceEvent::Health {
            status: "ok".to_string(),
            ready: true,
            live: true,
        });
        let lines = parse(&flight.dump("health_edge").jsonl);
        for line in &lines {
            assert_eq!(
                line.get("node_id").and_then(Value::as_str),
                Some("127.0.0.1:7400")
            );
        }
        assert_eq!(lines[0].get("sampled").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn sample_keep_is_deterministic_and_roughly_proportional() {
        let sample = 0.25;
        let kept: Vec<u128> = (0..4000u128).filter(|&id| sample_keep(id, sample)).collect();
        // Deterministic: the same ids are kept on a "second node".
        let again: Vec<u128> = (0..4000u128).filter(|&id| sample_keep(id, sample)).collect();
        assert_eq!(kept, again);
        // Roughly a quarter of sequential ids survive the mixed hash.
        let frac = kept.len() as f64 / 4000.0;
        assert!((0.18..0.32).contains(&frac), "kept fraction {frac}");
        // Degenerate rates short-circuit.
        assert!(sample_keep(42, 1.0));
        assert!(!sample_keep(42, 0.0));
    }

    #[test]
    fn concurrent_dump_during_heavy_recording_never_tears_a_block() {
        let flight = FlightRecorder::new(256);
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let flight = flight.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let span_id = w * 10_000 + i;
                        flight.push_block(&[
                            TraceEvent::SpanStart {
                                round: 0,
                                span_id,
                                parent: None,
                                name: format!("worker{w}"),
                                trace_id: None,
                                ctx_parent: None,
                            },
                            TraceEvent::SpanEnd {
                                round: 0,
                                span_id,
                                name: format!("worker{w}"),
                                nanos: 1,
                            },
                        ]);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let snap = flight.dump("rpc");
            // Every dump taken mid-storm is balanced: starts and kept
            // ends pair off, possibly with synthesized closers.
            let lines = parse(&snap.jsonl);
            let mut depth = 0i64;
            for line in &lines[1..] {
                match line.get("event").and_then(Value::as_str) {
                    Some("span_start") => depth += 1,
                    Some("span_end") => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "dump closed more spans than it opened");
            }
            assert_eq!(depth, 0, "dump left spans unbalanced");
        }
        for writer in writers {
            writer.join().unwrap();
        }
    }
}
