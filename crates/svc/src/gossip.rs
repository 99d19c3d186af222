//! The anti-entropy loop and the `gossip` method handler.
//!
//! Every [`GossipConfig::interval`] the loop picks the next peer
//! round-robin and runs one push-pull exchange over the ordinary wire
//! protocol (two `gossip` RPCs, see `minobs_cluster::digest`): compare
//! per-shard fingerprints, then ship both sides' deltas for the shards
//! that disagree. Inbound deltas — whether this node initiated or the
//! peer did — go through [`ingest_deltas`], which merges each record
//! by the cache's one merge rule, the same one WAL replay and workers
//! use: records already implied by the cache are skipped, records that
//! would *contradict* an established bound are rejected (and counted),
//! and only genuinely new knowledge is applied — landing in both the
//! cache and the local WAL, so a replicated verdict survives a restart
//! like a local one.
//!
//! Convergence is a semilattice join: bounds only tighten and theorems
//! never change, so exchanges are idempotent and order-free, and after a
//! partition heals every pair of live nodes pulls each other level.
//!
//! An optional [`LinkPolicy`] sits in front of every outbound exchange;
//! chaos harnesses use it to drop or delay rounds deterministically. A
//! dropped round counts as a peer failure, exactly like a refused
//! connection; [`minobs_cluster::DOWN_AFTER`] consecutive failures emit
//! one `peer_down` event.

use crate::client::SvcClient;
use crate::methods::RpcError;
use crate::server::ServerState;
use minobs_cluster::digest::{self, Delta, GossipBody};
use minobs_cluster::{LinkPolicy, LinkVerdict};
use minobs_obs::{stamp_root_span, MemoryRecorder, SpanGuard, SpanIds, TraceContext};
use minobs_synth::cache::Merge;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dial timeout for peer connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Response timeout per gossip RPC.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Ceiling on a chaos-injected delay, so a hostile policy cannot wedge
/// the loop past drain responsiveness.
const MAX_INJECTED_DELAY: Duration = Duration::from_millis(100);

/// What the gossip thread needs beyond the shared state.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// This node's bound address, advertised in the `from` field.
    pub self_addr: String,
    /// Peer addresses, gossiped to round-robin.
    pub peers: Vec<String>,
    /// Time between rounds.
    pub interval: Duration,
    /// Optional per-link fault injection.
    pub link_policy: Option<LinkPolicy>,
}

/// The daemon's gossip thread: one exchange per interval until drain.
pub(crate) fn gossip_loop(state: &Arc<ServerState>, config: &GossipConfig) {
    let mut clients: HashMap<String, SvcClient> = HashMap::new();
    let mut round: u64 = 0;
    while !state.wait_for_drain(config.interval) {
        let peer = &config.peers[(round % config.peers.len() as u64) as usize];
        match config
            .link_policy
            .as_ref()
            .map(|policy| policy.verdict(round, peer))
            .unwrap_or(LinkVerdict::Deliver)
        {
            LinkVerdict::Drop => {
                clients.remove(peer);
                state.gossip_failure(peer);
            }
            LinkVerdict::Delay(delay) => {
                std::thread::sleep(delay.min(MAX_INJECTED_DELAY));
                exchange_and_account(state, &mut clients, config, peer);
            }
            LinkVerdict::Deliver => {
                exchange_and_account(state, &mut clients, config, peer);
            }
        }
        round += 1;
    }
}

fn exchange_and_account(
    state: &ServerState,
    clients: &mut HashMap<String, SvcClient>,
    config: &GossipConfig,
    peer: &str,
) {
    match exchange(state, clients, config, peer) {
        Ok(()) => {}
        Err(_) => {
            // Whatever went wrong, the connection is suspect; redial on
            // the next round rather than reusing a half-dead stream.
            clients.remove(peer);
            state.gossip_failure(peer);
        }
    }
}

/// One push-pull exchange with `peer`. Success updates the peer table
/// and emits `gossip_round`; the caller accounts failures.
fn exchange(
    state: &ServerState,
    clients: &mut HashMap<String, SvcClient>,
    config: &GossipConfig,
    peer: &str,
) -> Result<(), String> {
    let started = Instant::now();
    if !clients.contains_key(peer) {
        let mut client = SvcClient::connect_with_timeout(peer, Some(CONNECT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        client
            .set_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        clients.insert(peer.to_string(), client);
    }
    let client = clients.get_mut(peer).expect("just inserted");

    // Each exchange runs under a `gossip.exchange` span. When a recent
    // cache-filling request stashed its trace context, the exchange
    // joins that trace — replicating the verdict stays attributable to
    // the request that produced it; otherwise it roots a fresh trace.
    // Both gossip RPCs carry a child context parented on this span, so
    // the receiving daemon's `rpc.gossip` span stitches underneath it.
    let ctx = state.take_gossip_ctx().unwrap_or_else(TraceContext::root);
    let mut spans = MemoryRecorder::new();
    let mut span_ids = SpanIds::starting_at(state.next_seq() << 20);
    let span = SpanGuard::begin(&mut spans, &mut span_ids, 0, None, "gossip.exchange");
    let rpc_ctx = match span.as_ref().map(SpanGuard::id) {
        Some(id) => TraceContext {
            trace_id: ctx.trace_id,
            parent_span: Some(id),
        },
        None => ctx,
    };

    let entries = state.cache().snapshot();
    let mine = digest::fingerprints(&entries);
    let reply = client
        .call_with_ctx(
            "gossip",
            digest::digest_params(&config.self_addr, &mine),
            &rpc_ctx,
        )
        .map_err(|e| e.to_string())?;
    let theirs =
        digest::parse_digest_result(&reply).ok_or("peer sent a malformed digest result")?;
    let mismatch = digest::mismatched(&mine, &theirs);
    let (sent, accepted, lag) = if mismatch.is_empty() {
        (0, 0, 0)
    } else {
        let outbound = digest::shard_deltas(&entries, &mismatch);
        let reply = client
            .call_with_ctx(
                "gossip",
                digest::sync_params(&config.self_addr, &mismatch, &outbound),
                &rpc_ctx,
            )
            .map_err(|e| e.to_string())?;
        let (_applied_there, inbound) =
            digest::parse_sync_result(&reply).ok_or("peer sent a malformed sync result")?;
        let accepted = ingest_deltas(state, peer, &inbound);
        (outbound.len() as u64, accepted, mismatch.len() as u64)
    };

    if let Some(span) = span {
        span.end(&mut spans);
    }
    let mut events = spans.into_events();
    stamp_root_span(&mut events, &ctx);
    let nanos = (started.elapsed().as_nanos() as u64).max(1);
    state.gossip_success(peer, sent, accepted, lag, nanos, &events);
    Ok(())
}

/// Ingests replicated deltas, one [`ServerState::record_horizon`] /
/// [`ServerState::record_theorem`] merge each. Returns how many were
/// genuinely new and applied.
///
/// A delta the cache already implies (same verdict, exact or subsumed,
/// or an equal theorem memo) is skipped silently; one that
/// *contradicts* an established bound or memo is rejected and counted
/// (`gossip_apply` with `accepted: false`, `svc.gossip_rejected`) — a
/// hostile or corrupt peer cannot plant a contradiction. Applied deltas
/// land in the cache *and* the local WAL.
pub(crate) fn ingest_deltas(state: &ServerState, peer: &str, deltas: &[Delta]) -> u64 {
    let mut applied = 0u64;
    for delta in deltas {
        let (kind, key, merge) = match delta {
            Delta::Horizon { key, k, solvable } => {
                ("horizon", key, state.record_horizon(key, *k, *solvable))
            }
            Delta::Theorem { key, result } => {
                ("theorem", key, state.record_theorem(key, result.clone()))
            }
        };
        match merge {
            Merge::Applied => {
                state.on_gossip_apply(peer, kind, key, true);
                applied += 1;
            }
            Merge::Implied => {}
            Merge::Contradiction => state.on_gossip_apply(peer, kind, key, false),
        }
    }
    applied
}

/// The `gossip` method handler: answer a digest with our fingerprints,
/// answer a sync by ingesting the peer's deltas and returning ours for
/// the same shards.
pub(crate) fn handle(state: &ServerState, params: &Value) -> Result<Value, RpcError> {
    let request =
        digest::parse_params(params).map_err(|message| RpcError::new("bad_params", message))?;
    match request.body {
        GossipBody::Digest { .. } => {
            let entries = state.cache().snapshot();
            Ok(digest::digest_result(&digest::fingerprints(&entries)))
        }
        GossipBody::Sync { shards, deltas } => {
            let applied = ingest_deltas(state, &request.from, &deltas);
            // Snapshot *after* ingest: what we just accepted is no longer
            // a delta the initiator needs back, and what it still lacks
            // is exactly our surviving shard contents.
            let entries = state.cache().snapshot();
            let ours = digest::shard_deltas(&entries, &shards);
            Ok(digest::sync_result(applied, &ours))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, SvcConfig};
    use std::time::Duration;

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let started = Instant::now();
        while started.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        done()
    }

    #[test]
    fn two_nodes_converge_in_both_directions() {
        // a runs without peers; b gossips at a. Convergence must still be
        // bidirectional because the sync phase is push-pull.
        let a = serve(SvcConfig::default()).unwrap();
        let b = serve(SvcConfig {
            peers: vec![a.local_addr().to_string()],
            gossip_interval: Duration::from_millis(15),
            ..SvcConfig::default()
        })
        .unwrap();

        a.state().record_horizon("scheme-a|alpha2", 3, true);
        b.state().record_horizon("scheme-b|alpha2", 2, false);
        b.state()
            .record_theorem("scheme-b|theorem", Value::from("memo"));

        let converged = wait_until(Duration::from_secs(10), || {
            a.state().cache().snapshot() == b.state().cache().snapshot()
        });
        let snap_a = a.state().cache().snapshot();
        let snap_b = b.state().cache().snapshot();
        assert!(converged, "nodes did not converge: {snap_a:?} vs {snap_b:?}");
        assert_eq!(snap_a.len(), 3, "all three records on both nodes");

        // The replicated verdict answers from b's cache, subsumption
        // included, without rerunning anything.
        assert!(b
            .state()
            .cache()
            .lookup_horizon("scheme-a|alpha2", 5)
            .is_some());

        let peers = b.state().peers_json();
        assert_eq!(peers.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(peers.get("alive").and_then(Value::as_u64), Some(1));

        a.shutdown();
        b.shutdown();
        a.join();
        b.join();
    }

    #[test]
    fn ingest_rejects_contradictions_and_skips_known_records() {
        let server = serve(SvcConfig::default()).unwrap();
        let state = server.state();
        state.record_horizon("k|a", 4, true); // solvable for all k >= 4

        let deltas = vec![
            // Contradicts the established bound: rejected.
            Delta::Horizon {
                key: "k|a".to_string(),
                k: 6,
                solvable: false,
            },
            // Already implied (subsumed): skipped, not applied.
            Delta::Horizon {
                key: "k|a".to_string(),
                k: 5,
                solvable: true,
            },
            // Genuinely new: tightens the bound.
            Delta::Horizon {
                key: "k|a".to_string(),
                k: 1,
                solvable: false,
            },
            Delta::Theorem {
                key: "k|t".to_string(),
                result: Value::from(true),
            },
        ];
        let applied = ingest_deltas(state, "peer:1", &deltas);
        assert_eq!(applied, 2, "only the new bound and the theorem apply");
        let verdicts = &state
            .cache()
            .snapshot()
            .iter()
            .find(|(key, _, _)| key == "k|a")
            .unwrap()
            .1
            .clone();
        assert_eq!(verdicts.min_solvable(), Some(4), "bound never rewritten");
        assert_eq!(verdicts.max_unsolvable(), Some(1), "tightening applied");

        // A conflicting theorem memo is rejected, the original stays.
        let conflict = vec![Delta::Theorem {
            key: "k|t".to_string(),
            result: Value::from(false),
        }];
        assert_eq!(ingest_deltas(state, "peer:1", &conflict), 0);
        assert_eq!(
            state.cache().lookup_theorem("k|t"),
            Some(Value::from(true))
        );

        let registry = state.registry();
        assert_eq!(registry.counter("svc.gossip_applied").get(), 2);
        assert_eq!(registry.counter("svc.gossip_rejected").get(), 2);

        server.shutdown();
        server.join();
    }

    #[test]
    fn ingest_leaves_client_cache_counters_alone() {
        let server = serve(SvcConfig::default()).unwrap();
        let state = server.state();
        state.record_horizon("k|a", 4, true);
        state.record_theorem("k|t", Value::from(true));
        let counters = ["svc.cache_hits", "svc.cache_misses", "svc.cache_subsumptions"];
        let read = || counters.map(|name| state.registry().counter(name).get());
        let before = read();

        let horizon = |k, solvable| Delta::Horizon {
            key: "k|a".to_string(),
            k,
            solvable,
        };
        let theorem = |key: &str, result: bool| Delta::Theorem {
            key: key.to_string(),
            result: Value::from(result),
        };
        let deltas = vec![
            horizon(4, true),  // exact
            horizon(7, true),  // subsumed
            horizon(6, false), // contradiction
            horizon(2, false), // new
            theorem("k|t", true),
            theorem("k|t", false),
            theorem("k|u", false),
        ];
        assert_eq!(ingest_deltas(state, "peer:1", &deltas), 2);
        assert_eq!(read(), before);

        server.shutdown();
        server.join();
    }

    #[test]
    fn dropped_links_mark_the_peer_down_and_heal_on_delivery() {
        let a = serve(SvcConfig::default()).unwrap();
        // Drop every round before round 6, deliver after: the peer must
        // go down (edge event) and come back alive.
        let b = serve(SvcConfig {
            peers: vec![a.local_addr().to_string()],
            gossip_interval: Duration::from_millis(15),
            link_policy: Some(LinkPolicy::new(|round, _| {
                if round < 6 {
                    LinkVerdict::Drop
                } else {
                    LinkVerdict::Deliver
                }
            })),
            ..SvcConfig::default()
        })
        .unwrap();
        a.state().record_horizon("late|key", 2, true);

        let down_seen = wait_until(Duration::from_secs(10), || {
            b.state().registry().counter("svc.gossip_peer_down").get() == 1
        });
        assert!(down_seen, "peer_down should fire after 3 dropped rounds");

        let converged = wait_until(Duration::from_secs(10), || {
            b.state().cache().lookup_horizon("late|key", 2).is_some()
        });
        assert!(converged, "delivery after heal should replicate the key");
        let peers = b.state().peers_json();
        assert_eq!(peers.get("alive").and_then(Value::as_u64), Some(1));

        a.shutdown();
        b.shutdown();
        a.join();
        b.join();
    }
}
