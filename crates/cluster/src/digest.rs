//! The `minobs/gossip/v1` anti-entropy payloads.
//!
//! A gossip round is two stateless RPCs on the `gossip` method:
//!
//! 1. **digest** — the initiator sends 16 per-shard fingerprints of its
//!    verdict map (`{"gossip": "minobs/gossip/v1", "phase": "digest",
//!    "from": addr, "shards": [u64; 16]}`) and receives the responder's
//!    fingerprints back (`{"shards": [u64; 16]}`).
//! 2. **sync** — for every shard whose fingerprints disagree, the initiator
//!    ships its full shard contents as deltas (`{"phase": "sync", "from":
//!    addr, "shards": [idx…], "deltas": […]}`); the responder ingests them
//!    and replies with its own deltas for the same shards
//!    (`{"applied": n, "deltas": […]}`).
//!
//! Deltas reuse the `minobs/wal/v1` record shapes — a [`Delta::Horizon`] is
//! byte-identical to a WAL `horizon` record, a [`Delta::Theorem`] to a
//! `theorem` record — so replicated verdicts flow through exactly the ingest
//! path local ones do. Shipping whole shards on mismatch is deliberately
//! simple: ingest is idempotent (already-known records are skipped, bounds
//! only tighten), so over-shipping costs bandwidth, never correctness.

use crate::fnv1a;
use minobs_synth::cache::HorizonVerdicts;
use serde_json::{Map, Value};

/// Gossip payload schema tag.
pub const GOSSIP_SCHEMA: &str = "minobs/gossip/v1";

/// The WAL schema tag deltas are framed under, byte-identical to
/// `minobs-svc`'s `minobs/wal/v1` records (pinned by a cross-crate test).
pub const WAL_SCHEMA: &str = "minobs/wal/v1";

/// Number of digest shards. 16 keeps the digest frame tiny while a single
/// divergent key only re-ships ~1/16th of the map.
pub const SHARDS: usize = 16;

/// One verdict-map entry as exposed by the daemon cache snapshot.
pub type Entry = (String, HorizonVerdicts, Option<Value>);

/// The shard a canonical key hashes into.
pub fn shard_of(key: &str) -> usize {
    (fnv1a(key.as_bytes()) % SHARDS as u64) as usize
}

/// Per-shard fingerprints of a verdict-map snapshot.
///
/// The snapshot must be key-sorted (as `VerdictCache::snapshot` guarantees);
/// each entry folds its key, canonical verdict JSON, and theorem JSON into
/// its shard's running FNV state, so two nodes agree on a shard's
/// fingerprint exactly when they hold identical entries for it.
pub fn fingerprints(entries: &[Entry]) -> [u64; SHARDS] {
    let mut fps = [0xcbf2_9ce4_8422_2325u64; SHARDS];
    for (key, verdicts, theorem) in entries {
        let shard = shard_of(key);
        let mut line = String::new();
        line.push_str(key);
        line.push('\u{1f}');
        line.push_str(&serde_json::to_string(&verdicts.to_json()).unwrap_or_default());
        line.push('\u{1f}');
        if let Some(theorem) = theorem {
            line.push_str(&serde_json::to_string(theorem).unwrap_or_default());
        }
        for &byte in line.as_bytes() {
            fps[shard] ^= u64::from(byte);
            fps[shard] = fps[shard].wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Entry separator so fingerprints distinguish entry boundaries.
        fps[shard] ^= 0x1e;
        fps[shard] = fps[shard].wrapping_mul(0x0000_0100_0000_01b3);
    }
    fps
}

/// Indices of shards whose fingerprints disagree.
pub fn mismatched(mine: &[u64; SHARDS], theirs: &[u64; SHARDS]) -> Vec<usize> {
    (0..SHARDS).filter(|&i| mine[i] != theirs[i]).collect()
}

/// One replicated record, wire-compatible with `minobs/wal/v1`.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// A definite horizon verdict boundary.
    Horizon {
        key: String,
        k: usize,
        solvable: bool,
    },
    /// A memoised theorem result.
    Theorem { key: String, result: Value },
}

impl Delta {
    /// Stable operation name (matches the WAL `op` field).
    pub fn op(&self) -> &'static str {
        match self {
            Delta::Horizon { .. } => "horizon",
            Delta::Theorem { .. } => "theorem",
        }
    }

    /// The canonical key the delta is about.
    pub fn key(&self) -> &str {
        match self {
            Delta::Horizon { key, .. } | Delta::Theorem { key, .. } => key,
        }
    }

    /// Serialises to the `minobs/wal/v1` record shape.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("wal", Value::from(WAL_SCHEMA));
        map.insert("op", Value::from(self.op()));
        map.insert("key", Value::from(self.key()));
        match self {
            Delta::Horizon { k, solvable, .. } => {
                map.insert("k", Value::from(*k as u64));
                map.insert("solvable", Value::from(*solvable));
            }
            Delta::Theorem { result, .. } => {
                map.insert("result", result.clone());
            }
        }
        Value::Object(map)
    }

    /// Parses one delta; `None` on anything malformed or any op other than
    /// `horizon`/`theorem` (snapshots never travel over gossip).
    pub fn from_json(value: &Value) -> Option<Delta> {
        if value.get("wal").and_then(Value::as_str) != Some(WAL_SCHEMA) {
            return None;
        }
        let key = value.get("key").and_then(Value::as_str)?.to_string();
        match value.get("op").and_then(Value::as_str)? {
            "horizon" => Some(Delta::Horizon {
                key,
                k: usize::try_from(value.get("k")?.as_u64()?).ok()?,
                solvable: value.get("solvable")?.as_bool()?,
            }),
            "theorem" => Some(Delta::Theorem {
                key,
                result: value.get("result")?.clone(),
            }),
            _ => None,
        }
    }
}

/// Expands the entries living in `shards` into deltas: one `Horizon` per
/// established boundary plus one `Theorem` when a memo exists. Both
/// boundaries ship because either may be the one the peer is missing.
pub fn shard_deltas(entries: &[Entry], shards: &[usize]) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (key, verdicts, theorem) in entries {
        if !shards.contains(&shard_of(key)) {
            continue;
        }
        if let Some(k) = verdicts.max_unsolvable() {
            deltas.push(Delta::Horizon {
                key: key.clone(),
                k,
                solvable: false,
            });
        }
        if let Some(k) = verdicts.min_solvable() {
            deltas.push(Delta::Horizon {
                key: key.clone(),
                k,
                solvable: true,
            });
        }
        if let Some(result) = theorem {
            deltas.push(Delta::Theorem {
                key: key.clone(),
                result: result.clone(),
            });
        }
    }
    deltas
}

/// A parsed inbound gossip request.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipRequest {
    /// The initiator's advertised address (peer-table label only — never
    /// trusted for routing).
    pub from: String,
    pub body: GossipBody,
}

/// The phase-specific request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipBody {
    /// Phase 1: the initiator's shard fingerprints.
    Digest { shards: [u64; SHARDS] },
    /// Phase 2: mismatched shard indices plus the initiator's deltas.
    Sync {
        shards: Vec<usize>,
        deltas: Vec<Delta>,
    },
}

fn shards_json(fps: &[u64; SHARDS]) -> Value {
    Value::Array(fps.iter().map(|&fp| Value::from(fp)).collect())
}

fn parse_shards(value: &Value) -> Option<[u64; SHARDS]> {
    let items = value.as_array()?;
    if items.len() != SHARDS {
        return None;
    }
    let mut fps = [0u64; SHARDS];
    for (slot, item) in fps.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Some(fps)
}

/// Builds the phase-1 request params.
pub fn digest_params(from: &str, fps: &[u64; SHARDS]) -> Value {
    let mut map = Map::new();
    map.insert("gossip", Value::from(GOSSIP_SCHEMA));
    map.insert("phase", Value::from("digest"));
    map.insert("from", Value::from(from));
    map.insert("shards", shards_json(fps));
    Value::Object(map)
}

/// Builds the phase-2 request params.
pub fn sync_params(from: &str, shards: &[usize], deltas: &[Delta]) -> Value {
    let mut map = Map::new();
    map.insert("gossip", Value::from(GOSSIP_SCHEMA));
    map.insert("phase", Value::from("sync"));
    map.insert("from", Value::from(from));
    map.insert(
        "shards",
        Value::Array(shards.iter().map(|&s| Value::from(s as u64)).collect()),
    );
    map.insert(
        "deltas",
        Value::Array(deltas.iter().map(Delta::to_json).collect()),
    );
    Value::Object(map)
}

/// Parses an inbound gossip request; `Err` carries a protocol-error string.
pub fn parse_params(params: &Value) -> Result<GossipRequest, String> {
    if params.get("gossip").and_then(Value::as_str) != Some(GOSSIP_SCHEMA) {
        return Err(format!("params.gossip must be {GOSSIP_SCHEMA:?}"));
    }
    let from = params
        .get("from")
        .and_then(Value::as_str)
        .ok_or("params.from must be a string")?
        .to_string();
    match params.get("phase").and_then(Value::as_str) {
        Some("digest") => {
            let shards = params
                .get("shards")
                .and_then(parse_shards)
                .ok_or(format!("params.shards must be {SHARDS} u64 fingerprints"))?;
            Ok(GossipRequest {
                from,
                body: GossipBody::Digest { shards },
            })
        }
        Some("sync") => {
            let shards = params
                .get("shards")
                .and_then(Value::as_array)
                .ok_or("params.shards must be an array of shard indices")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|s| usize::try_from(s).ok())
                        .filter(|&s| s < SHARDS)
                        .ok_or("params.shards entries must be shard indices")
                })
                .collect::<Result<Vec<usize>, &str>>()?;
            let deltas = params
                .get("deltas")
                .and_then(Value::as_array)
                .ok_or("params.deltas must be an array")?
                .iter()
                .map(|v| Delta::from_json(v).ok_or("params.deltas entries must be wal/v1 records"))
                .collect::<Result<Vec<Delta>, &str>>()?;
            Ok(GossipRequest {
                from,
                body: GossipBody::Sync { shards, deltas },
            })
        }
        _ => Err("params.phase must be \"digest\" or \"sync\"".to_string()),
    }
}

/// Builds the phase-1 response result.
pub fn digest_result(fps: &[u64; SHARDS]) -> Value {
    let mut map = Map::new();
    map.insert("shards", shards_json(fps));
    Value::Object(map)
}

/// Parses a phase-1 response result.
pub fn parse_digest_result(result: &Value) -> Option<[u64; SHARDS]> {
    parse_shards(result.get("shards")?)
}

/// Builds the phase-2 response result.
pub fn sync_result(applied: u64, deltas: &[Delta]) -> Value {
    let mut map = Map::new();
    map.insert("applied", Value::from(applied));
    map.insert(
        "deltas",
        Value::Array(deltas.iter().map(Delta::to_json).collect()),
    );
    Value::Object(map)
}

/// Parses a phase-2 response result into `(applied, deltas)`.
pub fn parse_sync_result(result: &Value) -> Option<(u64, Vec<Delta>)> {
    let applied = result.get("applied")?.as_u64()?;
    let deltas = result
        .get("deltas")?
        .as_array()?
        .iter()
        .map(Delta::from_json)
        .collect::<Option<Vec<Delta>>>()?;
    Some((applied, deltas))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, unsolvable_at: Option<usize>, solvable_at: Option<usize>) -> Entry {
        let verdicts = HorizonVerdicts::from_boundaries(solvable_at, unsolvable_at)
            .expect("test boundaries are consistent");
        (key.to_string(), verdicts, None)
    }

    #[test]
    fn identical_snapshots_agree_on_every_shard() {
        let a = vec![entry("p|3", Some(1), Some(4)), entry("q|2", None, Some(2))];
        let b = a.clone();
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert!(mismatched(&fingerprints(&a), &fingerprints(&b)).is_empty());
    }

    #[test]
    fn a_divergent_key_flips_exactly_its_shard() {
        let base = vec![entry("p|3", Some(1), Some(4)), entry("q|2", None, Some(2))];
        let mut tightened = base.clone();
        tightened[0].1.merge(3, true); // min_solvable 4 -> 3
        let diff = mismatched(&fingerprints(&base), &fingerprints(&tightened));
        assert_eq!(diff, vec![shard_of("p|3")]);
    }

    #[test]
    fn deltas_round_trip_and_cover_both_boundaries() {
        let mut entries = vec![entry("p|3", Some(1), Some(4))];
        entries[0].2 = Some(serde_json::from_str("{\"solvable\": true}").unwrap());
        let all: Vec<usize> = (0..SHARDS).collect();
        let deltas = shard_deltas(&entries, &all);
        assert_eq!(deltas.len(), 3, "both boundaries plus the theorem memo");
        for delta in &deltas {
            assert_eq!(Delta::from_json(&delta.to_json()).as_ref(), Some(delta));
        }
        let empty = shard_deltas(&entries, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn params_round_trip_both_phases() {
        let fps = fingerprints(&[entry("p|3", Some(1), None)]);
        let digest = parse_params(&digest_params("n1:1", &fps)).unwrap();
        assert_eq!(digest.from, "n1:1");
        assert_eq!(digest.body, GossipBody::Digest { shards: fps });

        let deltas = vec![Delta::Horizon {
            key: "p|3".to_string(),
            k: 1,
            solvable: false,
        }];
        let sync = parse_params(&sync_params("n2:2", &[0, 5], &deltas)).unwrap();
        assert_eq!(
            sync.body,
            GossipBody::Sync {
                shards: vec![0, 5],
                deltas: deltas.clone(),
            }
        );

        assert_eq!(parse_digest_result(&digest_result(&fps)), Some(fps));
        assert_eq!(
            parse_sync_result(&sync_result(2, &deltas)),
            Some((2, deltas))
        );
    }

    #[test]
    fn malformed_params_are_rejected_with_reasons() {
        let bad = serde_json::from_str("{\"gossip\": \"minobs/gossip/v0\"}").unwrap();
        assert!(parse_params(&bad).is_err());
        let bad = serde_json::from_str(
            "{\"gossip\": \"minobs/gossip/v1\", \"from\": \"a\", \"phase\": \"digest\", \"shards\": [1]}",
        )
        .unwrap();
        assert!(parse_params(&bad).unwrap_err().contains("fingerprints"));
        let bad = serde_json::from_str(
            "{\"gossip\": \"minobs/gossip/v1\", \"from\": \"a\", \"phase\": \"sync\", \"shards\": [99], \"deltas\": []}",
        )
        .unwrap();
        assert!(parse_params(&bad).is_err(), "out-of-range shard index");
    }

    #[test]
    fn snapshot_like_ops_do_not_parse_as_deltas() {
        let snapshot = serde_json::from_str(
            "{\"wal\": \"minobs/wal/v1\", \"op\": \"snapshot\", \"key\": \"p\", \"verdicts\": {}, \"theorem\": null}",
        )
        .unwrap();
        assert_eq!(Delta::from_json(&snapshot), None);
    }
}
