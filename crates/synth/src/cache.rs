//! Monotone horizon verdicts and the one rule for merging them.
//!
//! Solvability at a fixed horizon is monotone in the horizon: a round-`k`
//! algorithm also decides (by ignoring later rounds' information) at any
//! `k' ≥ k`, because round-`k'` views refine round-`k` views and every
//! allowed `k`-prefix extends to an allowed `k'`-prefix within the same
//! scheme. Dually, unsolvability propagates downward: if no decision map
//! exists on round-`k` views, none exists on the coarser round-`k'` views
//! for `k' ≤ k`. (The vacuous `CheckResult::Empty` verdict — no allowed
//! prefix of length `k` at all — is upward-monotone too, since `Pref(L)`
//! is prefix-closed.)
//!
//! [`HorizonVerdicts`] exploits this: it stores only the two boundary
//! horizons — the smallest known-solvable and the largest known-unsolvable
//! — and answers every query at or beyond a boundary by *subsumption*
//! instead of re-running the exponential full-information construction.
//!
//! Every incoming verdict is therefore new, implied or a contradiction,
//! and [`HorizonVerdicts::merge`] is the only way to add one: it tightens
//! a boundary ([`Merge::Applied`]), leaves the summary alone when the
//! boundaries already imply the verdict ([`Merge::Implied`]), or refuses
//! it unchanged ([`Merge::Contradiction`]) — in every build. The
//! `minobs-svc` daemon shards many `HorizonVerdicts` values behind
//! canonical scheme keys and routes WAL replay, gossip and its workers
//! through this rule under the shard lock.

use serde_json::{Map, Value};

/// The monotone verdict summary for one (scheme, alphabet) pair.
///
/// Invariant: when both boundaries are known,
/// `max_unsolvable < min_solvable` — anything else would contradict
/// horizon monotonicity and indicates the two verdicts came from
/// different schemes (a cache-key collision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HorizonVerdicts {
    min_solvable: Option<usize>,
    max_unsolvable: Option<usize>,
}

/// How a verdict merged into what was already known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// New knowledge: a boundary tightened, or a memo was stored.
    Applied,
    /// Already known: the recorded verdicts imply it.
    Implied,
    /// Refused: it contradicts a recorded verdict, which stays as it was.
    Contradiction,
}

/// How a cached lookup answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAnswer {
    /// The queried horizon is exactly a recorded boundary.
    Exact {
        /// The cached verdict.
        solvable: bool,
    },
    /// The queried horizon is answered by monotone subsumption from a
    /// boundary proved at a *different* horizon.
    Subsumed {
        /// The inferred verdict.
        solvable: bool,
        /// The boundary horizon the verdict was actually proved at.
        proven_at: usize,
    },
}

impl CacheAnswer {
    /// The verdict, regardless of how it was derived.
    pub fn solvable(&self) -> bool {
        match *self {
            CacheAnswer::Exact { solvable } | CacheAnswer::Subsumed { solvable, .. } => solvable,
        }
    }

    /// `true` when the answer came from a different horizon's verdict.
    pub fn is_subsumed(&self) -> bool {
        matches!(self, CacheAnswer::Subsumed { .. })
    }
}

impl HorizonVerdicts {
    /// An empty summary: every lookup misses.
    pub fn new() -> HorizonVerdicts {
        HorizonVerdicts::default()
    }

    /// The smallest horizon known solvable, if any.
    pub fn min_solvable(&self) -> Option<usize> {
        self.min_solvable
    }

    /// The largest horizon known unsolvable, if any.
    pub fn max_unsolvable(&self) -> Option<usize> {
        self.max_unsolvable
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.min_solvable.is_none() && self.max_unsolvable.is_none()
    }

    /// Merges a definite verdict for horizon `k`: [`Merge::Implied`]
    /// when [`HorizonVerdicts::lookup`] already gives it,
    /// [`Merge::Contradiction`] (summary unchanged) when it gives the
    /// opposite, and otherwise [`Merge::Applied`] after tightening the
    /// matching boundary. Only definite verdicts may be merged —
    /// budget-exhausted partial answers must not reach here.
    pub fn merge(&mut self, k: usize, solvable: bool) -> Merge {
        match self.lookup(k) {
            Some(answer) if answer.solvable() == solvable => Merge::Implied,
            Some(_) => Merge::Contradiction,
            None => {
                if solvable {
                    self.min_solvable = Some(k);
                } else {
                    self.max_unsolvable = Some(k);
                }
                Merge::Applied
            }
        }
    }

    /// Reassembles a summary from its two boundaries, e.g. parsed back
    /// out of a persisted record. `None` when the pair contradicts
    /// monotonicity (`max_unsolvable >= min_solvable`) — a corrupt or
    /// cross-scheme record must be rejected, not recorded.
    pub fn from_boundaries(
        min_solvable: Option<usize>,
        max_unsolvable: Option<usize>,
    ) -> Option<HorizonVerdicts> {
        if let (Some(s), Some(u)) = (min_solvable, max_unsolvable) {
            if u >= s {
                return None;
            }
        }
        Some(HorizonVerdicts {
            min_solvable,
            max_unsolvable,
        })
    }

    /// The summary as a stable JSON object, the on-disk shape used by
    /// the `minobs-svc` write-ahead verdict log (`minobs/wal/v1`).
    pub fn to_json(&self) -> Value {
        let bound = |b: Option<usize>| b.map_or(Value::Null, |k| Value::from(k as u64));
        let mut map = Map::new();
        map.insert("min_solvable".to_string(), bound(self.min_solvable));
        map.insert("max_unsolvable".to_string(), bound(self.max_unsolvable));
        Value::Object(map)
    }

    /// Parses [`HorizonVerdicts::to_json`] output. `None` on a missing
    /// field, a non-integer boundary, or a monotonicity-violating pair.
    pub fn from_json(value: &Value) -> Option<HorizonVerdicts> {
        let bound = |name: &str| -> Option<Option<usize>> {
            match value.get(name)? {
                Value::Null => Some(None),
                v => Some(Some(usize::try_from(v.as_u64()?).ok()?)),
            }
        };
        HorizonVerdicts::from_boundaries(bound("min_solvable")?, bound("max_unsolvable")?)
    }

    /// Answers a horizon-`k` query from the recorded boundaries, or
    /// `None` when `k` lies in the unknown gap between them.
    pub fn lookup(&self, k: usize) -> Option<CacheAnswer> {
        if let Some(m) = self.min_solvable {
            if k >= m {
                return Some(if k == m {
                    CacheAnswer::Exact { solvable: true }
                } else {
                    CacheAnswer::Subsumed {
                        solvable: true,
                        proven_at: m,
                    }
                });
            }
        }
        if let Some(m) = self.max_unsolvable {
            if k <= m {
                return Some(if k == m {
                    CacheAnswer::Exact { solvable: false }
                } else {
                    CacheAnswer::Subsumed {
                        solvable: false,
                        proven_at: m,
                    }
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{gamma_alphabet, solvable_by};
    use minobs_core::prelude::*;

    /// The verdict at `k` from `cache` when it knows one, else from the
    /// checker, merged back in — the daemon's lookup-then-merge loop.
    fn verdict_via(
        cache: &mut HorizonVerdicts,
        scheme: &dyn OmissionScheme,
        k: usize,
        alphabet: &[Letter],
    ) -> bool {
        if let Some(answer) = cache.lookup(k) {
            return answer.solvable();
        }
        let solvable = solvable_by(scheme, k, alphabet).is_solvable();
        assert_eq!(cache.merge(k, solvable), Merge::Applied, "horizon {k}");
        solvable
    }

    #[test]
    fn boundaries_tighten_and_subsume() {
        let mut cache = HorizonVerdicts::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(3), None);

        assert_eq!(cache.merge(2, false), Merge::Applied);
        assert_eq!(cache.merge(5, true), Merge::Applied);
        assert_eq!(cache.merge(7, true), Merge::Implied); // looser than 5
        assert_eq!(cache.merge(1, false), Merge::Implied); // looser than 2
        assert_eq!(cache.merge(5, true), Merge::Implied); // exact repeat
        assert_eq!(cache.min_solvable(), Some(5));
        assert_eq!(cache.max_unsolvable(), Some(2));

        assert_eq!(
            cache.lookup(5),
            Some(CacheAnswer::Exact { solvable: true })
        );
        assert_eq!(
            cache.lookup(9),
            Some(CacheAnswer::Subsumed {
                solvable: true,
                proven_at: 5
            })
        );
        assert_eq!(
            cache.lookup(2),
            Some(CacheAnswer::Exact { solvable: false })
        );
        assert_eq!(
            cache.lookup(0),
            Some(CacheAnswer::Subsumed {
                solvable: false,
                proven_at: 2
            })
        );
        // The gap stays unknown.
        assert_eq!(cache.lookup(3), None);
        assert_eq!(cache.lookup(4), None);
    }

    #[test]
    fn contradictions_are_refused_unchanged() {
        let mut cache = HorizonVerdicts::new();
        cache.merge(2, false);
        cache.merge(5, true);
        let before = cache;
        // Exact, subsumed-from-above and subsumed-from-below conflicts.
        for (k, solvable) in [(5, false), (9, false), (2, true), (0, true)] {
            assert_eq!(cache.merge(k, solvable), Merge::Contradiction, "{k}");
            assert_eq!(cache, before, "{k}");
        }
        // The gap is still open to either verdict.
        assert_eq!(cache.merge(4, true), Merge::Applied);
        assert_eq!(cache.merge(3, false), Merge::Applied);
        assert_eq!(
            HorizonVerdicts::from_boundaries(cache.min_solvable(), cache.max_unsolvable()),
            Some(cache)
        );
    }

    #[test]
    fn json_round_trips_and_rejects_contradictions() {
        let mut cache = HorizonVerdicts::new();
        assert_eq!(HorizonVerdicts::from_json(&cache.to_json()), Some(cache));
        cache.merge(2, false);
        assert_eq!(HorizonVerdicts::from_json(&cache.to_json()), Some(cache));
        cache.merge(5, true);
        let json = cache.to_json();
        assert_eq!(json.get("min_solvable").and_then(Value::as_u64), Some(5));
        assert_eq!(json.get("max_unsolvable").and_then(Value::as_u64), Some(2));
        assert_eq!(HorizonVerdicts::from_json(&json), Some(cache));

        // A record whose boundaries contradict monotonicity is refused.
        let bad: Value =
            serde_json::from_str(r#"{"min_solvable":2,"max_unsolvable":4}"#).unwrap();
        assert_eq!(HorizonVerdicts::from_json(&bad), None);
        assert_eq!(HorizonVerdicts::from_json(&Value::Null), None);
        let partial: Value = serde_json::from_str(r#"{"min_solvable":2}"#).unwrap();
        assert_eq!(HorizonVerdicts::from_json(&partial), None);
    }

    #[test]
    fn cached_check_matches_direct_on_s1() {
        // S1 first becomes solvable at horizon 2.
        let scheme = classic::s1();
        let alphabet = gamma_alphabet();
        let mut cache = HorizonVerdicts::new();
        for k in [0usize, 1, 2, 3, 4] {
            let direct = solvable_by(&scheme, k, &alphabet).is_solvable();
            assert_eq!(verdict_via(&mut cache, &scheme, k, &alphabet), direct, "horizon {k}");
        }
        // A second pass answers everything from the two boundaries.
        for k in [0usize, 1, 2, 3, 4] {
            assert!(cache.lookup(k).is_some(), "horizon {k}");
        }
        assert_eq!(cache.min_solvable(), Some(2));
        assert_eq!(cache.max_unsolvable(), Some(1));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn scheme_pool() -> Vec<ClassicScheme> {
            vec![
                classic::s0(),
                classic::t_white(),
                classic::c1(),
                classic::s1(),
                classic::r1(),
                classic::s2(),
                classic::fair_gamma(),
                classic::almost_fair(),
                classic::total_budget(2),
                ClassicScheme::AvoidPrefix("-w".parse().unwrap()),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Subsumption soundness: querying horizons in any order
            /// through one warm summary must agree with the direct
            /// checker at every horizon — a cached or subsumed answer is
            /// never allowed to differ from recomputation.
            #[test]
            fn prop_subsumption_never_contradicts_direct(
                scheme_pick in 0usize..10,
                horizons in proptest::collection::vec(0usize..5, 1..8),
            ) {
                let scheme = &scheme_pool()[scheme_pick];
                let alphabet = gamma_alphabet();
                let mut cache = HorizonVerdicts::new();
                for &k in &horizons {
                    let direct = solvable_by(scheme, k, &alphabet).is_solvable();
                    prop_assert_eq!(
                        verdict_via(&mut cache, scheme, k, &alphabet),
                        direct,
                        "scheme {} horizon {}",
                        scheme.name(),
                        k
                    );
                }
            }
        }
    }
}
