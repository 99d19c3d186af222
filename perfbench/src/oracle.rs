//! The answer oracle: every reply is checked against an expectation the
//! generator derived independently of the program under test.

use serde_json::Value;

/// What a correct reply must say.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `solvable`: the Theorem III.8 verdict.
    Theorem { solvable: bool },
    /// `check_horizon`: the verdict at the horizon, and whether the key is
    /// fresh (the reply must then say `cached: false`, else `true`).
    Horizon { solvable: bool, fresh: bool },
    /// `first_horizon`: the first solvable horizon within the sweep.
    First { horizon: Option<usize>, fresh: bool },
    /// `net_solvable`: Theorem V.1, `f < c(G)` with `c(G)` in closed form.
    Net { connectivity: u64, f: u64 },
    /// `simulate` of `A_w` off its parameter scenario: consensus, on the
    /// common input when both inputs agree.
    Consensus { value: Option<bool> },
    /// `health`: a live daemon.
    Health,
}

/// Checks one reply envelope against `expect`; the error says why not.
pub fn check(expect: &Expect, reply: &Value) -> Result<(), String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error reply: {}", text(reply.get("error"))));
    }
    let result = reply.get("result").ok_or("reply without result")?;
    let field = |name: &str| result.get(name);
    let want = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{what}: expected {expect:?}, got {}",
                text(Some(result))
            ))
        }
    };
    match *expect {
        Expect::Theorem { solvable } => want(
            field("solvable").and_then(Value::as_bool) == Some(solvable),
            "verdict",
        ),
        Expect::Horizon { solvable, fresh } => {
            want(
                field("solvable").and_then(Value::as_bool) == Some(solvable),
                "verdict",
            )?;
            want(
                field("cached").and_then(Value::as_bool) == Some(!fresh),
                "cached",
            )
        }
        Expect::First { horizon, .. } => {
            let outcome = field("outcome").and_then(Value::as_str);
            match horizon {
                Some(h) => want(
                    outcome == Some("solvable")
                        && field("horizon").and_then(Value::as_u64) == Some(h as u64),
                    "first horizon",
                ),
                None => want(outcome == Some("unsolvable_within"), "first horizon"),
            }
        }
        Expect::Net { connectivity, f } => {
            want(
                field("edge_connectivity").and_then(Value::as_u64) == Some(connectivity),
                "edge connectivity",
            )?;
            want(
                field("solvable").and_then(Value::as_bool) == Some(f < connectivity),
                "verdict",
            )
        }
        Expect::Consensus { value } => {
            let verdict = field("verdict");
            let kind = verdict.and_then(|v| v.get("type")).and_then(Value::as_str);
            let decided = verdict
                .and_then(|v| v.get("value"))
                .and_then(Value::as_bool);
            want(
                kind == Some("consensus") && value.is_none_or(|v| decided == Some(v)),
                "simulation",
            )
        }
        Expect::Health => want(
            field("live").and_then(Value::as_bool) == Some(true),
            "health",
        ),
    }
}

/// The length of the bivalency chain the checker must return for
/// R1 = Γ^ω at horizon `k`: `2·3^k + 1` executions.
pub fn r1_chain_len(k: usize) -> usize {
    2 * 3usize.pow(k as u32) + 1
}

fn text(value: Option<&Value>) -> String {
    value
        .map(|v| serde_json::to_string(v).unwrap_or_default())
        .unwrap_or_else(|| "null".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_svc::wire::ok_response;

    fn reply(pairs: &[(&str, Value)]) -> Value {
        let mut map = serde_json::Map::new();
        for (k, v) in pairs {
            map.insert(*k, v.clone());
        }
        ok_response(1, Value::Object(map))
    }

    #[test]
    fn injected_wrong_verdicts_are_rejected() {
        let expect = Expect::Horizon {
            solvable: true,
            fresh: true,
        };
        let good = reply(&[
            ("solvable", Value::from(true)),
            ("cached", Value::from(false)),
        ]);
        assert!(check(&expect, &good).is_ok());
        let flipped = reply(&[
            ("solvable", Value::from(false)),
            ("cached", Value::from(false)),
        ]);
        assert!(check(&expect, &flipped).is_err());
        let stale = reply(&[
            ("solvable", Value::from(true)),
            ("cached", Value::from(true)),
        ]);
        assert!(check(&expect, &stale).is_err());

        let theorem = Expect::Theorem { solvable: false };
        assert!(check(&theorem, &reply(&[("solvable", Value::from(true))])).is_err());

        let net = Expect::Net {
            connectivity: 3,
            f: 3,
        };
        let wrong_c = reply(&[
            ("edge_connectivity", Value::from(2u64)),
            ("solvable", Value::from(false)),
        ]);
        assert!(check(&net, &wrong_c).is_err());
        let wrong_verdict = reply(&[
            ("edge_connectivity", Value::from(3u64)),
            ("solvable", Value::from(true)),
        ]);
        assert!(check(&net, &wrong_verdict).is_err());

        let first = Expect::First {
            horizon: Some(4),
            fresh: false,
        };
        let off_by_one = reply(&[
            ("outcome", Value::from("solvable")),
            ("horizon", Value::from(5u64)),
        ]);
        assert!(check(&first, &off_by_one).is_err());
        let error = minobs_svc::wire::err_response(1, "bad_params", "nope");
        assert!(check(&Expect::Health, &error).is_err());
    }
}
