//! The seeded request generator.
//!
//! Everything the benchmark sends is drawn from one SplitMix64 stream
//! seeded by `--seed`, so the same seed gives byte-identical requests.
//! Each request carries its unique `id` and the answer the oracle
//! expects, derived in closed form from the scheme or graph family
//! (never by asking the program under test).

use crate::oracle::Expect;
use serde_json::{Map, Value};
use std::collections::HashSet;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() - 1)]
    }

    fn word(&mut self, letters: &[char], len: usize) -> String {
        (0..len).map(|_| *self.pick(letters)).collect()
    }

    /// A word of length drawn uniformly in `lo..=hi`.
    fn word_in(&mut self, letters: &[char], lo: usize, hi: usize) -> String {
        let len = self.range(lo, hi);
        self.word(letters, len)
    }
}

const GAMMA: [char; 3] = ['-', 'w', 'b'];
const SIGMA: [char; 4] = ['-', 'w', 'b', 'x'];

/// A scheme family with its closed-form answers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// A named classic scheme (`s0`, `r1`, `fair`, ...).
    Named(&'static str),
    /// `Γ^ω` minus the scenarios starting with a Γ word.
    AvoidPrefix(String),
    /// `Γ^ω` minus a finite set of purely periodic scenarios `(c)`.
    GammaMinus(Vec<String>),
    /// At most `t` lost messages in the whole execution.
    TotalBudget(usize),
    /// `Σ^ω` minus the scenarios starting with a Σ word.
    SigmaAvoidPrefix(String),
    /// At most `t` lossy rounds, double omission allowed.
    SigmaTotalBudget(usize),
}

/// A scheme as a request names it: a family, optionally in its ω-regular
/// (automata-backed) encoding, and the checker alphabet.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Scheme {
    pub family: Family,
    pub regular: bool,
    pub sigma: bool,
}

/// Paper verdicts for the named schemes: Example II.11 (environments 1–5
/// solvable, R1 and S2 obstructions), Corollary IV.1 (almost-fair is
/// solvable) and Fair ⊆ almost-fair. The second field is the first
/// solvable horizon: the minimal excluded prefix length (Cor. III.14),
/// `None` when every prefix is allowed.
const NAMED: [(&str, bool, Option<usize>); 9] = [
    ("s0", true, Some(1)),
    ("t_white", true, Some(1)),
    ("t_black", true, Some(1)),
    ("c1", true, Some(2)),
    ("s1", true, Some(2)),
    ("r1", false, None),
    ("s2", false, None),
    ("fair", true, None),
    ("almost_fair", true, None),
];

/// Named schemes that also have an ω-regular encoding.
const NAMED_REGULAR: [&str; 8] = [
    "s0",
    "t_white",
    "t_black",
    "c1",
    "s1",
    "r1",
    "fair",
    "almost_fair",
];

impl Scheme {
    pub fn classic(family: Family) -> Scheme {
        let sigma = matches!(
            family,
            Family::Named("s2") | Family::SigmaAvoidPrefix(_) | Family::SigmaTotalBudget(_)
        );
        Scheme {
            family,
            regular: false,
            sigma,
        }
    }

    pub fn regular(family: Family) -> Scheme {
        Scheme {
            family,
            regular: true,
            sigma: false,
        }
    }

    /// The request's `scheme` param.
    pub fn to_json(&self) -> Value {
        let prefix = if self.regular { "regular_" } else { "" };
        let mut map = Map::new();
        let name = match &self.family {
            Family::Named(name) => return Value::from(format!("{prefix}{name}")),
            Family::AvoidPrefix(w) => {
                map.insert("prefix", Value::from(w.as_str()));
                "avoid_prefix"
            }
            Family::SigmaAvoidPrefix(w) => {
                map.insert("prefix", Value::from(w.as_str()));
                "sigma_avoid_prefix"
            }
            Family::GammaMinus(cycles) => {
                let list = cycles.iter().map(|c| Value::from(format!("({c})")));
                map.insert("scenarios", Value::from(list.collect::<Vec<_>>()));
                "gamma_minus"
            }
            Family::TotalBudget(t) => {
                map.insert("k", Value::from(*t as u64));
                "total_budget"
            }
            Family::SigmaTotalBudget(t) => {
                map.insert("k", Value::from(*t as u64));
                "sigma_total_budget"
            }
        };
        map.insert("name", Value::from(format!("{prefix}{name}")));
        Value::Object(map)
    }

    /// Theorem III.8's verdict; `None` outside its scope (double omission).
    pub fn theorem(&self) -> Option<bool> {
        match &self.family {
            Family::Named(name) => NAMED.iter().find(|n| n.0 == *name).map(|n| n.1),
            // Each excludes a fair scenario: w0·Full^ω, an all-Full-bearing
            // cycle, and the alternating (wb)^ω respectively (cond. III.8.i).
            Family::AvoidPrefix(_) | Family::GammaMinus(_) | Family::TotalBudget(_) => Some(true),
            Family::SigmaAvoidPrefix(_) | Family::SigmaTotalBudget(_) => None,
        }
    }

    /// The first horizon at which the checker finds the scheme solvable.
    ///
    /// For schemes within `Γ^ω` this is the minimal excluded prefix length
    /// (Cor. III.14): `|w0|` for avoid-prefix, `t+1` for a total budget of
    /// `t`, never for finite removals. Over `Σ`, a budget of `t` lossy
    /// rounds is solvable at exactly `t+1`, and excluding one prefix never
    /// helps (see EXPERIMENTS.md, TAB-SIGMA).
    pub fn first_horizon(&self) -> Option<usize> {
        match &self.family {
            Family::Named(name) => NAMED.iter().find(|n| n.0 == *name).and_then(|n| n.2),
            Family::AvoidPrefix(w) => Some(w.chars().count()),
            Family::TotalBudget(t) | Family::SigmaTotalBudget(t) => Some(t + 1),
            Family::GammaMinus(_) | Family::SigmaAvoidPrefix(_) => None,
        }
    }

    pub fn solvable_at(&self, k: usize) -> bool {
        self.first_horizon().is_some_and(|p| k >= p)
    }

    /// A stable identity for freshness checks (the daemon's own key
    /// canonicalization is not consulted).
    pub fn ident(&self) -> String {
        format!("{:?}", self)
    }
}

/// A graph description with its edge connectivity in closed form.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    pub desc: String,
    pub connectivity: u64,
}

/// A fresh graph of family `family % 8`, sized from the seed. The
/// families together hold about 2800 specs, each Dinic-cheap (a few ms
/// at most).
fn graph(rng: &mut Rng, family: usize) -> GraphSpec {
    let (desc, c) = match family % 8 {
        0 => {
            let n = rng.range(4, 30);
            (format!("complete({n})"), n - 1)
        }
        1 => (format!("cycle({})", rng.range(5, 200)), 2),
        2 => {
            let d = rng.range(2, 6);
            (format!("hypercube({d})"), d)
        }
        3 => ("petersen".to_string(), 3),
        4 => (format!("torus({},{})", rng.range(3, 9), rng.range(3, 9)), 4),
        5 => (
            format!("grid({},{})", rng.range(2, 12), rng.range(2, 12)),
            2,
        ),
        6 => {
            let (a, b) = (rng.range(1, 40), rng.range(1, 40));
            (format!("complete_bipartite({a},{b})"), a.min(b))
        }
        _ => (
            format!("theta({},{})", rng.range(2, 30), rng.range(1, 20)),
            2,
        ),
    };
    GraphSpec {
        desc,
        connectivity: c as u64,
    }
}

/// The repeating graph pool: mid-size specs, fixed so that every seed's
/// pool costs Dinic the same; the seed orders the requests. Edge
/// connectivity in closed form: complete `n-1`, cycle and grid and theta
/// 2, hypercube `d`, petersen 3, torus 4, complete bipartite `min(a,b)`.
const GRAPH_POOL: [(&str, u64); 16] = [
    ("petersen", 3),
    ("complete(8)", 7),
    ("complete(12)", 11),
    ("cycle(10)", 2),
    ("cycle(24)", 2),
    ("hypercube(3)", 3),
    ("hypercube(4)", 4),
    ("torus(4,4)", 4),
    ("torus(4,5)", 4),
    ("grid(4,4)", 2),
    ("grid(3,6)", 2),
    ("complete_bipartite(4,6)", 4),
    ("complete_bipartite(5,5)", 5),
    ("theta(4,3)", 2),
    ("theta(3,5)", 2),
    ("cycle(16)", 2),
];

/// One request: its envelope fields and the oracle's expectation.
#[derive(Clone, Debug)]
pub struct Req {
    pub id: u64,
    pub method: &'static str,
    pub params: Value,
    pub expect: Expect,
    /// Present when the request names a scheme.
    pub scheme: Option<Scheme>,
    /// Present for `net_solvable`.
    pub graph: Option<String>,
}

impl Req {
    /// The wire envelope, as `minobs/rpc/v1` defines it.
    pub fn envelope(&self) -> Value {
        minobs_svc::wire::request(self.id, self.method, self.params.clone())
    }

    /// True when answering it runs the checker (a fresh key).
    pub fn runs_checker(&self) -> bool {
        matches!(
            self.expect,
            Expect::Horizon { fresh: true, .. } | Expect::First { fresh: true, .. }
        )
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), v);
    }
    Value::Object(map)
}

fn params_scheme(scheme: &Scheme, extra: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![("scheme", scheme.to_json())];
    if scheme.sigma {
        pairs.push(("alphabet", Value::from("sigma")));
    }
    pairs.extend(extra);
    obj(pairs)
}

/// A primitive Γ word whose cycle contains `-`, so `(c)` is fair.
fn fair_cycle(rng: &mut Rng) -> String {
    loop {
        let c = rng.word_in(&GAMMA, 1, 3);
        if c.contains('-') && primitive(&c) {
            return c;
        }
    }
}

fn primitive(c: &str) -> bool {
    let n = c.len();
    (1..n).all(|d| !n.is_multiple_of(d) || c[..d].repeat(n / d) != c)
}

fn any_cycle(rng: &mut Rng) -> String {
    loop {
        let c = rng.word_in(&GAMMA, 1, 3);
        if primitive(&c) {
            return c;
        }
    }
}

/// A `Γ^ω` minus scheme: one fair cycle plus up to two others.
fn gamma_minus(rng: &mut Rng) -> Family {
    let mut cycles = vec![fair_cycle(rng)];
    for _ in 0..rng.range(0, 2) {
        cycles.push(any_cycle(rng));
    }
    cycles.sort();
    cycles.dedup();
    Family::GammaMinus(cycles)
}

/// A parameterised family for pool slot `slot`: the slot fixes the family
/// and its size (prefix length, budget), the seed only the letters, so
/// every seed's pool costs the checker about the same.
fn parametric(rng: &mut Rng, slot: usize) -> Family {
    let size = slot / 3 % 5;
    match slot % 3 {
        0 => Family::AvoidPrefix(rng.word_in(&GAMMA, size + 1, size + 1)),
        1 => gamma_minus(rng),
        _ => Family::TotalBudget(size),
    }
}

fn with_encoding(rng: &mut Rng, family: Family) -> Scheme {
    let regular_ok = match &family {
        Family::Named(name) => NAMED_REGULAR.contains(name),
        Family::SigmaAvoidPrefix(_) | Family::SigmaTotalBudget(_) => false,
        _ => true,
    };
    if regular_ok && rng.chance(50) {
        Scheme::regular(family)
    } else {
        Scheme::classic(family)
    }
}

/// A cache-resident key pool entry: a scheme plus the highest horizon
/// queried on it. Warming checks every horizon up to that bound.
#[derive(Clone, Debug)]
pub struct PoolKey {
    pub scheme: Scheme,
    pub max_k: usize,
}

impl PoolKey {
    /// The horizons warm-up checks, in ascending order: each is a true
    /// miss, and together they answer every later query on the key.
    pub fn warm_horizons(&self) -> std::ops::RangeInclusive<usize> {
        0..=self
            .scheme
            .first_horizon()
            .unwrap_or(self.max_k)
            .min(self.max_k)
    }
}

/// The mix and pools of one service workload.
pub struct Mix {
    /// Percent of check/first_horizon requests that draw a fresh key.
    fresh_percent: u64,
    /// Graph requests draw from `graphs` (repeating) or fresh specs.
    fresh_graphs: bool,
    pub theorem_pool: Vec<Scheme>,
    pub horizon_pool: Vec<PoolKey>,
    pub graphs: Vec<GraphSpec>,
    pub sims: Vec<(String, String, [bool; 2])>,
}

/// Stateful generator: the mix, the RNG, and the keys already used.
pub struct Gen {
    pub mix: Mix,
    rng: Rng,
    next_id: u64,
    used_keys: HashSet<String>,
    used_graphs: HashSet<String>,
}

/// The deepest horizon a fresh `check_horizon` asks for on `scheme`:
/// 8 where a miss costs at most about 10 ms, lower for the encodings and
/// families that cost more there (ω-regular viability, finite removals,
/// the Σ alphabet), so miss costs stay within one order of magnitude.
fn fresh_top(scheme: &Scheme) -> usize {
    match scheme.family {
        Family::SigmaAvoidPrefix(_) => 5,
        Family::GammaMinus(_) => 7,
        _ if scheme.regular => 7,
        _ => 8,
    }
}

/// The sweep bound of fresh `first_horizon` queries.
const FIRST_MAX_K: usize = 7;

/// The highest horizon queried on pool keys, and the warm-up's bound.
const POOL_MAX_K: usize = 6;

impl Gen {
    /// The generator for a service workload (`svc_hot` or `svc_miss`).
    pub fn new(workload: &str, seed: u64) -> Gen {
        let mut rng = Rng::new(seed);
        let hot = workload == "svc_hot";
        let mut theorem_pool: Vec<Scheme> = NAMED
            .iter()
            .map(|n| Scheme::classic(Family::Named(n.0)))
            .chain(
                NAMED_REGULAR
                    .iter()
                    .map(|n| Scheme::regular(Family::Named(n))),
            )
            .collect();
        for i in 0..18 {
            let family = parametric(&mut rng, i);
            theorem_pool.push(with_encoding(&mut rng, family));
        }
        // Every named scheme, then parameterised keys in a fixed family
        // order; duplicates are redrawn so each key warms exactly once.
        let mut horizon_pool: Vec<PoolKey> = Vec::new();
        let mut used_keys = HashSet::new();
        let mut i = 0;
        while horizon_pool.len() < 26 {
            let family = if i < NAMED_REGULAR.len() {
                Family::Named(NAMED_REGULAR[i])
            } else {
                parametric(&mut rng, i)
            };
            let scheme = with_encoding(&mut rng, family);
            if used_keys.insert(scheme.ident()) {
                horizon_pool.push(PoolKey {
                    scheme,
                    max_k: POOL_MAX_K,
                });
                i += 1;
            }
        }
        let graphs = GRAPH_POOL
            .iter()
            .map(|(desc, c)| GraphSpec {
                desc: desc.to_string(),
                connectivity: *c,
            })
            .collect();
        let sims = (0..8)
            .map(|_| {
                // A fair parameter: A_w then halts on every other
                // scenario (an unfair one may be the lower member of a
                // special pair, which A_w cannot take).
                let w = format!("{}({})", rng.word_in(&GAMMA, 0, 2), fair_cycle(&mut rng));
                // The scenario leaves w at its first letter and then
                // delivers everything, so A_w decides within a few rounds.
                let first = w.chars().find(|c| GAMMA.contains(c)).unwrap_or('-');
                let other: Vec<char> = GAMMA.iter().copied().filter(|c| *c != first).collect();
                let s = format!("{}{}(-)", rng.pick(&other), rng.word_in(&GAMMA, 0, 2));
                (w, s, [rng.chance(50), rng.chance(50)])
            })
            .collect();
        let (fresh_percent, fresh_graphs) = if hot { (0, false) } else { (75, true) };
        Gen {
            mix: Mix {
                fresh_percent,
                fresh_graphs,
                theorem_pool,
                horizon_pool,
                graphs,
                sims,
            },
            rng,
            next_id: 1,
            used_keys,
            used_graphs: HashSet::new(),
        }
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The warm-up pass: one `solvable` per theorem-pool scheme and one
    /// `check_horizon` per pool key and warm horizon, all misses.
    pub fn warmup(&mut self) -> Vec<Req> {
        let mut reqs = Vec::new();
        for scheme in self.mix.theorem_pool.clone() {
            let id = self.id();
            reqs.push(solvable_req(id, scheme));
        }
        for key in self.mix.horizon_pool.clone() {
            for k in key.warm_horizons() {
                let id = self.id();
                reqs.push(check_req(id, key.scheme.clone(), k, true));
            }
        }
        reqs
    }

    /// A fresh key for the checker: never used before in this stream.
    fn fresh_scheme(&mut self, first_horizon_only: bool) -> Scheme {
        loop {
            let rng = &mut self.rng;
            let family = match rng.range(0, 9) {
                0..=3 => Family::AvoidPrefix(rng.word_in(&GAMMA, 3, 8)),
                4 | 5 if !first_horizon_only => gamma_minus(rng),
                4 | 5 => Family::AvoidPrefix(rng.word_in(&GAMMA, 3, 7)),
                6 => Family::TotalBudget(rng.range(2, 7)),
                7 if !first_horizon_only => Family::SigmaAvoidPrefix(rng.word_in(&SIGMA, 2, 5)),
                _ => Family::SigmaTotalBudget(rng.range(1, 5)),
            };
            let mut scheme = with_encoding(&mut self.rng, family);
            // Σ variant of a Γ scheme: the same verdicts under a new key.
            if !scheme.regular && !scheme.sigma && self.rng.chance(20) {
                scheme.sigma = true;
            }
            if self.used_keys.insert(scheme.ident()) {
                return scheme;
            }
        }
    }

    /// A graph spec not yet used in this stream. Should 64 draws in a row
    /// all repeat, the last is sent anyway; `graphs.repeat_share` counts it.
    fn fresh_graph(&mut self) -> GraphSpec {
        let mut tries = 0;
        loop {
            let family = self.rng.range(0, 7);
            let spec = graph(&mut self.rng, family);
            tries += 1;
            if self.used_graphs.insert(spec.desc.clone()) || tries == 64 {
                return spec;
            }
        }
    }

    /// The next request of the timed stream.
    pub fn next(&mut self) -> Req {
        let id = self.id();
        // The six methods in equal shares: solvable, check_horizon,
        // first_horizon, net_solvable, simulate, health.
        match self.rng.range(0, 5) {
            0 => {
                let scheme = self.rng.pick(&self.mix.theorem_pool).clone();
                solvable_req(id, scheme)
            }
            method @ (1 | 2) => {
                let fresh = self.rng.chance(self.mix.fresh_percent);
                if method == 1 {
                    if fresh {
                        let scheme = self.fresh_scheme(false);
                        let k = self.rng.range(5, fresh_top(&scheme));
                        check_req(id, scheme, k, true)
                    } else {
                        let key = self.rng.pick(&self.mix.horizon_pool).clone();
                        let k = self.rng.range(0, key.max_k);
                        check_req(id, key.scheme, k, false)
                    }
                } else if fresh {
                    let scheme = self.fresh_scheme(true);
                    first_req(id, scheme, FIRST_MAX_K, true)
                } else {
                    let key = self.rng.pick(&self.mix.horizon_pool).clone();
                    first_req(id, key.scheme, key.max_k, false)
                }
            }
            3 => {
                let spec = if self.mix.fresh_graphs {
                    self.fresh_graph()
                } else {
                    self.rng.pick(&self.mix.graphs).clone()
                };
                let f = self.rng.range(0, spec.connectivity as usize + 1) as u64;
                Req {
                    id,
                    method: "net_solvable",
                    params: obj(vec![
                        ("graph", Value::from(spec.desc.as_str())),
                        ("f", Value::from(f)),
                    ]),
                    expect: Expect::Net {
                        connectivity: spec.connectivity,
                        f,
                    },
                    scheme: None,
                    graph: Some(spec.desc),
                }
            }
            4 => {
                let (w, s, inputs) = self.rng.pick(&self.mix.sims).clone();
                sim_req(id, &w, &s, inputs)
            }
            _ => Req {
                id,
                method: "health",
                params: Value::Null,
                expect: Expect::Health,
                scheme: None,
                graph: None,
            },
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next()).collect()
    }
}

pub fn solvable_req(id: u64, scheme: Scheme) -> Req {
    Req {
        id,
        method: "solvable",
        params: params_scheme(&scheme, vec![]),
        expect: Expect::Theorem {
            solvable: scheme.theorem().expect("theorem pool holds Γ schemes"),
        },
        scheme: Some(scheme),
        graph: None,
    }
}

pub fn check_req(id: u64, scheme: Scheme, k: usize, fresh: bool) -> Req {
    Req {
        id,
        method: "check_horizon",
        params: params_scheme(&scheme, vec![("horizon", Value::from(k as u64))]),
        expect: Expect::Horizon {
            solvable: scheme.solvable_at(k),
            fresh,
        },
        scheme: Some(scheme),
        graph: None,
    }
}

fn first_req(id: u64, scheme: Scheme, max_k: usize, fresh: bool) -> Req {
    let horizon = scheme.first_horizon().filter(|&p| p <= max_k);
    Req {
        id,
        method: "first_horizon",
        params: params_scheme(&scheme, vec![("max_horizon", Value::from(max_k as u64))]),
        expect: Expect::First { horizon, fresh },
        scheme: Some(scheme),
        graph: None,
    }
}

pub fn sim_req(id: u64, w: &str, scenario: &str, inputs: [bool; 2]) -> Req {
    Req {
        id,
        method: "simulate",
        params: obj(vec![
            ("target", Value::from("two_process")),
            ("w", Value::from(w)),
            ("scenario", Value::from(scenario)),
            (
                "inputs",
                Value::from(vec![Value::from(inputs[0]), Value::from(inputs[1])]),
            ),
            ("max_rounds", Value::from(64u64)),
        ]),
        expect: Expect::Consensus {
            value: (inputs[0] == inputs[1]).then_some(inputs[0]),
        },
        scheme: None,
        graph: None,
    }
}

/// The checker_deep list, pinned: (label, scheme, horizon).
pub fn deep_list() -> Vec<(&'static str, Scheme, usize)> {
    let r1 = Scheme::classic(Family::Named("r1"));
    vec![
        ("r1_10", r1.clone(), 10),
        ("r1_11", r1.clone(), 11),
        ("r1_12", r1, 12),
        ("fair_10", Scheme::classic(Family::Named("fair")), 10),
        (
            "regular_fair_10",
            Scheme::regular(Family::Named("fair")),
            10,
        ),
        (
            "total_budget4_5",
            Scheme::classic(Family::TotalBudget(4)),
            5,
        ),
        (
            "total_budget4_6",
            Scheme::classic(Family::TotalBudget(4)),
            6,
        ),
    ]
}

/// Records for the pre-seeded WAL: one definite verdict per key, on
/// avoid-prefix keys longer than any the workloads query, so replay
/// cost is paid at start-up and no queried key is pre-answered.
pub fn wal_seed(seed: u64, records: usize) -> Vec<(String, usize)> {
    let mut rng = Rng::new(seed ^ 0x5741_4c00);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(records);
    while out.len() < records {
        let w = rng.word_in(&GAMMA, 10, 14);
        if seen.insert(w.clone()) {
            let len = w.len();
            out.push((format!("classic:avoid_prefix[{w}]|gamma"), len));
        }
    }
    out
}

/// Share of scheme-carrying requests that use an ω-regular encoding,
/// and share of graph requests whose spec appeared earlier in `reqs`.
pub fn stream_shares(reqs: &[Req]) -> (f64, f64) {
    let schemes: Vec<&Scheme> = reqs.iter().filter_map(|r| r.scheme.as_ref()).collect();
    let regular = schemes.iter().filter(|s| s.regular).count();
    let mut seen = HashSet::new();
    let (mut graphs, mut repeats) = (0usize, 0usize);
    for desc in reqs.iter().filter_map(|r| r.graph.as_ref()) {
        graphs += 1;
        if !seen.insert(desc.clone()) {
            repeats += 1;
        }
    }
    (
        regular as f64 / schemes.len().max(1) as f64,
        repeats as f64 / graphs.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: &str, seed: u64) -> Vec<u8> {
        let mut gen = Gen::new(workload, seed);
        let mut reqs = gen.warmup();
        reqs.extend(gen.take(2000));
        let mut bytes = Vec::new();
        for req in &reqs {
            minobs_svc::wire::write_frame(&mut bytes, &req.envelope()).unwrap();
        }
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for workload in ["svc_hot", "svc_miss"] {
            assert_eq!(
                stream_bytes(workload, 7),
                stream_bytes(workload, 7),
                "{workload}"
            );
            assert_ne!(
                stream_bytes(workload, 7),
                stream_bytes(workload, 8),
                "{workload}"
            );
        }
    }

    #[test]
    fn ids_are_unique_and_fresh_keys_never_repeat() {
        let mut gen = Gen::new("svc_miss", 3);
        let warmup = gen.warmup();
        let reqs = gen.take(5000);
        let ids: HashSet<u64> = warmup.iter().chain(&reqs).map(|r| r.id).collect();
        assert_eq!(ids.len(), warmup.len() + reqs.len());
        let mut fresh = HashSet::new();
        for req in reqs.iter().filter(|r| r.runs_checker()) {
            assert!(
                fresh.insert(req.scheme.as_ref().unwrap().ident()),
                "{:?}",
                req.params
            );
        }
        let graphs: Vec<&String> = reqs.iter().filter_map(|r| r.graph.as_ref()).collect();
        assert_eq!(graphs.iter().collect::<HashSet<_>>().len(), graphs.len());
    }

    #[test]
    fn closed_forms_agree_with_the_library_on_small_cases() {
        use minobs_core::theorem::min_excluded_prefix;
        use minobs_synth::checker::first_solvable_horizon;
        let mut rng = Rng::new(11);
        for _ in 0..40 {
            let family = rng.range(0, 7);
            let spec = graph(&mut rng, family);
            let g = minobs_graphs::generators::parse(&spec.desc).unwrap();
            assert_eq!(
                minobs_graphs::edge_connectivity(&g) as u64,
                spec.connectivity,
                "{}",
                spec.desc
            );
        }
        for (desc, c) in GRAPH_POOL {
            let g = minobs_graphs::generators::parse(desc).unwrap();
            assert_eq!(minobs_graphs::edge_connectivity(&g) as u64, c, "{desc}");
        }
        for (name, _, first) in NAMED {
            let params = Scheme::classic(Family::Named(name)).to_json();
            let parsed = minobs_svc::ParsedScheme::parse(&params).unwrap();
            if name != "s2" {
                assert_eq!(
                    min_excluded_prefix(parsed.as_omission(), 4).map(|p| p.0),
                    first,
                    "{name}"
                );
            }
        }
        for seed in 0..50 {
            for (w, s, inputs) in Gen::new("svc_hot", seed).mix.sims {
                let w: minobs_core::scenario::Scenario = w.parse().unwrap();
                let s: minobs_core::scenario::Scenario = s.parse().unwrap();
                let mut white = minobs_core::algorithm::AwProcess::new(
                    minobs_core::letter::Role::White,
                    inputs[0],
                    w.clone(),
                );
                let mut black = minobs_core::algorithm::AwProcess::new(
                    minobs_core::letter::Role::Black,
                    inputs[1],
                    w.clone(),
                );
                let out = minobs_core::engine::run_two_process(&mut white, &mut black, &s, 64);
                assert!(
                    out.verdict.is_consensus(),
                    "A_w with w={w} on {s}: {:?}",
                    out.verdict
                );
            }
        }
        let tb = minobs_core::scheme::ClassicScheme::TotalBudget(2);
        let gamma = minobs_synth::checker::gamma_alphabet();
        assert_eq!(
            first_solvable_horizon(&tb, 5, &gamma),
            Scheme::classic(Family::TotalBudget(2)).first_horizon()
        );
    }
}
