//! The traced run: the same seeded inputs replayed in-process through
//! each layer's public functions, with spans kept in memory and written
//! out at the end. Nothing inside the program is instrumented; every span
//! wraps a call the benchmark makes into a layer.
//!
//! Service layers are measured on the workload's own stream (`svc_hot`'s
//! for `checker_deep`, which sends no requests); `synth` aggregates on
//! the workload's own checker work; `synth.<cfg>.*` on one pass of the
//! pinned `checker_deep` list in every workload.

use crate::daemon::{self, build_wal, start_warm};
use crate::deep;
use crate::gen::{stream_shares, Gen, Req, Scheme};
use crate::load::{closed_loop, open_loop, Conn, Frame, Shot};
use crate::oracle;
use crate::stats::{mean, median, quantile};
use crate::svc::{self, Book};
use crate::{metric, Args, Cpus, Metric, Report};
use minobs_core::engine::run_two_process;
use minobs_core::prelude::{AwProcess, Role, Scenario};
use minobs_graphs::{edge_connectivity, generators};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, MetricsRegistry, TraceEvent};
use minobs_sim::network::run_network;
use minobs_sim::{NetVerdict, ScriptedAdversary};
use minobs_svc::spec::{parse_alphabet, ParsedScheme};
use minobs_svc::wal::{replay_bytes, CompactionPolicy, Wal, WalRecord};
use minobs_svc::{methods, serve, wire, ServerState, SvcConfig, VerdictCache};
use minobs_synth::checker::{solvable_by_with_recorder, Budget, CheckResult};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests of the stream replayed per service workload.
const SAMPLE: usize = 300;
/// Share of `--seconds` spent in the open-loop phase that gives the
/// tails, generator lateness and cache shares.
const PHASE_SHARE: f64 = 0.2;
/// Shares of `--seconds` for the capacity ladder and the overload phase.
const CAPACITY_SHARE: f64 = 0.3;
const GOODPUT_SHARE: f64 = 0.1;

/// One span: a named interval, its parent, and the request it served.
struct Span {
    name: String,
    parent: Option<usize>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory until the run ends.
struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its value and the span's index.
    fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.list.push(Span {
            name: name.to_string(),
            parent,
            req,
            start_ns,
            end_ns,
        });
        (value, self.list.len() - 1)
    }

    fn open(&mut self, name: &str, req: u64) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.list.push(Span {
            name: name.to_string(),
            parent: None,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.list.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.list[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Self time in µs of every span: its duration minus the time its
    /// children cover (a span's children run one after another).
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.list.iter().map(Span::us).collect();
        for span in &self.list {
            if let Some(parent) = span.parent {
                own[parent] -= span.us();
            }
        }
        own
    }

    /// Sum of the self times of the spans whose name starts with `prefix`.
    fn self_sum(&self, own: &[f64], prefix: &str) -> f64 {
        self.list
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, t)| t)
            .sum()
    }

    fn us(&self, idx: usize) -> f64 {
        self.list[idx].us()
    }

    /// Mean duration in µs of the spans named `name`.
    fn mean_us(&self, name: &str) -> f64 {
        mean(&self.durations(name))
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Writes the spans as JSON lines.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-request results of the in-process replay.
#[derive(Default)]
struct Replayed {
    /// The request path (wire decode, `methods::handle`, the reply's
    /// envelope, wire encode) per request, in µs.
    server_us: Vec<f64>,
    /// Verdicts the handlers recorded, as WAL records.
    records: Vec<WalRecord>,
    /// Replies the oracle rejected, with the reason.
    wrong: Vec<String>,
}

fn in_process_state(dir: &Path, wal: &[u8], name: &str) -> Result<minobs_svc::Server, String> {
    let path = dir.join(name);
    std::fs::write(&path, wal).map_err(|e| format!("wal copy: {e}"))?;
    let config = SvcConfig {
        workers: 1,
        wal_path: Some(path),
        ..SvcConfig::default()
    };
    serve(config).map_err(|e| format!("in-process server: {e}"))
}

fn stop(server: minobs_svc::Server) {
    server.shutdown();
    server.join();
}

/// The records a handler's reply implies, for the direct WAL timing.
fn implied_records(
    req: &Req,
    scheme: Option<&ParsedScheme>,
    alphabet: &[minobs_core::letter::Letter],
    reply: &Value,
) -> Vec<WalRecord> {
    let Some(parsed) = scheme else {
        return Vec::new();
    };
    let key = parsed.cache_key(alphabet);
    match req.method {
        "check_horizon" if reply.get("cached").and_then(Value::as_bool) == Some(false) => {
            let k = req
                .params
                .get("horizon")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize;
            reply
                .get("solvable")
                .and_then(Value::as_bool)
                .map(|solvable| WalRecord::Horizon { key, k, solvable })
                .into_iter()
                .collect()
        }
        "solvable" => vec![WalRecord::Theorem {
            key: format!("{}|theorem", parsed.canonical()),
            result: reply.clone(),
        }],
        _ => Vec::new(),
    }
}

/// Replays `req` through wire, spec, cache, graphs, sim, synth and
/// methods on an in-process `ServerState`, with spans when `spans` is
/// given, appending to `out`.
fn replay_one(state: &ServerState, req: &Req, spans: Option<&mut Spans>, out: &mut Replayed) {
    let frame = Frame::new(req.id, &req.envelope()).bytes;
    let Some(spans) = spans else {
        let started = Instant::now();
        let value = wire::try_parse_frame(&frame).ok().flatten().map(|(v, _)| v);
        let request = value.and_then(|v| wire::parse_request(&v).ok());
        if let Some(request) = request {
            let (result, _) = methods::handle(state, &request);
            let mut bytes = Vec::new();
            let reply = result.unwrap_or(Value::Null);
            let _ = wire::write_frame(&mut bytes, &wire::ok_response(request.id, reply));
        }
        out.server_us.push(started.elapsed().as_secs_f64() * 1e6);
        return;
    };
    let root = spans.open("request", req.id);
    let (request, _) = spans.time("wire.decode", Some(root), req.id, || {
        let (value, _) = wire::try_parse_frame(&frame).ok().flatten()?;
        wire::parse_request(&value).ok()
    });
    let Some(request) = request else {
        spans.close(root);
        out.server_us.push(spans.us(root));
        return;
    };
    let ((result, _), _) = spans.time(
        &format!("methods.{}", req.method),
        Some(root),
        req.id,
        || methods::handle(state, &request),
    );
    let envelope = match result {
        Ok(reply) => wire::ok_response(request.id, reply),
        Err(e) => wire::err_response(request.id, e.code, &e.message),
    };
    spans.time("wire.encode", Some(root), req.id, || {
        let mut bytes = Vec::new();
        let _ = wire::write_frame(&mut bytes, &envelope);
        bytes.len()
    });
    spans.close(root);
    let server_us = spans.us(root);
    // Direct calls into the layers the handler used, timed apart and
    // after it, so they do not warm the path measured above.
    let root = spans.open("direct", req.id);
    let parsed = req.scheme.as_ref().map(|_| {
        spans
            .time("spec.parse", Some(root), req.id, || {
                let parsed =
                    ParsedScheme::parse(request.params.get("scheme").unwrap_or(&Value::Null))
                        .ok()?;
                let alphabet = parse_alphabet(&request.params, &parsed).ok()?;
                let key = parsed.cache_key(&alphabet);
                Some((parsed, alphabet, key))
            })
            .0
    });
    let parsed = parsed.flatten();
    if let (Some((_, _, key)), "check_horizon" | "first_horizon") = (&parsed, req.method) {
        let field = if req.method == "check_horizon" {
            "horizon"
        } else {
            "max_horizon"
        };
        let k = request
            .params
            .get(field)
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize;
        spans.time("cache.lookup", Some(root), req.id, || {
            state.cache().lookup_horizon(key, k)
        });
    }
    if let Some(desc) = &req.graph {
        spans.time("graphs.connectivity", Some(root), req.id, || {
            generators::parse(desc).map(|g| edge_connectivity(&g)).ok()
        });
    }
    if req.method == "simulate" {
        spans.time("sim.two_process", Some(root), req.id, || {
            simulate_direct(&request.params)
        });
    }
    // The checks a miss runs, as the handler runs them.
    for (scheme, k) in checker_work(std::slice::from_ref(req)) {
        if let Ok((parsed, alphabet)) = parse_scheme(&scheme) {
            spans.time("synth.check", Some(root), req.id, || {
                parsed.check(k, &alphabet, Budget::UNLIMITED, false)
            });
        }
    }
    spans.close(root);
    if let Err(why) = oracle::check(&req.expect, &envelope) {
        out.wrong.push(format!(
            "request {} ({}) in process: {why}",
            req.id, req.method
        ));
    }
    let reply = envelope.get("result").cloned().unwrap_or(Value::Null);
    out.server_us.push(server_us);
    let (parsed_scheme, alphabet) = match &parsed {
        Some((p, a, _)) => (Some(p), a.as_slice()),
        None => (None, &[][..]),
    };
    out.records
        .extend(implied_records(req, parsed_scheme, alphabet, &reply));
}

fn simulate_direct(params: &Value) -> Option<bool> {
    let w: Scenario = params.get("w")?.as_str()?.parse().ok()?;
    let s: Scenario = params.get("scenario")?.as_str()?.parse().ok()?;
    let inputs = params.get("inputs")?.as_array()?;
    let (a, b) = (inputs.first()?.as_bool()?, inputs.get(1)?.as_bool()?);
    let mut white = AwProcess::new(Role::White, a, w.clone());
    let mut black = AwProcess::new(Role::Black, b, w);
    Some(
        run_two_process(&mut white, &mut black, &s, 64)
            .verdict
            .is_consensus(),
    )
}

/// Flooding consensus on each pool graph with no drops: must reach
/// consensus on node 0's input. Returns mean µs per run.
fn flooding(graphs: &[crate::gen::GraphSpec], book: &mut Book) -> f64 {
    let mut times = Vec::new();
    for spec in graphs {
        let Ok(graph) = generators::parse(&spec.desc) else {
            continue;
        };
        let n = graph.vertex_count();
        let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        for _ in 0..5 {
            let started = Instant::now();
            let nodes = FloodConsensus::fleet(&graph, &inputs, DecisionRule::ValueOfMinId);
            let outcome = run_network(
                &graph,
                nodes,
                &mut ScriptedAdversary::once(Vec::new()),
                n.max(2),
            );
            times.push(started.elapsed().as_secs_f64() * 1e6);
            book.attempted += 1;
            if !matches!(outcome.verdict, NetVerdict::Consensus(0)) {
                book.failed += 1;
                book.wrong += 1;
                book.first_problem
                    .get_or_insert(format!("flooding on {}: {:?}", spec.desc, outcome.verdict));
            }
        }
    }
    mean(&times)
}

/// `A_w` off its parameter scenario on each pool entry: must decide.
fn two_process(sims: &[(String, String, [bool; 2])], book: &mut Book) -> f64 {
    let mut times = Vec::new();
    for (w, s, inputs) in sims {
        let params = crate::gen::sim_req(0, w, s, *inputs).params;
        for _ in 0..10 {
            let started = Instant::now();
            let decided = simulate_direct(&params);
            times.push(started.elapsed().as_secs_f64() * 1e6);
            book.attempted += 1;
            if decided != Some(true) {
                book.failed += 1;
                book.wrong += 1;
                book.first_problem
                    .get_or_insert(format!("A_w with w={w} on {s} did not decide"));
            }
        }
    }
    mean(&times)
}

/// Aggregates over checker runs made with a recorder.
#[derive(Default)]
struct SynthTally {
    wall_ns: u64,
    expand_ns: u64,
    dedup_ns: u64,
    decide_ns: u64,
    states: u64,
    peak_frontier: u64,
    views: u64,
    checks: u64,
}

impl SynthTally {
    fn check(
        &mut self,
        parsed: &ParsedScheme,
        k: usize,
        alphabet: &[minobs_core::letter::Letter],
        spans: &mut Spans,
    ) -> CheckResult {
        let mut recorder = MemoryRecorder::new();
        let started = Instant::now();
        let (result, _) = spans.time("synth.recorded", None, 0, || {
            solvable_by_with_recorder(parsed.as_omission(), k, alphabet, &mut recorder)
        });
        self.wall_ns += started.elapsed().as_nanos() as u64;
        self.checks += 1;
        let mut last_views = 0;
        // Four input pairs at round 0 start every frontier.
        self.states += 4;
        for event in recorder.events() {
            match event {
                TraceEvent::SpanEnd { name, nanos, .. } => match name.as_str() {
                    "checker_expand" => self.expand_ns += nanos,
                    "checker_dedup" => self.dedup_ns += nanos,
                    "checker_decide" => self.decide_ns += nanos,
                    _ => {}
                },
                TraceEvent::CheckerRound {
                    frontier, views, ..
                } => {
                    self.states += *frontier as u64;
                    self.peak_frontier = self.peak_frontier.max(*frontier as u64);
                    last_views = *views as u64;
                }
                _ => {}
            }
        }
        self.views += last_views;
        result
    }

    fn metrics(&self, out: &mut Vec<Metric>) {
        let wall = self.wall_ns.max(1) as f64;
        out.push(metric(
            "synth.expand_share",
            self.expand_ns as f64 / wall,
            "ratio",
        ));
        out.push(metric(
            "synth.dedup_share",
            self.dedup_ns as f64 / wall,
            "ratio",
        ));
        out.push(metric(
            "synth.decide_share",
            self.decide_ns as f64 / wall,
            "ratio",
        ));
        out.push(metric("synth.states", self.states as f64, "count"));
        out.push(metric(
            "synth.peak_frontier",
            self.peak_frontier as f64,
            "count",
        ));
        out.push(metric("synth.distinct_views", self.views as f64, "count"));
    }
}

/// The checker work a service replay implies: each fresh check_horizon
/// at its horizon, each fresh first_horizon at every horizon it sweeps.
fn checker_work(reqs: &[Req]) -> Vec<(Scheme, usize)> {
    let mut work = Vec::new();
    for req in reqs.iter().filter(|r| r.runs_checker()) {
        let Some(scheme) = &req.scheme else { continue };
        if req.method == "check_horizon" {
            let k = req
                .params
                .get("horizon")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize;
            work.push((scheme.clone(), k));
        } else {
            let max_k = req
                .params
                .get("max_horizon")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize;
            let top = scheme.first_horizon().unwrap_or(max_k).min(max_k);
            work.extend((0..=top).map(|k| (scheme.clone(), k)));
        }
    }
    work
}

fn parse_scheme(
    scheme: &Scheme,
) -> Result<(ParsedScheme, Vec<minobs_core::letter::Letter>), String> {
    let mut params = serde_json::Map::new();
    params.insert("scheme", scheme.to_json());
    if scheme.sigma {
        params.insert("alphabet", Value::from("sigma"));
    }
    let params = Value::Object(params);
    let parsed = ParsedScheme::parse(params.get("scheme").unwrap_or(&Value::Null))?;
    let alphabet = parse_alphabet(&params, &parsed)?;
    Ok((parsed, alphabet))
}

fn counters(conn: &mut Conn) -> BTreeMap<String, f64> {
    let frame = Frame::new(0, &wire::request(0, "stats", Value::Null));
    let shot = closed_loop(conn, std::slice::from_ref(&frame), Duration::from_secs(10)).remove(0);
    let mut out = BTreeMap::new();
    let counters = shot
        .reply
        .as_ref()
        .and_then(|r| r.get("result"))
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_object)
        .cloned();
    if let Some(map) = counters {
        for (name, value) in map.iter() {
            out.insert(name.clone(), value.as_u64().unwrap_or(0) as f64);
        }
    }
    out
}

pub fn run(args: &Args, cpus: &Cpus) -> Result<Report, String> {
    let dir = daemon::work_dir().map_err(|e| format!("work dir: {e}"))?;
    let result = measure(args, cpus, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(args: &Args, cpus: &Cpus, dir: &Path) -> Result<Report, String> {
    let stream = if args.workload == "checker_deep" {
        "svc_hot"
    } else {
        args.workload.as_str()
    };
    let plan = svc::plan(stream);
    let mut spans = Spans::new();
    let mut book = Book::default();
    let mut out: Vec<Metric> = Vec::new();

    // The daemon, started and warmed as the end-to-end run does it; then
    // idle round trips on the start of the stream and an open-loop phase.
    let spinner = svc::spinner(cpus)?;
    let mut gen = Gen::new(stream, args.seed);
    let (mut daemon, mut starts) =
        start_warm(&args.daemon, dir, args.seed, cpus.daemon, 1, &mut gen)
            .map_err(|e| format!("daemon: {e}"))?;
    let start = starts.remove(0);
    book.add(&start.reqs, &start.shots);
    // gen: the same seeded inputs the end-to-end run sends.
    let ((sample, phase_reqs), _) = spans.time("gen", None, 0, || {
        (
            gen.take(SAMPLE),
            gen.take((plan.nominal * args.seconds * PHASE_SHARE) as usize),
        )
    });
    let mut conns: Vec<Conn> = (0..cpus.connections())
        .map(|_| Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let frames: Vec<Frame> = sample
        .iter()
        .map(|r| Frame::new(r.id, &r.envelope()))
        .collect();
    let sample_shots = closed_loop(&mut conns[0], &frames, Duration::from_secs(30));
    book.add(&sample, &sample_shots);
    let start_len = start.reqs.len();
    let probes: Vec<Req> = start.reqs.iter().chain(&sample).cloned().collect();
    let rtt_shots: Vec<Shot> = start.shots.into_iter().chain(sample_shots).collect();
    let before = counters(&mut conns[0]);
    let pframes: Vec<Frame> = phase_reqs
        .iter()
        .map(|r| Frame::new(r.id, &r.envelope()))
        .collect();
    let phase_shots = open_loop(&mut conns, &pframes, plan.nominal, usize::MAX, plan.drain);
    book.add(&phase_reqs, &phase_shots);
    let after = counters(&mut conns[0]);
    let floor = svc::step_passes(&phase_shots, 0, plan.nominal, plan.limit_ms).unwrap_or(0.0);
    let capacity = svc::capacity(
        &mut conns,
        &mut gen,
        &mut book,
        &plan,
        CAPACITY_SHARE * args.seconds,
        floor,
    );
    let goodput = svc::goodput(
        &mut conns,
        &mut gen,
        &mut book,
        &plan,
        GOODPUT_SHARE * args.seconds,
    );
    drop(conns);
    daemon.stop();
    drop(spinner);

    // In-process: untraced, then traced, each on a fresh state.
    let template = build_wal(&dir.join("seed.wal"), args.seed, daemon::WAL_RECORDS)
        .map_err(|e| format!("wal: {e}"))?;
    // Two fresh states see the same requests, interleaved, so the traced
    // and untraced replays share the machine's state over time.
    let plain_server = in_process_state(dir, &template, "plain.wal")?;
    let traced_server = in_process_state(dir, &template, "traced.wal")?;
    let (mut plain, mut replayed) = (Replayed::default(), Replayed::default());
    for (i, req) in probes.iter().enumerate() {
        // Whichever runs second finds the code warm: take turns.
        if i % 2 == 0 {
            replay_one(plain_server.state(), req, None, &mut plain);
        }
        replay_one(traced_server.state(), req, Some(&mut spans), &mut replayed);
        if i % 2 == 1 {
            replay_one(plain_server.state(), req, None, &mut plain);
        }
    }
    stop(plain_server);
    stop(traced_server);
    // Tracing overhead: the traced replay's request path (decode, handler,
    // encode) against the untraced replay's, request by request, over the
    // requests that ran no checker, where it is not lost in checker noise;
    // the median pair, so that one preempted request does not set it. The
    // daemon itself carries no spans, so this in-process pair is where
    // tracing costs anything. A signed difference: it reads below 0 when
    // the spans cost less than the noise between the two replays.
    let ratios: Vec<f64> = probes
        .iter()
        .zip(replayed.server_us.iter().zip(&plain.server_us))
        .filter(|(q, _)| !q.runs_checker())
        .map(|(_, (traced, untraced))| traced / untraced)
        .collect();
    let overhead = median(&ratios) - 1.0;
    book.attempted += probes.len();
    book.failed += replayed.wrong.len();
    book.wrong += replayed.wrong.len();
    if let Some(why) = replayed.wrong.first() {
        book.first_problem.get_or_insert(why.clone());
    }

    // server: round trips against in-process server time.
    let rtt_us: Vec<f64> = rtt_shots
        .iter()
        .map(|s| s.latency_ns.unwrap_or(0) as f64 / 1e3)
        .collect();
    for method in [
        "solvable",
        "check_horizon",
        "first_horizon",
        "net_solvable",
        "simulate",
        "health",
    ] {
        let picked: Vec<f64> = probes
            .iter()
            .zip(&rtt_us)
            .filter(|(r, _)| r.method == method)
            .map(|(_, t)| *t)
            .collect();
        out.push(metric(
            format!("server.rtt_p50_us.{method}"),
            median(&picked),
            "us",
        ));
    }
    let gaps: Vec<f64> = rtt_us
        .iter()
        .zip(&replayed.server_us)
        .map(|(rtt, srv)| rtt - srv)
        .collect();
    out.push(metric("server.gap_p50_us", median(&gaps), "us"));

    // wire
    out.push(metric("wire.decode_us", spans.mean_us("wire.decode"), "us"));
    out.push(metric("wire.encode_us", spans.mean_us("wire.encode"), "us"));
    let req_bytes: Vec<f64> = probes
        .iter()
        .map(|r| Frame::new(r.id, &r.envelope()).bytes.len() as f64)
        .collect();
    out.push(metric("wire.req_bytes", mean(&req_bytes), "B"));
    let reply_bytes: Vec<f64> = rtt_shots
        .iter()
        .filter_map(|s| s.reply.as_ref())
        .map(|r| Frame::new(0, r).bytes.len() as f64)
        .collect();
    out.push(metric("wire.reply_bytes", mean(&reply_bytes), "B"));

    // spec, methods
    out.push(metric("spec.parse_us", spans.mean_us("spec.parse"), "us"));
    for method in [
        "solvable",
        "check_horizon",
        "first_horizon",
        "net_solvable",
        "simulate",
        "health",
    ] {
        out.push(metric(
            format!("methods.{method}_us"),
            spans.mean_us(&format!("methods.{method}")),
            "us",
        ));
    }

    // cache: direct lookups in the replay, records on a separate cache,
    // dispositions from the daemon's own counters over the phase.
    out.push(metric(
        "cache.lookup_us",
        spans.mean_us("cache.lookup"),
        "us",
    ));
    let separate = VerdictCache::new(&MetricsRegistry::new());
    for record in &replayed.records {
        match record {
            WalRecord::Horizon { key, k, solvable } => {
                spans.time("cache.record", None, 0, || {
                    separate.record_horizon(key, *k, *solvable)
                });
            }
            WalRecord::Theorem { key, result } => {
                spans.time("cache.record", None, 0, || {
                    separate.record_theorem(key, result.clone())
                });
            }
            WalRecord::Snapshot { .. } => {}
        }
    }
    out.push(metric(
        "cache.record_us",
        spans.mean_us("cache.record"),
        "us",
    ));
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let (hits, subsumed, misses) = (
        delta("svc.cache_hits"),
        delta("svc.cache_subsumptions"),
        delta("svc.cache_misses"),
    );
    let lookups = (hits + subsumed + misses).max(1.0);
    out.push(metric("cache.hit_share", hits / lookups, "ratio"));
    out.push(metric("cache.subsumed_share", subsumed / lookups, "ratio"));
    out.push(metric("cache.miss_share", misses / lookups, "ratio"));

    // graphs
    let all_reqs: Vec<Req> = sample.iter().chain(&phase_reqs).cloned().collect();
    let (regular_share, repeat_share) = stream_shares(&all_reqs);
    out.push(metric(
        "graphs.connectivity_us",
        spans.mean_us("graphs.connectivity"),
        "us",
    ));
    out.push(metric("graphs.repeat_share", repeat_share, "ratio"));

    // synth: the workload's own checker work, with the checker's recorder.
    let mut tally = SynthTally::default();
    let deep_configs = deep::build()?;
    if args.workload == "checker_deep" {
        let mut twins = Vec::new();
        for config in &deep_configs {
            let result = tally.check(&config.parsed, config.k, &config.alphabet, &mut spans);
            book.attempted += 1;
            if let Err(why) = deep::verify(config, &result, &mut twins) {
                book.failed += 1;
                book.wrong += 1;
                book.first_problem.get_or_insert(why);
            }
        }
    } else {
        // The replay's checks again with the checker's recorder, for
        // shares and counts.
        for (scheme, k) in &checker_work(&probes) {
            let (parsed, alphabet) = parse_scheme(scheme)?;
            let result = tally.check(&parsed, *k, &alphabet, &mut spans);
            book.attempted += 1;
            if result.is_solvable() != scheme.solvable_at(*k) {
                book.failed += 1;
                book.wrong += 1;
                book.first_problem
                    .get_or_insert(format!("{scheme:?} at k={k}: recorded check {result:?}"));
            }
        }
    }
    // One untraced pass over the pinned list, in every workload.
    let mut twins = Vec::new();
    let mut cfg_ms = BTreeMap::new();
    let mut deep_check_ms = 0.0;
    for config in &deep_configs {
        let (result, span) = spans.time("synth.deep", None, 0, || {
            config
                .parsed
                .check(config.k, &config.alphabet, Budget::UNLIMITED, false)
        });
        let elapsed = spans.us(span) / 1e3;
        deep_check_ms += elapsed;
        book.attempted += 1;
        if let Err(why) = deep::verify(config, &result, &mut twins) {
            book.failed += 1;
            book.wrong += 1;
            book.first_problem.get_or_insert(why);
        }
        let chain = match &result {
            CheckResult::Unsolvable { chain } => chain.len(),
            _ => 0,
        };
        cfg_ms.insert(config.label, elapsed);
        out.push(metric(format!("synth.{}.ms", config.label), elapsed, "ms"));
        out.push(metric(
            format!("synth.{}.chain_len", config.label),
            chain as f64,
            "count",
        ));
    }
    let check_name = if args.workload == "checker_deep" {
        "synth.deep"
    } else {
        "synth.check"
    };
    out.push(metric(
        "synth.check_ms",
        spans.mean_us(check_name) / 1e3,
        "ms",
    ));
    tally.metrics(&mut out);
    out.push(metric(
        "omega.regular_over_classic",
        cfg_ms.get("regular_fair_10").copied().unwrap_or(f64::NAN)
            / cfg_ms.get("fair_10").copied().unwrap_or(f64::NAN),
        "ratio",
    ));

    // wal: appends of the replay's verdicts on a separate log.
    let (mut wal, _) = Wal::open(
        &dir.join("direct.wal"),
        &VerdictCache::new(&MetricsRegistry::new()),
        CompactionPolicy::default(),
    )
    .map_err(|e| format!("separate wal: {e}"))?;
    let mut record_bytes = Vec::new();
    for record in &replayed.records {
        let (bytes, _) = spans.time("wal.append", None, 0, || wal.append(record));
        record_bytes.push(bytes.map_err(|e| format!("wal append: {e}"))? as f64);
    }
    let (flushed, _) = spans.time("wal.flush", None, 0, || wal.flush());
    flushed.map_err(|e| format!("wal flush: {e}"))?;
    drop(wal);
    out.push(metric("wal.append_us", spans.mean_us("wal.append"), "us"));
    out.push(metric(
        "wal.flush_ms",
        spans.mean_us("wal.flush") / 1e3,
        "ms",
    ));
    out.push(metric("wal.record_bytes", mean(&record_bytes), "B"));
    for _ in 0..5 {
        spans.time("wal.replay", None, 0, || {
            replay_bytes(&template, &VerdictCache::new(&MetricsRegistry::new()))
        });
    }
    out.push(metric(
        "wal.replay_ms",
        median(&spans.durations("wal.replay")) / 1e3,
        "ms",
    ));

    // sim
    let mix_gen = Gen::new(stream, args.seed);
    out.push(metric(
        "sim.two_process_us",
        two_process(&mix_gen.mix.sims, &mut book),
        "us",
    ));
    out.push(metric(
        "sim.flooding_us",
        flooding(&mix_gen.mix.graphs, &mut book),
        "us",
    ));

    // Throughput and the closed-loop warm-up pass.
    out.push(metric("svc.capacity_rps", capacity, "req/s"));
    out.push(metric("svc.goodput_rps", goodput, "req/s"));
    out.push(metric("svc.warm_pass_s", start.pass_s, "s"));
    out.push(metric("synth.pass_s", deep_check_ms / 1e3, "s"));

    // Tails over the open-loop phase at the nominal rate.
    let all: Vec<&Shot> = phase_shots.iter().collect();
    let reads: Vec<&Shot> = phase_reqs
        .iter()
        .zip(&phase_shots)
        .filter(|(r, _)| !r.runs_checker())
        .map(|(_, s)| s)
        .collect();
    let misses: Vec<&Shot> = phase_reqs
        .iter()
        .zip(&phase_shots)
        .filter(|(r, _)| r.runs_checker() && r.method == "check_horizon")
        .map(|(_, s)| s)
        .collect();
    // svc_hot runs no checker while timed: its misses are the warm-up's.
    let warm_misses: Vec<&Shot> = probes
        .iter()
        .zip(&rtt_shots)
        .take(start_len)
        .filter(|(r, _)| r.runs_checker())
        .map(|(_, s)| s)
        .collect();
    out.push(metric("svc.p50_ms", median(&svc::ms(&all)), "ms"));
    out.push(metric(
        "svc.miss_p50_ms",
        median(&svc::ms(if misses.is_empty() {
            &warm_misses
        } else {
            &misses
        })),
        "ms",
    ));
    out.push(metric("tail.p99_ms", svc::tail(&all, 0.99), "ms"));
    out.push(metric("tail.read_p99_ms", svc::tail(&reads, 0.99), "ms"));

    // gen
    let late: Vec<f64> = phase_shots
        .iter()
        .map(|s: &Shot| s.late_ns as f64 / 1e3)
        .collect();
    out.push(metric("gen.late_p99_us", quantile(&late, 0.99), "us"));
    out.push(metric("gen.regular_share", regular_share, "ratio"));

    // Parts against the whole. The request path (decode, handler, encode
    // and the replay's own glue) is one span tree per request; its self
    // times add up to the request span. Nothing inside the handler is
    // traced, so the layers it calls are direct calls timed apart: they
    // are reported beside the handler's time, not subtracted from it.
    let own = spans.self_us();
    let n = probes.len() as f64;
    let layer_us = |name: &str| spans.durations(name).iter().sum::<f64>() / n;
    let path = [
        ("wire", spans.self_sum(&own, "wire.") / n),
        ("methods", spans.self_sum(&own, "methods.") / n),
        ("request", spans.self_sum(&own, "request") / n),
    ];
    let direct = [
        ("spec", layer_us("spec.parse")),
        ("cache", layer_us("cache.lookup") + layer_us("cache.record")),
        ("graphs", layer_us("graphs.connectivity")),
        ("sim", layer_us("sim.two_process")),
        ("synth", layer_us("synth.check")),
        ("wal", layer_us("wal.append")),
    ];
    for (layer, value) in path.iter().take(2).chain(&direct) {
        out.push(metric(format!("self.{layer}_us"), *value, "us"));
    }
    // The workload's whole against its parts: the idle round trip against
    // the request path, or for checker_deep a recorded check against its
    // expand, dedup and decide spans.
    let (whole, parts) = if args.workload == "checker_deep" {
        let k = tally.checks.max(1) as f64;
        (
            tally.wall_ns as f64 / 1e3 / k,
            (tally.expand_ns + tally.dedup_ns + tally.decide_ns) as f64 / 1e3 / k,
        )
    } else {
        (mean(&rtt_us), path.iter().map(|(_, v)| v).sum())
    };
    out.push(metric("layers.whole_us", whole, "us"));
    out.push(metric("layers.self_sum_us", parts, "us"));
    out.push(metric("layers.gap_us", whole - parts, "us"));
    out.push(metric("trace.overhead_share", overhead, "ratio"));
    eprintln!("perfbench: request-path self times per request (us):");
    for (layer, value) in &path {
        eprintln!("  {layer:>8} {value:12.2}");
    }
    eprintln!("perfbench: inside the handler, by direct calls per request (us):");
    for (layer, value) in &direct {
        eprintln!("  {layer:>8} {value:12.2}");
    }
    eprintln!(
        "perfbench: {} parts {parts:.2} us + unexplained gap {:.2} us = whole {whole:.2} us",
        args.workload,
        whole - parts,
    );
    eprintln!(
        "perfbench: deep list pass {:.3} s (untraced)",
        deep_check_ms / 1e3
    );
    eprintln!(
        "perfbench: generator lateness p99 {:.1} us over the open-loop phase",
        quantile(&late, 0.99)
    );

    let traces = Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench-traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("trace dir: {e}"))?;
    spans
        .write(&traces.join(format!("{}-{}.jsonl", args.workload, args.seed)))
        .map_err(|e| format!("writing spans: {e}"))?;
    if let Some(problem) = &book.first_problem {
        eprintln!(
            "perfbench: {} of {} answers failed; first: {problem}",
            book.failed, book.attempted
        );
    }
    out.push(metric(
        "fail_ratio",
        book.failed as f64 / book.attempted.max(1) as f64,
        "ratio",
    ));
    Ok(Report {
        attempted: book.attempted,
        failed: book.failed,
        correct: book.wrong == 0,
        metrics: out,
    })
}
