//! End-to-end runs of the service workloads against `minobs-svcd`.

use crate::daemon::{self, peak_rss_mb, start_warm, Daemon, IdleSpinner};
use crate::gen::{Gen, Req};
use crate::load::{open_loop, Conn, Frame, Shot};
use crate::oracle;
use crate::stats::{median, minimum, quantile};
use crate::{metric, Args, Cpus, Report};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Daemon starts before the timed phase; each warms a fresh cache.
const STARTS: usize = 7;
/// The timed phase runs in this many chunks; after each, one more daemon
/// is started on the pre-seeded WAL and stopped, so set-up is sampled
/// across the whole run. Set-up time is the fastest start: contention
/// from outside the process only adds time, and on a shared host it
/// comes and goes within seconds.
const CHUNKS: usize = 8;

/// A service workload's rates and latency limit.
pub struct Plan {
    /// The nominal open-loop rate, requests per second.
    pub nominal: f64,
    /// The p99 limit a ladder step must meet, in ms.
    pub limit_ms: f64,
    /// First ladder rate; each passing step multiplies it by 1.5, and
    /// three bisections refine the first failure.
    pub ladder_start: f64,
    /// Seconds per ladder step.
    pub step_s: f64,
    /// The fixed overload rate for goodput.
    pub overload: f64,
    /// In-flight cap per connection in the overload phase, so the queue
    /// there stays bounded and goodput measures service, not backlog.
    pub cap: usize,
    /// How long a phase may wait for its last replies.
    pub drain: Duration,
}

pub fn plan(workload: &str) -> Plan {
    if workload == "svc_hot" {
        Plan {
            nominal: 2000.0,
            limit_ms: 10.0,
            ladder_start: 6000.0,
            step_s: 0.5,
            overload: 40000.0,
            cap: 32,
            drain: Duration::from_secs(5),
        }
    } else {
        Plan {
            nominal: 50.0,
            limit_ms: 250.0,
            ladder_start: 300.0,
            step_s: 0.75,
            overload: 1500.0,
            cap: 8,
            drain: Duration::from_secs(10),
        }
    }
}

/// Running tally of what was sent and how it went.
#[derive(Default)]
pub struct Book {
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    pub first_problem: Option<String>,
}

impl Book {
    /// Checks every sent request's reply against the oracle; a missing
    /// reply, an error or a wrong answer fails. Returns the failures.
    /// Requests held back at an in-flight cap were never sent and count
    /// neither way: only the overload phase sets a cap, and it exists to
    /// exceed capacity (`svc.goodput_rps` reports what it delivered).
    pub fn add(&mut self, reqs: &[Req], shots: &[Shot]) -> usize {
        let mut failed = 0;
        for (req, shot) in reqs.iter().zip(shots).filter(|(_, s)| !s.dropped) {
            self.attempted += 1;
            let verdict = match &shot.reply {
                None => Err("no reply".to_string()),
                Some(reply) => oracle::check(&req.expect, reply),
            };
            if let Err(why) = verdict {
                failed += 1;
                if shot
                    .reply
                    .as_ref()
                    .and_then(|r| r.get("ok"))
                    .and_then(Value::as_bool)
                    == Some(true)
                {
                    self.wrong += 1;
                }
                self.first_problem
                    .get_or_insert_with(|| format!("request {} ({}): {why}", req.id, req.method));
            }
        }
        self.failed += failed;
        failed
    }
}

/// Sends `secs` worth of the stream at `rate`, with at most `cap`
/// requests in flight per connection; returns requests and shots.
pub fn phase(
    conns: &mut [Conn],
    gen: &mut Gen,
    rate: f64,
    secs: f64,
    cap: usize,
    drain: Duration,
) -> (Vec<Req>, Vec<Shot>) {
    let n = ((rate * secs).round() as usize).max(1);
    let reqs = gen.take(n);
    let frames: Vec<Frame> = reqs
        .iter()
        .map(|r| Frame::new(r.id, &r.envelope()))
        .collect();
    let shots = open_loop(conns, &frames, rate, cap, drain);
    (reqs, shots)
}

/// A tail that one scheduler stall cannot move: the median, over
/// consecutive chunks of 1000 replies in due order, of each chunk's
/// `q`-quantile (one chunk when there are fewer than 2000).
pub fn tail(shots: &[&Shot], q: f64) -> f64 {
    let n = (shots.len() / 1000).max(1);
    let per_chunk: Vec<f64> = (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                shots.len()
            } else {
                (i + 1) * 1000
            };
            quantile(&ms(&shots[i * 1000..end]), q)
        })
        .collect();
    median(&per_chunk)
}

pub fn ms(shots: &[&Shot]) -> Vec<f64> {
    shots
        .iter()
        .filter_map(|s| s.latency_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// Did a step meet the limit with no growing backlog: every request
/// answered, the p99 tail within the limit, and replies keeping up with
/// the offered rate? Returns the achieved reply rate when it did.
pub fn step_passes(shots: &[Shot], failed: usize, rate: f64, limit_ms: f64) -> Option<f64> {
    let all: Vec<&Shot> = shots.iter().collect();
    let p99 = tail(&all, 0.99);
    let last_done = shots
        .iter()
        .filter_map(|s| s.latency_ns.map(|l| (s.due_ns + l) as f64 / 1e9))
        .fold(0.0, f64::max);
    let achieved = shots.len() as f64 / last_done;
    (failed == 0 && p99 <= limit_ms && achieved >= 0.98 * rate).then_some(achieved)
}

/// The highest ladder rate meeting the limit, as the reply rate achieved
/// there, over two climbs; `floor` is the achieved rate of a step already
/// known to pass. A step counts as passing when any attempt at it passes,
/// so one scheduler stall does not end a climb.
pub fn capacity(
    conns: &mut [Conn],
    gen: &mut Gen,
    book: &mut Book,
    plan: &Plan,
    budget: f64,
    floor: f64,
) -> f64 {
    let first = climb(conns, gen, book, plan, budget / 2.0, floor);
    let second = climb(conns, gen, book, plan, budget / 2.0, floor);
    first.max(second)
}

/// Replies within the limit per second at the fixed overload rate, with
/// the in-flight cap, over `window` seconds.
pub fn goodput(
    conns: &mut [Conn],
    gen: &mut Gen,
    book: &mut Book,
    plan: &Plan,
    window: f64,
) -> f64 {
    let (reqs, shots) = phase(conns, gen, plan.overload, window, plan.cap, plan.drain);
    book.add(&reqs, &shots);
    let good = shots
        .iter()
        .filter(|s| {
            s.latency_ns
                .is_some_and(|l| l as f64 / 1e6 <= plan.limit_ms)
        })
        .count();
    good as f64 / window
}

/// One climb: by 1.5× from `ladder_start`, then three bisections of the
/// first failing rung; a failing step runs twice.
fn climb(
    conns: &mut [Conn],
    gen: &mut Gen,
    book: &mut Book,
    plan: &Plan,
    budget: f64,
    floor: f64,
) -> f64 {
    let started = Instant::now();
    let (mut pass, mut fail): ((f64, f64), Option<f64>) = ((plan.nominal, floor), None);
    let mut bisections = 0;
    while started.elapsed().as_secs_f64() < budget && bisections < 3 {
        let rate = match fail {
            None => (pass.0 * 1.5).max(plan.ladder_start),
            Some(f) => (pass.0 * f).sqrt(),
        };
        let mut verdict = None;
        for _ in 0..2 {
            let (reqs, shots) = phase(conns, gen, rate, plan.step_s, usize::MAX, plan.drain);
            let failed = book.add(&reqs, &shots);
            verdict = step_passes(&shots, failed, rate, plan.limit_ms);
            if verdict.is_some() {
                break;
            }
        }
        match verdict {
            Some(achieved) => pass = (rate, achieved),
            None => fail = Some(rate),
        }
        if fail.is_some() {
            bisections += 1;
        }
    }
    pass.1
}

pub fn run(args: &Args, cpus: &Cpus) -> Result<Report, String> {
    let plan = plan(&args.workload);
    let dir = daemon::work_dir().map_err(|e| format!("work dir: {e}"))?;
    let result = measure(args, cpus, &plan, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The idle spinner on the daemon's CPU, when the daemon is pinned.
pub fn spinner(cpus: &Cpus) -> Result<Option<IdleSpinner>, String> {
    cpus.daemon
        .map(|cpu| IdleSpinner::start(cpu).map_err(|e| format!("idle spinner: {e}")))
        .transpose()
}

fn connect(daemon: &Daemon, cpus: &Cpus) -> Result<Vec<Conn>, String> {
    (0..cpus.connections())
        .map(|_| Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

fn measure(args: &Args, cpus: &Cpus, plan: &Plan, dir: &std::path::Path) -> Result<Report, String> {
    let _spinner = spinner(cpus)?;
    let mut gen = Gen::new(&args.workload, args.seed);
    let mut book = Book::default();
    let (mut daemon, starts) =
        start_warm(&args.daemon, dir, args.seed, cpus.daemon, STARTS, &mut gen)
            .map_err(|e| format!("daemon: {e}"))?;
    let mut warm_misses = Vec::new();
    for start in &starts {
        book.add(&start.reqs, &start.shots);
        warm_misses.extend(
            start
                .reqs
                .iter()
                .zip(&start.shots)
                .filter(|(r, _)| r.runs_checker())
                .map(|(_, s)| s),
        );
    }
    let mut setups: Vec<f64> = starts.iter().map(|s| s.setup_s).collect();
    let template = daemon::build_wal(&dir.join("probe-seed.wal"), args.seed, daemon::WAL_RECORDS)
        .map_err(|e| format!("wal: {e}"))?;
    let mut conns = connect(&daemon, cpus)?;
    let (mut reqs, mut shots) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS {
        let (chunk_reqs, chunk_shots) = phase(
            &mut conns,
            &mut gen,
            plan.nominal,
            args.seconds / CHUNKS as f64,
            usize::MAX,
            plan.drain,
        );
        book.add(&chunk_reqs, &chunk_shots);
        reqs.extend(chunk_reqs);
        shots.extend(chunk_shots);
        let (mut probe, setup_s) =
            Daemon::start(&args.daemon, &dir.join("probe.wal"), &template, cpus.daemon)
                .map_err(|e| format!("daemon: {e}"))?;
        probe.stop();
        setups.push(setup_s);
    }
    let all: Vec<&Shot> = shots.iter().collect();
    let misses: Vec<&Shot> = reqs
        .iter()
        .zip(&shots)
        .filter(|(r, _)| r.runs_checker() && r.method == "check_horizon")
        .map(|(_, s)| s)
        .collect();
    // svc_hot runs no checker while timed: its misses are the warm-ups'.
    let miss_p50 = median(&ms(if misses.is_empty() {
        &warm_misses
    } else {
        &misses
    }));
    let late: Vec<f64> = shots.iter().map(|s| s.late_ns as f64 / 1e3).collect();
    eprintln!(
        "perfbench: {} replies at {}/s: p50 {:.3} ms, p99 {:.3} ms, miss p50 {:.3} ms; generator lateness p99 {:.1} us",
        all.len(),
        plan.nominal,
        median(&ms(&all)),
        quantile(&ms(&all), 0.99),
        miss_p50,
        quantile(&late, 0.99),
    );
    eprintln!(
        "perfbench: set-up {:.2} ms, fastest of {} starts {:.2?}",
        minimum(&setups) * 1e3,
        setups.len(),
        setups.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    let rss = peak_rss_mb(&daemon.pid()).unwrap_or(f64::NAN);
    drop(conns);
    daemon.stop();
    if let Some(problem) = &book.first_problem {
        eprintln!(
            "perfbench: {} of {} requests failed; first: {problem}",
            book.failed, book.attempted
        );
    }
    Ok(Report {
        attempted: book.attempted,
        failed: book.failed,
        correct: book.wrong == 0,
        metrics: vec![
            metric("setup_s", minimum(&setups), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ],
    })
}
