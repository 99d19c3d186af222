//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <svc_hot|svc_miss|checker_deep> --seed <n>
//!           --seconds <s> --trace <0|1> [--daemon <path to minobs-svcd>]
//! ```
//!
//! Generates the workload's inputs from the seed, drives the program,
//! checks every answer, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` replays the same inputs through
//! each layer's public functions and reports per-layer metrics. See
//! `perfbench/README.md`.

mod daemon;
mod deep;
mod gen;
mod layers;
mod load;
mod oracle;
mod stats;
mod svc;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// False when any reply was a wrong answer.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["svc_hot", "svc_miss", "checker_deep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
        daemon: daemon.unwrap_or_else(|| PathBuf::from(".bench_build/release/minobs-svcd")),
    })
}

/// CPU placement: the daemon and the generator on disjoint CPUs when the
/// process may use two or more; unpinned otherwise.
pub struct Cpus {
    pub allowed: Vec<usize>,
    pub daemon: Option<usize>,
    pub generator: Option<usize>,
    /// Available parallelism before this process pinned itself.
    pub nproc: usize,
}

impl Cpus {
    fn choose() -> Cpus {
        let allowed = daemon::allowed_cpus();
        let (daemon, generator) = match allowed.as_slice() {
            [d, g, ..] => (Some(*d), Some(*g)),
            _ => (None, None),
        };
        Cpus {
            allowed,
            daemon,
            generator,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// Connections the generator may open: no more than `nproc`, at most 2.
    pub fn connections(&self) -> usize {
        self.nproc.clamp(1, 2)
    }
}

fn render(report: &Report) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} was not measured ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--idle-spin") {
        daemon::idle_spin(&argv.next().unwrap_or_default());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = Cpus::choose();
    if let Some(cpu) = cpus.generator {
        if let Err(e) = daemon::pin_self(cpu) {
            eprintln!("perfbench: cannot pin to cpu {cpu}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let pin = |cpu: Option<usize>| cpu.map_or("null".to_string(), |c| c.to_string());
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"allowed_cpus\": {:?}, \"daemon_cpu\": {}, \"generator_cpu\": {}, \"rustc\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        cpus.nproc,
        cpus.allowed,
        pin(cpus.daemon),
        pin(cpus.generator),
        rustc,
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("checker_deep", false) => deep::run(&args),
        (_, false) => svc::run(&args, &cpus),
        (_, true) => layers::run(&args, &cpus),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match render(&report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
