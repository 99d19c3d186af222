//! The `checker_deep` workload: the bounded checker in-process, single
//! thread, closed loop over a pinned list of deep horizons.

use crate::daemon::peak_rss_mb;
use crate::gen::{deep_list, Scheme};
use crate::oracle::r1_chain_len;
use crate::stats::{median, minimum};
use crate::{metric, Args, Report};
use minobs_core::word::Word;
use minobs_svc::spec::{parse_alphabet, ParsedScheme};
use minobs_synth::checker::{Budget, CheckResult};
use serde_json::Value;
use std::time::Instant;

/// Set-up is timed in blocks of this many builds of the list, so each
/// measurement spans about a millisecond rather than microseconds...
const BUILDS_PER_BLOCK: usize = 200;
/// ...this many blocks before the first check, then one before every
/// check, so the blocks span the whole run. The fastest block is
/// reported: contention from outside the process only adds time, and on
/// a shared host it comes and goes within seconds (blocks read either
/// about 5 or about 9 µs per build), so a median follows the host while
/// the minimum follows the program.
const FIRST_BLOCKS: usize = 5;

/// One configuration, parsed the way the daemon parses a request.
pub struct Config {
    pub label: &'static str,
    pub scheme: Scheme,
    pub parsed: ParsedScheme,
    pub k: usize,
    pub alphabet: Vec<minobs_core::letter::Letter>,
}

fn request_params(scheme: &Scheme) -> Value {
    let mut map = serde_json::Map::new();
    map.insert("scheme", scheme.to_json());
    Value::Object(map)
}

/// Parses the pinned list and answers one viability query per scheme,
/// which builds any automaton behind it.
pub fn build() -> Result<Vec<Config>, String> {
    deep_list()
        .into_iter()
        .map(|(label, scheme, k)| {
            let params = request_params(&scheme);
            let parsed = ParsedScheme::parse(params.get("scheme").unwrap_or(&Value::Null))?;
            let alphabet = parse_alphabet(&params, &parsed)?;
            std::hint::black_box(parsed.as_omission().allows_prefix(&Word::empty()));
            Ok(Config {
                label,
                scheme,
                parsed,
                k,
                alphabet,
            })
        })
        .collect()
}

/// Checks one verdict against the closed form: the verdict at `k`, the
/// R1 chain length `2·3^k+1`, and a regular scheme's chain equal to its
/// classic twin's (recorded in `twins` by label stem).
pub fn verify(
    config: &Config,
    result: &CheckResult,
    twins: &mut Vec<(String, usize)>,
) -> Result<(), String> {
    let want = config.scheme.solvable_at(config.k);
    if result.is_solvable() != want {
        return Err(format!(
            "{}: expected solvable={want}, got {result:?}",
            config.label
        ));
    }
    if let CheckResult::Unsolvable { chain } = result {
        if config.label.starts_with("r1_") && chain.len() != r1_chain_len(config.k) {
            return Err(format!(
                "{}: chain of {} executions, expected {}",
                config.label,
                chain.len(),
                r1_chain_len(config.k)
            ));
        }
        let stem = config.label.trim_start_matches("regular_").to_string();
        match twins.iter().find(|(s, _)| *s == stem) {
            Some((_, len)) if *len != chain.len() => {
                return Err(format!(
                    "{}: chain of {} differs from its twin's {len}",
                    config.label,
                    chain.len()
                ))
            }
            Some(_) => {}
            None => twins.push((stem, chain.len())),
        }
    }
    Ok(())
}

/// Set-up time of one build of the list, over one block of builds.
fn setup_block() -> Result<f64, String> {
    let started = Instant::now();
    for _ in 0..BUILDS_PER_BLOCK {
        drop(std::hint::black_box(build()?));
    }
    Ok(started.elapsed().as_secs_f64() / BUILDS_PER_BLOCK as f64)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = (0..FIRST_BLOCKS)
        .map(|_| setup_block())
        .collect::<Result<Vec<f64>, String>>()?;
    let configs = build()?;
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first_problem = None;
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let mut twins = Vec::new();
        for config in &configs {
            setups.push(setup_block()?);
            let result = config
                .parsed
                .check(config.k, &config.alphabet, Budget::UNLIMITED, false);
            attempted += 1;
            if let Err(why) = verify(config, &result, &mut twins) {
                failed += 1;
                first_problem.get_or_insert(why);
            }
        }
        let pass_s = pass_started.elapsed().as_secs_f64();
        passes.push(pass_s);
        if started.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }
    if let Some(problem) = &first_problem {
        eprintln!("perfbench: {failed} of {attempted} answers wrong; first: {problem}");
    }
    eprintln!(
        "perfbench: {} passes over the list, median {:.3} s, fastest {:.3} s; set-up {:.2} us, fastest of {} blocks {:.2?}",
        passes.len(),
        median(&passes),
        minimum(&passes),
        minimum(&setups) * 1e6,
        setups.len(),
        setups.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
    let rss = peak_rss_mb("self").unwrap_or(f64::NAN);
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics: vec![
            metric("setup_s", minimum(&setups), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ],
    })
}
