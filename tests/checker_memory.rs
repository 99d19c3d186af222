//! Memory regression guard for the bounded checker — `#[ignore]`d by
//! default, run with `cargo test --release -- --ignored`. It is the only
//! test in its binary, so the process's high-water mark is the check's.

use minobs_core::prelude::*;
use minobs_synth::checker::{gamma_alphabet, solvable_by, CheckResult};

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kb / 1024.0
}

#[test]
#[cfg(target_os = "linux")]
#[ignore = "scale test: R1 at k = 11 (1.4M executions) under a memory cap"]
fn r1_horizon_11_stays_under_96_mb() {
    // The frontier, the round-local intern table, the CSR chain search
    // and the compact chain keep this near 40 MB. Keeping every round's
    // view keys, a hash-map BFS and a `Word` per chain step read 186 MB.
    let k = 11;
    let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), k, &gamma_alphabet())
    else {
        panic!("R1 is an obstruction");
    };
    assert_eq!(chain.len(), 2 * 3usize.pow(k as u32) + 1);
    let peak = peak_rss_mb();
    assert!(peak < 96.0, "peak RSS {peak:.1} MB, cap 96 MB");
}
