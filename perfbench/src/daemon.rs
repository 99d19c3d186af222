//! Spawning `minobs-svcd` pinned to its own CPU, timing its set-up, and
//! reading its peak memory.

use crate::gen::{Gen, Req};
use crate::load::{closed_loop, Conn, Frame, Shot};
use minobs_obs::MetricsRegistry;
use minobs_svc::wal::{CompactionPolicy, Wal, WalRecord};
use minobs_svc::{wire, VerdictCache};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim()
        .to_string();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    cpus.extend(a..=b);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

/// Pins this (still single-threaded) process to `cpu`.
pub fn pin_self(cpu: usize) -> io::Result<()> {
    let status = Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other("taskset -p failed"))
    }
}

/// Keeps a CPU out of idle: spins until process `parent` is gone. Run
/// under `SCHED_IDLE`, so any runnable thread on the CPU preempts it; it
/// only stops the virtual CPU from halting between requests, whose host
/// wake-up latency would otherwise dominate the daemon's latencies.
pub fn idle_spin(parent: &str) {
    let alive = Path::new("/proc").join(parent);
    while alive.exists() {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
        }
    }
}

/// The idle spinner on the daemon's CPU; killed when dropped.
pub struct IdleSpinner(Child);

impl IdleSpinner {
    /// Starts `taskset -c <cpu> chrt --idle 0 <this binary> --idle-spin`.
    pub fn start(cpu: usize) -> io::Result<IdleSpinner> {
        let me = std::env::current_exe()?;
        let child = Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .args(["chrt", "--idle", "0"])
            .arg(me)
            .arg("--idle-spin")
            .arg(std::process::id().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(IdleSpinner(child))
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// VmHWM of process `pid` in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Writes the pre-seeded WAL through the public `wal` API and returns
/// its bytes.
pub fn build_wal(path: &Path, seed: u64, records: usize) -> io::Result<Vec<u8>> {
    let _ = std::fs::remove_file(path);
    let cache = VerdictCache::new(&MetricsRegistry::new());
    let (mut wal, _) = Wal::open(path, &cache, CompactionPolicy::default())?;
    for (key, k) in crate::gen::wal_seed(seed, records) {
        wal.append(&WalRecord::Horizon {
            key,
            k,
            solvable: true,
        })?;
    }
    wal.flush()?;
    drop(wal);
    std::fs::read(path)
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on a copy of `wal_bytes`, pinned to `cpu`, and
    /// returns it with the time from spawn to its first OK reply.
    pub fn start(
        bin: &Path,
        wal_path: &Path,
        wal_bytes: &[u8],
        cpu: Option<usize>,
    ) -> io::Result<(Daemon, f64)> {
        std::fs::write(wal_path, wal_bytes)?;
        let mut command = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        for (key, _) in std::env::vars() {
            if key.starts_with("MINOBS_") {
                command.env_remove(key);
            }
        }
        let started = Instant::now();
        let mut child = command
            .env("MINOBS_SVC_ADDR", "127.0.0.1:0")
            .env("MINOBS_SVC_WAL", wal_path)
            .env("MINOBS_SVC_WORKERS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("daemon did not report an address: {line:?}")));
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child,
            stdout,
            addr,
        };
        let mut conn = Conn::connect(addr)?;
        let health = Frame::new(0, &wire::request(0, "health", Value::Null));
        let shot = closed_loop(
            &mut conn,
            std::slice::from_ref(&health),
            Duration::from_secs(10),
        )
        .remove(0);
        let setup = started.elapsed().as_secs_f64();
        if shot
            .reply
            .as_ref()
            .and_then(|r| r.get("ok"))
            .and_then(Value::as_bool)
            != Some(true)
        {
            daemon.stop();
            return Err(io::Error::other("daemon failed its first health check"));
        }
        Ok((daemon, setup))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drains the daemon with a `shutdown` request and waits for it to
    /// exit; kills it if it has not exited within ten seconds.
    pub fn stop(&mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let frame = Frame::new(0, &wire::request(0, "shutdown", Value::Null));
            closed_loop(
                &mut conn,
                std::slice::from_ref(&frame),
                Duration::from_secs(10),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where a run keeps its working files: inside the build directory.
pub fn work_dir() -> io::Result<PathBuf> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let dir = Path::new(&target)
        .join("perfbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One fresh daemon's start-up: set-up time, then the closed-loop
/// warm-up pass on its empty cache.
pub struct Start {
    pub setup_s: f64,
    pub pass_s: f64,
    pub reqs: Vec<Req>,
    pub shots: Vec<Shot>,
}

/// Starts the daemon `repeats` times on the pre-seeded WAL, each time
/// timing set-up and a warm-up pass; keeps the last one running.
pub fn start_warm(
    bin: &Path,
    dir: &Path,
    seed: u64,
    cpu: Option<usize>,
    repeats: usize,
    gen: &mut Gen,
) -> io::Result<(Daemon, Vec<Start>)> {
    let template = build_wal(&dir.join("seed.wal"), seed, WAL_RECORDS)?;
    let wal = dir.join("daemon.wal");
    let mut starts = Vec::new();
    loop {
        let (mut daemon, setup_s) = Daemon::start(bin, &wal, &template, cpu)?;
        let mut conn = Conn::connect(daemon.addr)?;
        let reqs = gen.warmup();
        let frames: Vec<Frame> = reqs
            .iter()
            .map(|r| Frame::new(r.id, &r.envelope()))
            .collect();
        let started = Instant::now();
        let shots = closed_loop(&mut conn, &frames, Duration::from_secs(30));
        let pass_s = started.elapsed().as_secs_f64();
        starts.push(Start {
            setup_s,
            pass_s,
            reqs,
            shots,
        });
        if starts.len() == repeats {
            return Ok((daemon, starts));
        }
        drop(conn);
        daemon.stop();
    }
}

/// Records in the pre-seeded WAL.
pub const WAL_RECORDS: usize = 16384;
