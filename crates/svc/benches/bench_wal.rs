//! BENCH-WAL — the daemon's cold-start replay cost.
//!
//! * `replay_bytes/16384` replays a 16,384-record log of `horizon`
//!   records into an empty cache, the work every daemon start does on a
//!   warm log. Keys have the shape `perfbench` pre-seeds:
//!   `classic:avoid_prefix[<10–14 letters of -wb>]|gamma`, all distinct.
//! * `crc32/1MiB` checksums one mebibyte, isolating the frame check.
//!
//! ```bash
//! cargo bench --offline -p minobs-svc --bench bench_wal
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use minobs_obs::MetricsRegistry;
use minobs_svc::cache::VerdictCache;
use minobs_svc::wal::{crc32, replay_bytes, CompactionPolicy, MemoryWalFile, Wal, WalRecord};
use std::collections::HashSet;

const RECORDS: usize = 16_384;

/// A fixed-seed LCG; the log is the same on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn seeded_log() -> Vec<u8> {
    let file = MemoryWalFile::new();
    let mut wal =
        Wal::with_file(Box::new(file.clone()), CompactionPolicy::default()).expect("memory WAL");
    let mut rng = Lcg(0x5741_4c00);
    let mut seen = HashSet::new();
    while seen.len() < RECORDS {
        let len = 10 + (rng.next() % 5) as usize;
        let word: String = (0..len)
            .map(|_| ['-', 'w', 'b'][(rng.next() % 3) as usize])
            .collect();
        if seen.insert(word.clone()) {
            wal.append(&WalRecord::Horizon {
                key: format!("classic:avoid_prefix[{word}]|gamma"),
                k: len,
                solvable: true,
            })
            .expect("memory WAL");
        }
    }
    wal.flush().expect("memory WAL");
    file.bytes()
}

fn bench_replay(c: &mut Criterion) {
    let log = seeded_log();
    let mut group = c.benchmark_group("wal");
    group.sample_size(10);
    group.bench_function(format!("replay_bytes/{RECORDS}"), |b| {
        b.iter(|| {
            let cache = VerdictCache::new(&MetricsRegistry::new());
            let report = replay_bytes(black_box(&log), &cache);
            assert_eq!(report.records, RECORDS as u64);
            report
        })
    });
    let mebibyte: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    group.bench_function("crc32/1MiB", |b| b.iter(|| crc32(black_box(&mebibyte))));
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
