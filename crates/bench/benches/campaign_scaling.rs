//! Campaign-engine scaling baseline: fault-campaign throughput
//! (fault-trials per second) at 1/2/4/8 rayon threads, so future PRs have
//! a perf number to beat — plus the observability overhead rows pinning
//! that a disabled trace sink costs nothing on the result path
//! (`BENCH_obs.json` records the comparison).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::FaultSite;
use std::hint::black_box;

fn workload() -> (RamConfig, Vec<FaultSite>, CampaignConfig) {
    let org = RamOrganization::new(256, 8, 4);
    let code = MOutOfN::new(3, 5).unwrap();
    let config = RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, 64).unwrap(),
        CodewordMap::mod_a(code, 9, 4).unwrap(),
    );
    let faults: Vec<FaultSite> = decoder_fault_universe(6)
        .into_iter()
        .map(FaultSite::RowDecoder)
        .collect();
    let campaign = CampaignConfig {
        cycles: 10,
        trials: 16,
        seed: 0xBA5E,
        write_fraction: 0.1,
    };
    (config, faults, campaign)
}

fn bench_scaling(c: &mut Criterion) {
    let (config, faults, campaign) = workload();
    let grid = faults.len() as u64 * campaign.trials as u64;

    let mut g = c.benchmark_group("campaign-scaling");
    g.throughput(Throughput::Elements(grid));
    for threads in [1usize, 2, 4, 8] {
        let engine = CampaignEngine::new(campaign).threads(threads);
        g.bench_function(&format!("{threads}-threads"), |b| {
            b.iter(|| black_box(engine.run(black_box(&config), black_box(&faults))))
        });
    }
    g.finish();
}

fn bench_observability_overhead(c: &mut Criterion) {
    let (config, faults, campaign) = workload();
    let grid = faults.len() as u64 * campaign.trials as u64;

    let mut g = c.benchmark_group("campaign-observability");
    g.throughput(Throughput::Elements(grid));
    let engine = CampaignEngine::new(campaign).threads(4);
    // Tracing off is the default: the result path never consults a sink
    // (the trace is a separate opt-in pass), so this row must stay
    // within noise (< 2%) of the campaign-scaling 4-threads row.
    g.bench_function("run-tracing-disabled", |b| {
        b.iter(|| black_box(engine.run(black_box(&config), black_box(&faults))))
    });
    // What `--trace` actually pays: the trace pass (the slab executor
    // once more, events derived from its per-lane outcomes) on top of
    // the untouched result pass. The row keeps its recorded name.
    g.bench_function("run-plus-trace-replay", |b| {
        b.iter(|| {
            let result = engine.run(black_box(&config), black_box(&faults));
            let events = engine.trace(black_box(&config), black_box(&faults));
            black_box((result, events))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scaling, bench_observability_overhead);
criterion_main!(benches);
