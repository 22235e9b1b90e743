//! What it costs to *generate* an access: the stream side of the
//! monitor-fed curve path (`producer_fed` spends more of its cycle here
//! than in the monitors the streams feed). The repo benchmark's path is
//! `tenant_phased/closure_next_line` — `MonitorSource` pulls a tenant's
//! `Phased` one line at a time through a boxed closure; the `fill_256`
//! rows are the same streams taken by the block, as the sweeps take them.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use talus_sim::LineAddr;
use talus_workloads::{multi_tenant, AccessGenerator, Mixture, Phased, Scan, ZipfTable, Zipfian};

const LINES: usize = 16_384;

/// The tenant mixture of `multi_tenant` — 70 % window scan, 30 % private
/// set — with `private` as the private set's generator.
fn tenant_mixture(private: impl AccessGenerator + 'static) -> Mixture {
    let shared = Box::new(Scan::new(0, 1024)) as Box<dyn AccessGenerator>;
    Mixture::new(vec![(0.7, shared), (0.3, Box::new(private))], 5)
}

fn scan_zipf() -> Mixture {
    tenant_mixture(Zipfian::new(1 << 20, 512, 0.9, 3))
}

fn by_line(gen: &mut impl AccessGenerator) -> u64 {
    (0..LINES).fold(0, |acc, _| acc ^ gen.next_line().value())
}

fn by_block(gen: &mut impl AccessGenerator) {
    let mut block = [LineAddr(0); 256];
    for _ in 0..LINES / 256 {
        gen.fill(black_box(&mut block));
    }
}

fn tenant() -> Phased {
    multi_tenant(4).scaled(1.0 / 32.0).tenant_generator(1, 9)
}

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload_gen");
    g.throughput(Throughput::Elements(LINES as u64));

    g.bench_function("zipfian_512_q0.9/next_line", |b| {
        let mut gen = Zipfian::new(0, 512, 0.9, 7);
        b.iter(|| black_box(by_line(&mut gen)))
    });

    g.bench_function("zipfian_512_q0.9/fill_256", |b| {
        let mut gen = Zipfian::new(0, 512, 0.9, 7);
        b.iter(|| by_block(&mut gen))
    });

    g.bench_function("mixture_scan_zipf/next_line", |b| {
        let mut gen = scan_zipf();
        b.iter(|| black_box(by_line(&mut gen)))
    });

    g.bench_function("mixture_scan_zipf/fill_256", |b| {
        let mut gen = scan_zipf();
        b.iter(|| by_block(&mut gen))
    });

    // No Zipf component: what the mixture itself costs per line.
    g.bench_function("mixture_scan_scan/next_line", |b| {
        let mut gen = tenant_mixture(Scan::new(1 << 20, 512));
        b.iter(|| black_box(by_line(&mut gen)))
    });

    // How `MonitorSource` is fed: a phased tenant behind a boxed closure.
    g.bench_function("tenant_phased/closure_next_line", |b| {
        let mut gen = tenant();
        let mut stream: Box<dyn FnMut() -> LineAddr> = Box::new(move || gen.next_line());
        b.iter(|| black_box((0..LINES).fold(0, |acc, _| acc ^ stream().value())))
    });

    g.bench_function("tenant_phased/fill_256", |b| {
        let mut gen = tenant();
        b.iter(|| by_block(&mut gen))
    });

    // Set-up cost of `producer_fed`'s 192 monitored tenants (64 caches ×
    // 3 at seed 1), built and dropped: their private sets share one table.
    g.throughput(Throughput::Elements(192));
    g.bench_function("tenant_generators_192", |b| {
        let profile = multi_tenant(4).scaled(1.0 / 32.0);
        b.iter(|| {
            (0..64u64)
                .flat_map(|cache| (0..3).map(move |tenant| (cache, tenant)))
                .map(|(cache, tenant)| profile.tenant_generator(tenant, 1009 + cache))
                .collect::<Vec<Phased>>()
        })
    });
    g.finish();

    // Set-up cost of a table when no generator holds one for its
    // distribution (`ZipfTable::shared` then builds it).
    c.bench_function("zipf_table/build_512", |b| {
        b.iter(|| black_box(ZipfTable::new(black_box(512), 0.9)))
    });
}

criterion_group!(benches, bench_generators);
criterion_main!(benches);
