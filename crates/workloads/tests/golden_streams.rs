//! Golden digests of the access streams `talus-workloads` generates.
//!
//! Every simulated statistic in the repo is a function of these streams,
//! so a generator may get faster but may not emit a different line. Each
//! generator below is driven for a million lines and the lines folded into
//! a 64-bit digest pinned in `GOLDEN`. The digests were taken on the
//! commit *before* `Zipfian` gained its rank table and `Mixture` its
//! generated-ahead block, when every rank came from the `powf`
//! rejection-inversion loop and `next_line` drew one line at a time; they
//! must hold unedited in debug and with `--release`.
//!
//! A digest may only be re-pinned by a change that *means* to alter the
//! generated streams, and that change must say so.

use talus_sim::LineAddr;
use talus_workloads::{
    multi_tenant, profile, AccessGenerator, Mixture, Phased, PointerChase, Scan, StridedScan,
    UniformRandom, Zipfian,
};

const STREAM_LEN: usize = 1 << 20;

/// FNV-1a, one 64-bit line number per step.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn push(&mut self, line: LineAddr) {
        self.0 = (self.0 ^ line.value()).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// `STREAM_LEN` lines, one `next_line` at a time.
fn by_line(gen: &mut dyn AccessGenerator) -> u64 {
    let mut d = Digest::new();
    for _ in 0..STREAM_LEN {
        d.push(gen.next_line());
    }
    d.0
}

/// `STREAM_LEN` lines through a mix of `next_line` and `fill` calls: a
/// single line, then a block whose size walks 3, 18, 93, 80, … (0 and 256
/// included), so generated-ahead state is crossed at every offset.
fn mixed(gen: &mut dyn AccessGenerator) -> u64 {
    let mut d = Digest::new();
    let mut block = [LineAddr(0); 256];
    let (mut done, mut size, mut round) = (0, 0, 0);
    while done < STREAM_LEN {
        d.push(gen.next_line());
        done += 1;
        round += 1;
        size = if round % 11 == 0 {
            256
        } else {
            (size * 5 + 3) % 97
        };
        let n = size.min(STREAM_LEN - done);
        gen.fill(&mut block[..n]);
        block[..n].iter().for_each(|&l| d.push(l));
        done += n;
    }
    d.0
}

/// The nested composite of `generator.rs`'s own tests: a phased stream
/// whose phases are mixtures (one inside another) of every primitive.
fn zoo(seed: u64) -> Phased {
    let inner = Mixture::new(
        vec![
            (
                1.0,
                Box::new(Zipfian::new(1 << 30, 777, 0.9, seed ^ 1)) as Box<dyn AccessGenerator>,
            ),
            (2.0, Box::new(PointerChase::new(1 << 31, 100, seed))),
        ],
        seed ^ 2,
    );
    let outer = Mixture::new(
        vec![
            (
                3.0,
                Box::new(Scan::new(3 << 44, 37)) as Box<dyn AccessGenerator>,
            ),
            (2.0, Box::new(UniformRandom::new(1 << 20, 500, seed ^ 3))),
            (1.0, Box::new(StridedScan::new(1 << 21, 12, 5))),
            (2.0, Box::new(inner)),
        ],
        seed ^ 4,
    );
    Phased::new(vec![
        (53, Box::new(outer) as Box<dyn AccessGenerator>),
        (7, Box::new(Scan::new(9 << 40, 5))),
        (101, Box::new(Zipfian::new(0, 64, 1.0, seed ^ 5))),
    ])
}

/// `(lines, exponent, seed)` of the pinned `Zipfian` streams: every
/// exponent class (`q < 1`, the `ln`/`exp` branch at `q = 1`, `q > 1`) on
/// a power-of-two and a cycle-walked footprint, the degenerate footprints,
/// and the largest Zipf component of the spec roster at 1/16 scale.
const ZIPFS: &[(u64, f64, u64)] = &[
    (512, 0.6, 1),
    (512, 0.9, 2),
    (512, 1.0, 3),
    (512, 1.3, 4),
    (1000, 0.6, 5),
    (1000, 0.9, 6),
    (1000, 1.0, 7),
    (1000, 1.3, 8),
    (1, 0.9, 9),
    (2, 1.0, 10),
    (3, 0.6, 11),
    (24_576, 0.6, 12),
    (8192, 1.0, 13),
];

fn streams() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &(lines, q, seed) in ZIPFS {
        let mut g = Zipfian::new(7 << 20, lines, q, seed);
        out.push((format!("zipf_{lines}_q{q}"), by_line(&mut g)));
    }
    for name in ["mcf", "xalancbmk"] {
        let app = profile(name).unwrap().scaled(1.0 / 16.0);
        let by_line = by_line(&mut app.generator(42, 3 << 44));
        assert_eq!(
            mixed(&mut app.generator(42, 3 << 44)),
            by_line,
            "{name}: one stream however it is pulled"
        );
        out.push((name.to_string(), by_line));
    }
    out.push(("zoo".to_string(), mixed(&mut zoo(5))));
    let tenants = multi_tenant(4).scaled(1.0 / 32.0);
    for t in 0..3 {
        let digest = mixed(&mut tenants.tenant_generator(t, 1009 * 7 + t as u64));
        out.push((format!("tenant_{t}"), digest));
    }
    out
}

/// Pinned on the parent of the table-driven `Zipfian` / block-backed
/// `Mixture` change.
const GOLDEN: &[(&str, u64)] = &[
    ("zipf_512_q0.6", 0xBC8EF130B7918DD6),
    ("zipf_512_q0.9", 0x24CFF864CFCFB934),
    ("zipf_512_q1", 0x6A3F86C342B74F59),
    ("zipf_512_q1.3", 0x042D3176A58C0A31),
    ("zipf_1000_q0.6", 0x75590D2B7A8ADB90),
    ("zipf_1000_q0.9", 0x398413F9445B8583),
    ("zipf_1000_q1", 0x62690FD2E628CC68),
    ("zipf_1000_q1.3", 0x86755E49A87A1996),
    ("zipf_1_q0.9", 0x10C0F7B71B622325),
    ("zipf_2_q1", 0xEA3C49B8CB4BBB81),
    ("zipf_3_q0.6", 0x3C1091C7ECCF2C9F),
    ("zipf_24576_q0.6", 0x6204EC0C2ECCD2FD),
    ("zipf_8192_q1", 0xA4AFD100BAB151DE),
    ("mcf", 0xCB3842630503AF42),
    ("xalancbmk", 0x8AC61FFF8D94972B),
    ("zoo", 0x15CFAA7D9C3B04FF),
    ("tenant_0", 0x22118B6D54F24297),
    ("tenant_1", 0x35C6DE63E81051CA),
    ("tenant_2", 0xFF7D382783C5CCD7),
];

#[test]
fn generated_streams_match_the_parent_commit() {
    let actual = streams();
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(
        actual == golden,
        "generated streams moved; actual digests:\n{}",
        actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018X}),\n"))
            .collect::<String>()
    );
}
