//! Digests of the generator's instruction streams.
//!
//! Each row folds every field of the first [`INSTS`] instructions of one
//! stream into an FNV-1a digest: the live streams of a server-like and a
//! SPEC-like spec and of the canonical server profile's tenants 0-3, and
//! each of those specs' phase forks with salts 0, 1 and `u64::MAX`.
//!
//! The table pins the streams bit for bit, so a rewrite of the
//! generator's draws must leave it unchanged. On a mismatch the test
//! prints the whole measured table in source form; a deliberate stream
//! change pastes it over the constant below.

use itpx_trace::{Profile, TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::Fnv1a;

/// Instructions digested per stream.
const INSTS: usize = 200_000;

/// `(row name, digest)`.
type Row = (String, u64);

const EXPECTED: &[(&str, u64)] = &[
    ("server_like 19 fork 0", 0x2d94c8ba02f2ecc2),
    ("server_like 19 fork 1", 0xd0f267787905aa06),
    ("server_like 19 fork max", 0x0ef7820b2e75b849),
    ("server_like 19 live", 0xec009b0c75d8f673),
    ("spec_like 20 fork 0", 0x1f5bc95c77aeae1f),
    ("spec_like 20 fork 1", 0xee9821e4880aa9c8),
    ("spec_like 20 fork max", 0x81e71fc7e882bd49),
    ("spec_like 20 live", 0xcdf12b2e56ed3f3e),
    ("server tenant 0 fork 0", 0x246ede7c3d2047c0),
    ("server tenant 0 fork 1", 0x48e782e77f12597d),
    ("server tenant 0 fork max", 0x620a02ea02c96fbf),
    ("server tenant 0 live", 0x90fd2ecc027104c4),
    ("server tenant 1 fork 0", 0xb49d38c9d6e062ce),
    ("server tenant 1 fork 1", 0x06435f1a19b84965),
    ("server tenant 1 fork max", 0xa77e59bcc8a35605),
    ("server tenant 1 live", 0x3bbc943459870e39),
    ("server tenant 2 fork 0", 0x1963c12d239fbc2d),
    ("server tenant 2 fork 1", 0x5ef739bbf3ccd9c3),
    ("server tenant 2 fork max", 0x9e93deeada49dc6e),
    ("server tenant 2 live", 0x1589ec6959cc3032),
    ("server tenant 3 fork 0", 0x1f903162f4320b72),
    ("server tenant 3 fork 1", 0xdb741b457c00c641),
    ("server tenant 3 fork max", 0xa37e22cada7bef95),
    ("server tenant 3 live", 0xb437123758135de1),
];

/// The specs the table covers, by label: server- and SPEC-like specs
/// and the canonical server profile's tenants 0-3.
fn specs() -> Vec<(String, WorkloadSpec)> {
    let mut canonical = WorkloadSpec::server_like(21);
    canonical.profile = Profile::server();
    let mut specs = vec![
        ("server_like 19".to_string(), WorkloadSpec::server_like(19)),
        ("spec_like 20".to_string(), WorkloadSpec::spec_like(20)),
    ];
    specs.extend((0..4).map(|t| (format!("server tenant {t}"), canonical.tenant(t))));
    specs
}

fn see(h: &mut Fnv1a, inst: &TraceInst) {
    let TraceInst {
        pc,
        exec_latency,
        src1_dist,
        src2_dist,
        mem,
        branch,
    } = *inst;
    h.write_u64(pc);
    h.write_u8(exec_latency);
    h.write_u8(src1_dist);
    h.write_u8(src2_dist);
    h.write_bool(mem.is_some());
    if let Some(m) = mem {
        h.write_u64(m.addr);
        h.write_bool(m.store);
    }
    h.write_bool(branch.is_some());
    if let Some(b) = branch {
        h.write_bool(b.taken);
        h.write_u64(b.target);
    }
}

fn digest(g: TraceGenerator) -> u64 {
    let mut h = Fnv1a::new();
    g.take(INSTS).for_each(|inst| see(&mut h, &inst));
    h.finish()
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, spec) in specs() {
        let live = TraceGenerator::new(&spec);
        for (salt, name) in [(0, "0"), (1, "1"), (u64::MAX, "max")] {
            rows.push((
                format!("{label} fork {name}"),
                digest(live.phase_fork(salt)),
            ));
        }
        rows.push((format!("{label} live"), digest(live)));
    }
    rows
}

#[test]
fn generator_streams_match_the_pinned_digests() {
    let got = measure();
    let want: Vec<Row> = EXPECTED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
            .collect();
        panic!("stream digests changed; measured table:\n{table}");
    }
}
