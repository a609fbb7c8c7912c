//! Golden reshape-schedule digests.
//!
//! The other suites only compare runs with each other (functional vs
//! analytic, chunked vs monolithic); nothing else pins an absolute
//! simulated time. This table does: one FNV-1a digest per configuration
//! over every rank's dry-run trace (event kind, start, duration, bytes)
//! and completion time, for forward → inverse → forward on one runner, so
//! the first-call spikes, the warm steady state and the schedule-memo
//! replay are all inside the hash. `mode_consistency` carries the pin over
//! to the functional executor.
//!
//! The constants were generated from the commit *before* the reshape
//! schedule was folded onto one record and one walker; they must never be
//! edited to make a refactor pass. On a mismatch the panic message prints
//! the whole observed table in paste-ready form.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::trace::{KernelKind, TraceEvent};
use distfft::Decomp;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

const BACKENDS: [(&str, CommBackend); 5] = [
    ("a2a", CommBackend::AllToAll),
    ("a2av", CommBackend::AllToAllV),
    ("a2aw", CommBackend::AllToAllW),
    ("p2p", CommBackend::P2p),
    ("p2pb", CommBackend::P2pBlocking),
];

/// `reshape_chunks` values: monolithic, fixed 4, model-driven.
const CHUNKS: [(&str, usize); 3] = [("k1", 1), ("k4", 4), ("auto", 0)];

/// (label, extents, ranks, decomp, io, shrink): pencils with brick I/O on
/// 24 ranks (uneven boxes, groups of 24, 6 and 4, pairwise-sized blocks,
/// large enough that `auto` picks k ≥ 2 on some groups and 1 on others),
/// slabs on 6 ranks at 60³ (smooth non-pow2 lines), and a shrunk pencil plan
/// (idle ranks, Bruck-sized blocks).
#[allow(clippy::type_complexity)]
const PLANS: [(&str, [usize; 3], usize, Decomp, IoLayout, Option<usize>); 3] = [
    (
        "pencil24",
        [250, 256, 248],
        24,
        Decomp::Pencils,
        IoLayout::Brick,
        None,
    ),
    (
        "slab6",
        [60, 60, 60],
        6,
        Decomp::Slabs,
        IoLayout::Matching,
        None,
    ),
    (
        "shrink12",
        [16, 16, 16],
        12,
        Decomp::Pencils,
        IoLayout::Brick,
        Some(4),
    ),
];

fn digest(plan: &FftPlan, noisy: bool) -> u64 {
    let machine = MachineSpec::summit();
    let opts = if noisy {
        DryRunOpts {
            noise_amplitude: 0.05,
            compute_slowdown: vec![(1, 1.5)],
            ..DryRunOpts::default()
        }
    } else {
        DryRunOpts::default()
    };
    let mut runner = DryRunner::new(plan, &machine, opts);
    let mut h = Fnv::new();
    for dir in [Direction::Forward, Direction::Inverse, Direction::Forward] {
        let report = runner.run(dir);
        h.word(report.start.as_ns());
        for (trace, total) in report.traces.iter().zip(&report.per_rank_total) {
            h.word(trace.events.len() as u64);
            for e in &trace.events {
                match e {
                    TraceEvent::MpiCall {
                        reshape,
                        routine,
                        start,
                        dur,
                        bytes,
                    } => {
                        h.word(1);
                        h.word(*reshape as u64);
                        h.text(routine);
                        h.word(start.as_ns());
                        h.word(dur.as_ns());
                        h.word(*bytes as u64);
                    }
                    TraceEvent::Kernel { kind, start, dur } => {
                        h.word(2);
                        match kind {
                            KernelKind::Fft1d { axis, contiguous } => {
                                h.word(10 + *axis as u64 * 2 + *contiguous as u64)
                            }
                            KernelKind::Pack => h.word(20),
                            KernelKind::Unpack => h.word(21),
                            KernelKind::SelfCopy => h.word(22),
                            KernelKind::Pointwise => h.word(23),
                        }
                        h.word(start.as_ns());
                        h.word(dur.as_ns());
                    }
                }
            }
            h.word(total.as_ns());
        }
    }
    h.0
}

/// Every configuration of the matrix, in table order. The table was pinned
/// while `AllToAllW` was still unbatched, so its batched rows do not exist
/// (`mode_consistency.rs` covers them against the functional executor).
fn observed() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (pname, n, ranks, decomp, io, shrink_to) in PLANS {
        for (bname, backend) in BACKENDS {
            for (cname, reshape_chunks) in CHUNKS {
                for (batch, pipeline_chunks) in [(1usize, 1usize), (4, 2)] {
                    if backend == CommBackend::AllToAllW && batch > 1 {
                        continue;
                    }
                    let opts = FftOptions {
                        decomp,
                        backend,
                        io,
                        shrink_to,
                        batch,
                        pipeline_chunks,
                        reshape_chunks,
                        ..FftOptions::default()
                    };
                    let plan = FftPlan::build(n, ranks, opts);
                    for noisy in [false, true] {
                        let name = format!(
                            "{pname}/{bname}/{cname}/b{batch}/{}",
                            if noisy { "noisy" } else { "exact" }
                        );
                        rows.push((name, digest(&plan, noisy)));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn dry_run_traces_match_the_pre_refactor_goldens() {
    if fftobs::env::is_set("FFT_RESHAPE_CHUNKS") {
        // The override beats `FftOptions::reshape_chunks`, collapsing the
        // k1/k4/auto rows onto one setting; the default leg holds the pin.
        return;
    }
    let got = observed();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((gn, gd), (wn, wd))| gn == wn && gd == wd);
    if !same {
        let mut table = String::new();
        for (name, d) in &got {
            let mark = match GOLDEN.iter().find(|(n, _)| n == name) {
                Some((_, want)) if want == d => "",
                _ => " // MISMATCH",
            };
            table.push_str(&format!("    (\"{name}\", 0x{d:016x}),{mark}\n"));
        }
        panic!("dry-run schedule digests diverge from the goldens; observed table:\n{table}");
    }
}

/// Every member of a group prices the same schedule from the same inputs,
/// so a world must cache it once — not once per distinct peer count, as it
/// did while each rank folded its own `peer_count` into the `PhaseEnv`.
#[test]
fn world_caches_one_schedule_per_reshape_group_and_direction() {
    if fftobs::env::is_set("FFT_RESHAPE_CHUNKS") {
        return; // `auto` may split a group's entries differently per round
    }
    let plan = FftPlan::build([32, 32, 32], 24, FftOptions::default());
    // The benchmark's `small-32x24` plan: its brick→pencil group mixes peer
    // counts {3,4,5,6}, its output groups {3,4,7}.
    let groups: usize = plan.reshapes.iter().map(|s| s.groups.len()).sum();
    let world = World::new(MachineSpec::summit(), 24, WorldOpts::default());
    world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let b = plan.dists[0].rank_box(rank.rank());
        let mut data = vec![vec![C64::ONE; b.volume()]];
        for dir in [Direction::Forward, Direction::Inverse] {
            execute(&plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
        }
    });
    assert_eq!(world.cached_schedules(), 2 * groups);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("pencil24/a2a/k1/b1/exact", 0xcfca75058661ef7b),
    ("pencil24/a2a/k1/b1/noisy", 0xf0e18ce784d80efc),
    ("pencil24/a2a/k1/b4/exact", 0xbd18516994202082),
    ("pencil24/a2a/k1/b4/noisy", 0xc5f5ed07be1e6ccf),
    ("pencil24/a2a/k4/b1/exact", 0x8c75b13b88d28417),
    ("pencil24/a2a/k4/b1/noisy", 0x8b5444d3c6eea6d0),
    ("pencil24/a2a/k4/b4/exact", 0x122a2327afb17969),
    ("pencil24/a2a/k4/b4/noisy", 0x6840c1e48218dee8),
    ("pencil24/a2a/auto/b1/exact", 0xbfab20a29d8b3d99),
    ("pencil24/a2a/auto/b1/noisy", 0x96050cbc93d7bd96),
    ("pencil24/a2a/auto/b4/exact", 0x73205d5a7b4c12af),
    ("pencil24/a2a/auto/b4/noisy", 0x3db9e81dd5798abc),
    ("pencil24/a2av/k1/b1/exact", 0x6e276f21ddce9b9f),
    ("pencil24/a2av/k1/b1/noisy", 0xee05872a516c1b33),
    ("pencil24/a2av/k1/b4/exact", 0xc764037342b4f77f),
    ("pencil24/a2av/k1/b4/noisy", 0x488818235dd3fd31),
    ("pencil24/a2av/k4/b1/exact", 0x16ffc22928680885),
    ("pencil24/a2av/k4/b1/noisy", 0x011c64093ef76e05),
    ("pencil24/a2av/k4/b4/exact", 0x2b197c9f876c6136),
    ("pencil24/a2av/k4/b4/noisy", 0xef3f6eda9f767862),
    ("pencil24/a2av/auto/b1/exact", 0xb3ff764526ffa8ab),
    ("pencil24/a2av/auto/b1/noisy", 0x28e48d9508d8bb81),
    ("pencil24/a2av/auto/b4/exact", 0x6f5a98b728ddeacd),
    ("pencil24/a2av/auto/b4/noisy", 0x7003409460e9fa51),
    ("pencil24/a2aw/k1/b1/exact", 0xbc7cf21ca505c56a),
    ("pencil24/a2aw/k1/b1/noisy", 0xc854236877427ef6),
    ("pencil24/a2aw/k4/b1/exact", 0x33362f43849f6d48),
    ("pencil24/a2aw/k4/b1/noisy", 0x68dd70b8e8a26519),
    ("pencil24/a2aw/auto/b1/exact", 0x107b8c7de23befcf),
    ("pencil24/a2aw/auto/b1/noisy", 0x059e10f0426e72b5),
    ("pencil24/p2p/k1/b1/exact", 0x707d22264c3e19ba),
    ("pencil24/p2p/k1/b1/noisy", 0xd0f51f2d323e7452),
    ("pencil24/p2p/k1/b4/exact", 0x47c78fb43c3b4c9e),
    ("pencil24/p2p/k1/b4/noisy", 0x8197b439476069d2),
    ("pencil24/p2p/k4/b1/exact", 0x44ad2ec5f9e18c84),
    ("pencil24/p2p/k4/b1/noisy", 0x97a62f8e43bcd7d9),
    ("pencil24/p2p/k4/b4/exact", 0xbe2a1740913bddba),
    ("pencil24/p2p/k4/b4/noisy", 0xe15b325cf81b9de9),
    ("pencil24/p2p/auto/b1/exact", 0x448e16c59831c57a),
    ("pencil24/p2p/auto/b1/noisy", 0xec32e254bef6ea21),
    ("pencil24/p2p/auto/b4/exact", 0xea13bb0f718727b5),
    ("pencil24/p2p/auto/b4/noisy", 0x2af8500d276d9370),
    ("pencil24/p2pb/k1/b1/exact", 0xfa27362e64e35276),
    ("pencil24/p2pb/k1/b1/noisy", 0x3b4f2d1ee4eea7ca),
    ("pencil24/p2pb/k1/b4/exact", 0xe542e55a32a26e3d),
    ("pencil24/p2pb/k1/b4/noisy", 0x5e5c18411020e710),
    ("pencil24/p2pb/k4/b1/exact", 0x48c27bf694bd8d3f),
    ("pencil24/p2pb/k4/b1/noisy", 0x8fec33922366b35d),
    ("pencil24/p2pb/k4/b4/exact", 0x8efbedea127cf984),
    ("pencil24/p2pb/k4/b4/noisy", 0xea0fdaaf4e6579f9),
    ("pencil24/p2pb/auto/b1/exact", 0xaefe62e78c6b8c0f),
    ("pencil24/p2pb/auto/b1/noisy", 0xe866b898efaf74e0),
    ("pencil24/p2pb/auto/b4/exact", 0x71c61da06508c62b),
    ("pencil24/p2pb/auto/b4/noisy", 0x14b069dab198546a),
    ("slab6/a2a/k1/b1/exact", 0x345c932e65eaf4f1),
    ("slab6/a2a/k1/b1/noisy", 0x6134dd0d9020ae12),
    ("slab6/a2a/k1/b4/exact", 0x9b4ace5b46904e7f),
    ("slab6/a2a/k1/b4/noisy", 0x5b1c74c8b6512e5b),
    ("slab6/a2a/k4/b1/exact", 0x5aa6d3f000be8586),
    ("slab6/a2a/k4/b1/noisy", 0xc2acf79a6d7d47b2),
    ("slab6/a2a/k4/b4/exact", 0xcc8a1a3fb806bb9f),
    ("slab6/a2a/k4/b4/noisy", 0x0c53c83e0372a267),
    ("slab6/a2a/auto/b1/exact", 0x345c932e65eaf4f1),
    ("slab6/a2a/auto/b1/noisy", 0x6134dd0d9020ae12),
    ("slab6/a2a/auto/b4/exact", 0x9b4ace5b46904e7f),
    ("slab6/a2a/auto/b4/noisy", 0x5b1c74c8b6512e5b),
    ("slab6/a2av/k1/b1/exact", 0xd51dd70735899174),
    ("slab6/a2av/k1/b1/noisy", 0x66503c12e69fc249),
    ("slab6/a2av/k1/b4/exact", 0xccb6090854d58976),
    ("slab6/a2av/k1/b4/noisy", 0xe43711badacce9cf),
    ("slab6/a2av/k4/b1/exact", 0x56bd88e3f03d1346),
    ("slab6/a2av/k4/b1/noisy", 0xec9406226560e476),
    ("slab6/a2av/k4/b4/exact", 0xb30539043fb4ebff),
    ("slab6/a2av/k4/b4/noisy", 0x3de1ba906897352f),
    ("slab6/a2av/auto/b1/exact", 0xd51dd70735899174),
    ("slab6/a2av/auto/b1/noisy", 0x66503c12e69fc249),
    ("slab6/a2av/auto/b4/exact", 0xccb6090854d58976),
    ("slab6/a2av/auto/b4/noisy", 0xe43711badacce9cf),
    ("slab6/a2aw/k1/b1/exact", 0xb491c0ee8997d411),
    ("slab6/a2aw/k1/b1/noisy", 0xf07af20cfa79d57d),
    ("slab6/a2aw/k4/b1/exact", 0x178a16983c722bd7),
    ("slab6/a2aw/k4/b1/noisy", 0xadff8a4451e33e89),
    ("slab6/a2aw/auto/b1/exact", 0xb491c0ee8997d411),
    ("slab6/a2aw/auto/b1/noisy", 0xf07af20cfa79d57d),
    ("slab6/p2p/k1/b1/exact", 0xa82fae1b904d5893),
    ("slab6/p2p/k1/b1/noisy", 0xbb73f794d7d3957f),
    ("slab6/p2p/k1/b4/exact", 0x66efb17d5b142e51),
    ("slab6/p2p/k1/b4/noisy", 0x79b9cc9bee10faf9),
    ("slab6/p2p/k4/b1/exact", 0x8dcc1d51d674ff3a),
    ("slab6/p2p/k4/b1/noisy", 0x2f696743072e8ef4),
    ("slab6/p2p/k4/b4/exact", 0x84742cd1a40a18d1),
    ("slab6/p2p/k4/b4/noisy", 0x5d678a747e8b1ed1),
    ("slab6/p2p/auto/b1/exact", 0xa82fae1b904d5893),
    ("slab6/p2p/auto/b1/noisy", 0xbb73f794d7d3957f),
    ("slab6/p2p/auto/b4/exact", 0x66efb17d5b142e51),
    ("slab6/p2p/auto/b4/noisy", 0x79b9cc9bee10faf9),
    ("slab6/p2pb/k1/b1/exact", 0x03052e5b8ab2c785),
    ("slab6/p2pb/k1/b1/noisy", 0x81f1157951383468),
    ("slab6/p2pb/k1/b4/exact", 0x4b0c072b7ff49502),
    ("slab6/p2pb/k1/b4/noisy", 0xd6f9d39699e32334),
    ("slab6/p2pb/k4/b1/exact", 0x8d9a07c5f273339f),
    ("slab6/p2pb/k4/b1/noisy", 0xed076fba3389828e),
    ("slab6/p2pb/k4/b4/exact", 0xfbad65ee1eb36387),
    ("slab6/p2pb/k4/b4/noisy", 0x79e252fcdb345213),
    ("slab6/p2pb/auto/b1/exact", 0x03052e5b8ab2c785),
    ("slab6/p2pb/auto/b1/noisy", 0x81f1157951383468),
    ("slab6/p2pb/auto/b4/exact", 0x4b0c072b7ff49502),
    ("slab6/p2pb/auto/b4/noisy", 0xd6f9d39699e32334),
    ("shrink12/a2a/k1/b1/exact", 0xee0d3cbd7ab05ee9),
    ("shrink12/a2a/k1/b1/noisy", 0x7ca48e4ca5597dd5),
    ("shrink12/a2a/k1/b4/exact", 0x89beb17896bb7ec5),
    ("shrink12/a2a/k1/b4/noisy", 0xec7303f00a37ceef),
    ("shrink12/a2a/k4/b1/exact", 0xfed77cf2673e3d4a),
    ("shrink12/a2a/k4/b1/noisy", 0x71b11a3723280bb7),
    ("shrink12/a2a/k4/b4/exact", 0xa0cb220f5975eaac),
    ("shrink12/a2a/k4/b4/noisy", 0x158c665346321e0c),
    ("shrink12/a2a/auto/b1/exact", 0xee0d3cbd7ab05ee9),
    ("shrink12/a2a/auto/b1/noisy", 0x7ca48e4ca5597dd5),
    ("shrink12/a2a/auto/b4/exact", 0x89beb17896bb7ec5),
    ("shrink12/a2a/auto/b4/noisy", 0xec7303f00a37ceef),
    ("shrink12/a2av/k1/b1/exact", 0x0994aae9aa50a31a),
    ("shrink12/a2av/k1/b1/noisy", 0x2989069bc634689f),
    ("shrink12/a2av/k1/b4/exact", 0x10ecdcc11d4b3a63),
    ("shrink12/a2av/k1/b4/noisy", 0x2da56fdf67155ddf),
    ("shrink12/a2av/k4/b1/exact", 0x48329563e58c4c2a),
    ("shrink12/a2av/k4/b1/noisy", 0x87c28248290a6cff),
    ("shrink12/a2av/k4/b4/exact", 0x3a3f8dfd7506b736),
    ("shrink12/a2av/k4/b4/noisy", 0x371d445d99654b61),
    ("shrink12/a2av/auto/b1/exact", 0x0994aae9aa50a31a),
    ("shrink12/a2av/auto/b1/noisy", 0x2989069bc634689f),
    ("shrink12/a2av/auto/b4/exact", 0x10ecdcc11d4b3a63),
    ("shrink12/a2av/auto/b4/noisy", 0x2da56fdf67155ddf),
    ("shrink12/a2aw/k1/b1/exact", 0xc068494c9d555b6f),
    ("shrink12/a2aw/k1/b1/noisy", 0xdfe5efccdbd69a4b),
    ("shrink12/a2aw/k4/b1/exact", 0x6968f0291eefcfbb),
    ("shrink12/a2aw/k4/b1/noisy", 0x5d3ed6db5fa2f672),
    ("shrink12/a2aw/auto/b1/exact", 0xc068494c9d555b6f),
    ("shrink12/a2aw/auto/b1/noisy", 0xdfe5efccdbd69a4b),
    ("shrink12/p2p/k1/b1/exact", 0x76f4c9f2dcbbd500),
    ("shrink12/p2p/k1/b1/noisy", 0xee1400d3d699042e),
    ("shrink12/p2p/k1/b4/exact", 0x48456847be6cf6c1),
    ("shrink12/p2p/k1/b4/noisy", 0x1a682735b0e895db),
    ("shrink12/p2p/k4/b1/exact", 0x5f754e3ed1118a2b),
    ("shrink12/p2p/k4/b1/noisy", 0x06b3077d05523e16),
    ("shrink12/p2p/k4/b4/exact", 0x66589619f2d411b3),
    ("shrink12/p2p/k4/b4/noisy", 0x4465139dc48feffe),
    ("shrink12/p2p/auto/b1/exact", 0x76f4c9f2dcbbd500),
    ("shrink12/p2p/auto/b1/noisy", 0xee1400d3d699042e),
    ("shrink12/p2p/auto/b4/exact", 0x48456847be6cf6c1),
    ("shrink12/p2p/auto/b4/noisy", 0x1a682735b0e895db),
    ("shrink12/p2pb/k1/b1/exact", 0x1ed464a417c39582),
    ("shrink12/p2pb/k1/b1/noisy", 0x7e24b1dad75d4f66),
    ("shrink12/p2pb/k1/b4/exact", 0x652f94adce9a4e7f),
    ("shrink12/p2pb/k1/b4/noisy", 0x75866f15725fb9c9),
    ("shrink12/p2pb/k4/b1/exact", 0xdac38074edb70f3c),
    ("shrink12/p2pb/k4/b1/noisy", 0xffa5576fdda4f9e0),
    ("shrink12/p2pb/k4/b4/exact", 0x45d2cd8f2325c318),
    ("shrink12/p2pb/k4/b4/noisy", 0x9866124ea6bca96b),
    ("shrink12/p2pb/auto/b1/exact", 0x1ed464a417c39582),
    ("shrink12/p2pb/auto/b1/noisy", 0x7e24b1dad75d4f66),
    ("shrink12/p2pb/auto/b4/exact", 0x652f94adce9a4e7f),
    ("shrink12/p2pb/auto/b4/noisy", 0x75866f15725fb9c9),
];
