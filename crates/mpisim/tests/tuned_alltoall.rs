//! The tuned `MPI_Alltoall` prices to pinned numbers: both distributions'
//! size-selected algorithms (Bruck for small blocks, pairwise exchange for
//! large), from uneven entry times, over world ranks with gaps so intra-
//! and inter-node pairs both occur, exact and noisy. Each case's exit
//! vector is folded into one FNV-1a digest; the literals were taken from
//! the separate Bruck and pairwise walkers that priced the call before one
//! round walker replaced them.
//!
//! `p = 1` and `p = 2` are the edge cases: pairwise still charges its self
//! copy, and Bruck has no round at `p = 1`.

use mpisim::coll::alltoall_exit_times;
use mpisim::distro::MpiDistro;
use mpisim::pattern::{NetParams, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

/// World ranks of the members, six GPUs per node, with gaps.
const RANKS: [usize; 13] = [0, 2, 5, 6, 9, 13, 14, 17, 20, 23, 24, 26, 29];
const SIZES: [usize; 6] = [1, 2, 3, 5, 8, 13];
/// 64 B and 1 MiB take Bruck and pairwise under both distributions; 12 KiB
/// takes Bruck under SpectrumMPI and pairwise under MVAPICH.
const BLOCKS: [usize; 3] = [64, 12 * 1024, 1 << 20];
const DISTROS: [MpiDistro; 2] = [MpiDistro::SpectrumMpi, MpiDistro::MvapichGdr];
const NOISE: [f64; 2] = [0.0, 0.05];

/// `(distro, block, noise, p) → digest of the exit vector`, in sweep order.
const PINS: [u64; 72] = [
    0xcf419c095e3874a7,
    0x4e0dbf6c21b63e53,
    0xc9e3d026ce784fad,
    0x5543b15fc5994131,
    0x3137d46eb802ce74,
    0x08741534514f93b0,
    0xcf419c095e3874a7,
    0x15254cf7c4f088cb,
    0x7e80df7a14672ec7,
    0x7c2129edeca37f16,
    0xd1cdf0efd046d624,
    0x3e1b1b762253baa1,
    0xcf419c095e3874a7,
    0x30ade771419ba6cb,
    0x2becac1fa93068de,
    0xf51db973e0e75041,
    0xcfc361d13f13daa1,
    0x9cc12da19f91ada2,
    0xcf419c095e3874a7,
    0x649809965a9e83a3,
    0x14947c9adf282507,
    0xcd8ea3bf64ca0b9b,
    0xffe270a46e54b9ab,
    0x9d0a88ac991262d3,
    0x68a2047ce1586a26,
    0xaff4359d76352fab,
    0x55e3f452eb1f105b,
    0xebe0a810599d3eb1,
    0x7cd3c13124876065,
    0x943e4037256c6fbd,
    0x68a2047ce1586a26,
    0x49ea2a6374141df7,
    0xd6b0cf22923d941b,
    0x189e9f02a7017b40,
    0x50f3402e247bc504,
    0xc0f6502074d55a29,
    0xcf419c095e3874a7,
    0x4e0dbf6c21b63e53,
    0xc9e3d026ce784fad,
    0x5543b15fc5994131,
    0x3137d46eb802ce74,
    0x08741534514f93b0,
    0xcf419c095e3874a7,
    0x15254cf7c4f088cb,
    0x7e80df7a14672ec7,
    0x7c2129edeca37f16,
    0xd1cdf0efd046d624,
    0x3e1b1b762253baa1,
    0x0d9c4af52ffcfae1,
    0x6a2997e3304fed37,
    0x8dfb6722291b8130,
    0x74fa97c12c5746cd,
    0x13f058125719a182,
    0x1683f5d90b20078a,
    0x0d9c4af52ffcfae1,
    0x3edeee79b7e5e687,
    0xa6a370d947893b7c,
    0x0afdb081d9984f28,
    0x43c58db22fcdb549,
    0xf9dfc8f98a411449,
    0x68a2047ce1586a26,
    0xaff4359d76352fab,
    0x55e3f452eb1f105b,
    0xebe0a810599d3eb1,
    0x7cd3c13124876065,
    0x943e4037256c6fbd,
    0x68a2047ce1586a26,
    0x49ea2a6374141df7,
    0xd6b0cf22923d941b,
    0x189e9f02a7017b40,
    0x50f3402e247bc504,
    0xc0f6502074d55a29,
];

fn digest(exits: &[SimTime]) -> u64 {
    exits
        .iter()
        .flat_map(|t| t.as_ns().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn tuned_alltoall_prices_to_the_pinned_exits() {
    let spec = MachineSpec::summit();
    let mut got = Vec::new();
    let mut cases = Vec::new();
    for distro in DISTROS {
        for block in BLOCKS {
            for noise_amp in NOISE {
                let np = NetParams {
                    spec: &spec,
                    seed: 7,
                    noise_amp,
                };
                for p in SIZES {
                    let group = &RANKS[..p];
                    let env = PhaseEnv::machine_wide(&spec, 30, p.max(2) - 1, true, 11);
                    let entries: Vec<SimTime> = (0..p)
                        .map(|i| SimTime::from_ns(i as u64 * 7_919 % 3_000))
                        .collect();
                    let exits = alltoall_exit_times(&np, &env, distro, group, &entries, block);
                    assert_eq!(exits.len(), p);
                    got.push(digest(&exits));
                    cases.push(format!(
                        "{distro:?}, {block} B, noise {noise_amp}, p = {p}: {exits:?}"
                    ));
                }
            }
        }
    }
    let table: String = got.iter().map(|d| format!("    {d:#018x},\n")).collect();
    for (k, (want, have)) in PINS.iter().zip(&got).enumerate() {
        assert_eq!(want, have, "{}\nwhole table:\n{table}", cases[k]);
    }
    assert_eq!(PINS.len(), got.len(), "whole table:\n{table}");
}
