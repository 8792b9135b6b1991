//! Pins every simulated figure byte for byte across commits.
//!
//! Each figure is reduced to one FNV-1a digest over its series labels,
//! thread counts and the `f64::to_bits` of every point. A refactor of
//! `tpm-sim` that moves any point by one ulp changes the digest, so a
//! simulator change that is meant to be behaviour-preserving is checked
//! here, not by eye. A change that is meant to move a figure updates its
//! digest in the same commit and says why.

use threadcmp::harness::experiments as exp;
use threadcmp::Figure;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(fig: &Figure) -> u64 {
    let mut h = FNV_OFFSET;
    for s in &fig.series {
        h = fnv1a(h, s.label.as_bytes());
        for &(threads, secs) in &s.points {
            h = fnv1a(h, &(threads as u64).to_le_bytes());
            h = fnv1a(h, &secs.to_bits().to_le_bytes());
        }
    }
    h
}

/// One test per figure (so the renders run in parallel), each comparing the
/// figure's digest with the pinned value.
macro_rules! pinned {
    ($($figure:ident = $digest:literal,)*) => {$(
        #[test]
        fn $figure() {
            let got = digest(&exp::$figure());
            assert_eq!(got, $digest, "{} moved: digest {got:#018x}", stringify!($figure));
        }
    )*};
}

pinned! {
    fig1_axpy = 0x6429_107b_0389_7a0a,
    fig2_sum = 0xecc1_f7b8_e51f_c45b,
    fig3_matvec = 0x7263_2522_9b16_3a63,
    fig4_matmul = 0x1dea_58cf_dd92_8b5e,
    fig5_fib = 0x8ba1_dff2_dcbd_a502,
    fig6_bfs = 0xb3db_82ad_9539_bf6a,
    fig7_hotspot = 0xcc2d_8187_a08b_efd5,
    fig8_lud = 0x8586_84d8_1d5e_c5af,
    fig9_lavamd = 0xed25_7d6c_994e_167d,
    fig10_srad = 0x5e52_49a3_8950_60a9,
    ht_extension = 0xed77_05f5_bc14_2a6d,
    // Since `numasim` charges the sub-cutoff task cost Fig. 5 charges.
    numasim_figure = 0xc545_b49f_ec34_2faf,
}
