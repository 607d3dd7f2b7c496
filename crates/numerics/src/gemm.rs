//! Cache-blocked, register-tiled GEMM microkernels.
//!
//! A BLIS-style `f64` implementation (packed A/B panels, an `MR × NR`
//! register tile, MC/KC/NC cache blocking). The public drivers are
//! *bitwise-identical* to the naive loops in [`crate::dense`] — that is
//! the load-bearing contract, pinned by proptests against the retained
//! naive oracles:
//!
//! * [`gemm_nn_blocked`] / [`gemm_tn_blocked`] replay the naive kernels'
//!   direct accumulation into `out`: for every output element the
//!   contributions arrive in ascending-`k` order, one rounded
//!   multiply-then-add per step, exactly as the ikj/kij loops do. KC
//!   panels are applied in ascending order so blocking never reorders
//!   the per-element op sequence.
//! * [`gemm_nt_blocked`] mirrors `gemm_nt_into`'s `out += dot(a, b)`
//!   shape instead: a fresh zero-seeded accumulator swept over the
//!   *full* `k` extent (no KC split — splitting would add a rounded
//!   partial-sum merge the naive dot never performs), then a single add
//!   into `out`.
//!
//! No FMA contraction: `c += a * b` is a rounded multiply followed by a
//! rounded add in Rust scalar semantics, matching the naive kernels.
//! The tiles exist to keep `out` traffic in registers and to hand the
//! autovectorizer contiguous `NR`-wide inner loops, not to change the
//! arithmetic.
//!
//! Tail handling: partial strips are zero-padded to full `MR`/`NR`
//! width at pack time; the padded lanes accumulate garbage that is
//! never loaded from nor stored to `out`.

use std::cell::RefCell;

/// Register tile height (rows of `out` held in registers).
pub const MR: usize = 4;
/// Register tile width; 8 f64 lanes = two AVX2 vectors per row.
pub const NR: usize = 8;
/// Row-panel height of the packed A block (L1-resident strips).
pub const MC: usize = 64;
/// Depth of one packed panel pair (L1/L2-resident).
pub const KC: usize = 256;
/// Column-panel width of the packed B block.
pub const NC: usize = 256;

/// Products below this many multiply-adds stay on the naive kernels:
/// MNA-sized SPICE systems (≈24³ ≈ 14k) lose to pack overhead, while
/// one GAT layer (64×32 · 32×32 = 65k) already wins.
pub const BLOCK_MIN_FLOPS: usize = 32 * 1024;

/// Dispatch predicate shared by every `gemm_*_into` entry point.
#[inline]
pub fn use_blocked(m: usize, n: usize, k: usize) -> bool {
    m.saturating_mul(n).saturating_mul(k) >= BLOCK_MIN_FLOPS
}

thread_local! {
    static SCRATCH_F64: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with the thread-local f64 pack buffers (A panel, B panel).
/// Falls back to fresh buffers if re-entered, so a panicking caller can
/// never poison the scratch.
pub fn with_f64_scratch<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    SCRATCH_F64.with(|cell| match cell.try_borrow_mut() {
        Ok(mut guard) => {
            let (apack, bpack) = &mut *guard;
            f(apack, bpack)
        }
        Err(_) => f(&mut Vec::new(), &mut Vec::new()),
    })
}

/// Packs an `mc × kc` logical block of A into `MR`-row strips, k-major
/// within each strip (`out[strip][kk*MR + r]`), zero-padding the last
/// strip. `trans` reads the block from a transposed source layout
/// (`src[(k0+kk)*ld + row0+r]`), which is how the TN driver views
/// `self` without materializing `selfᵀ`.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn pack_a(
    src: &[f64],
    ld: usize,
    trans: bool,
    row0: usize,
    k0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<f64>,
) {
    let strips = mc.div_ceil(MR);
    out.clear();
    out.resize(strips * MR * kc, 0.0);
    for s in 0..strips {
        let base = s * MR * kc;
        let rmax = (mc - s * MR).min(MR);
        for kk in 0..kc {
            let dst = &mut out[base + kk * MR..base + kk * MR + rmax];
            if trans {
                let row = &src[(k0 + kk) * ld + row0 + s * MR..];
                for (d, v) in dst.iter_mut().zip(row.iter()) {
                    *d = *v;
                }
            } else {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = src[(row0 + s * MR + r) * ld + k0 + kk];
                }
            }
        }
    }
}

/// Packs a `kc × nc` logical block of B into `NR`-column strips, k-major
/// within each strip (`out[strip][kk*NR + c]`), zero-padding the last
/// strip. `trans` reads the block from a transposed source layout
/// (`src[(col0+c)*ld + k0+kk]`), which is how the NT driver views `rhs`.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn pack_b(
    src: &[f64],
    ld: usize,
    trans: bool,
    k0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<f64>,
) {
    let strips = nc.div_ceil(NR);
    out.clear();
    out.resize(strips * NR * kc, 0.0);
    for t in 0..strips {
        let base = t * NR * kc;
        let cmax = (nc - t * NR).min(NR);
        for kk in 0..kc {
            let dst = &mut out[base + kk * NR..base + kk * NR + cmax];
            if trans {
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = src[(col0 + t * NR + c) * ld + k0 + kk];
                }
            } else {
                let row = &src[(k0 + kk) * ld + col0 + t * NR..];
                for (d, v) in dst.iter_mut().zip(row.iter()) {
                    *d = *v;
                }
            }
        }
    }
}

/// The register-tile inner loop: `c[m][n] += a[m] * b[n]` for each `kk`,
/// ascending. Strict multiply-then-add per element — the exact rounded
/// op sequence the naive kernels perform. The four accumulator rows are
/// separate flat arrays (not `[[f64; NR]; MR]`) so scalar replacement
/// keeps them in registers, and `chunks_exact` hands the autovectorizer
/// bound-check-free `MR`/`NR`-wide strips.
// stco-hot
#[inline(always)]
fn micro_acc(kc: usize, a: &[f64], b: &[f64], c: &mut [[f64; NR]; MR]) {
    let [c0, c1, c2, c3] = c;
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
        for j in 0..NR {
            let bj = bv[j];
            c0[j] += a0 * bj;
            c1[j] += a1 * bj;
            c2[j] += a2 * bj;
            c3[j] += a3 * bj;
        }
    }
}

/// Direct-accumulation tile: load the live `out` values, accumulate the
/// panel, store back. Used by the NN/TN drivers, once per KC panel.
/// The full-tile fast path holds exactly one inlined copy of
/// [`micro_acc`]; tail tiles take the out-of-line partial path so
/// register allocation of the hot path never degrades.
#[allow(clippy::too_many_arguments)]
#[inline]
// stco-hot
fn micro_tile_load_store(
    kc: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    if mmax == MR && nmax == NR {
        let mut c = [[0.0; NR]; MR];
        for (m, crow) in c.iter_mut().enumerate() {
            let orow = &out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            crow.copy_from_slice(orow);
        }
        micro_acc(kc, a, b, &mut c);
        for (m, crow) in c.iter().enumerate() {
            let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            orow.copy_from_slice(crow);
        }
    } else {
        micro_tile_load_store_partial(kc, a, b, out, ldo, row0, col0, mmax, nmax);
    }
}

/// Tail-tile variant of [`micro_tile_load_store`], kept out of line.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
// stco-hot
fn micro_tile_load_store_partial(
    kc: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    let mut c = [[0.0; NR]; MR];
    for (m, crow) in c.iter_mut().enumerate().take(mmax) {
        let orow = &out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (cv, o) in crow.iter_mut().zip(orow.iter()) {
            *cv = *o;
        }
    }
    micro_acc(kc, a, b, &mut c);
    for (m, crow) in c.iter().enumerate().take(mmax) {
        let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (o, cv) in orow.iter_mut().zip(crow.iter()) {
            *o = *cv;
        }
    }
}

/// Fresh-accumulator tile: zero-seeded registers swept over the full
/// `k` extent, then one rounded add into `out` — `gemm_nt_into`'s
/// `out += dot(...)` shape. Used by the NT driver. Split like
/// [`micro_tile_load_store`] so the hot full-tile path carries exactly
/// one inlined copy of [`micro_acc`].
#[allow(clippy::too_many_arguments)]
#[inline]
// stco-hot
fn micro_tile_fresh_add(
    k: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    if mmax == MR && nmax == NR {
        let mut c = [[0.0; NR]; MR];
        micro_acc(k, a, b, &mut c);
        for (m, crow) in c.iter().enumerate() {
            let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            for j in 0..NR {
                orow[j] += crow[j];
            }
        }
    } else {
        micro_tile_fresh_add_partial(k, a, b, out, ldo, row0, col0, mmax, nmax);
    }
}

/// Tail-tile variant of [`micro_tile_fresh_add`], kept out of line.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
// stco-hot
fn micro_tile_fresh_add_partial(
    k: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    let mut c = [[0.0; NR]; MR];
    micro_acc(k, a, b, &mut c);
    for (m, crow) in c.iter().enumerate().take(mmax) {
        let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (o, cv) in orow.iter_mut().zip(crow.iter()) {
            *o += *cv;
        }
    }
}

/// Shared NN/TN driver: `out += A·B` with A read straight (`atrans =
/// false`, `lda = k`) or transposed (`atrans = true`, `lda = m`). The
/// KC loop sits outside the row-panel loop so each output element sees
/// its panels in ascending-`k` order — the bitwise contract.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn gemm_direct_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    atrans: bool,
    b: &[f64],
    out: &mut [f64],
    apack: &mut Vec<f64>,
    bpack: &mut Vec<f64>,
) {
    debug_assert_eq!(out.len(), m * n);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, n, false, pc, jc, kc, nc, bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(a, lda, atrans, ic, pc, mc, kc, apack);
                for s in 0..mc.div_ceil(MR) {
                    let astrip = &apack[s * MR * kc..(s + 1) * MR * kc];
                    let mmax = (mc - s * MR).min(MR);
                    for t in 0..nc.div_ceil(NR) {
                        let bstrip = &bpack[t * NR * kc..(t + 1) * NR * kc];
                        let nmax = (nc - t * NR).min(NR);
                        micro_tile_load_store(
                            kc,
                            astrip,
                            bstrip,
                            out,
                            n,
                            ic + s * MR,
                            jc + t * NR,
                            mmax,
                            nmax,
                        );
                    }
                }
            }
        }
    }
}

/// Blocked `out += A·B` for row-major `A: m×k`, `B: k×n`, `out: m×n`.
/// Bitwise-identical to the naive ikj kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    apack: &mut Vec<f64>,
    bpack: &mut Vec<f64>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_direct_blocked(m, n, k, a, k, false, b, out, apack, bpack);
}

/// Blocked `out += Aᵀ·B` for row-major `A: k×m` (passed untransposed),
/// `B: k×n`, `out: m×n`. Bitwise-identical to the naive kij kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    apack: &mut Vec<f64>,
    bpack: &mut Vec<f64>,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_direct_blocked(m, n, k, a, m, true, b, out, apack, bpack);
}

/// Blocked `out += A·Bᵀ` for row-major `A: m×k`, `B: n×k` (passed
/// untransposed), `out: m×n`. Bitwise-identical to the naive
/// dot-product kernel: each tile accumulates from zero over the full
/// `k` extent (no KC split), then adds into `out` once. Pack memory is
/// `(MC + NC) × k` scalars, fine for the `k ≲ 10³` this workspace sees.
// stco-hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    apack: &mut Vec<f64>,
    bpack: &mut Vec<f64>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        pack_b(b, k, true, 0, jc, k, nc, bpack);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(a, k, false, ic, 0, mc, k, apack);
            for s in 0..mc.div_ceil(MR) {
                let astrip = &apack[s * MR * k..(s + 1) * MR * k];
                let mmax = (mc - s * MR).min(MR);
                for t in 0..nc.div_ceil(NR) {
                    let bstrip = &bpack[t * NR * k..(t + 1) * NR * k];
                    let nmax = (nc - t * NR).min(NR);
                    micro_tile_fresh_add(
                        k,
                        astrip,
                        bstrip,
                        out,
                        n,
                        ic + s * MR,
                        jc + t * NR,
                        mmax,
                        nmax,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift;

    fn naive_nn(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
    }

    fn random_vec(rng: &mut Xorshift, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect()
    }

    #[test]
    fn blocked_nn_matches_naive_across_shapes() {
        let mut rng = Xorshift::new(3);
        for (m, n, k) in [
            (1, 1, 1),
            (4, 8, 16),
            (5, 9, 17),
            (64, 32, 32),
            (67, 33, 31),
            (MC + 3, NR + 1, KC + 5),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut want = random_vec(&mut rng, m * n);
            let mut got = want.clone();
            naive_nn(m, n, k, &a, &b, &mut want);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            gemm_nn_blocked(m, n, k, &a, &b, &mut got, &mut ap, &mut bp);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn empty_k_leaves_direct_out_untouched_and_adds_zero_for_nt() {
        let mut out = vec![-0.0_f64, 1.5];
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        gemm_nn_blocked(1, 2, 0, &[], &[], &mut out, &mut ap, &mut bp);
        assert_eq!(out[0].to_bits(), (-0.0_f64).to_bits());
        // NT performs `out += 0.0` even for k = 0, matching the naive
        // `out += dot(&[], &[])`; that add normalizes -0.0 to +0.0.
        gemm_nt_blocked(1, 2, 0, &[], &[], &mut out, &mut ap, &mut bp);
        assert_eq!(out[0].to_bits(), 0.0_f64.to_bits());
        assert_eq!(out[1], 1.5);
    }

    #[test]
    fn dispatch_threshold_splits_mna_from_gat() {
        assert!(!use_blocked(24, 24, 24));
        assert!(use_blocked(64, 32, 32));
    }
}
