//! Dense matrix multiplication kernels.
//!
//! Three variants cover forward passes and both gradient products without
//! ever materializing a transpose:
//!
//! * [`matmul`]   — `C = A·B`   with `A: [m, k]`, `B: [k, n]`
//! * [`matmul_at`] — `C = Aᵀ·B` with `A: [k, m]`, `B: [k, n]`
//! * [`matmul_bt`] — `C = A·Bᵀ` with `A: [m, k]`, `B: [n, k]`
//!
//! `matmul` and `matmul_at` use the `i-k-j` loop order (unit-stride inner
//! loop over both output row and `B` row), which LLVM autovectorizes; this is
//! the hot kernel for all models. `matmul_bt` sums each output element in
//! eight interleaved lanes and computes eight elements per pass. Rank-1
//! operands are treated as single rows.
//!
//! One contract: one source, two builds, the same bits. Every kernel's loop
//! nest is an `#[inline(always)]` body over slices that `with_host_isa` runs
//! as compiled or in an AVX2 copy, picked at run time. Each nest fixes the
//! order in which an output element's terms are added (ascending `k` for
//! `matmul` and `matmul_at`/`matmul_at_acc`, `matmul_bt`'s lane order), and
//! without `fma`, intrinsics or `mul_add` (Rust never contracts
//! `a * b + c`), wider registers change how many output elements one
//! instruction updates, never the rounding of any one of them.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

fn as_mat<'t>(t: &'t Tensor, ctx: &'static str) -> Result<(usize, usize, &'t [f32])> {
    let (r, c) = t.shape().as_matrix().ok_or(TensorError::RankMismatch {
        expected: 2,
        got: t.rank(),
        ctx,
    })?;
    Ok((r, c, t.f32s()?))
}

/// One kernel's loop nest: `self` carries its dimensions, `run` computes
/// `C` from `A` and `B`. Every impl marks `run` `#[inline(always)]`, so each
/// build [`with_host_isa`] can pick compiles the whole nest for its own
/// target features. The slices stay function arguments down to that build,
/// so it knows `C` aliases neither operand and vectorizes without overlap
/// checks.
trait LoopNest {
    fn run(self, a: &[f32], b: &[f32], c: &mut [f32]);
}

/// The empty nest, which [`vector_isa`] runs to learn the build.
impl LoopNest for () {
    fn run(self, _: &[f32], _: &[f32], _: &mut [f32]) {}
}

/// Runs `nest` in the widest build of the kernels the host supports and
/// names it: `"avx2"` on an x86-64 host that reports AVX2, `"baseline"` (the
/// target as compiled) otherwise. The only `unsafe` block of the crate.
#[allow(unsafe_code)]
fn with_host_isa(nest: impl LoopNest, a: &[f32], b: &[f32], c: &mut [f32]) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2(nest: impl LoopNest, a: &[f32], b: &[f32], c: &mut [f32]) {
            nest.run(a, b, c)
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the host reports AVX2, the one feature `avx2` is
            // compiled for.
            unsafe { avx2(nest, a, b, c) };
            return "avx2";
        }
    }
    nest.run(a, b, c);
    "baseline"
}

/// The build [`matmul`], [`matmul_at_acc`] and [`matmul_bt`] run on this
/// host: `"avx2"` or `"baseline"`, from the same detection their dispatch
/// uses. Both give the same bits; records name it so a figure says what
/// produced it.
pub fn vector_isa() -> &'static str {
    with_host_isa((), &[], &[], &mut [])
}

/// The [`matmul`] loop nest, `C[m,n] += A[m,k] · B[k,n]`, as `(m, k, n)`.
struct MatMul(usize, usize, usize);

impl LoopNest for MatMul {
    #[inline(always)]
    fn run(self, av: &[f32], bv: &[f32], out: &mut [f32]) {
        let MatMul(m, ka, n) = self;
        if m > 1 && m * n <= 12_288 {
            // Row-block (k-outer) order, 4-way unrolled over k: stream B
            // exactly once for the whole block, keep each 4-row B panel
            // L1-resident across the m output rows, and amortize the C-row
            // load/store over four fused multiply-adds. This is what makes
            // cross-request fusion pay — m stacked GEMVs against a weight
            // matrix larger than L2 read it once instead of m times, at a
            // quarter of the per-FMA store traffic. Gated on C fitting
            // comfortably in L1 (48 KB here), so large training batches keep
            // the i-k-j order below.
            //
            // Bit-exact vs the i-k-j order: each output element accumulates
            // its k terms in the same ascending order — the unrolled update
            // is left-associated, so every intermediate rounding matches the
            // one-k-at-a-time sequence — with the same zero skips (a block
            // containing a zero falls back to per-k updates). Only the
            // traversal across elements changes.
            let mut kk = 0usize;
            while kk + 4 <= ka {
                let (b0, b1, b2, b3) = (
                    &bv[kk * n..(kk + 1) * n],
                    &bv[(kk + 1) * n..(kk + 2) * n],
                    &bv[(kk + 2) * n..(kk + 3) * n],
                    &bv[(kk + 3) * n..(kk + 4) * n],
                );
                for i in 0..m {
                    let a = &av[i * ka + kk..i * ka + kk + 4];
                    let crow = &mut out[i * n..(i + 1) * n];
                    if a[0] != 0.0 && a[1] != 0.0 && a[2] != 0.0 && a[3] != 0.0 {
                        let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
                        for j in 0..n {
                            crow[j] = crow[j] + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                    } else {
                        for (aik, brow) in [(a[0], b0), (a[1], b1), (a[2], b2), (a[3], b3)] {
                            if aik == 0.0 {
                                continue;
                            }
                            for j in 0..n {
                                crow[j] += aik * brow[j];
                            }
                        }
                    }
                }
                kk += 4;
            }
            while kk < ka {
                let brow = &bv[kk * n..(kk + 1) * n];
                for i in 0..m {
                    let aik = av[i * ka + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let crow = &mut out[i * n..(i + 1) * n];
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
                kk += 1;
            }
            return;
        }
        for i in 0..m {
            let arow = &av[i * ka..(i + 1) * ka];
            let crow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &bv[kk * n..(kk + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka, av) = as_mat(a, "matmul lhs")?;
    let (kb, n, bv) = as_mat(b, "matmul rhs")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
            ctx: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    with_host_isa(MatMul(m, ka, n), av, bv, &mut out);
    Tensor::from_f32([m, n], out)
}

/// `C[m,n] = Aᵀ[m,k] · B[k,n]` where `A: [k, m]` (gradient w.r.t. weights).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (_, m, _) = as_mat(a, "matmul_at lhs")?;
    let (_, n, _) = as_mat(b, "matmul_at rhs")?;
    let mut c = Tensor::zeros([m, n]);
    matmul_at_acc(&mut c, a, b)?;
    Ok(c)
}

/// The [`matmul_at_acc`] loop nest, `C[m,n] += Aᵀ[m,k] · B[k,n]` with
/// `A: [k, m]`, as `(m, k, n)`.
struct MatMulAt(usize, usize, usize);

impl LoopNest for MatMulAt {
    #[inline(always)]
    fn run(self, av: &[f32], bv: &[f32], out: &mut [f32]) {
        let MatMulAt(m, ka, n) = self;
        for kk in 0..ka {
            let arow = &av[kk * m..(kk + 1) * m];
            let brow = &bv[kk * n..(kk + 1) * n];
            for (i, &aki) in arow.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let crow = &mut out[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] += aki * brow[j];
                }
            }
        }
    }
}

/// `C[m,n] += Aᵀ[m,k] · B[k,n]` in place: the [`matmul_at`] loop nest
/// writing into an existing `C`, so a weight-gradient accumulator takes
/// `xᵀ·dy` without the product ever being materialized. For `k = 1` every
/// element receives the one product `matmul_at` would have stored.
pub fn matmul_at_acc(c: &mut Tensor, a: &Tensor, b: &Tensor) -> Result<()> {
    let (ka, m, av) = as_mat(a, "matmul_at lhs")?;
    let (kb, n, bv) = as_mat(b, "matmul_at rhs")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
            ctx: "matmul_at",
        });
    }
    if c.shape().as_matrix() != Some((m, n)) {
        return Err(TensorError::ShapeMismatch {
            lhs: c.shape().clone(),
            rhs: Shape::matrix(m, n),
            ctx: "matmul_at_acc",
        });
    }
    with_host_isa(MatMulAt(m, ka, n), av, bv, c.make_f32_mut()?);
    Ok(())
}

/// Independent partial sums of one output element of [`matmul_bt`]: wide
/// enough to hide the FP-add latency that serializes a single accumulator,
/// and a whole number of SIMD registers at every x86-64/aarch64 width LLVM
/// picks for the baseline target.
const LANES: usize = 8;

/// Output elements one pass of [`MatMulBt`] computes: the `A` row's chunk
/// is read once for this many `B` rows, and their partial sums are
/// independent add chains that overlap. Eight measured fastest: two per
/// pass ran slower than one element at a time, four about as fast, sixteen
/// slower than eight.
const ROWS: usize = 8;

/// `G` elements of one `C` row, `c[g] = Σ a[k]·bs[g][k]`, each in
/// [`matmul_bt`]'s order: lane `l` sums the products at `k ≡ l (mod LANES)`
/// over the whole chunks in ascending `k`, the lanes fold pairwise
/// (`l += l + w` for `w = LANES/2, …, 1`), and the remainder
/// (`k ≥ len − len % LANES`) is added to that sum one term at a time. The
/// order depends on the length alone and never on `G`, so an element is a
/// pure function of its two rows.
#[inline(always)]
fn dots<const G: usize>(a: &[f32], bs: [&[f32]; G], c: &mut [f32]) {
    let whole = a.len() - a.len() % LANES;
    let mut acc = [[0.0f32; LANES]; G];
    let mut at = 0;
    while at < whole {
        let x = &a[at..at + LANES];
        for (acc, b) in acc.iter_mut().zip(bs) {
            let y = &b[at..at + LANES];
            for l in 0..LANES {
                acc[l] += x[l] * y[l];
            }
        }
        at += LANES;
    }
    for ((acc, b), c) in acc.iter_mut().zip(bs).zip(c) {
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                acc[l] += acc[l + w];
            }
            w /= 2;
        }
        *c = a[whole..]
            .iter()
            .zip(&b[whole..])
            .fold(acc[0], |s, (x, y)| s + x * y);
    }
}

/// The [`matmul_bt`] loop nest, `C[m,n] = A[m,k] · Bᵀ[k,n]` with
/// `B: [n, k]`, as `(m, k, n)`: [`ROWS`] elements of a `C` row per pass,
/// then the `n mod ROWS` tail one at a time.
struct MatMulBt(usize, usize, usize);

impl LoopNest for MatMulBt {
    #[inline(always)]
    fn run(self, av: &[f32], bv: &[f32], out: &mut [f32]) {
        let MatMulBt(m, k, n) = self;
        let brow = |j: usize| &bv[j * k..(j + 1) * k];
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            let crow = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + ROWS <= n {
                dots::<ROWS>(arow, std::array::from_fn(|g| brow(j + g)), &mut crow[j..]);
                j += ROWS;
            }
            for j in j..n {
                dots::<1>(arow, [brow(j)], &mut crow[j..]);
            }
        }
    }
}

/// `C[m,n] = A[m,k] · Bᵀ[k,n]` where `B: [n, k]` (gradient w.r.t. inputs).
///
/// Contract: `C[i][j]` is the dot product of row `i` of `A` and row `j` of
/// `B`, summed in an order fixed by `k` alone (8 interleaved partial sums
/// folded pairwise, then the `k mod 8` tail), and depends on nothing else —
/// not on `m`, not on `j`'s place in a pass, not on the build. A row-stacked
/// (fused) call is therefore bit-identical to the one-row calls it replaces
/// (`rdg_exec`'s `kernel::execute_stacked`), and `rdg_fold`'s `FoldEngine`,
/// which batches through this function, stays bit-identical to the
/// executor.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka, av) = as_mat(a, "matmul_bt lhs")?;
    let (n, kb, bv) = as_mat(b, "matmul_bt rhs")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
            ctx: "matmul_bt",
        });
    }
    let mut out = vec![0.0f32; m * n];
    with_host_isa(MatMulBt(m, ka, n), av, bv, &mut out);
    Tensor::from_f32([m, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::shape_ops::transpose2d;

    fn m(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_f32([rows, cols], v).unwrap()
    }

    #[test]
    fn matmul_2x3_3x2() {
        let a = m(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.f32s().unwrap(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = m(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id).unwrap().f32s().unwrap(), a.f32s().unwrap());
        assert_eq!(matmul(&id, &a).unwrap().f32s().unwrap(), a.f32s().unwrap());
    }

    #[test]
    fn rank1_lhs_is_row_vector() {
        let x = Tensor::from_f32([3], vec![1.0, 0.0, 2.0]).unwrap();
        let w = m(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = matmul(&x, &w).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.f32s().unwrap(), &[11.0, 14.0]);
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = m(2, 3, vec![0.0; 6]);
        let b = m(2, 2, vec![0.0; 4]);
        assert!(matmul(&a, &b).is_err());
        // [2,3]·[2,3]ᵀ shares the inner dimension.
        let x = m(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let xxt = matmul_bt(&x, &x).unwrap();
        assert_eq!(xxt.shape().dims(), &[2, 2]);
        assert_eq!(xxt.f32s().unwrap(), &[14.0, 32.0, 32.0, 77.0]);
        let c = m(3, 2, vec![0.0; 6]);
        assert!(matmul_bt(&a, &c).is_err());
        assert!(matmul_at(&a, &c).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = m(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, (0..12).map(|i| i as f32 * 0.5).collect());
        // matmul_at(a, b) == aᵀ·b
        let at = transpose2d(&a).unwrap();
        let want = matmul(&at, &b).unwrap();
        let got = matmul_at(&a, &b).unwrap();
        assert!(got.allclose(&want, 1e-6));

        // matmul_bt(x, y) == x·yᵀ
        let x = m(2, 3, vec![1.0, -1.0, 2.0, 0.5, 3.0, -2.0]);
        let y = m(4, 3, (0..12).map(|i| (i as f32) - 6.0).collect());
        let yt = transpose2d(&y).unwrap();
        let want = matmul(&x, &yt).unwrap();
        let got = matmul_bt(&x, &y).unwrap();
        assert!(got.allclose(&want, 1e-6));
    }

    #[test]
    fn row_block_path_is_bit_exact_vs_per_row() {
        // m > 1 takes the k-outer unrolled path; every row must be
        // bit-identical to a separate single-row (i-k-j) call. k = 11
        // covers two unrolled blocks plus a remainder of 3, and the
        // zeros force the skip fallback inside unrolled blocks on some
        // rows while others stay on the all-nonzero fast lane.
        let (rows, kd, cols) = (5usize, 11usize, 7usize);
        let av: Vec<f32> = (0..rows * kd)
            .map(|i| {
                if i % 9 == 4 {
                    0.0
                } else {
                    ((i as f32) * 0.7310585).sin() * 3.0
                }
            })
            .collect();
        let bv: Vec<f32> = (0..kd * cols)
            .map(|i| ((i as f32) - 38.5) * 0.0173)
            .collect();
        let a = m(rows, kd, av.clone());
        let b = m(kd, cols, bv);
        let stacked = matmul(&a, &b).unwrap();
        let sv = stacked.f32s().unwrap();
        for i in 0..rows {
            let row = m(1, kd, av[i * kd..(i + 1) * kd].to_vec());
            let want = matmul(&row, &b).unwrap();
            assert_eq!(
                &sv[i * cols..(i + 1) * cols],
                want.f32s().unwrap(),
                "row {i} of the blocked path differs from the per-row path"
            );
        }
    }

    /// The two-builds contract: `matmul` and `matmul_at_acc`, dispatched,
    /// equal their bare loop nests — compiled into this test for the
    /// baseline target — bit for bit. The shapes straddle every boundary a
    /// wider build handles differently: `n mod 8` (vector tails), `m` on
    /// both sides of the row-block gate `m·n ≤ 12 288`, `k mod 4` (unrolled
    /// blocks and their remainder), and zeros in `A` that send some blocks
    /// down the skip lane while others take the unrolled lane; the
    /// accumulating kernel adds into `-0.0` and into a non-zero matrix. On a
    /// host without AVX2 the dispatched call is the baseline build as well,
    /// and the test compares the baseline with itself.
    #[test]
    fn wide_and_baseline_kernels_agree_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fill = |len: usize, seed: f32| -> Vec<f32> {
            (0..len)
                .map(|i| match i % 13 {
                    5 => 0.0,
                    9 => -0.0,
                    _ => ((i as f32 + seed) * 0.7310585).sin() * 3.0,
                })
                .collect()
        };
        for mm in [1usize, 2, 16, 17] {
            for kd in 8..12 {
                for n in (1..9).chain(768..776) {
                    let (av, bv) = (fill(mm * kd, 0.5), fill(kd * n, 1.5));
                    let got = matmul(&m(mm, kd, av.clone()), &m(kd, n, bv.clone())).unwrap();
                    let mut want = vec![0.0; mm * n];
                    MatMul(mm, kd, n).run(&av, &bv, &mut want);
                    let at = format!("matmul {mm}x{kd}x{n}");
                    assert_eq!(bits(got.f32s().unwrap()), bits(&want), "{at}");

                    for init in [vec![-0.0; mm * n], fill(mm * n, 2.5)] {
                        let mut got = m(mm, n, init.clone());
                        let a = m(kd, mm, av.clone());
                        matmul_at_acc(&mut got, &a, &m(kd, n, bv.clone())).unwrap();
                        let mut want = init;
                        MatMulAt(mm, kd, n).run(&av, &bv, &mut want);
                        let at = format!("matmul_at_acc {kd}x{mm}, {kd}x{n}");
                        assert_eq!(bits(got.f32s().unwrap()), bits(&want), "{at}");
                    }
                }
            }
        }
    }

    /// The reference [`matmul_bt`] element: one `Σ a[k]·b[k]` in the
    /// contract's order, a single accumulator array per call.
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let (ra, rb) = (ca.remainder(), cb.remainder());
        let mut acc = [0.0f32; LANES];
        for (x, y) in ca.zip(cb) {
            for l in 0..LANES {
                acc[l] += x[l] * y[l];
            }
        }
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                acc[l] += acc[l + w];
            }
            w /= 2;
        }
        ra.iter().zip(rb).fold(acc[0], |s, (x, y)| s + x * y)
    }

    /// `matmul_bt` joins the two-builds contract: dispatched, it equals one
    /// reference [`dot`] per element bit for bit. `n` runs through every
    /// tail of a [`ROWS`]-wide pass and past a second pass, `k` straddles
    /// the lane width and the TreeLSTM gate width, `m` covers one row, two
    /// and a batch of 25; `±0.0` and `∞` sit in both operands, so some
    /// elements are `±∞` and some the default NaN (`∞ · 0`, `∞ − ∞`).
    #[test]
    fn matmul_bt_passes_equal_one_dot_per_element_bit_for_bit() {
        let fill = |len: usize, seed: f32| -> Vec<f32> {
            (0..len)
                .map(|i| match i % 17 {
                    3 => 0.0,
                    8 => -0.0,
                    _ if i % 97 == 11 => f32::INFINITY,
                    _ => ((i as f32 + seed) * 0.7310585).sin() * 3.0,
                })
                .collect()
        };
        for mm in [1usize, 2, 25] {
            for kd in [1usize, 7, 8, 9, 168, 169] {
                for n in 1..=17 {
                    let (av, bv) = (fill(mm * kd, 0.5), fill(n * kd, 1.5));
                    let got = matmul_bt(&m(mm, kd, av.clone()), &m(n, kd, bv.clone())).unwrap();
                    let got = got.f32s().unwrap();
                    for i in 0..mm {
                        for j in 0..n {
                            let want = dot(&av[i * kd..(i + 1) * kd], &bv[j * kd..(j + 1) * kd]);
                            assert_eq!(
                                got[i * n + j].to_bits(),
                                want.to_bits(),
                                "matmul_bt {mm}x{kd}·{n} at ({i}, {j}): {} vs {want}",
                                got[i * n + j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn vector_isa_is_avx2_exactly_when_the_host_reports_it() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(vector_isa(), if avx2 { "avx2" } else { "baseline" });
    }

    #[test]
    fn matmul_bt_is_pure_per_element() {
        // The fusion invariant: element (i, j) is a function of row i of A
        // and row j of B alone, so row i of an m-row call is bit-identical
        // to the one-row call. The k's straddle the lane width, and every
        // result agrees with an f64 reference.
        let (rows, cols) = (5usize, 7usize);
        for kd in [1, 7, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 840] {
            let av: Vec<f32> = (0..rows * kd)
                .map(|i| ((i as f32) * 0.7310585).sin() * 3.0)
                .collect();
            let bv: Vec<f32> = (0..cols * kd)
                .map(|i| ((i as f32) * 0.2718281).cos() * 0.5)
                .collect();
            let b = m(cols, kd, bv.clone());
            let stacked = matmul_bt(&m(rows, kd, av.clone()), &b).unwrap();
            let sv = stacked.f32s().unwrap();
            for i in 0..rows {
                let arow = &av[i * kd..(i + 1) * kd];
                let want = matmul_bt(&m(1, kd, arow.to_vec()), &b).unwrap();
                assert_eq!(
                    &sv[i * cols..(i + 1) * cols],
                    want.f32s().unwrap(),
                    "k = {kd}: row {i} of the stacked call differs from the one-row call"
                );
                for j in 0..cols {
                    let brow = &bv[j * kd..(j + 1) * kd];
                    let (mut exact, mut scale) = (0.0f64, 0.0f64);
                    for (&x, &y) in arow.iter().zip(brow) {
                        exact += x as f64 * y as f64;
                        scale += (x as f64 * y as f64).abs();
                    }
                    let got = sv[i * cols + j] as f64;
                    assert!(
                        (got - exact).abs() <= 1e-5 * scale.max(1e-30),
                        "k = {kd}, ({i}, {j}): {got} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_at_acc_adds_the_product_in_place() {
        let a = m(2, 3, vec![1.0, 0.0, 2.0, -1.0, 0.5, 0.0]);
        let b = m(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut c = m(3, 2, vec![10.0; 6]);
        matmul_at_acc(&mut c, &a, &b).unwrap();
        let want = matmul_at(&a, &b).unwrap();
        let sum: Vec<f32> = want.f32s().unwrap().iter().map(|x| x + 10.0).collect();
        assert_eq!(c.f32s().unwrap(), sum.as_slice());
        // A target of the wrong shape is an error, not an out-of-bounds write.
        assert!(matmul_at_acc(&mut m(2, 3, vec![0.0; 6]), &a, &b).is_err());
        assert!(matmul_at_acc(&mut c, &a, &m(3, 2, vec![0.0; 6])).is_err());
    }

    #[test]
    fn rejects_high_rank() {
        let a = Tensor::zeros([2, 2, 2]);
        let b = Tensor::zeros([2, 2]);
        assert!(matmul(&a, &b).is_err());
    }
}
