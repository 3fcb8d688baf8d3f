//! Kernel execution contract and SIMD dispatch.
//!
//! Every tensor kernel in this crate has a scalar reference
//! implementation whose floating-point order defines the contract:
//! results are bitwise identical across thread counts, across hosts and
//! across SIMD levels. A SIMD path (x86-64 AVX2 and AVX-512F,
//! runtime-detected) performs the *same* IEEE operations per output
//! element in the same order as the scalar kernel — lane-wise
//! `mul` / `add` / `sub` / `div` / `sqrt` / `max` over independent output
//! elements, no multiply-add contracted into an FMA, no reduction
//! reassociated — so which level ran cannot show in a bit.
//!
//! Every such kernel is one body written on [`Lanes`] and instantiated
//! at each level by [`run_lanes`], the only code that enables an
//! instruction set; the intrinsics behind `Lanes` live in this file
//! alone.
//!
//! Two kinds of transcendental sit under that contract. `cos` and
//! `sin` are in-tree: [`sincos`] is a fixed sequence of IEEE `f64`
//! operations (no libm, no FMA) whose AVX2 and AVX-512F forms do the
//! same operations lane-wise, so it gives the same bits on every host.
//! `exp`, `tanh` and `ln` come from the host's libm, which is the one
//! place where results depend on the host's C library.
//!
//! Reduction orders are a function of the problem shape only, never of
//! which thread ran a chunk, so results are also thread-count
//! invariant. SIMD dispatch runs at one ordered level ([`Simd`]: scalar,
//! AVX2, AVX-512F), the highest the host supports; it can be forced to
//! scalar with `TGL_SIMD=off` and capped with [`set_simd`] — the parity
//! suites use this to compare every level's outputs in-process.

use std::sync::atomic::{AtomicU8, Ordering};

/// The floating-point contract kernels honor. There is one; this stub,
/// [`mode`] and [`set_mode`] stay because `benchmark/src/workload.rs`
/// and `benchmark/src/measure.rs` call them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bitwise identical to the scalar reference kernels, on every
    /// host, at every thread count.
    Exact,
}

impl KernelMode {
    /// `exact`, the name bench artifacts record.
    pub fn label(self) -> &'static str {
        "exact"
    }
}

/// Always [`KernelMode::Exact`].
pub fn mode() -> KernelMode {
    KernelMode::Exact
}

/// Does nothing: there is one mode.
pub fn set_mode(_: KernelMode) {}

/// The instruction-set level kernels dispatch on, ordered: each level
/// runs everything the one below it runs. Whichever is active, `exact`
/// results are the same bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Simd {
    /// The scalar reference kernels.
    Scalar = 1,
    /// x86-64 AVX2 + FMA: 8 `f32` lanes.
    Avx2 = 2,
    /// AVX-512F on top of AVX2 + FMA: 16 `f32` lanes in the kernels
    /// written on `Lanes`, 8 `f64` lanes in [`sincos`].
    Avx512 = 3,
}

impl Simd {
    /// Every level, ascending.
    pub const ALL: [Simd; 3] = [Simd::Scalar, Simd::Avx2, Simd::Avx512];

    /// Stable name for bench artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            Simd::Scalar => "scalar",
            Simd::Avx2 => "avx2-fma",
            Simd::Avx512 => "avx512f",
        }
    }
}

/// 0 = uninitialized, otherwise a [`Simd`] discriminant.
static SIMD: AtomicU8 = AtomicU8::new(0);

/// What `TGL_SIMD` asks for: `Ok(true)` to run the scalar kernels
/// (`off`, `0` or `scalar`), `Ok(false)` for the host's highest level
/// (unset or `auto`), and an error naming the variable for any other
/// value, which `tgl` rejects and a library caller reads as unset.
pub fn env_scalar() -> Result<bool, String> {
    let parse = |v: &str| match v {
        "off" | "0" | "scalar" => Some(true),
        "auto" => Some(false),
        _ => None,
    };
    tgl_runtime::env::parse("TGL_SIMD", "off, 0, scalar or auto", parse).map(|v| v.unwrap_or(false))
}

/// The highest level this host runs (`Scalar` under `TGL_SIMD=off`).
fn detect_simd() -> Simd {
    if env_scalar().unwrap_or(false) {
        return Simd::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            if std::is_x86_feature_detected!("avx512f") {
                return Simd::Avx512;
            }
            return Simd::Avx2;
        }
    }
    Simd::Scalar
}

/// The active SIMD level: detected once, then whatever [`set_simd`]
/// left. A level above `Scalar` means the CPU was seen to support it.
pub fn simd() -> Simd {
    match SIMD.load(Ordering::Relaxed) {
        0 => {
            // Racing initializers detect the same host.
            let level = detect_simd();
            SIMD.store(level as u8, Ordering::Relaxed);
            level
        }
        level => Simd::ALL[level as usize - 1],
    }
}

/// Caps SIMD dispatch at `cap`: the active level becomes the lower of
/// `cap` and what the host runs, so `Simd::Avx512` re-detects. The
/// parity suites walk [`simd_levels`] through this to produce every
/// level's output in one process; production code never needs it.
pub fn set_simd(cap: Simd) {
    SIMD.store(detect_simd().min(cap) as u8, Ordering::Relaxed);
}

/// The levels [`set_simd`] can select on this host, ascending.
pub fn simd_levels() -> impl Iterator<Item = Simd> {
    let host = detect_simd();
    Simd::ALL.into_iter().filter(move |&level| level <= host)
}

/// Human-readable SIMD level for bench artifacts and reports.
pub fn simd_label() -> &'static str {
    simd().label()
}

// ---------------------------------------------------------------------
// Lane vectors
// ---------------------------------------------------------------------

/// What a kernel body written once for every level needs of a vector of
/// `f32` lanes. Every arithmetic operation is lane-wise with one IEEE
/// rounding per lane, so a lane computes what the scalar loop computes
/// for that element; moves (`transpose`, partial loads and stores, the
/// selects of `max` and `where_positive`) do not round at all.
///
/// # Safety
///
/// The methods of an implementation may only be called where its
/// instruction set is enabled (inside a function compiled for that set,
/// on a CPU that has it, as [`run_lanes`] arranges); `load` /
/// `store` touch `LANES` floats from the pointer on, `load_part` /
/// `store_part` the first `len <= LANES` of them.
pub(crate) trait Lanes: Copy {
    const LANES: usize;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// The first `len` lanes from `p`; the others read zero.
    unsafe fn load_part(p: *const f32, len: usize) -> Self;
    /// Writes the first `len` lanes to `p`.
    unsafe fn store_part(self, p: *mut f32, len: usize);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    unsafe fn sqrt(self) -> Self;
    /// `if self > b { self } else { b }` per lane: `maxps`'s select, so a
    /// NaN on either side, or two zeros of either sign, give `b`.
    unsafe fn max(self, b: Self) -> Self;
    /// `self` where `m > 0`, `+0.0` elsewhere (a NaN `m` included), per
    /// lane; the kept lanes' bits pass unchanged.
    unsafe fn where_positive(self, m: Self) -> Self;
    /// Transposes the square block of the first `LANES` vectors of `v`:
    /// lane `j` of `v[i]` moves to lane `i` of `v[j]`.
    unsafe fn transpose(v: &mut [Self]);
    /// `self + a * b`: a `mul` and an `add`, one rounding each.
    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }
    /// [`sincos`] at this level: the operations of [`sincos_scalar`] on
    /// `LANES / 2` `f64` lanes (both polynomials, then a per-lane select
    /// for each output), the last few elements through the reference
    /// itself. `other`, if given, is as long as `buf`.
    unsafe fn sincos(buf: &mut [f32], f: Trig, other: Option<&mut [f32]>);
}

/// The scalar level's vector: four floats, one at a time.
#[derive(Clone, Copy)]
pub(crate) struct F32x4([f32; 4]);

impl F32x4 {
    #[inline(always)]
    fn zip(self, b: F32x4, f: impl Fn(f32, f32) -> f32) -> F32x4 {
        F32x4(std::array::from_fn(|l| f(self.0[l], b.0[l])))
    }
}

impl Lanes for F32x4 {
    const LANES: usize = 4;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x4([x; 4])
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x4(p.cast::<[f32; 4]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0);
    }
    #[inline(always)]
    unsafe fn load_part(p: *const f32, len: usize) -> Self {
        F32x4(std::array::from_fn(|l| if l < len { *p.add(l) } else { 0.0 }))
    }
    #[inline(always)]
    unsafe fn store_part(self, p: *mut f32, len: usize) {
        for (l, &v) in self.0.iter().enumerate().take(len) {
            *p.add(l) = v;
        }
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        self.zip(b, |x, y| x + y)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        self.zip(b, |x, y| x - y)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        self.zip(b, |x, y| x * y)
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        self.zip(b, |x, y| x / y)
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        F32x4(self.0.map(f32::sqrt))
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        self.zip(b, |x, y| if x > y { x } else { y })
    }
    #[inline(always)]
    unsafe fn where_positive(self, m: Self) -> Self {
        self.zip(m, |x, m| if m > 0.0 { x } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn transpose(v: &mut [Self]) {
        let v: &mut [Self; 4] = (&mut v[..4]).try_into().expect("four vectors");
        let t = *v;
        *v = std::array::from_fn(|j| F32x4(std::array::from_fn(|i| t[i].0[j])));
    }
    #[inline(always)]
    unsafe fn sincos(buf: &mut [f32], f: Trig, other: Option<&mut [f32]>) {
        sincos_from(0, buf, f, other);
    }
}

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use super::{sincos_from, Lanes, Trig};
    use std::arch::x86_64::*;

    impl Lanes for __m256 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn load_part(p: *const f32, len: usize) -> Self {
            if len >= 8 {
                return _mm256_loadu_ps(p);
            }
            _mm256_maskload_ps(p, first_lanes(len))
        }
        #[inline(always)]
        unsafe fn store_part(self, p: *mut f32, len: usize) {
            if len >= 8 {
                return _mm256_storeu_ps(p, self);
            }
            _mm256_maskstore_ps(p, first_lanes(len), self);
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm256_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm256_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            _mm256_sqrt_ps(self)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm256_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn where_positive(self, m: Self) -> Self {
            _mm256_and_ps(self, _mm256_cmp_ps::<_CMP_GT_OQ>(m, _mm256_setzero_ps()))
        }
        #[inline(always)]
        unsafe fn transpose(v: &mut [Self]) {
            let v: &mut [Self; 8] = (&mut v[..8]).try_into().expect("eight vectors");
            // Pairs of rows, then 64-bit pairs within each 128-bit half:
            // `u[4g + c]` holds column `4k + c` of rows `4g..4g + 4` in
            // half `k`; swapping halves between groups finishes it.
            let t: [Self; 8] = std::array::from_fn(|i| {
                let (a, b) = (v[i / 2 * 2], v[i / 2 * 2 + 1]);
                if i % 2 == 0 { _mm256_unpacklo_ps(a, b) } else { _mm256_unpackhi_ps(a, b) }
            });
            let u: [Self; 8] = std::array::from_fn(|i| {
                let (g, c) = (i / 4, i % 4);
                let (a, b) = (t[4 * g + c / 2], t[4 * g + c / 2 + 2]);
                if c % 2 == 0 { _mm256_shuffle_ps::<0x44>(a, b) } else { _mm256_shuffle_ps::<0xEE>(a, b) }
            });
            for c in 0..4 {
                v[c] = _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]);
                v[4 + c] = _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]);
            }
        }
        #[inline(always)]
        unsafe fn sincos(buf: &mut [f32], f: Trig, mut other: Option<&mut [f32]>) {
            use super::trig::*;
            // Functions, not closures: a closure is compiled without the
            // level's instruction set, and its intrinsics can stay calls.
            // Both ask what the method asks: that set enabled.
            #[inline(always)]
            unsafe fn k(c: f64) -> __m256d {
                _mm256_set1_pd(c)
            }
            /// One function of the four arguments from the two polynomials.
            #[inline(always)]
            unsafe fn pick(f: Trig, tm: __m256d, c: __m256d, sn: __m256d) -> __m128 {
                let m = _mm256_add_epi64(_mm256_castpd_si256(tm), _mm256_set1_epi64x(f.quadrant_shift() as i64));
                // `blendv` selects on a lane's top bit: the quadrant's parity.
                let odd = _mm256_castsi256_pd(_mm256_slli_epi64(m, 63));
                let y = _mm256_blendv_pd(c, sn, odd);
                let negative = _mm256_and_si256(_mm256_add_epi64(m, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(2));
                let y = _mm256_xor_pd(y, _mm256_castsi256_pd(_mm256_slli_epi64(negative, 62)));
                _mm256_cvtpd_ps(_mm256_max_pd(k(-1.0), _mm256_min_pd(k(1.0), y)))
            }
            let whole = buf.len() / 4 * 4;
            for at in (0..whole).step_by(4) {
                let x = _mm256_cvtps_pd(_mm_loadu_ps(buf.as_ptr().add(at)));
                let t = _mm256_mul_pd(x, k(TWO_OVER_PI));
                let tm = _mm256_add_pd(t, k(ROUND));
                let q = _mm256_sub_pd(tm, k(ROUND));
                let r = _mm256_sub_pd(x, _mm256_mul_pd(q, k(PIO2_1)));
                let r = _mm256_sub_pd(r, _mm256_mul_pd(q, k(PIO2_2)));
                let r = _mm256_sub_pd(r, _mm256_mul_pd(q, k(PIO2_3)));
                let z = _mm256_mul_pd(r, r);
                let w = _mm256_mul_pd(z, z);
                let c = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_add_pd(k(1.0), _mm256_mul_pd(z, k(C0))),
                        _mm256_mul_pd(w, k(C1)),
                    ),
                    _mm256_mul_pd(_mm256_mul_pd(w, z), _mm256_add_pd(k(C2), _mm256_mul_pd(z, k(C3)))),
                );
                let s = _mm256_mul_pd(z, r);
                let sn = _mm256_add_pd(
                    _mm256_add_pd(r, _mm256_mul_pd(s, _mm256_add_pd(k(S1), _mm256_mul_pd(z, k(S2))))),
                    _mm256_mul_pd(_mm256_mul_pd(s, w), _mm256_add_pd(k(S3), _mm256_mul_pd(z, k(S4)))),
                );
                _mm_storeu_ps(buf.as_mut_ptr().add(at), pick(f, tm, c, sn));
                if let Some(other) = other.as_deref_mut() {
                    _mm_storeu_ps(other.as_mut_ptr().add(at), pick(f.other(), tm, c, sn));
                }
            }
            sincos_from(whole, buf, f, other);
        }
    }

    /// The mask of `maskload` / `maskstore` selecting lanes `0..len`.
    #[inline(always)]
    unsafe fn first_lanes(len: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    impl Lanes for __m512 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn load_part(p: *const f32, len: usize) -> Self {
            if len >= 16 {
                return _mm512_loadu_ps(p);
            }
            _mm512_maskz_loadu_ps(((1u32 << len) - 1) as __mmask16, p)
        }
        #[inline(always)]
        unsafe fn store_part(self, p: *mut f32, len: usize) {
            if len >= 16 {
                return _mm512_storeu_ps(p, self);
            }
            _mm512_mask_storeu_ps(p, ((1u32 << len) - 1) as __mmask16, self);
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm512_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm512_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm512_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            _mm512_sqrt_ps(self)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm512_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn where_positive(self, m: Self) -> Self {
            _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(m, _mm512_setzero_ps()), self)
        }
        #[inline(always)]
        unsafe fn transpose(v: &mut [Self]) {
            let v: &mut [Self; 16] = (&mut v[..16]).try_into().expect("sixteen vectors");
            // Within each 128-bit quarter as the 8-lane transpose does
            // (`u[4g + c]` holds column `4k + c` of rows `4g..4g + 4` in
            // quarter `k`), then a 4 x 4 transpose of the quarters in two
            // rounds of quarter shuffles.
            let t: [Self; 16] = std::array::from_fn(|i| {
                let (a, b) = (v[i / 2 * 2], v[i / 2 * 2 + 1]);
                if i % 2 == 0 { _mm512_unpacklo_ps(a, b) } else { _mm512_unpackhi_ps(a, b) }
            });
            let u: [Self; 16] = std::array::from_fn(|i| {
                let (g, c) = (i / 4, i % 4);
                let (a, b) = (_mm512_castps_pd(t[4 * g + c / 2]), _mm512_castps_pd(t[4 * g + c / 2 + 2]));
                _mm512_castpd_ps(if c % 2 == 0 { _mm512_unpacklo_pd(a, b) } else { _mm512_unpackhi_pd(a, b) })
            });
            // `w[c]`: quarters (k, g) = (0, 0) (2, 0) (0, 1) (2, 1) of
            // column group `c`, `w[4 + c]` the odd `k`, `w[8 + c]` and
            // `w[12 + c]` the same for groups 2 and 3.
            let w: [Self; 16] = std::array::from_fn(|i| {
                let (half, odd, c) = (i / 8, i / 4 % 2, i % 4);
                let (a, b) = (u[8 * half + c], u[8 * half + 4 + c]);
                if odd == 0 { _mm512_shuffle_f32x4::<0x88>(a, b) } else { _mm512_shuffle_f32x4::<0xDD>(a, b) }
            });
            for c in 0..4 {
                v[c] = _mm512_shuffle_f32x4::<0x88>(w[c], w[8 + c]);
                v[8 + c] = _mm512_shuffle_f32x4::<0xDD>(w[c], w[8 + c]);
                v[4 + c] = _mm512_shuffle_f32x4::<0x88>(w[4 + c], w[12 + c]);
                v[12 + c] = _mm512_shuffle_f32x4::<0xDD>(w[4 + c], w[12 + c]);
            }
        }
        /// The 4-lane body on eight lanes: the same operations, with the
        /// parity select as a mask blend and the sign flip as an integer
        /// `xor`.
        #[inline(always)]
        unsafe fn sincos(buf: &mut [f32], f: Trig, mut other: Option<&mut [f32]>) {
            use super::trig::*;
            // `k` and `pick` as in the 4-lane body.
            #[inline(always)]
            unsafe fn k(c: f64) -> __m512d {
                _mm512_set1_pd(c)
            }
            #[inline(always)]
            unsafe fn pick(f: Trig, tm: __m512d, c: __m512d, sn: __m512d) -> __m256 {
                let m = _mm512_add_epi64(_mm512_castpd_si512(tm), _mm512_set1_epi64(f.quadrant_shift() as i64));
                let odd = _mm512_test_epi64_mask(m, _mm512_set1_epi64(1));
                let y = _mm512_castpd_si512(_mm512_mask_blend_pd(odd, c, sn));
                let negative = _mm512_and_si512(_mm512_add_epi64(m, _mm512_set1_epi64(1)), _mm512_set1_epi64(2));
                let y = _mm512_castsi512_pd(_mm512_xor_si512(y, _mm512_slli_epi64::<62>(negative)));
                _mm512_cvtpd_ps(_mm512_max_pd(k(-1.0), _mm512_min_pd(k(1.0), y)))
            }
            let whole = buf.len() / 8 * 8;
            for at in (0..whole).step_by(8) {
                let x = _mm512_cvtps_pd(_mm256_loadu_ps(buf.as_ptr().add(at)));
                let t = _mm512_mul_pd(x, k(TWO_OVER_PI));
                let tm = _mm512_add_pd(t, k(ROUND));
                let q = _mm512_sub_pd(tm, k(ROUND));
                let r = _mm512_sub_pd(x, _mm512_mul_pd(q, k(PIO2_1)));
                let r = _mm512_sub_pd(r, _mm512_mul_pd(q, k(PIO2_2)));
                let r = _mm512_sub_pd(r, _mm512_mul_pd(q, k(PIO2_3)));
                let z = _mm512_mul_pd(r, r);
                let w = _mm512_mul_pd(z, z);
                let c = _mm512_add_pd(
                    _mm512_add_pd(
                        _mm512_add_pd(k(1.0), _mm512_mul_pd(z, k(C0))),
                        _mm512_mul_pd(w, k(C1)),
                    ),
                    _mm512_mul_pd(_mm512_mul_pd(w, z), _mm512_add_pd(k(C2), _mm512_mul_pd(z, k(C3)))),
                );
                let s = _mm512_mul_pd(z, r);
                let sn = _mm512_add_pd(
                    _mm512_add_pd(r, _mm512_mul_pd(s, _mm512_add_pd(k(S1), _mm512_mul_pd(z, k(S2))))),
                    _mm512_mul_pd(_mm512_mul_pd(s, w), _mm512_add_pd(k(S3), _mm512_mul_pd(z, k(S4)))),
                );
                _mm256_storeu_ps(buf.as_mut_ptr().add(at), pick(f, tm, c, sn));
                if let Some(other) = other.as_deref_mut() {
                    _mm256_storeu_ps(other.as_mut_ptr().add(at), pick(f.other(), tm, c, sn));
                }
            }
            sincos_from(whole, buf, f, other);
        }
    }
}

/// A kernel body written once over [`Lanes`] and instantiated at every
/// SIMD level by [`run_lanes`].
pub(crate) trait LaneKernel {
    /// Runs the body on vectors `V`.
    ///
    /// # Safety
    ///
    /// `V`'s instruction set must be enabled in the caller (implementations
    /// are `#[inline(always)]` and inline into [`run_lanes`]'s
    /// per-level instances), plus whatever the kernel states.
    unsafe fn run<V: Lanes>(self);
}

/// Runs `k` on the vectors of the active SIMD level: [`F32x4`] at the
/// scalar level, 8 lanes at AVX2, 16 at AVX-512F.
pub(crate) fn run_lanes<K: LaneKernel>(k: K) {
    #[cfg(target_arch = "x86_64")]
    match simd() {
        // SAFETY (both): the level says the CPU supports the instance's
        // instruction set.
        Simd::Avx512 => return unsafe { run_avx512(k) },
        Simd::Avx2 => return unsafe { run_avx2(k) },
        Simd::Scalar => {}
    }
    // SAFETY: `F32x4` needs no instruction set beyond the baseline.
    unsafe { k.run::<F32x4>() }
}

/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_avx2<K: LaneKernel>(k: K) {
    k.run::<std::arch::x86_64::__m256>()
}

/// # Safety
///
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: LaneKernel>(k: K) {
    k.run::<std::arch::x86_64::__m512>()
}

/// `out[i] = f([ins[0][i], ..])` for `i < len`, a vector at a time and
/// the last one partial, so that every element goes through the same
/// lane operations wherever a caller's chunk boundaries fall.
///
/// # Safety
///
/// `V`'s instruction set must be enabled; `out` and every pointer of
/// `ins` must be valid for `len` floats. `out` may be one of `ins`:
/// each vector is loaded before it is stored.
#[inline(always)]
pub(crate) unsafe fn map<V: Lanes, const N: usize>(out: *mut f32, ins: [*const f32; N], len: usize, f: impl Fn([V; N]) -> V) {
    let whole = len / V::LANES * V::LANES;
    for at in (0..whole).step_by(V::LANES) {
        f(ins.map(|p| V::load(p.add(at)))).store(out.add(at));
    }
    if whole < len {
        let part = len - whole;
        f(ins.map(|p| V::load_part(p.add(whole), part))).store_part(out.add(whole), part);
    }
}

/// `y[i] += x[i]`, lane-wise.
///
/// # Safety
///
/// `V`'s instruction set must be enabled.
#[inline(always)]
pub(crate) unsafe fn add_assign<V: Lanes>(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len());
    let y_ptr = y.as_mut_ptr();
    map::<V, 2>(y_ptr, [y_ptr, x.as_ptr()], y.len(), |[a, b]| a.add(b));
}

/// `y[i] += x[i] / d`, lane-wise: the scalar loop's two roundings, the
/// division first.
///
/// # Safety
///
/// `V`'s instruction set must be enabled.
#[inline(always)]
pub(crate) unsafe fn add_div<V: Lanes>(y: &mut [f32], x: &[f32], d: f32) {
    assert_eq!(y.len(), x.len());
    let (y_ptr, d) = (y.as_mut_ptr(), V::splat(d));
    map::<V, 2>(y_ptr, [y_ptr, x.as_ptr()], y.len(), |[a, b]| a.add(b.div(d)));
}

/// `dst[at(k)] += src[k]` for the `width`-wide rows `k` of `src`, `k`
/// ascending: every element adds its rows in order. One entry into the
/// active level for all of them.
///
/// # Panics
///
/// Panics if a row `at` names lies outside `dst`.
pub(crate) fn add_rows(dst: &mut [f32], src: &[f32], width: usize, at: impl Fn(usize) -> usize) {
    struct AddRows<'a, F> {
        dst: &'a mut [f32],
        src: &'a [f32],
        width: usize,
        at: F,
    }
    impl<F: Fn(usize) -> usize> LaneKernel for AddRows<'_, F> {
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let AddRows { dst, src, width, at } = self;
            for (k, row) in src.chunks_exact(width).enumerate() {
                add_assign::<V>(&mut dst[at(k) * width..][..width], row);
            }
        }
    }
    if width > 0 {
        run_lanes(AddRows { dst, src, width, at });
    }
}

// ---------------------------------------------------------------------
// Trigonometry
// ---------------------------------------------------------------------

/// Which function [`sincos`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trig {
    /// `cos(x)`
    Cos,
    /// `sin(x)`
    Sin,
}

impl Trig {
    /// The other function: the derivative of each is the other one,
    /// up to sign.
    pub fn other(self) -> Trig {
        match self {
            Trig::Cos => Trig::Sin,
            Trig::Sin => Trig::Cos,
        }
    }

    /// Quadrants to turn before evaluating as a cosine:
    /// `sin(x) = cos(x - π/2)`, and -1 is 3 modulo 4.
    fn quadrant_shift(self) -> u64 {
        match self {
            Trig::Cos => 0,
            Trig::Sin => 3,
        }
    }
}

/// Constants of [`sincos`], given as bit patterns so that no decimal
/// parser stands between the source and the value.
mod trig {
    /// `2/π` rounded to nearest.
    pub const TWO_OVER_PI: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    /// `1.5 · 2⁵²`: adding it rounds a `|t| < 2⁵¹` to the nearest
    /// integer (ties to even) in the sum's low mantissa bits.
    pub const ROUND: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `π/2` in three parts: its first 27 bits, the next 27 and a full
    /// `f64` of the rest (`|π/2 - P1 - P2 - P3| < 2⁻¹¹⁴`). `q · P1` and
    /// `q · P2` are exact for `|q| < 2²⁶`.
    pub const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5400_0000);
    pub const PIO2_2: f64 = f64::from_bits(0x3e11_0b46_1000_0000);
    pub const PIO2_3: f64 = f64::from_bits(0x3c5a_6263_3145_c06e);
    /// `cos r ≈ 1 + C0 r² + C1 r⁴ + C2 r⁶ + C3 r⁸` and
    /// `sin r ≈ r + S1 r³ + S2 r⁵ + S3 r⁷ + S4 r⁹` on `[-π/4, π/4]`:
    /// the minimax coefficients of FreeBSD msun's `k_cosf.c` /
    /// `k_sinf.c` (relative error below 2⁻³³·⁶ and 2⁻³⁷·⁴).
    pub const C0: f64 = f64::from_bits(0xbfdf_ffff_fd0c_5e81);
    pub const C1: f64 = f64::from_bits(0x3fa5_5553_e105_3a42);
    pub const C2: f64 = f64::from_bits(0xbf56_c087_e80f_1e27);
    pub const C3: f64 = f64::from_bits(0x3ef9_9342_e0ee_5069);
    pub const S1: f64 = f64::from_bits(0xbfc5_5555_54cb_ac77);
    pub const S2: f64 = f64::from_bits(0x3f81_1110_896e_fbb2);
    pub const S3: f64 = f64::from_bits(0xbf2a_00f9_e2ca_e774);
    pub const S4: f64 = f64::from_bits(0x3ec6_cd87_8c3b_46a7);
}

/// The scalar reference of [`sincos`]: one element, every operation an
/// IEEE `f64` `mul` / `add` / `sub` in the order written (the compiler
/// neither reassociates nor contracts them), then one rounding to
/// `f32`.
///
/// `x = q·π/2 + r` with `q` the nearest integer to `x·2/π` and `r`
/// reduced against a three-part `π/2`; the quadrant `q mod 4` selects
/// the cosine or the sine polynomial in `r` and the sign. Within 1 ulp
/// of the correctly rounded result for `|x| < 2²⁶·π/2` (the products
/// `q·P1`, `q·P2` are exact there) and within `2.5e-7` absolute up to
/// `2³¹`. Beyond that neighbouring `f32`s are more than `2π` apart and
/// the argument carries no phase: the result is some deterministic
/// value in `[-1, 1]`. `±∞` and NaN give NaN.
pub fn sincos_scalar(x: f32, f: Trig) -> f32 {
    use trig::*;
    let x = f64::from(x);
    let t = x * TWO_OVER_PI;
    let tm = t + ROUND;
    let q = tm - ROUND;
    // `q mod 4` sits in the low bits of `tm` (two's complement).
    let m = tm.to_bits().wrapping_add(f.quadrant_shift());
    let r = ((x - q * PIO2_1) - q * PIO2_2) - q * PIO2_3;
    let z = r * r;
    let w = z * z;
    let y = if m & 1 == 0 {
        ((1.0 + z * C0) + w * C1) + (w * z) * (C2 + z * C3)
    } else {
        let s = z * r;
        (r + s * (S1 + z * S2)) + (s * w) * (S3 + z * S4)
    };
    // Quadrants 1 and 2 of the cosine are negative.
    let y = f64::from_bits(y.to_bits() ^ ((m.wrapping_add(1) & 2) << 62));
    // Written as the `minpd` / `maxpd` selections (a NaN passes).
    let y = if 1.0 < y { 1.0 } else { y };
    let y = if -1.0 > y { -1.0 } else { y };
    y as f32
}

/// Replaces every element of `buf` by `f` of it and, given `other`,
/// writes the other function of the same arguments there (a forward
/// pass that saves what its backward multiplies by).
///
/// Each level's [`Lanes::sincos`] performs the operations of
/// [`sincos_scalar`] on four or eight `f64` lanes and leaves the last
/// few elements to the scalar reference, so SIMD and scalar hosts and
/// every way of splitting `buf` across threads give the same bits.
///
/// # Panics
///
/// Panics if `other` is given with another length than `buf`.
pub fn sincos(buf: &mut [f32], f: Trig, other: Option<&mut [f32]>) {
    struct SinCos<'a>(&'a mut [f32], Trig, Option<&'a mut [f32]>);
    impl LaneKernel for SinCos<'_> {
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            V::sincos(self.0, self.1, self.2);
        }
    }
    assert!(other.as_ref().is_none_or(|o| o.len() == buf.len()), "sincos outputs differ in length");
    run_lanes(SinCos(buf, f, other));
}

/// [`sincos`] of the elements from `at` on, one at a time through the
/// scalar reference.
fn sincos_from(at: usize, buf: &mut [f32], f: Trig, mut other: Option<&mut [f32]>) {
    for (i, v) in buf.iter_mut().enumerate().skip(at) {
        if let Some(other) = other.as_deref_mut() {
            other[i] = sincos_scalar(*v, f.other());
        }
        *v = sincos_scalar(*v, f);
    }
}

/// Serializes tests (crate-wide) that flip or depend on the global
/// SIMD switch.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_serial as serial;

    #[test]
    fn simd_force_off_and_redetect() {
        let _guard = serial();
        set_simd(Simd::Scalar);
        assert_eq!((simd(), simd_label()), (Simd::Scalar, "scalar"));
        // A cap selects exactly the levels the host runs, and the top
        // cap re-detects the highest of them.
        for level in simd_levels() {
            set_simd(level);
            assert_eq!((simd(), simd_label()), (level, level.label()));
        }
        set_simd(Simd::Avx512);
        assert_eq!(Some(simd()), simd_levels().last());
        assert!(Simd::Scalar < Simd::Avx2 && Simd::Avx2 < Simd::Avx512);
    }

    /// `add_rows`' and `add_div`'s lane bodies against their scalar
    /// loops, bit for bit, at every level and every length from empty to
    /// past two AVX-512F vectors.
    #[test]
    fn exact_safe_primitives_match_scalar_bitwise() {
        struct AddDiv<'a>(&'a mut [f32], &'a [f32]);
        impl LaneKernel for AddDiv<'_> {
            unsafe fn run<V: Lanes>(self) {
                add_div::<V>(self.0, self.1, 3.0);
            }
        }
        let _guard = serial();
        let mk = |len: usize, salt: usize| -> Vec<f32> {
            (0..len).map(|i| ((i * 31 + salt) % 97) as f32 * 0.037 - 1.5).collect()
        };
        for level in simd_levels() {
            set_simd(level);
            for len in 0..=37 {
                let x = mk(3 * len, 5);
                // Three rows into rows 0, 1 and 0 of a two-row table.
                let mut add = mk(2 * len, 9);
                add_rows(&mut add, &x, len, |k| [0, 1, 0][k]);
                let mut want_add = mk(2 * len, 9);
                for (k, row) in x.chunks_exact(len.max(1)).enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        want_add[[0, 1, 0][k] * len + j] += v;
                    }
                }
                let mut div = mk(len, 9);
                run_lanes(AddDiv(&mut div, &x[..len]));
                let want_div: Vec<f32> = mk(len, 9).iter().zip(&x).map(|(a, b)| a + b / 3.0).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&add), bits(&want_add), "add_rows at {level:?}, len {len}");
                assert_eq!(bits(&div), bits(&want_div), "add_div at {level:?}, len {len}");
            }
        }
        set_simd(Simd::Avx512);
    }
}
