//! Kernel execution contract: `exact` vs `fast`, plus SIMD dispatch.
//!
//! Every tensor kernel in this crate has a scalar reference
//! implementation whose floating-point order defines the *exact*
//! contract: results are bitwise identical across thread counts,
//! across hosts and across SIMD levels. SIMD paths (x86-64 AVX2/FMA and,
//! for the GEMM tile, the kernels written on `Lanes` and `sincos`, AVX-512F;
//! runtime-detected) come in two flavors:
//!
//! * **Exact-safe SIMD** performs the *same* IEEE operations per output
//!   element in the same order as the scalar kernel — lane-wise
//!   `mul`/`add`/`div`/`sqrt`/`max` over independent output elements.
//!   These run in both modes and stay bitwise identical to the scalar
//!   reference.
//! * **Fast-only SIMD** reassociates (horizontal reductions, wider
//!   partial-sum fans) or contracts multiply-adds into FMAs, or swaps
//!   libm `exp` for a vectorized polynomial. These change low-order
//!   bits and run only under [`KernelMode::Fast`], with tolerances
//!   documented in `DESIGN.md` ("Kernel contract") and enforced by the
//!   parity suite.
//!
//! Two kinds of transcendental sit under that contract. `cos` and
//! `sin` are in-tree: [`sincos`] is a fixed sequence of IEEE `f64`
//! operations (no libm, no FMA) whose AVX2 and AVX-512F forms do the
//! same operations lane-wise, so it is exact-safe SIMD, runs in both modes
//! and gives the same bits on every host. `exp`, `tanh` and `ln` still
//! come from the host's libm in `exact` mode (and `exp` from a
//! polynomial in `fast`), which is the one place where `exact` depends
//! on the host's C library.
//!
//! Both modes remain **thread-count invariant**: reduction orders are a
//! function of the problem shape only, never of which thread ran a
//! chunk. What `fast` gives up is bitwise equality with the scalar
//! reference (and therefore with non-AVX2 hosts).
//!
//! The mode defaults to `exact`, is initialized from the `TGL_KERNEL`
//! environment variable, and can be overridden at runtime with
//! [`set_mode`] (the `--kernel` CLI flag). SIMD dispatch runs at one
//! ordered level ([`Simd`]: scalar, AVX2, AVX-512F), the highest the
//! host supports; it can be forced to scalar with `TGL_SIMD=off` and
//! capped with [`set_simd`] — the parity suite uses this to compare
//! every level's outputs in-process.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which floating-point contract kernels honor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bitwise identical to the scalar reference kernels, on every
    /// host, at every thread count. The default.
    Exact,
    /// FMA contraction, wider reduction fans, and polynomial `exp`
    /// allowed; results carry documented tolerances but are still
    /// thread-count invariant.
    Fast,
}

impl KernelMode {
    /// Stable lowercase name (`exact` / `fast`) used by the CLI, the
    /// bench artifacts, and run-report metadata.
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Exact => "exact",
            KernelMode::Fast => "fast",
        }
    }
}

/// Parses a mode name as accepted by `--kernel` and `TGL_KERNEL`.
pub fn parse(s: &str) -> Option<KernelMode> {
    match s.trim().to_ascii_lowercase().as_str() {
        "exact" => Some(KernelMode::Exact),
        "fast" => Some(KernelMode::Fast),
        _ => None,
    }
}

/// 0 = uninitialized, 1 = exact, 2 = fast.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The active kernel mode (initialized from `TGL_KERNEL` on first use;
/// unknown values fall back to `exact` with a warning).
pub fn mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Exact,
        2 => KernelMode::Fast,
        _ => {
            let m = match std::env::var("TGL_KERNEL") {
                Ok(v) => parse(&v).unwrap_or_else(|| {
                    eprintln!("TGL_KERNEL={v:?} not recognized (try exact/fast); using exact");
                    KernelMode::Exact
                }),
                Err(_) => KernelMode::Exact,
            };
            // Racing initializers read the same environment.
            set_mode(m);
            m
        }
    }
}

/// Overrides the kernel mode for subsequent kernel invocations.
pub fn set_mode(m: KernelMode) {
    MODE.store(
        match m {
            KernelMode::Exact => 1,
            KernelMode::Fast => 2,
        },
        Ordering::Relaxed,
    );
}

/// True when fast-only SIMD paths may run.
pub fn fast() -> bool {
    mode() == KernelMode::Fast
}

/// The instruction-set level kernels dispatch on, ordered: each level
/// runs everything the one below it runs. Whichever is active, `exact`
/// results are the same bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Simd {
    /// The scalar reference kernels.
    Scalar = 1,
    /// x86-64 AVX2 + FMA: 8 `f32` lanes.
    Avx2 = 2,
    /// AVX-512F on top of AVX2 + FMA: 16 `f32` lanes in the GEMM tile
    /// and the kernels written on `Lanes`, 8 `f64` lanes in
    /// [`sincos`]; every other kernel keeps its AVX2 body.
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

/// The highest level this host runs (`Scalar` under `TGL_SIMD=off`).
fn detect_simd() -> Simd {
    if matches!(
        std::env::var("TGL_SIMD").as_deref(),
        Ok("off") | Ok("0") | Ok("scalar")
    ) {
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
// Shared AVX2 primitives
// ---------------------------------------------------------------------
//
// The `*_avx2` functions are `#[target_feature]`-gated and unsafe to
// call; the safe `*_dispatch` wrappers check [`simd`] and fall back to
// the scalar loop. Exact-safe primitives (`add_assign`, `add_div`, the
// non-FMA `axpy`) perform identical lane-wise IEEE arithmetic to their
// scalar fallbacks and may run in either mode; `FMA=true` instantiations
// and the reduction/exp helpers are fast-only.

/// `y[i] += x[i]` — exact-safe in both modes.
pub(crate) fn add_assign_dispatch(y: &mut [f32], x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd() >= Simd::Avx2 {
        // SAFETY: a level of Avx2 or above means the CPU supports AVX2+FMA.
        unsafe { add_assign_avx2(y, x) };
        return;
    }
    for (a, b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `y[i] += x[i] / d` — exact-safe (lane-wise IEEE div then add, the
/// same two roundings as the scalar loop).
pub(crate) fn add_div_dispatch(y: &mut [f32], x: &[f32], d: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd() >= Simd::Avx2 {
        // SAFETY: a level of Avx2 or above means the CPU supports AVX2+FMA.
        unsafe { add_div_avx2(y, x, d) };
        return;
    }
    for (a, b) in y.iter_mut().zip(x) {
        *a += b / d;
    }
}

/// `y[i] += a * x[i]`. With `fma=false` this is exact-safe (lane-wise
/// mul then add); with `fma=true` the multiply-add contracts, which is
/// fast-only.
pub(crate) fn axpy_dispatch(y: &mut [f32], x: &[f32], a: f32, fma: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd() >= Simd::Avx2 {
        // SAFETY: a level of Avx2 or above means the CPU supports AVX2+FMA.
        unsafe {
            if fma {
                axpy_avx2::<true>(y, x, a);
            } else {
                axpy_avx2::<false>(y, x, a);
            }
        }
        return;
    }
    let _ = fma; // scalar fallback has nothing to contract
    for (o, &v) in y.iter_mut().zip(x) {
        *o += a * v;
    }
}

/// `y[i] *= s` — exact-safe (one lane-wise IEEE multiply).
pub(crate) fn scale_dispatch(y: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd() >= Simd::Avx2 {
        // SAFETY: a level of Avx2 or above means the CPU supports AVX2+FMA.
        unsafe { scale_avx2(y, s) };
        return;
    }
    for v in y.iter_mut() {
        *v *= s;
    }
}

/// `y[i] += s * a[i] * b[i]` with the scalar's left-associated product
/// order. With `fma=false` exact-safe; with `fma=true` the final
/// multiply-add contracts (fast-only).
pub(crate) fn addcmul_dispatch(y: &mut [f32], a: &[f32], b: &[f32], s: f32, fma: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd() >= Simd::Avx2 {
        // SAFETY: a level of Avx2 or above means the CPU supports AVX2+FMA.
        unsafe {
            if fma {
                addcmul_avx2::<true>(y, a, b, s);
            } else {
                addcmul_avx2::<false>(y, a, b, s);
            }
        }
        return;
    }
    let _ = fma;
    for i in 0..y.len() {
        y[i] += s * a[i] * b[i];
    }
}

// ---------------------------------------------------------------------
// Lane vectors
// ---------------------------------------------------------------------

/// What a kernel body written once for every level needs of a vector of
/// `f32` lanes. Every arithmetic operation is lane-wise, one IEEE
/// rounding per lane (or one for a contracted `mul_add`), so a lane
/// computes what the scalar loop computes for that element; moves
/// (`transpose`, partial loads and stores) do not round at all.
///
/// # Safety
///
/// The methods of an implementation may only be called where its
/// instruction set is enabled (inside a `#[target_feature]` function of
/// that set, on a CPU that has it, as [`run_lanes`] arranges); `load` /
/// `store` touch `LANES` floats from the pointer on, `load_part` /
/// `store_part` the first `len <= LANES` of them.
pub(crate) trait Lanes: Copy {
    const LANES: usize;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// `self + a * b`: contracted to one rounding with `FMA`, else a
    /// `mul` and an `add` of one rounding each.
    unsafe fn mul_add<const FMA: bool>(self, a: Self, b: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    /// The first `len` lanes from `p`; the others read zero.
    unsafe fn load_part(p: *const f32, len: usize) -> Self;
    /// Writes the first `len` lanes to `p`.
    unsafe fn store_part(self, p: *mut f32, len: usize);
    /// Transposes the square block of the first `LANES` vectors of `v`:
    /// lane `j` of `v[i]` moves to lane `i` of `v[j]`.
    unsafe fn transpose(v: &mut [Self]);
}

/// The scalar level's vector: four floats, one at a time. There is no
/// FMA unit to contract into, so `fast` runs the exact arithmetic here.
#[derive(Clone, Copy)]
pub(crate) struct F32x4([f32; 4]);

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
    unsafe fn mul_add<const FMA: bool>(self, a: Self, b: Self) -> Self {
        F32x4(std::array::from_fn(|l| self.0[l] + a.0[l] * b.0[l]))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        F32x4(std::array::from_fn(|l| self.0[l] + b.0[l]))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        F32x4(std::array::from_fn(|l| self.0[l] - b.0[l]))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        F32x4(std::array::from_fn(|l| self.0[l] * b.0[l]))
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
    unsafe fn transpose(v: &mut [Self]) {
        let v: &mut [Self; 4] = (&mut v[..4]).try_into().expect("four vectors");
        let t = *v;
        *v = std::array::from_fn(|j| F32x4(std::array::from_fn(|i| t[i].0[j])));
    }
}

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use super::Lanes;
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
        unsafe fn mul_add<const FMA: bool>(self, a: Self, b: Self) -> Self {
            if FMA {
                _mm256_fmadd_ps(a, b, self)
            } else {
                _mm256_add_ps(self, _mm256_mul_ps(a, b))
            }
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
        unsafe fn mul_add<const FMA: bool>(self, a: Self, b: Self) -> Self {
            if FMA {
                _mm512_fmadd_ps(a, b, self)
            } else {
                _mm512_add_ps(self, _mm512_mul_ps(a, b))
            }
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
    }
}

/// A kernel body written once over [`Lanes`] and instantiated at every
/// SIMD level by [`run_lanes`].
pub(crate) trait LaneKernel {
    /// Runs the body on vectors `V`, contracting multiply-adds when
    /// `FMA`.
    ///
    /// # Safety
    ///
    /// `V`'s instruction set must be enabled in the caller (implementations
    /// are `#[inline(always)]` and inline into [`run_lanes`]'s
    /// `#[target_feature]` instances), plus whatever the kernel states.
    unsafe fn run<V: Lanes, const FMA: bool>(self);
}

/// Runs `k` on the vectors of the active SIMD level: [`F32x4`] at the
/// scalar level, 8 lanes at AVX2, 16 at AVX-512F. With `fma`, SIMD
/// levels contract multiply-adds (fast mode only).
pub(crate) fn run_lanes<K: LaneKernel>(k: K, fma: bool) {
    #[cfg(target_arch = "x86_64")]
    match simd() {
        // SAFETY (both): the level says the CPU supports the instance's
        // instruction set.
        Simd::Avx512 => return unsafe { run_avx512(k, fma) },
        Simd::Avx2 => return unsafe { run_avx2(k, fma) },
        Simd::Scalar => {}
    }
    let _ = fma; // the scalar level has nothing to contract
    // SAFETY: `F32x4` needs no instruction set beyond the baseline.
    unsafe { k.run::<F32x4, false>() }
}

/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_avx2<K: LaneKernel>(k: K, fma: bool) {
    use std::arch::x86_64::__m256;
    if fma {
        k.run::<__m256, true>()
    } else {
        k.run::<__m256, false>()
    }
}

/// # Safety
///
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: LaneKernel>(k: K, fma: bool) {
    use std::arch::x86_64::__m512;
    if fma {
        k.run::<__m512, true>()
    } else {
        k.run::<__m512, false>()
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
/// Exact-safe SIMD: the AVX2 and AVX-512F kernels perform the
/// operations of [`sincos_scalar`] on four and eight `f64` lanes (both
/// polynomials, then a per-lane select for each output) and leave the
/// last few elements to the scalar reference, so SIMD and scalar
/// hosts, both kernel modes and every way of splitting `buf` across
/// threads give the same bits.
///
/// # Panics
///
/// Panics if `other` is given with another length than `buf`.
pub fn sincos(buf: &mut [f32], f: Trig, other: Option<&mut [f32]>) {
    assert!(other.as_ref().is_none_or(|o| o.len() == buf.len()), "sincos outputs differ in length");
    #[cfg(target_arch = "x86_64")]
    match simd() {
        // SAFETY (both): the level says the CPU supports the kernel's
        // instruction set; the outputs were measured against each other
        // just above.
        Simd::Avx512 => return unsafe { sincos_avx512(buf, f, other) },
        Simd::Avx2 => return unsafe { sincos_avx2(buf, f, other) },
        Simd::Scalar => {}
    }
    sincos_from(0, buf, f, other);
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

/// # Safety
///
/// Requires AVX2; `other`, if given, must be as long as `buf`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sincos_avx2(buf: &mut [f32], f: Trig, mut other: Option<&mut [f32]>) {
    use std::arch::x86_64::*;
    use trig::*;
    let k = |c: f64| _mm256_set1_pd(c);
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
        // One function of the four arguments from the two polynomials.
        let pick = |f: Trig| {
            let m = _mm256_add_epi64(_mm256_castpd_si256(tm), _mm256_set1_epi64x(f.quadrant_shift() as i64));
            // `blendv` selects on a lane's top bit: the quadrant's parity.
            let odd = _mm256_castsi256_pd(_mm256_slli_epi64(m, 63));
            let y = _mm256_blendv_pd(c, sn, odd);
            let negative =
                _mm256_and_si256(_mm256_add_epi64(m, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(2));
            let y = _mm256_xor_pd(y, _mm256_castsi256_pd(_mm256_slli_epi64(negative, 62)));
            _mm256_cvtpd_ps(_mm256_max_pd(k(-1.0), _mm256_min_pd(k(1.0), y)))
        };
        _mm_storeu_ps(buf.as_mut_ptr().add(at), pick(f));
        if let Some(other) = other.as_deref_mut() {
            _mm_storeu_ps(other.as_mut_ptr().add(at), pick(f.other()));
        }
    }
    sincos_from(whole, buf, f, other);
}

/// [`sincos_avx2`] on eight lanes: the same operations, with the parity
/// select as a mask blend and the sign flip as an integer `xor`.
///
/// # Safety
///
/// Requires AVX-512F; `other`, if given, must be as long as `buf`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sincos_avx512(buf: &mut [f32], f: Trig, mut other: Option<&mut [f32]>) {
    use std::arch::x86_64::*;
    use trig::*;
    let k = |c: f64| _mm512_set1_pd(c);
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
        let pick = |f: Trig| {
            let m = _mm512_add_epi64(_mm512_castpd_si512(tm), _mm512_set1_epi64(f.quadrant_shift() as i64));
            let odd = _mm512_test_epi64_mask(m, _mm512_set1_epi64(1));
            let y = _mm512_castpd_si512(_mm512_mask_blend_pd(odd, c, sn));
            let negative = _mm512_and_si512(_mm512_add_epi64(m, _mm512_set1_epi64(1)), _mm512_set1_epi64(2));
            let y = _mm512_castsi512_pd(_mm512_xor_si512(y, _mm512_slli_epi64::<62>(negative)));
            _mm512_cvtpd_ps(_mm512_max_pd(k(-1.0), _mm512_min_pd(k(1.0), y)))
        };
        _mm256_storeu_ps(buf.as_mut_ptr().add(at), pick(f));
        if let Some(other) = other.as_deref_mut() {
            _mm256_storeu_ps(other.as_mut_ptr().add(at), pick(f.other()));
        }
    }
    sincos_from(whole, buf, f, other);
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! Raw AVX2/FMA building blocks shared by the op kernels.
    use std::arch::x86_64::*;

    /// Horizontal sum of all 8 lanes (fast-only: reassociates).
    ///
    /// # Safety
    ///
    /// Requires AVX2 support (a [`super::simd`] level of `Avx2` or above).
    #[target_feature(enable = "avx2")]
    pub unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Horizontal max of all 8 lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 support (a [`super::simd`] level of `Avx2` or above).
    #[target_feature(enable = "avx2")]
    pub unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Vectorized `exp` (Cephes-style degree-5 polynomial over the
    /// range-reduced argument, then exponent reassembly). Accurate to a
    /// few ulp over the clamped range; fast-only.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support (a [`super::simd`] level of `Avx2` or above).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp256(x: __m256) -> __m256 {
        // Clamp: below -87.3 the result underflows toward zero (we
        // return exactly 2^-126-ish, close enough for softmax weights);
        // above 88.7 it would overflow to inf.
        let x = _mm256_min_ps(x, _mm256_set1_ps(88.376_26));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-87.336_54));
        // n = round(x / ln 2)
        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, log2e),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x - n·ln2 in two pieces for extra bits.
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.121_944_4e-4), r);
        // exp(r) ≈ 1 + r + r²·p(r)
        let mut p = _mm256_set1_ps(1.987_569_1e-4);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.398_199_9e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.333_452e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.666_666_6e-1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0e-1));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, _mm256_set1_ps(1.0)));
        // Scale by 2^n through the exponent field.
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(0x7f)),
            23,
        ));
        _mm256_mul_ps(y, pow2n)
    }

    /// 8-lane FMA dot product with horizontal sum (fast-only): the
    /// reduction fan depends only on `a.len()`, so it is thread-count
    /// invariant but not bitwise equal to the scalar 4-lane reference.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support (a [`super::simd`] level of `Avx2` or above).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for q in 0..chunks {
            let av = _mm256_loadu_ps(a.as_ptr().add(q * 8));
            let bv = _mm256_loadu_ps(b.as_ptr().add(q * 8));
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
        let mut tail = 0.0f32;
        for p in chunks * 8..n {
            tail += a.get_unchecked(p) * b.get_unchecked(p);
        }
        hsum(acc) + tail
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_assign_avx2(y: &mut [f32], x: &[f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    let chunks = n / 8;
    for q in 0..chunks {
        let p = q * 8;
        let v = _mm256_add_ps(
            _mm256_loadu_ps(y.as_ptr().add(p)),
            _mm256_loadu_ps(x.as_ptr().add(p)),
        );
        _mm256_storeu_ps(y.as_mut_ptr().add(p), v);
    }
    for p in chunks * 8..n {
        *y.get_unchecked_mut(p) += x.get_unchecked(p);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_div_avx2(y: &mut [f32], x: &[f32], d: f32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    let chunks = n / 8;
    let dv = _mm256_set1_ps(d);
    for q in 0..chunks {
        let p = q * 8;
        let v = _mm256_add_ps(
            _mm256_loadu_ps(y.as_ptr().add(p)),
            _mm256_div_ps(_mm256_loadu_ps(x.as_ptr().add(p)), dv),
        );
        _mm256_storeu_ps(y.as_mut_ptr().add(p), v);
    }
    for p in chunks * 8..n {
        *y.get_unchecked_mut(p) += x.get_unchecked(p) / d;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scale_avx2(y: &mut [f32], s: f32) {
    use std::arch::x86_64::*;
    let n = y.len();
    let chunks = n / 8;
    let sv = _mm256_set1_ps(s);
    for q in 0..chunks {
        let p = q * 8;
        let v = _mm256_mul_ps(_mm256_loadu_ps(y.as_ptr().add(p)), sv);
        _mm256_storeu_ps(y.as_mut_ptr().add(p), v);
    }
    for p in chunks * 8..n {
        *y.get_unchecked_mut(p) *= s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn addcmul_avx2<const FMA: bool>(y: &mut [f32], a: &[f32], b: &[f32], s: f32) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= y.len() && b.len() >= y.len());
    let n = y.len();
    let chunks = n / 8;
    let sv = _mm256_set1_ps(s);
    for q in 0..chunks {
        let p = q * 8;
        // (s * a) * b, left-associated like the scalar loop.
        let sa = _mm256_mul_ps(sv, _mm256_loadu_ps(a.as_ptr().add(p)));
        let bv = _mm256_loadu_ps(b.as_ptr().add(p));
        let yv = _mm256_loadu_ps(y.as_ptr().add(p));
        let v = if FMA {
            _mm256_fmadd_ps(sa, bv, yv)
        } else {
            _mm256_add_ps(yv, _mm256_mul_ps(sa, bv))
        };
        _mm256_storeu_ps(y.as_mut_ptr().add(p), v);
    }
    // Tail rounding must match the vector body per element: if a
    // caller ever hands this a chunk of a range-partitioned buffer,
    // tail membership depends on the split, and a body/tail rounding
    // difference would break thread-count invariance in fast mode.
    for p in chunks * 8..n {
        let t = s * a.get_unchecked(p);
        *y.get_unchecked_mut(p) = if FMA {
            t.mul_add(*b.get_unchecked(p), *y.get_unchecked(p))
        } else {
            *y.get_unchecked(p) + t * b.get_unchecked(p)
        };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2<const FMA: bool>(y: &mut [f32], x: &[f32], a: f32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    let chunks = n / 8;
    let av = _mm256_set1_ps(a);
    for q in 0..chunks {
        let p = q * 8;
        let xv = _mm256_loadu_ps(x.as_ptr().add(p));
        let yv = _mm256_loadu_ps(y.as_ptr().add(p));
        let v = if FMA {
            _mm256_fmadd_ps(av, xv, yv)
        } else {
            _mm256_add_ps(yv, _mm256_mul_ps(av, xv))
        };
        _mm256_storeu_ps(y.as_mut_ptr().add(p), v);
    }
    // Same body/tail rounding rule as `addcmul_avx2`.
    for p in chunks * 8..n {
        *y.get_unchecked_mut(p) = if FMA {
            a.mul_add(*x.get_unchecked(p), *y.get_unchecked(p))
        } else {
            *y.get_unchecked(p) + a * x.get_unchecked(p)
        };
    }
}

/// Serializes tests (crate-wide) that flip or depend on the global
/// mode/SIMD switches.
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
    fn mode_parse_round_trips() {
        assert_eq!(parse("exact"), Some(KernelMode::Exact));
        assert_eq!(parse("FAST"), Some(KernelMode::Fast));
        assert_eq!(parse(" fast "), Some(KernelMode::Fast));
        assert_eq!(parse("loose"), None);
        assert_eq!(KernelMode::Exact.label(), "exact");
        assert_eq!(KernelMode::Fast.label(), "fast");
    }

    #[test]
    fn set_mode_overrides() {
        let _guard = serial();
        let before = mode();
        set_mode(KernelMode::Fast);
        assert!(fast());
        set_mode(KernelMode::Exact);
        assert!(!fast());
        set_mode(before);
    }

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

    #[test]
    fn exact_safe_primitives_match_scalar_bitwise() {
        let _guard = serial();
        let mk = |salt: u32| -> Vec<f32> {
            (0..37u32)
                .map(|i| ((i * 31 + salt) % 97) as f32 * 0.037 - 1.5)
                .collect()
        };
        for level in simd_levels() {
            set_simd(level);
            let x = mk(5);
            let mut add = mk(9);
            add_assign_dispatch(&mut add, &x);
            let mut div = mk(9);
            add_div_dispatch(&mut div, &x, 3.0);
            let mut ax = mk(9);
            axpy_dispatch(&mut ax, &x, -0.75, false);
            let mut sc = mk(9);
            scale_dispatch(&mut sc, 1.25);
            let z = mk(13);
            let mut acm = mk(9);
            addcmul_dispatch(&mut acm, &x, &z, 0.5, false);
            let want_add: Vec<f32> = mk(9).iter().zip(&x).map(|(a, b)| a + b).collect();
            let want_div: Vec<f32> = mk(9).iter().zip(&x).map(|(a, b)| a + b / 3.0).collect();
            let want_ax: Vec<f32> = mk(9).iter().zip(&x).map(|(a, b)| a + -0.75 * b).collect();
            let want_sc: Vec<f32> = mk(9).iter().map(|a| a * 1.25).collect();
            let want_acm: Vec<f32> = mk(9)
                .iter()
                .zip(x.iter().zip(&z))
                .map(|(a, (b, c))| a + 0.5 * b * c)
                .collect();
            assert_eq!(add, want_add, "add_assign at {level:?}");
            assert_eq!(div, want_div, "add_div at {level:?}");
            assert_eq!(ax, want_ax, "axpy at {level:?}");
            assert_eq!(sc, want_sc, "scale at {level:?}");
            assert_eq!(acm, want_acm, "addcmul at {level:?}");
        }
        set_simd(Simd::Avx512);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp256_close_to_libm() {
        let _guard = serial();
        if simd() < Simd::Avx2 {
            return;
        }
        let xs: Vec<f32> = (-80..=8).map(|i| i as f32 * 1.09).collect();
        for chunk in xs.chunks(8) {
            let mut buf = [0.0f32; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let mut out = [0.0f32; 8];
            unsafe {
                let v = x86::exp256(std::arch::x86_64::_mm256_loadu_ps(buf.as_ptr()));
                std::arch::x86_64::_mm256_storeu_ps(out.as_mut_ptr(), v);
            }
            for (i, &x) in chunk.iter().enumerate() {
                let want = x.exp();
                let got = out[i];
                let rel = if want > 1e-30 { (got - want).abs() / want } else { (got - want).abs() };
                assert!(rel < 1e-5, "exp({x}) = {got}, want {want} (rel {rel})");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dot_fast_close_to_scalar() {
        let _guard = serial();
        if simd() < Simd::Avx2 {
            return;
        }
        let a: Vec<f32> = (0..531).map(|i| ((i * 37) % 101) as f32 * 0.02 - 1.0).collect();
        let b: Vec<f32> = (0..531).map(|i| ((i * 53) % 97) as f32 * 0.02 - 1.0).collect();
        let want: f64 = a.iter().zip(&b).map(|(x, y)| (*x as f64) * (*y as f64)).sum();
        let got = unsafe { x86::dot_fast(&a, &b) };
        assert!(
            (got as f64 - want).abs() < 1e-3 * want.abs().max(1.0),
            "dot {got} vs {want}"
        );
    }
}
