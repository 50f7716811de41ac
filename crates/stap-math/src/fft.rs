//! Fast Fourier transforms.
//!
//! The STAP chain performs `K * 2J` 128-point FFTs per CPI in Doppler
//! filtering and `2 * N * M` 512-point FFTs in pulse compression, all on
//! contiguous complex slices (the partitioning strategy in the paper is
//! chosen specifically so every transform reads unit-stride memory).
//!
//! * Power-of-two sizes use an iterative radix-2 Cooley-Tukey transform
//!   with precomputed twiddle factors and a cached bit-reversal table.
//! * Other sizes fall back to Bluestein's algorithm (chirp-Z), built on the
//!   radix-2 kernel, so the library accepts arbitrary CPI geometries even
//!   though the paper's parameters (N = 128, K = 512) are powers of two.
//!
//! # Steady-state (allocation-free) API
//!
//! Transforms borrow all working storage from a caller-owned
//! [`FftScratch`]: power-of-two plans above 8 points use an `n`-element
//! staging buffer (the digit-reversal permutation is fused into the
//! first butterfly stage as a gather into scratch, and the last stage
//! writes back into the caller's buffer — no standalone permutation or
//! copy pass), and Bluestein plans use `m` staging elements plus their
//! inner plan's scratch. The scratch-taking entry points
//! ([`Fft::forward_with_scratch`], [`Fft::run_with_scratch`], and the
//! batched [`Fft::forward_lanes`] / [`Fft::run_lanes`]) reuse the
//! workspace across calls, so the per-CPI hot loop performs zero heap
//! allocations once the workspace is warm. The plain [`Fft::forward`] /
//! [`Fft::inverse`] conveniences create a transient scratch internally
//! (which allocates once per call for lengths above 8) — use the
//! scratch-taking variants in hot paths.
//!
//! The batched lane API runs every contiguous `n`-length lane of a
//! buffer through one plan — the Doppler task hands its whole
//! `(k_local, 2J, N)` output cube to a single [`Fft::forward_lanes`]
//! call, the pattern the Ooty correlator and FFTW's "many" plans use to
//! amortize plan dispatch across a CPI.
//!
//! Flop accounting uses the conventional `5 n log2 n` per transform for
//! radix-2 sizes (the same convention the paper's Table 1 is built on;
//! inverse-transform normalization is folded into that figure). Bluestein
//! transforms report the cost of their constituent radix-2 transforms plus
//! the chirp multiplies. Batched transforms count exactly `lanes` times
//! the single-transform figure.

use crate::complex::{Cx, ZERO};
use crate::flops;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use std::f64::consts::PI;
use std::sync::Arc;

/// Transform direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// `X_k = sum_n x_n e^{-2 pi i k n / N}`
    Forward,
    /// `x_n = (1/N) sum_k X_k e^{+2 pi i k n / N}`
    Inverse,
}

/// Reusable workspace for scratch-taking transforms.
///
/// One scratch serves any number of plans: it grows to the largest
/// requirement it has seen and never shrinks, so steady-state reuse is
/// allocation-free. Tiny power-of-two plans (n <= 8) need no scratch
/// at all (the buffer stays empty).
#[derive(Clone, Debug, Default)]
pub struct FftScratch {
    buf: Vec<Cx>,
}

impl FftScratch {
    /// An empty workspace; it grows on first use.
    pub fn new() -> Self {
        FftScratch::default()
    }

    /// A workspace pre-sized for `plan` (so even the first transform is
    /// allocation-free).
    pub fn for_plan(plan: &Fft) -> Self {
        let mut s = FftScratch::new();
        s.reserve_for(plan);
        s
    }

    /// Grows the workspace to fit `plan` without running a transform.
    pub fn reserve_for(&mut self, plan: &Fft) {
        let need = plan.scratch_len();
        if self.buf.len() < need {
            self.buf.resize(need, ZERO);
        }
    }

    /// Current capacity in complex elements (for tests asserting reuse).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// A reusable FFT plan for a fixed length.
///
/// Plans are cheap to clone (`Arc` internals) and safe to share across
/// threads; each call scratches on the caller's buffer (and, for
/// Bluestein lengths, a caller-owned [`FftScratch`]) only.
///
/// ```
/// use stap_math::fft::Fft;
/// use stap_math::Cx;
///
/// // A pure tone lands in its bin.
/// let n = 128;
/// let plan = Fft::new(n);
/// let mut x: Vec<Cx> = (0..n)
///     .map(|t| Cx::cis(2.0 * std::f64::consts::PI * 5.0 * t as f64 / n as f64))
///     .collect();
/// plan.forward(&mut x);
/// assert!((x[5].abs() - n as f64).abs() < 1e-8);
/// plan.inverse(&mut x); // and back
/// ```
#[derive(Clone)]
pub struct Fft {
    n: usize,
    kind: Kind,
}

#[derive(Clone)]
enum Kind {
    Identity,
    Radix2(Arc<Radix2>),
    Radix4(Arc<Radix4>),
    Bluestein(Arc<Bluestein>),
}

struct Radix2 {
    /// Twiddles for each butterfly stage, concatenated: stage with half-size
    /// `h` contributes `h` factors `e^{-i pi k / h}`.
    twiddles: Vec<Cx>,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
    log2n: u32,
}

struct Bluestein {
    /// Chirp `e^{-i pi k^2 / n}` for k in 0..n.
    chirp: Vec<Cx>,
    /// FFT of the zero-padded conjugate chirp, length `m`.
    bfft: Vec<Cx>,
    inner: Fft,
    m: usize,
}

impl Fft {
    /// Builds a plan for length `n`. Panics when `n == 0`.
    ///
    /// Every power of two uses the mixed-radix kernel (radix-4 stages,
    /// with one leading radix-2 stage when `log2 n` is odd — so the
    /// paper's N = 128 and K = 512 both get the radix-4 butterflies);
    /// everything else falls back to Bluestein.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kind = if n == 1 {
            Kind::Identity
        } else if n.is_power_of_two() {
            Kind::Radix4(Arc::new(Radix4::new(n)))
        } else {
            Kind::Bluestein(Arc::new(Bluestein::new(n)))
        };
        Fft { n, kind }
    }

    /// Builds a plan that always uses the radix-2 kernel for powers of
    /// two (for benchmarking against the radix-4 default).
    pub fn new_radix2(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 1, "radix-2 needs a power of two");
        Fft {
            n,
            kind: Kind::Radix2(Arc::new(Radix2::new(n))),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a plan has positive length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Scratch elements one transform of this plan needs: `n` for
    /// mixed-radix power-of-two lengths above 8 (the gather-fused first
    /// stage writes into scratch and the last stage writes back), 0 for
    /// tiny powers of two (n <= 8, done fully in place) and the
    /// benchmark radix-2 kernel, and `m` plus the inner plan's scratch
    /// for Bluestein.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Radix4(r) => r.scratch_len(),
            Kind::Bluestein(b) => b.m + b.inner.scratch_len(),
            _ => 0,
        }
    }

    /// In-place forward DFT. Panics when `data.len() != self.len()`.
    ///
    /// Convenience wrapper around [`Fft::forward_with_scratch`] using a
    /// transient scratch (allocates for Bluestein lengths only).
    pub fn forward(&self, data: &mut [Cx]) {
        self.run(data, Direction::Forward);
    }

    /// In-place inverse DFT including the `1/N` normalization.
    pub fn inverse(&self, data: &mut [Cx]) {
        self.run(data, Direction::Inverse);
    }

    /// In-place transform in the given direction (transient scratch).
    pub fn run(&self, data: &mut [Cx], dir: Direction) {
        let mut scratch = FftScratch::new();
        self.run_with_scratch(data, dir, &mut scratch);
    }

    /// In-place forward DFT reusing `scratch` — the allocation-free
    /// steady-state entry point.
    pub fn forward_with_scratch(&self, data: &mut [Cx], scratch: &mut FftScratch) {
        self.run_with_scratch(data, Direction::Forward, scratch);
    }

    /// In-place inverse DFT reusing `scratch`.
    pub fn inverse_with_scratch(&self, data: &mut [Cx], scratch: &mut FftScratch) {
        self.run_with_scratch(data, Direction::Inverse, scratch);
    }

    /// In-place transform in the given direction, reusing `scratch`.
    pub fn run_with_scratch(&self, data: &mut [Cx], dir: Direction, scratch: &mut FftScratch) {
        assert_eq!(
            data.len(),
            self.n,
            "buffer length {} does not match plan length {}",
            data.len(),
            self.n
        );
        self.run_one(data, dir, scratch);
        self.count_one();
    }

    /// Batched in-place forward DFT over every contiguous `n`-length
    /// lane of `data`. Panics unless `data.len()` is a multiple of the
    /// plan length. Equivalent to (and bit-identical with) calling
    /// [`Fft::forward_with_scratch`] on each lane.
    pub fn forward_lanes(&self, data: &mut [Cx], scratch: &mut FftScratch) {
        self.run_lanes(data, Direction::Forward, scratch);
    }

    /// Batched in-place inverse DFT over every contiguous lane.
    pub fn inverse_lanes(&self, data: &mut [Cx], scratch: &mut FftScratch) {
        self.run_lanes(data, Direction::Inverse, scratch);
    }

    /// Batched in-place transform over every contiguous `n`-length lane.
    pub fn run_lanes(&self, data: &mut [Cx], dir: Direction, scratch: &mut FftScratch) {
        assert_eq!(
            data.len() % self.n,
            0,
            "buffer length {} is not a multiple of plan length {}",
            data.len(),
            self.n
        );
        let lanes = data.len() / self.n;
        for lane in data.chunks_exact_mut(self.n) {
            self.run_one(lane, dir, scratch);
        }
        self.count_many(lanes as u64);
    }

    /// One transform, no flop accounting (callers batch the accounting).
    #[inline]
    fn run_one(&self, data: &mut [Cx], dir: Direction, scratch: &mut FftScratch) {
        scratch.reserve_for(self);
        let s = &mut scratch.buf[..self.scratch_len()];
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => r.run(data, dir),
            Kind::Radix4(r) => r.run(data, dir, s),
            Kind::Bluestein(b) => b.run(data, dir, s),
        }
    }

    /// Flop accounting for one transform. Bluestein accounts for itself
    /// inside [`Bluestein::run`] (chirp multiplies plus the two inner
    /// transforms sum to exactly `nominal_flops`), so it is a no-op here.
    #[inline]
    fn count_one(&self) {
        self.count_many(1);
    }

    #[inline]
    fn count_many(&self, lanes: u64) {
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => flops::add(lanes * 5 * self.n as u64 * r.log2n as u64),
            Kind::Radix4(r) => flops::add(lanes * 5 * self.n as u64 * r.log2n as u64),
            // Counted per call inside `Bluestein::run`.
            Kind::Bluestein(_) => {}
        }
    }

    /// Nominal flop count of one transform of this length (the accounting
    /// convention described in the module docs).
    pub fn nominal_flops(&self) -> u64 {
        match &self.kind {
            Kind::Identity => 0,
            Kind::Radix2(r) => 5 * self.n as u64 * r.log2n as u64,
            Kind::Radix4(r) => 5 * self.n as u64 * r.log2n as u64,
            Kind::Bluestein(b) => {
                let inner = b.inner.nominal_flops();
                // two inner transforms + chirp multiplies (3n complex muls)
                2 * inner + 3 * self.n as u64 * flops::CMUL + b.m as u64 * flops::CMUL
            }
        }
    }
}

impl Radix2 {
    fn new(n: usize) -> Self {
        let log2n = n.trailing_zeros();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut h = 1usize;
        while h < n {
            for k in 0..h {
                twiddles.push(Cx::cis(-PI * k as f64 / h as f64));
            }
            h *= 2;
        }
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - log2n);
        }
        Radix2 {
            twiddles,
            rev,
            log2n,
        }
    }

    #[inline]
    fn bit_reverse(&self, data: &mut [Cx]) {
        for i in 0..data.len() {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn run(&self, data: &mut [Cx], dir: Direction) {
        match dir {
            Direction::Forward => self.stages::<false>(data),
            Direction::Inverse => {
                self.stages::<true>(data);
                let s = 1.0 / data.len() as f64;
                for x in data.iter_mut() {
                    *x = x.scale(s);
                }
            }
        }
    }

    /// All butterfly stages; the direction is a compile-time parameter
    /// so the twiddle-conjugation branch is hoisted out of the loops.
    fn stages<const INV: bool>(&self, data: &mut [Cx]) {
        let n = data.len();
        self.bit_reverse(data);
        // First stage (half-size 1): the twiddle is exactly 1, so the
        // butterflies are pure add/subtract on adjacent pairs.
        for pair in data.chunks_exact_mut(2) {
            let a = pair[0];
            let b = pair[1];
            pair[0] = a + b;
            pair[1] = a - b;
        }
        // Remaining stages; twiddles for half-size h start at offset
        // h-1 (1 + 2 + ... + h/2 = h - 1).
        let mut h = 2usize;
        while h < n {
            let tw = &self.twiddles[h - 1..2 * h - 1];
            for chunk in data.chunks_exact_mut(2 * h) {
                let (lo, hi) = chunk.split_at_mut(h);
                for ((x, y), &w0) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let w = if INV { w0.conj() } else { w0 };
                    let a = *x;
                    let b = *y * w;
                    *x = a + b;
                    *y = a - b;
                }
            }
            h *= 2;
        }
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Fft::new(m);
        // chirp[k] = e^{-i pi k^2 / n}; compute k^2 mod 2n to avoid
        // precision loss for large k.
        let chirp: Vec<Cx> = (0..n)
            .map(|k| {
                let kk = (k * k) % (2 * n);
                Cx::cis(-PI * kk as f64 / n as f64)
            })
            .collect();
        let mut b = vec![ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        // Plan construction counts no flops (plans are built once).
        let (_, _setup_flops) = flops::count(|| inner.run(&mut b, Direction::Forward));
        Bluestein {
            chirp,
            bfft: b,
            inner,
            m,
        }
    }

    /// One chirp-Z transform using the caller's pre-sized scratch slice
    /// (`m` staging elements followed by the inner plan's scratch).
    fn run(&self, data: &mut [Cx], dir: Direction, scratch: &mut [Cx]) {
        let n = data.len();
        // For the inverse transform, conjugate in, conjugate out, divide by n.
        let conj_io = dir == Direction::Inverse;
        let (a, inner_scratch) = scratch.split_at_mut(self.m);
        a.fill(ZERO);
        for k in 0..n {
            let x = if conj_io { data[k].conj() } else { data[k] };
            a[k] = x * self.chirp[k];
        }
        self.inner_run(a, Direction::Forward, inner_scratch);
        for (x, b) in a.iter_mut().zip(self.bfft.iter()) {
            *x *= *b;
        }
        self.inner_run(a, Direction::Inverse, inner_scratch);
        for k in 0..n {
            let y = a[k] * self.chirp[k];
            data[k] = if conj_io {
                y.conj().scale(1.0 / n as f64)
            } else {
                y
            };
        }
        flops::add(3 * n as u64 * flops::CMUL + self.m as u64 * flops::CMUL);
    }

    /// Inner power-of-two transform with its own flop accounting (these
    /// are the "two inner transforms" in `nominal_flops`).
    #[inline]
    fn inner_run(&self, data: &mut [Cx], dir: Direction, scratch: &mut [Cx]) {
        match &self.inner.kind {
            Kind::Radix2(r) => {
                r.run(data, dir);
                flops::add(5 * self.m as u64 * r.log2n as u64);
            }
            Kind::Radix4(r) => {
                r.run(data, dir, scratch);
                flops::add(5 * self.m as u64 * r.log2n as u64);
            }
            _ => unreachable!("Bluestein inner plan is always a power of two > 1"),
        }
    }
}

struct Radix4 {
    /// Gather indices of the mixed digit-reversal permutation:
    /// `src[p]` is the *input* position of the element the first
    /// butterfly stage reads at permuted position `p`. Instead of a
    /// separate in-place permutation pass (random read-modify-write
    /// swaps) the first stage gathers its inputs through this table and
    /// writes its outputs sequentially into the scratch buffer — the
    /// permutation rides along for free. Empty for single-stage plans
    /// (n <= 8), whose digit reversal is the identity.
    ///
    /// The stage factor sequence is `[8, 4, 4, ...]` for odd
    /// `log2 n >= 3` (a twiddle-free 8-point first stage absorbs the
    /// odd power — one memory pass and 4 real multiplies per group,
    /// versus a whole extra radix-2 pass; the paper's N = 128 and
    /// K = 512 are both odd powers, so this is their hot path),
    /// `[4, 4, ...]` for even `log2 n`, and `[2]` for n = 2.
    src: Vec<u32>,
    /// Per-radix-4-stage twiddle triples `[w^k, w^2k, w^3k]` with
    /// `w = e^{-2 pi i / 4h}`, one table per non-trivial butterfly
    /// stage (quarter-sizes `first_h`, `4 first_h`, ...). Precomputing
    /// the squared and cubed factors saves two complex multiplies per
    /// butterfly.
    stages: Vec<Vec<[Cx; 3]>>,
    /// Quarter-size of the first tabled radix-4 stage: equals the first
    /// stage's factor (2, 4, or 8).
    first_h: usize,
    /// First-stage factor: 2 (n = 2 only), 4 (even log2 n), or 8 (odd
    /// log2 n >= 3).
    first: usize,
    n: usize,
    log2n: u32,
}

impl Radix4 {
    fn new(n: usize) -> Self {
        let log2n = n.trailing_zeros();
        let odd = log2n % 2 == 1;
        // Stage factors, first stage first.
        let mut factors: Vec<usize> = Vec::new();
        let first = if n == 2 {
            2
        } else if odd {
            8
        } else {
            4
        };
        factors.push(first);
        let remaining = log2n as usize - first.trailing_zeros() as usize;
        factors.resize(factors.len() + remaining / 2, 4);
        // Mixed digit-reversal: element i moves to position rev(i),
        // where the most significant output digit is `i % f_last`
        // (each DIT stage's sub-sequences are the residues mod its
        // factor, taken outermost-last). Stored inverted as a gather
        // table: src[rev(i)] = i.
        let mut src = vec![0u32; n];
        for i in 0..n {
            let mut acc = 0usize;
            let mut x = i;
            let mut block = n;
            for &f in factors.iter().rev() {
                block /= f;
                acc += (x % f) * block;
                x /= f;
            }
            src[acc] = i as u32;
        }
        // Single-stage plans (one factor) have the identity permutation
        // and run fully in place; drop the table.
        if factors.len() == 1 {
            debug_assert!(src.iter().enumerate().all(|(p, &s)| p == s as usize));
            src.clear();
        }
        // Twiddle tables for the radix-4 stages with non-trivial
        // twiddles (the first stage — radix-2, -4 or -8 — needs no
        // table and is specialized in `butterflies`).
        let first_h = first;
        let mut stages = Vec::new();
        let mut h = first_h;
        while 4 * h <= n {
            let step = 4 * h;
            stages.push(
                (0..h)
                    .map(|k| {
                        let w1 = Cx::cis(-2.0 * PI * k as f64 / step as f64);
                        let w2 = w1 * w1;
                        let w3 = w2 * w1;
                        [w1, w2, w3]
                    })
                    .collect(),
            );
            h = step;
        }
        Radix4 {
            src,
            stages,
            first_h,
            first,
            n,
            log2n,
        }
    }

    /// Scratch elements one transform needs: `n` for multi-stage plans
    /// (the first stage gathers into scratch, the last writes back into
    /// the caller's buffer), 0 for single-stage plans (n <= 8).
    fn scratch_len(&self) -> usize {
        if self.stages.is_empty() {
            0
        } else {
            self.n
        }
    }

    fn run(&self, data: &mut [Cx], dir: Direction, scratch: &mut [Cx]) {
        match dir {
            Direction::Forward => self.butterflies::<false>(data, scratch),
            Direction::Inverse => {
                self.butterflies::<true>(data, scratch);
                let s = 1.0 / data.len() as f64;
                for x in data.iter_mut() {
                    *x = x.scale(s);
                }
            }
        }
    }

    /// Multiplies by `-i` (forward) or `+i` (inverse) as a swap/negate —
    /// a complex multiply by an exact axis rotation is just component
    /// shuffling, saving one full multiply per radix-4 butterfly (the
    /// results are identical up to the sign of zeros).
    #[inline(always)]
    fn rot90<const INV: bool>(x: Cx) -> Cx {
        if INV {
            Cx::new(-x.im, x.re)
        } else {
            Cx::new(x.im, -x.re)
        }
    }

    /// Multiplies by `e^{-i pi / 4}` (forward) or its conjugate
    /// (inverse): the only non-trivial twiddle of the 8-point first
    /// stage, costing 2 real multiplies instead of a full complex one.
    #[inline(always)]
    fn w8<const INV: bool>(x: Cx) -> Cx {
        const S: f64 = std::f64::consts::FRAC_1_SQRT_2;
        if INV {
            // (s + i s)(re + i im) = s (re - im) + i s (re + im)
            Cx::new(S * (x.re - x.im), S * (x.re + x.im))
        } else {
            // (s - i s)(re + i im) = s (re + im) + i s (im - re)
            Cx::new(S * (x.re + x.im), S * (x.im - x.re))
        }
    }

    /// 4-point DFT of `(a, b, c, d)` in natural order (no twiddles).
    #[inline(always)]
    fn dft4<const INV: bool>(a: Cx, b: Cx, c: Cx, d: Cx) -> [Cx; 4] {
        let apc = a + c;
        let amc = a - c;
        let bpd = b + d;
        let bmd = Self::rot90::<INV>(b - d);
        [apc + bpd, amc + bmd, apc - bpd, amc - bmd]
    }

    /// The twiddle-free first stage in place on `data` — radix-2 pairs
    /// (n = 2), radix-4 quads (even log2 n), or full 8-point DFTs (odd
    /// log2 n, the paper's N = 128 / K = 512 path) whose only
    /// non-trivial factors are +-i and e^{-i pi/4}. Used for
    /// single-stage plans (n <= 8), where the digit reversal is the
    /// identity and no scratch is needed.
    fn first_stage_in_place<const INV: bool>(&self, data: &mut [Cx]) {
        match self.first {
            2 => {
                for pair in data.chunks_exact_mut(2) {
                    let a = pair[0];
                    let b = pair[1];
                    pair[0] = a + b;
                    pair[1] = a - b;
                }
            }
            4 => {
                for q in data.chunks_exact_mut(4) {
                    let [y0, y1, y2, y3] = Self::dft4::<INV>(q[0], q[1], q[2], q[3]);
                    q[0] = y0;
                    q[1] = y1;
                    q[2] = y2;
                    q[3] = y3;
                }
            }
            _ => {
                for g in data.chunks_exact_mut(8) {
                    let [y0, y1, y2, y3, y4, y5, y6, y7] =
                        Self::dft8::<INV>([g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]]);
                    g[0] = y0;
                    g[1] = y1;
                    g[2] = y2;
                    g[3] = y3;
                    g[4] = y4;
                    g[5] = y5;
                    g[6] = y6;
                    g[7] = y7;
                }
            }
        }
    }

    /// 8-point DFT of naturally-ordered inputs:
    /// `X[k] = E[k] + w8^k O[k]`, `X[k + 4] = E[k] - w8^k O[k]` with
    /// E/O the 4-point DFTs of the even/odd samples, `w8^1 = e^{-i pi/4}`,
    /// `w8^2 = -i`, `w8^3 = -i w8^1` — 4 real multiplies total.
    #[inline(always)]
    fn dft8<const INV: bool>(g: [Cx; 8]) -> [Cx; 8] {
        let e = Self::dft4::<INV>(g[0], g[2], g[4], g[6]);
        let o = Self::dft4::<INV>(g[1], g[3], g[5], g[7]);
        let t0 = o[0];
        let t1 = Self::w8::<INV>(o[1]);
        let t2 = Self::rot90::<INV>(o[2]);
        let t3 = Self::rot90::<INV>(Self::w8::<INV>(o[3]));
        [
            e[0] + t0,
            e[1] + t1,
            e[2] + t2,
            e[3] + t3,
            e[0] - t0,
            e[1] - t1,
            e[2] - t2,
            e[3] - t3,
        ]
    }

    /// Decimation-in-time butterflies; direction is a compile-time
    /// parameter (the -i factor flips sign and twiddles conjugate for
    /// the inverse transform).
    ///
    /// Multi-stage plans never run a standalone permutation pass: the
    /// first stage gathers its inputs through `src` (absorbing the
    /// digit reversal) and writes sequentially into `scratch`, the
    /// middle stages run in place on `scratch`, and the last stage
    /// reads `scratch` while writing its outputs into the caller's
    /// buffer — the data lands back in `data` without a copy pass.
    #[allow(clippy::needless_continue)]
    fn butterflies<const INV: bool>(&self, data: &mut [Cx], scratch: &mut [Cx]) {
        if self.stages.is_empty() {
            // n <= 8: identity permutation, single twiddle-free stage.
            self.first_stage_in_place::<INV>(data);
            return;
        }
        let scratch = &mut scratch[..self.n];
        // First stage, fused with the digit-reversal gather.
        match self.first {
            4 => {
                for (q, idx) in scratch.chunks_exact_mut(4).zip(self.src.chunks_exact(4)) {
                    let [y0, y1, y2, y3] = Self::dft4::<INV>(
                        data[idx[0] as usize],
                        data[idx[1] as usize],
                        data[idx[2] as usize],
                        data[idx[3] as usize],
                    );
                    q[0] = y0;
                    q[1] = y1;
                    q[2] = y2;
                    q[3] = y3;
                }
            }
            _ => {
                for (g, idx) in scratch.chunks_exact_mut(8).zip(self.src.chunks_exact(8)) {
                    let y = Self::dft8::<INV>([
                        data[idx[0] as usize],
                        data[idx[1] as usize],
                        data[idx[2] as usize],
                        data[idx[3] as usize],
                        data[idx[4] as usize],
                        data[idx[5] as usize],
                        data[idx[6] as usize],
                        data[idx[7] as usize],
                    ]);
                    g.copy_from_slice(&y);
                }
            }
        }
        // Middle radix-4 stages with tabled twiddles, in place on
        // scratch. Iterator zips (rather than indexed loops) let the
        // compiler drop the bounds checks in the innermost butterfly.
        // The AVX2 path runs two butterflies per iteration with the
        // identical operation order (`h` is a power of two >= 4 for
        // every tabled stage, so the pairing is exact).
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = simd::backend() == simd::Backend::Avx2;
        let (middle, lastv) = self.stages.split_at(self.stages.len() - 1);
        let mut h = self.first_h;
        for tw in middle {
            let step = 4 * h;
            for chunk in scratch.chunks_exact_mut(step) {
                let (q01, q23) = chunk.split_at_mut(2 * h);
                let (q0, q1) = q01.split_at_mut(h);
                let (q2, q3) = q23.split_at_mut(h);
                #[cfg(target_arch = "x86_64")]
                if use_avx2 {
                    // SAFETY: AVX2 established above; the quarter and
                    // twiddle slices all hold exactly `h` elements.
                    unsafe { simd::avx2::radix4_stage::<INV>(q0, q1, q2, q3, &tw[..h]) };
                    continue;
                }
                let it = q0
                    .iter_mut()
                    .zip(q1.iter_mut())
                    .zip(q2.iter_mut())
                    .zip(q3.iter_mut())
                    .zip(tw.iter());
                for ((((x0, x1), x2), x3), &[w1, w2, w3]) in it {
                    let (w1, w2, w3) = if INV {
                        (w1.conj(), w2.conj(), w3.conj())
                    } else {
                        (w1, w2, w3)
                    };
                    let a = *x0;
                    let b = *x1 * w1;
                    let c = *x2 * w2;
                    let d = *x3 * w3;
                    let apc = a + c;
                    let amc = a - c;
                    let bpd = b + d;
                    let bmd = Self::rot90::<INV>(b - d);
                    *x0 = apc + bpd;
                    *x1 = amc + bmd;
                    *x2 = apc - bpd;
                    *x3 = amc - bmd;
                }
            }
            h = step;
        }
        // Last stage out of place: read scratch, write the caller's
        // buffer.
        let tw = &lastv[0];
        let step = 4 * h;
        for (dst, srcc) in data.chunks_exact_mut(step).zip(scratch.chunks_exact(step)) {
            let (s01, s23) = srcc.split_at(2 * h);
            let (s0, s1) = s01.split_at(h);
            let (s2, s3) = s23.split_at(h);
            let (d01, d23) = dst.split_at_mut(2 * h);
            let (d0, d1) = d01.split_at_mut(h);
            let (d2, d3) = d23.split_at_mut(h);
            #[cfg(target_arch = "x86_64")]
            if use_avx2 {
                // SAFETY: AVX2 established above; sources (scratch) and
                // destinations (data) are disjoint buffers of `h`
                // elements per quarter.
                unsafe {
                    simd::avx2::radix4_stage_oop::<INV>(d0, d1, d2, d3, s0, s1, s2, s3, &tw[..h]);
                }
                continue;
            }
            let srcs = s0.iter().zip(s1).zip(s2).zip(s3);
            let dsts = d0.iter_mut().zip(d1).zip(d2).zip(d3);
            for (((((y0, y1), y2), y3), (((x0, x1), x2), x3)), &[w1, w2, w3]) in
                dsts.zip(srcs).zip(tw.iter())
            {
                let (w1, w2, w3) = if INV {
                    (w1.conj(), w2.conj(), w3.conj())
                } else {
                    (w1, w2, w3)
                };
                let a = *x0;
                let b = *x1 * w1;
                let c = *x2 * w2;
                let d = *x3 * w3;
                let apc = a + c;
                let amc = a - c;
                let bpd = b + d;
                let bmd = Self::rot90::<INV>(b - d);
                *y0 = apc + bpd;
                *y1 = amc + bmd;
                *y2 = apc - bpd;
                *y3 = amc - bmd;
            }
        }
    }
}

/// Naive O(n^2) DFT used as a test oracle.
pub fn dft_naive(input: &[Cx], dir: Direction) -> Vec<Cx> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let scale = match dir {
        Direction::Forward => 1.0,
        Direction::Inverse => 1.0 / n as f64,
    };
    (0..n)
        .map(|k| {
            let mut acc = ZERO;
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * 2.0 * PI * (k * j % n) as f64 / n as f64;
                acc += x * Cx::cis(ang);
            }
            acc.scale(scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Cx], b: &[Cx]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Cx> {
        (0..n)
            .map(|k| Cx::new(k as f64 * 0.25 - 1.0, (k as f64 * 0.1).sin()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 64, 128, 512] {
            let x = ramp(n);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let want = dft_naive(&x, Direction::Forward);
            assert!(max_err(&y, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_sizes() {
        for n in [3usize, 5, 6, 12, 100, 125] {
            let x = ramp(n);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let want = dft_naive(&x, Direction::Forward);
            assert!(max_err(&y, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [1usize, 2, 7, 128, 384, 512] {
            let x = ramp(n);
            let mut y = x.clone();
            let plan = Fft::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&y, &x) < 1e-9 * (n.max(4)) as f64, "n={n}");
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut x = vec![ZERO; n];
        x[0] = Cx::real(1.0);
        Fft::new(n).forward(&mut x);
        for v in &x {
            assert!(v.approx_eq(Cx::real(1.0), 1e-12));
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 128;
        let bin = 17;
        let mut x: Vec<Cx> = (0..n)
            .map(|t| Cx::cis(2.0 * PI * bin as f64 * t as f64 / n as f64))
            .collect();
        Fft::new(n).forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == bin {
                assert!((v.abs() - n as f64).abs() < 1e-8);
            } else {
                assert!(v.abs() < 1e-8, "leak at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = ramp(n);
        let b: Vec<Cx> = (0..n).map(|k| Cx::new(-(k as f64), 2.0)).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fab: Vec<Cx> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab);
        let want: Vec<Cx> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fab, &want) < 1e-9);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 256;
        let x = ramp(n);
        let mut y = x.clone();
        Fft::new(n).forward(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-8 * ex);
    }

    #[test]
    fn flop_count_is_5nlogn_for_radix2() {
        let n = 128;
        let plan = Fft::new(n);
        let mut x = ramp(n);
        let ((), counted) = flops::count(|| plan.forward(&mut x));
        assert_eq!(counted, 5 * 128 * 7);
        assert_eq!(plan.nominal_flops(), 5 * 128 * 7);
    }

    #[test]
    fn flop_count_identical_for_scratch_and_batched_paths() {
        let n = 128;
        let lanes = 6;
        let plan = Fft::new(n);
        let mut scratch = FftScratch::for_plan(&plan);
        let mut x = ramp(n);
        let ((), one) = flops::count(|| plan.forward_with_scratch(&mut x, &mut scratch));
        assert_eq!(one, plan.nominal_flops());
        let mut many = ramp(n * lanes);
        let ((), batched) = flops::count(|| plan.forward_lanes(&mut many, &mut scratch));
        assert_eq!(batched, lanes as u64 * plan.nominal_flops());
    }

    #[test]
    fn bluestein_flop_count_matches_nominal() {
        let n = 100;
        let plan = Fft::new(n);
        let mut scratch = FftScratch::for_plan(&plan);
        let mut x = ramp(n);
        let ((), counted) = flops::count(|| plan.forward_with_scratch(&mut x, &mut scratch));
        assert_eq!(counted, plan.nominal_flops());
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn length_mismatch_panics() {
        let plan = Fft::new(8);
        let mut x = vec![ZERO; 4];
        plan.forward(&mut x);
    }

    #[test]
    fn radix4_matches_radix2_exactly_in_shape() {
        // Same transform, two kernels: results agree to rounding.
        for n in [4usize, 16, 64, 256, 1024] {
            let x = ramp(n);
            let mut a = x.clone();
            let mut b = x.clone();
            Fft::new(n).forward(&mut a); // radix-4 path (n is a power of 4)
            Fft::new_radix2(n).forward(&mut b);
            assert!(max_err(&a, &b) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn radix4_roundtrip_and_parseval() {
        let n = 256;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-8 * ex);
        plan.inverse(&mut y);
        assert!(max_err(&y, &x) < 1e-9 * n as f64);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![Cx::new(3.0, -2.0)];
        let plan = Fft::new(1);
        plan.forward(&mut x);
        plan.inverse(&mut x);
        assert!(x[0].approx_eq(Cx::new(3.0, -2.0), 1e-15));
    }

    #[test]
    fn scratch_path_is_bit_identical_to_plain_path() {
        for n in [2usize, 8, 64, 128, 100, 37] {
            let plan = Fft::new(n);
            let mut scratch = FftScratch::new();
            for dir in [Direction::Forward, Direction::Inverse] {
                let x = ramp(n);
                let mut a = x.clone();
                let mut b = x.clone();
                plan.run(&mut a, dir);
                plan.run_with_scratch(&mut b, dir, &mut scratch);
                assert_eq!(
                    a.iter()
                        .map(|v| (v.re.to_bits(), v.im.to_bits()))
                        .collect::<Vec<_>>(),
                    b.iter()
                        .map(|v| (v.re.to_bits(), v.im.to_bits()))
                        .collect::<Vec<_>>(),
                    "n={n} dir={dir:?}"
                );
            }
        }
    }

    #[test]
    fn batched_lanes_bit_identical_to_per_lane_calls() {
        for n in [8usize, 128, 60] {
            let lanes = 5;
            let plan = Fft::new(n);
            let mut scratch = FftScratch::new();
            let data = ramp(n * lanes);
            let mut batched = data.clone();
            plan.forward_lanes(&mut batched, &mut scratch);
            let mut per_lane = data.clone();
            for lane in per_lane.chunks_exact_mut(n) {
                plan.forward_with_scratch(lane, &mut scratch);
            }
            let bits = |v: &[Cx]| {
                v.iter()
                    .map(|x| (x.re.to_bits(), x.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&batched), bits(&per_lane), "n={n}");
        }
    }

    #[test]
    fn bluestein_scratch_is_reused_across_calls() {
        // The documented wart ("allocates a scratch internally per
        // call") is gone: repeated transforms through one workspace
        // never grow it after the first call.
        let n = 100; // not a power of two -> Bluestein
        let plan = Fft::new(n);
        assert!(plan.scratch_len() > 0);
        let mut scratch = FftScratch::new();
        let mut x = ramp(n);
        plan.forward_with_scratch(&mut x, &mut scratch);
        let cap_after_first = scratch.capacity();
        assert!(cap_after_first >= plan.scratch_len());
        for _ in 0..50 {
            plan.forward_with_scratch(&mut x, &mut scratch);
            plan.inverse_with_scratch(&mut x, &mut scratch);
        }
        assert_eq!(
            scratch.capacity(),
            cap_after_first,
            "scratch reallocated during steady state"
        );
    }

    #[test]
    fn one_scratch_serves_many_plans() {
        let plans: Vec<Fft> = [100usize, 37, 128, 250]
            .iter()
            .map(|&n| Fft::new(n))
            .collect();
        let mut scratch = FftScratch::new();
        for plan in &plans {
            let mut x = ramp(plan.len());
            plan.forward_with_scratch(&mut x, &mut scratch);
            let want = dft_naive(&ramp(plan.len()), Direction::Forward);
            assert!(max_err(&x, &want) < 1e-7 * plan.len() as f64);
        }
    }

    #[test]
    fn presized_scratch_covers_plan() {
        let plan = Fft::new(77);
        let s = FftScratch::for_plan(&plan);
        assert!(s.capacity() >= plan.scratch_len());
        let s2 = FftScratch::for_plan(&Fft::new(64));
        assert!(s2.capacity() >= 64); // pow2 stages into an n-slot scratch
        let s3 = FftScratch::for_plan(&Fft::new(8));
        assert_eq!(s3.capacity(), 0); // tiny pow2 runs fully in place
    }
}
