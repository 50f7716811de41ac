//! Numerical kernels for the parallel pipelined STAP reproduction.
//!
//! This crate is self-contained (no external linear-algebra or FFT
//! dependencies) and provides everything the STAP signal-processing chain
//! needs:
//!
//! * [`Cx`] — double-precision complex numbers,
//! * [`fft`] — radix-2 and Bluestein FFTs with a reusable [`fft::Fft`] plan,
//! * [`window`] — Hanning/Hamming/rectangular tapers,
//! * [`mat::CMat`] — dense complex matrices with a cache-friendly multiply,
//! * [`gemm`] — the split-complex (planar SoA) GEMM engine behind the
//!   beamforming/weight hot path, with packed zero-alloc scratch,
//! * [`qr`] — Householder QR, recursive (exponentially forgotten) QR
//!   updates and block constraint updates,
//! * [`solve`] — back substitution and constrained least squares,
//! * [`flops`] — thread-local floating-point-operation accounting used to
//!   regenerate Table 1 of the paper,
//! * [`simd`] — runtime-dispatched AVX2 backend for the hot inner loops
//!   (bit-identical to the scalar fallback; `STAP_SIMD=off` forces scalar).
//!
//! The heavy kernels count the flops they perform through [`flops`], so the
//! paper's operation counts can be measured rather than merely asserted.

pub mod complex;
pub mod fft;
pub mod flops;
pub mod gemm;
pub mod mat;
pub mod qr;
pub mod simd;
pub mod solve;
pub mod window;

pub use complex::Cx;
pub use mat::CMat;
