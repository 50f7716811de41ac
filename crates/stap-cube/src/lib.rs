//! 3-D data cubes and parallel redistribution plans.
//!
//! A CPI travels through the STAP pipeline as a sequence of 3-D cubes in
//! task-specific layouts:
//!
//! * raw CPI `(K range, J channel, N pulse)` — unit stride along pulses so
//!   Doppler FFTs stream contiguous memory,
//! * staggered Doppler output `(K, 2J, N)`,
//! * beamformer input `(N, K, 2J)` — the *reorganized* layout of Fig. 8,
//! * beamformed output `(N, M, K)`, pulse-compressed power `(N, M, K)`.
//!
//! Tasks partition these cubes along different axes (Doppler filtering
//! along `K`, everything downstream along `N`), which forces the
//! *all-to-all personalized* redistribution with per-message packing the
//! paper spends Section 5 on. [`RedistPlan`] computes exactly which
//! sub-block every (sender, receiver) pair exchanges and
//! [`Cube::extract_permuted`] performs the strided "data reorganization"
//! copy.

pub mod corner;
pub mod cube;
pub mod partition;
pub mod pool;
pub mod redist;
pub mod view;

pub use corner::BinBlock;
pub use cube::{CCube, Cube, RCube};
pub use partition::{block_ranges, AxisPartition};
pub use pool::{BufferPool, PoolStats, SharedBufferPool};
pub use redist::{RedistBlock, RedistPlan};
pub use view::CubeView;
