//! The buffer pools every rank of one session shares (the task loops
//! themselves live in [`crate::resident`]).

use stap_cube::SharedBufferPool;
use stap_math::Cx;

/// Process-wide recycling pools for redistribution message buffers.
/// One instance is shared (by reference) across every node thread of a
/// pipeline run; senders draw packing buffers, receivers retire consumed
/// messages, and the global balance keeps the steady state allocation
/// free.
#[derive(Clone, Default)]
pub struct PipelinePools {
    /// Complex blocks: driver input slabs, Doppler and beamform edges.
    pub cx: SharedBufferPool<Cx>,
    /// Real blocks: the pulse compression to CFAR edge.
    pub real: SharedBufferPool<f64>,
}
