//! Pluggable rank-to-rank transports.
//!
//! The paper ran on real parallel machines (Paragon, SP-2); this crate
//! historically ran every rank as an in-process thread over mpsc
//! channels. This module abstracts the byte-moving layer behind
//! [`WireLink`] so the *same* [`crate::Comm`] — tag/source matching,
//! unexpected-message mailbox, fault injection, span tracing — runs over
//! two interchangeable fabrics:
//!
//! * **inproc** — the original channel backend (typed messages, no
//!   serialization; ranks are threads of one process),
//! * **tcp** — one OS process per rank, length-prefixed frames over
//!   loopback/network sockets with a rendezvous coordinator (see
//!   [`crate::tcp`]).
//!
//! Everything above the link is transport-agnostic: `Comm` owns the
//! mailbox and the fault/trace planes, so drop/dup/delay injection and
//! per-edge byte attribution behave identically on every backend — the
//! property the cross-transport parity tests pin down.

use crate::comm::Tag;
use std::time::Duration;

/// Which fabric a world runs on. Parsed from `--transport` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Threads in one process over mpsc channels (the default).
    InProc,
    /// One process per rank over loopback TCP sockets.
    Tcp,
}

impl TransportKind {
    /// Stable lowercase name (the `--transport` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }

    /// All transports, in documentation order.
    pub const ALL: [TransportKind; 2] = [TransportKind::InProc, TransportKind::Tcp];
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inproc" => Ok(TransportKind::InProc),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (expected inproc|tcp)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced by [`WireLink::recv_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// No frame arrived within the timeout.
    Timeout,
    /// Every peer endpoint is gone; no frame can ever arrive again.
    Disconnected,
}

/// One tagged frame received from a peer. The payload borrows the link's
/// receive buffer, which the next call on the link reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame<'a> {
    /// Sending rank.
    pub src: usize,
    /// Message tag (or a control tag in the reserved range).
    pub tag: Tag,
    /// Encoded payload bytes.
    pub payload: &'a [u8],
}

/// A byte-moving fabric between `size()` ranks.
///
/// Implementations move length-prefixed tagged frames; everything
/// message-shaped (typing, matching, buffering, fault rules, tracing)
/// lives above in [`crate::Comm`]. Links are owned by exactly one rank
/// endpoint, so methods take `&mut self`; `Comm` wraps the link in a
/// `RefCell` to keep its own `send(&self)` signature.
///
/// Tags at or above [`CTRL_RESERVED_BASE`] are reserved for `Comm`'s
/// control plane (the teardown goodbye); sending application data with
/// such a tag over a wire transport panics, and `Comm` discards any
/// other frame it receives in that range.
pub trait WireLink: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the world.
    fn size(&self) -> usize;
    /// Sends one frame to `dst`. Never blocks indefinitely on a healthy
    /// world; on a torn-down peer the frame may be silently discarded
    /// (mirroring the channel backend's send-to-dropped-rank semantics).
    fn send_frame(&mut self, dst: usize, tag: Tag, payload: &[u8]);
    /// Waits up to `timeout` for the next frame from any peer.
    /// `Duration::ZERO` polls without sleeping.
    fn recv_frame(&mut self, timeout: Duration) -> Result<WireFrame<'_>, LinkError>;
    /// Releases fabric resources (sockets, mappings). Called once from
    /// `Comm::drop` after the goodbye handshake.
    fn close(&mut self) {}
}

/// Byte codec for a message type `M` carried over a [`WireLink`].
///
/// Plain function pointers (not closures) so the codec is `Copy` and
/// carries no state — mirroring the `bytes_of` attribution hook in
/// [`crate::trace`].
pub struct WireCodec<M> {
    /// Appends the encoding of a message to `out` (which arrives
    /// cleared; implementations must not assume capacity).
    pub encode: fn(&M, &mut Vec<u8>),
    /// Decodes one message from exactly the bytes `encode` produced.
    pub decode: fn(&[u8]) -> M,
}

impl<M> Clone for WireCodec<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for WireCodec<M> {}

/// The receiving and sending rank's buffer pool, seen from the wire.
/// Installed on an endpoint with [`crate::Comm::install_wire_pool`], it
/// decodes every received data frame in place of [`WireCodec::decode`],
/// drawing the message's buffers from the pool, and takes back every
/// sent message once [`WireCodec::encode`] has copied it onto the wire.
/// The local fabric moves messages by value and never calls either.
pub trait WirePool<M>: Send {
    /// Decodes one frame to the message `WireCodec::decode` would give.
    fn decode(&self, bytes: &[u8]) -> M;
    /// Receives a sent message back after its encoding.
    fn retire(&self, msg: M);
}

/// Tags at or above this value are reserved for the wire control plane.
/// The STAP pipeline's tag scheme (`edge << 48 | cpi`) tops out ten
/// edges, comfortably below.
pub const CTRL_RESERVED_BASE: Tag = Tag::MAX - 15;

/// Peer is exiting cleanly; world disconnect = goodbyes from every peer.
pub(crate) const CTRL_GOODBYE: Tag = Tag::MAX - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_and_displays() {
        for k in TransportKind::ALL {
            assert_eq!(k.name().parse::<TransportKind>().unwrap(), k);
            assert_eq!(format!("{k}"), k.name());
        }
        for gone in ["mpi", "shm"] {
            assert!(gone.parse::<TransportKind>().is_err(), "{gone}");
        }
    }

    #[test]
    fn control_tags_sit_in_the_reserved_range() {
        const { assert!(CTRL_GOODBYE >= CTRL_RESERVED_BASE) };
    }
}
