//! Wire-transport integration: the full `Comm` stack (matching,
//! mailbox, faults, tracing, disconnect) over the TCP link,
//! exercised by threads standing in for rank processes. The
//! multi-*process* path is covered end-to-end by the cluster tests in
//! `stap-bench`; here the links themselves and the `Comm` control plane
//! are pinned down in isolation.

use stap_mp::{
    Comm, FaultPlan, RecvError, TcpLink, TraceKind, TraceSink, WireCodec, WireLink,
    CTRL_RESERVED_BASE,
};
use std::time::Duration;

fn u64_codec() -> WireCodec<u64> {
    WireCodec {
        encode: |m, out| out.extend_from_slice(&m.to_le_bytes()),
        decode: |b| u64::from_le_bytes(b.try_into().expect("u64 frame")),
    }
}

fn vec_codec() -> WireCodec<Vec<u8>> {
    WireCodec {
        encode: |m, out| out.extend_from_slice(m),
        decode: |b| b.to_vec(),
    }
}

/// Builds an `n`-rank TCP mesh, index = rank.
fn build_links(n: usize) -> Vec<TcpLink> {
    let (addr, coord) = stap_mp::spawn_coordinator(n).unwrap();
    let links = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let addr = &addr;
                s.spawn(move || TcpLink::rendezvous(addr, r, n).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    coord.join().unwrap().unwrap();
    links
}

/// Runs one closure per rank over freshly built wire comms.
fn run_wire<M, R, F>(n: usize, codec: WireCodec<M>, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Comm<M>) -> R + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = build_links(n)
            .into_iter()
            .map(|link| {
                let f = &f;
                s.spawn(move || f(Comm::over_wire(Box::new(link), codec)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn ring_pass_and_out_of_order_matching() {
    let n = 4;
    let out = run_wire(n, u64_codec(), |mut comm| {
        let me = comm.rank();
        assert_eq!(comm.size(), n);
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        // Two tags sent in one order, received in the other.
        comm.send(next, 2, (me * 10 + 2) as u64);
        comm.send(next, 1, (me * 10 + 1) as u64);
        let a = comm.recv(prev, 1).unwrap();
        let b = comm.recv(prev, 2).unwrap();
        a + b
    });
    for (me, v) in out.iter().enumerate() {
        let prev = (me + n - 1) % n;
        assert_eq!(*v, (prev * 10 + 1 + prev * 10 + 2) as u64, "rank {me}");
    }
}

#[test]
fn self_send_loops_back_without_the_link() {
    run_wire(2, u64_codec(), |mut comm| {
        let me = comm.rank() as u64;
        comm.send(comm.rank(), 9, me + 100);
        assert_eq!(comm.recv(comm.rank(), 9).unwrap(), me + 100);
    });
}

#[test]
fn clean_exit_disconnects_blocked_peers() {
    // Disconnect means *every* peer exited (the wire analogue of the
    // local fabric's `alive <= 1` counter): ranks 0 and 1 leave
    // immediately, and rank 2's blocked receive must fail fast on
    // their goodbyes instead of hanging.
    run_wire(3, u64_codec(), |mut comm| {
        if comm.rank() == 2 {
            assert_eq!(
                comm.recv(0, 1).unwrap_err(),
                RecvError::Disconnected,
                "rank 2 must not hang"
            );
        }
    });
}

#[test]
fn variable_length_payloads_round_trip_bitwise() {
    run_wire(2, vec_codec(), |mut comm| {
        if comm.rank() == 0 {
            for len in [0usize, 1, 13, 4096, 70_000] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                comm.send(1, len as u64, payload);
            }
        } else {
            for len in [0usize, 1, 13, 4096, 70_000] {
                let got = comm.recv(0, len as u64).unwrap();
                let want: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                assert_eq!(got, want, "payload of {len}");
            }
        }
    });
}

#[test]
fn crossing_large_frames_complete_before_either_rank_receives() {
    // Both ranks send first: each frame is far larger than what the
    // fabric buffers, so a rank blocked in its send must keep draining
    // the frame coming the other way or neither send ever finishes.
    const LEN: usize = 24 << 20;
    let pattern = |rank: usize| -> Vec<u8> {
        (0..LEN)
            .map(|i| (i.wrapping_mul(2654435761) >> (8 * rank)) as u8)
            .collect()
    };
    run_wire(2, vec_codec(), |mut comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        comm.send(peer, 1, pattern(me));
        let got = comm.recv(peer, 1).unwrap();
        assert!(got == pattern(peer), "rank {me} got a damaged frame");
    });
}

#[test]
fn fault_drop_and_delay_rules_apply_over_the_wire() {
    use stap_mp::{FaultAction, FaultRule, TagPattern};
    run_wire(2, u64_codec(), |mut comm| {
        let plan = FaultPlan::seeded(7)
            .rule(FaultRule {
                src: Some(0),
                dst: Some(1),
                tag: TagPattern::exact(1),
                action: FaultAction::Drop,
                max_hits: 1,
            })
            .rule(FaultRule {
                src: Some(0),
                dst: Some(1),
                tag: TagPattern::exact(2),
                action: FaultAction::DelayEpochs(1),
                max_hits: 1,
            });
        comm.install_fault_plan(plan, None);
        if comm.rank() == 0 {
            comm.send(1, 1, 11); // dropped
            comm.send(1, 2, 22); // held until epoch 1
            comm.send(1, 3, 33); // untouched
            comm.fault_checkpoint(1); // releases the delayed send
            comm.recv(1, 4).unwrap(); // connected for rank 1's timed-out wait
        } else {
            assert_eq!(comm.recv(0, 3).unwrap(), 33, "clean tag");
            assert_eq!(
                comm.recv_timeout(0, 1, Duration::from_millis(80))
                    .unwrap_err(),
                RecvError::Timeout,
                "dropped tag must never arrive"
            );
            assert_eq!(comm.recv(0, 2).unwrap(), 22, "delayed tag arrives");
            comm.send(0, 4, 0);
        }
    });
}

#[test]
fn tracing_attributes_peer_tag_bytes_on_wire_fabrics() {
    // Each rank times out on a tag nobody sends, then trades a done
    // message with its peer, so the peer is connected for the whole
    // wait and the wait ends in `Timeout`, not `Disconnected`.
    const NEVER: u64 = 5;
    const DONE: u64 = 6;
    let sink = TraceSink::new();
    let epoch = std::time::Instant::now();
    std::thread::scope(|s| {
        for link in build_links(2) {
            let sink = &sink;
            s.spawn(move || {
                let mut comm: Comm<u64> = Comm::over_wire(Box::new(link), u64_codec());
                comm.install_tracing(epoch, sink, |_| 8);
                let peer = 1 - comm.rank();
                if comm.rank() == 0 {
                    comm.send(1, 4, 44);
                } else {
                    assert_eq!(comm.recv(0, 4).unwrap(), 44);
                }
                let waited = comm.recv_timeout(peer, NEVER, Duration::from_millis(1));
                assert_eq!(waited.unwrap_err(), RecvError::Timeout);
                comm.send(peer, DONE, 0);
                comm.recv(peer, DONE).unwrap();
            });
        }
    });
    let traces = sink.take();
    assert_eq!(traces.len(), 2, "both ranks flushed");
    let of_kind = |rank: usize, kind: TraceKind| -> Vec<(usize, u64, u64)> {
        traces[rank]
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.peer, e.tag, e.bytes))
            .collect()
    };
    assert_eq!(of_kind(0, TraceKind::Send), [(1, 4, 8), (1, DONE, 8)]);
    assert_eq!(of_kind(1, TraceKind::Recv), [(0, 4, 8), (0, DONE, 8)]);
    // Both ranks recorded their timed-out wait.
    for rank in 0..2 {
        assert_eq!(
            of_kind(rank, TraceKind::Wait),
            [(1 - rank, NEVER, 0)],
            "rank {rank}"
        );
    }
}

#[test]
fn supervisor_poison_unblocks_a_wire_receive() {
    // A peer that stays connected but silent closes no socket, so TCP
    // EOF never reports it (`Disconnected` needs every peer gone); the
    // supervisor's poison handle is the unblock path. Rank 1 here is
    // such a peer: alive for the whole wait, sending nothing.
    let mut links = build_links(2);
    let silent = links.pop().unwrap();
    let mut comm: Comm<u64> = Comm::over_wire(Box::new(links.pop().unwrap()), u64_codec());
    let poison = comm.poison_handle();
    let waiter = std::thread::spawn(move || comm.recv(1, 1).unwrap_err());
    std::thread::sleep(Duration::from_millis(30));
    poison.store(true, std::sync::atomic::Ordering::SeqCst);
    assert_eq!(waiter.join().unwrap(), RecvError::Disconnected);
    drop(silent);
}

#[test]
fn reserved_range_frames_never_reach_the_mailbox() {
    // A peer speaking an older control protocol sends a frame in the
    // reserved range that is not a goodbye. It must be discarded, not
    // parked where no receive matches it and no purge removes it.
    let mut links = build_links(2);
    let mut comm: Comm<u64> = Comm::over_wire(Box::new(links.pop().unwrap()), u64_codec());
    let mut raw = links.pop().unwrap();
    raw.send_frame(1, CTRL_RESERVED_BASE + 2, &7u64.to_le_bytes());
    raw.send_frame(1, 3, &33u64.to_le_bytes());
    assert_eq!(comm.recv(0, 3).unwrap(), 33);
    let mut parked = 0;
    comm.pending_counts(|_, _, n| parked += n);
    assert_eq!(parked, 0, "control frame was parked");
}
