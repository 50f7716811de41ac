//! Length-prefixed TCP transport with a rendezvous coordinator.
//!
//! One process (or thread) per rank over a full socket mesh — loopback
//! for single-host cluster runs, a real network otherwise. Launch
//! protocol, mirroring `mpirun`'s wire-up:
//!
//! 1. The launcher binds a coordinator listener and passes its address
//!    to every rank (`stapctl cluster` does this on the command line).
//! 2. Each rank binds its own data listener on an ephemeral port,
//!    registers `(rank, port)` with the coordinator, and receives the
//!    full port table once everyone checked in.
//! 3. The mesh forms deterministically: each rank *connects* to every
//!    lower rank (announcing itself with a hello word) and *accepts*
//!    from every higher rank.
//!
//! Frames are `[len u32][tag u64][payload]`, little-endian. After
//! wire-up every peer socket is non-blocking and the rank's own thread
//! moves all of its bytes, as the paper's nodes post their own sends and
//! receives: `recv_frame` reads whatever each peer has into that peer's
//! partial frame, whose payload buffer is reused from frame to frame,
//! and sleeps in `poll(2)` only when no frame is complete. `send_frame`
//! writes header and payload with one `writev`; whenever the socket
//! would block it drains this rank's inbound sockets before waiting, so
//! two ranks writing large frames at each other cannot deadlock. A
//! header announcing more than `MAX_FRAME_BYTES` (256 MiB) disconnects
//! that peer before anything is allocated.
//!
//! Peer EOF is a liveness signal: when every peer socket has closed and
//! every complete frame was handed out, `recv_frame` reports
//! `Disconnected` — so an abnormally dead rank process (which can never
//! wave goodbye) still unblocks its peers once the rest of its world is
//! torn down. A peer that stays connected but silent closes nothing;
//! `Comm`'s poison handle is the supervisor's way to unblock a rank
//! waiting on one.
//!
//! Wire-up fails fast too. Every address a rank dials was bound before
//! it was published (the coordinator's before [`spawn_coordinator`]
//! returns, each rank's data listener before it registers), so a refused
//! connection means the far side is gone, and `rendezvous` returns the
//! error at once instead of retrying. A launcher whose rank died before
//! registering calls [`abort_rendezvous`]: the coordinator drops every
//! rank waiting on it, and each sees EOF.

use crate::comm::Tag;
use crate::transport::{LinkError, WireFrame, WireLink};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long wire-up steps (register, connect, accept) may take before
/// the launch is declared failed.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest payload a peer may announce. The largest real frame is an
/// 8-CPI group of paper-geometry cubes, about 135 MB; a header above
/// this is a broken or hostile peer, not a message.
const MAX_FRAME_BYTES: usize = 256 << 20;

/// Frame header: payload length (`u32`) and tag (`u64`).
const HDR: usize = 12;

fn read_exact_timeout(s: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    s.set_read_timeout(Some(RENDEZVOUS_TIMEOUT))?;
    let r = s.read_exact(buf);
    let _ = s.set_read_timeout(None);
    r
}

/// Serves the rendezvous exchange: collects `(rank, port)` from `size`
/// participants, then replies to each with the full port table. Blocks
/// until then, or until `RENDEZVOUS_TIMEOUT` passes with a rank
/// missing (`TimedOut`); run it on a thread (see [`spawn_coordinator`]).
/// A bad or duplicate registration ends it at once with `InvalidData`.
/// Either failure drops every registered rank's stream, so each waiting
/// rank sees EOF.
pub fn coordinator_serve(listener: TcpListener, size: usize) -> io::Result<()> {
    serve_until(listener, size, Instant::now() + RENDEZVOUS_TIMEOUT)
}

fn serve_until(listener: TcpListener, size: usize, deadline: Instant) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    let mut ports = vec![0u16; size];
    let mut seen = 0usize;
    while seen < size {
        // Wait in `poll(2)`, not in `accept`, so the deadline ends the
        // wait even when no rank ever connects.
        let mut s = match listener.accept() {
            Ok((s, _)) => s,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rendezvous: {seen}/{size} ranks checked in"),
                    ));
                }
                let mut fd = [PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }];
                poll_fds(&mut fd, poll_ms(left));
                continue;
            }
            Err(e) => return Err(e),
        };
        s.set_nonblocking(false)?;
        let mut reg = [0u8; 6];
        read_exact_timeout(&mut s, &mut reg)?;
        let rank = u32::from_le_bytes(reg[..4].try_into().unwrap()) as usize;
        let port = u16::from_le_bytes(reg[4..6].try_into().unwrap());
        if rank >= size || streams[rank].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("rendezvous: bad or duplicate rank {rank}"),
            ));
        }
        ports[rank] = port;
        streams[rank] = Some(s);
        seen += 1;
    }
    let table: Vec<u8> = ports.iter().flat_map(|p| p.to_le_bytes()).collect();
    for s in streams.iter_mut().flatten() {
        s.write_all(&table)?;
    }
    Ok(())
}

/// Ends a rendezvous still in progress at `coord` with a registration
/// no rank can make, so [`coordinator_serve`] returns `InvalidData` and
/// every rank waiting on it sees EOF. A coordinator that already
/// finished refuses the connection; that is not an error.
pub fn abort_rendezvous(coord: &str) {
    if let Ok(addr) = coord.parse::<SocketAddr>() {
        if let Ok(mut c) = TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
            let mut reg = [0u8; 6];
            reg[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = c.write_all(&reg);
        }
    }
}

/// Binds a loopback coordinator and serves the rendezvous on a
/// background thread. Returns the address to hand to every rank.
pub fn spawn_coordinator(
    size: usize,
) -> io::Result<(String, std::thread::JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let handle = std::thread::spawn(move || coordinator_serve(listener, size));
    Ok((addr, handle))
}

/// One peer's socket and the frame being read from it.
#[derive(Default)]
struct Peer {
    /// `None` at this rank's own index and after [`WireLink::close`].
    stream: Option<TcpStream>,
    /// Frames may still arrive: false after EOF, a read error or an
    /// oversized header.
    readable: bool,
    /// Sends still go out: false after a write error.
    writable: bool,
    /// Readable, and bytes may be waiting: set by `poll`, cleared once
    /// a read finds the socket empty.
    pending: bool,
    /// The current frame's header.
    hdr: [u8; HDR],
    /// Bytes of the current frame read so far, header included.
    got: usize,
    /// Payload storage, reused across frames; only `body[..len]` is the
    /// current frame.
    body: Vec<u8>,
}

/// What one [`Peer::pump`] achieved.
enum Pump {
    /// The current frame is complete.
    Frame,
    /// The socket has nothing more right now.
    Dry,
    /// The peer is gone (EOF, error or an oversized header).
    Gone,
}

/// Payload length a frame header announces.
fn frame_len(hdr: &[u8; HDR]) -> usize {
    u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize
}

impl Peer {
    fn len(&self) -> usize {
        frame_len(&self.hdr)
    }

    fn tag(&self) -> Tag {
        Tag::from_le_bytes(self.hdr[4..].try_into().expect("header bytes 4..12"))
    }

    /// The current header announces more than [`MAX_FRAME_BYTES`].
    fn oversized(&self) -> bool {
        self.got >= HDR && self.len() > MAX_FRAME_BYTES
    }

    /// Reads what the socket has toward the current frame, stopping at
    /// its end so the next frame's bytes stay in the kernel.
    fn pump(&mut self) -> Pump {
        let Some(s) = &mut self.stream else {
            return Pump::Gone;
        };
        loop {
            let len = frame_len(&self.hdr);
            let (r, asked) = if self.got < HDR {
                (s.read(&mut self.hdr[self.got..]), HDR - self.got)
            } else if self.got < HDR + len {
                (
                    s.read(&mut self.body[self.got - HDR..len]),
                    HDR + len - self.got,
                )
            } else {
                return Pump::Frame;
            };
            match r {
                Ok(0) => return Pump::Gone,
                // A short read emptied the socket: the next `poll` tells
                // when more arrives, so no read is spent learning that.
                Ok(n) if n < asked => {
                    self.got += n;
                    return Pump::Dry;
                }
                Ok(n) => {
                    self.got += n;
                    if self.got == HDR {
                        let len = frame_len(&self.hdr);
                        if len > MAX_FRAME_BYTES {
                            return Pump::Gone;
                        }
                        // Grown (and zero-filled) only past its high-water
                        // mark; a frame no larger than an earlier one
                        // reuses the storage as it is.
                        if self.body.len() < len {
                            self.body.resize(len, 0);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Pump::Dry,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Pump::Gone,
            }
        }
    }
}

/// One rank's endpoint into a TCP mesh.
pub struct TcpLink {
    rank: usize,
    size: usize,
    /// Indexed by rank; this rank's own entry has no stream.
    peers: Vec<Peer>,
    /// Peers still readable.
    live: usize,
    /// Frames `(src, tag, payload)` completed while a send was blocked,
    /// in arrival order; they go out before anything read later.
    ready: VecDeque<(usize, Tag, Vec<u8>)>,
    /// The peer whose buffer holds the frame `recv_frame` handed out
    /// last; its next frame starts once the caller is done with it.
    held: Option<usize>,
    /// Payload of the last frame handed out from `ready`.
    held_buf: Vec<u8>,
    /// Where the next scan for a complete frame starts, so one busy
    /// peer cannot starve the others.
    next: usize,
    /// Reused `poll` arguments: descriptors and the peer each belongs to.
    fds: Vec<PollFd>,
    fd_peer: Vec<usize>,
}

/// Connects to an address that was bound before it was published,
/// retrying only a connect that timed out (a full accept backlog drops
/// SYNs); a refusal means the listener is gone and fails at once.
fn connect_retry(addr: &SocketAddr) -> io::Result<TcpStream> {
    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    loop {
        match TcpStream::connect_timeout(addr, Duration::from_secs(2)) {
            Ok(s) => return Ok(s),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Err(e),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

impl TcpLink {
    /// Joins the mesh as `rank` of `size` via the coordinator at
    /// `coord` (e.g. `"127.0.0.1:40000"`). Blocks until every pairwise
    /// connection is up.
    pub fn rendezvous(coord: &str, rank: usize, size: usize) -> io::Result<TcpLink> {
        assert!(rank < size, "rank {rank} outside world of {size}");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let my_port = listener.local_addr()?.port();

        // Register and fetch the port table.
        let coord_addr: SocketAddr = coord
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{coord}: {e}")))?;
        let mut c = connect_retry(&coord_addr)?;
        let mut reg = [0u8; 6];
        reg[..4].copy_from_slice(&(rank as u32).to_le_bytes());
        reg[4..6].copy_from_slice(&my_port.to_le_bytes());
        c.write_all(&reg)?;
        let mut table = vec![0u8; 2 * size];
        read_exact_timeout(&mut c, &mut table)?;
        drop(c);
        let ports: Vec<u16> = (0..size)
            .map(|i| u16::from_le_bytes(table[2 * i..2 * i + 2].try_into().unwrap()))
            .collect();

        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        // Connect downward, announcing who we are.
        for (peer, &port) in ports.iter().enumerate().take(rank) {
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let mut s = connect_retry(&addr)?;
            s.write_all(&(rank as u32).to_le_bytes())?;
            streams[peer] = Some(s);
        }
        // Accept upward.
        for _ in rank + 1..size {
            let (mut s, _) = listener.accept()?;
            let mut hello = [0u8; 4];
            read_exact_timeout(&mut s, &mut hello)?;
            let peer = u32::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= size || streams[peer].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("mesh: unexpected hello from rank {peer}"),
                ));
            }
            streams[peer] = Some(s);
        }

        let mut peers = Vec::with_capacity(size);
        for stream in streams {
            let open = stream.is_some();
            if let Some(s) = &stream {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
            }
            peers.push(Peer {
                stream,
                readable: open,
                writable: open,
                pending: open,
                ..Peer::default()
            });
        }
        Ok(TcpLink {
            rank,
            size,
            peers,
            live: size - 1,
            ready: VecDeque::new(),
            held: None,
            held_buf: Vec::new(),
            next: 0,
            fds: Vec::with_capacity(size),
            fd_peer: Vec::with_capacity(size),
        })
    }

    /// Ends the hand-out of the last frame: its peer may start the next.
    fn release(&mut self) {
        if let Some(i) = self.held.take() {
            self.peers[i].got = 0;
        }
    }

    /// Stops reading peer `i` (EOF, error, or an oversized header, after
    /// which the stream could only be misread: then it is shut too).
    fn lose(&mut self, i: usize) {
        let p = &mut self.peers[i];
        p.readable = false;
        p.pending = false;
        self.live -= 1;
        if p.oversized() {
            if let Some(s) = p.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
            p.writable = false;
        }
    }

    /// Reads pending peers round-robin until one completes a frame;
    /// returns that peer. `None` once every pending peer ran dry.
    fn scan(&mut self) -> Option<usize> {
        for k in 0..self.size {
            let i = (self.next + k) % self.size;
            if !self.peers[i].pending {
                continue;
            }
            match self.peers[i].pump() {
                Pump::Frame => {
                    self.next = i + 1;
                    return Some(i);
                }
                Pump::Dry => self.peers[i].pending = false,
                Pump::Gone => self.lose(i),
            }
        }
        None
    }

    /// Reads everything the inbound sockets hold, queueing each complete
    /// frame. A send that would block calls this, so a peer blocked
    /// writing to this rank always makes progress.
    fn drain(&mut self) {
        self.release();
        while let Some(i) = self.scan() {
            let p = &mut self.peers[i];
            let mut payload = std::mem::take(&mut p.body);
            payload.truncate(p.len());
            self.ready.push_back((i, p.tag(), payload));
            p.got = 0;
        }
    }

    /// Sleeps in `poll(2)` until a readable peer has bytes or hangs up,
    /// `dst` (when given) accepts bytes, or `timeout` passes (`None`:
    /// no limit); marks the peers it woke for.
    fn wait(&mut self, dst: Option<usize>, timeout: Option<Duration>) {
        self.fds.clear();
        self.fd_peer.clear();
        for (i, p) in self.peers.iter().enumerate() {
            let Some(s) = &p.stream else { continue };
            let mut events = 0;
            if p.readable {
                events |= POLLIN;
            }
            if dst == Some(i) {
                events |= POLLOUT;
            }
            if events != 0 {
                self.fds.push(PollFd {
                    fd: s.as_raw_fd(),
                    events,
                    revents: 0,
                });
                self.fd_peer.push(i);
            }
        }
        if poll_fds(&mut self.fds, timeout.map_or(-1, poll_ms)) > 0 {
            for (fd, &i) in self.fds.iter().zip(&self.fd_peer) {
                // Hang-ups and errors wake a readable peer too: its next
                // read reports them.
                let p = &mut self.peers[i];
                if p.readable && fd.revents & !POLLOUT != 0 {
                    p.pending = true;
                }
            }
        }
    }
}

impl WireLink for TcpLink {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_frame(&mut self, dst: usize, tag: Tag, payload: &[u8]) {
        assert!(dst < self.size && dst != self.rank, "bad tcp dst {dst}");
        let mut hdr = [0u8; HDR];
        hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        hdr[4..].copy_from_slice(&tag.to_le_bytes());
        let total = HDR + payload.len();
        let mut sent = 0;
        while sent < total {
            let p = &mut self.peers[dst];
            let Some(s) = p.stream.as_mut().filter(|_| p.writable) else {
                return; // peer gone: discard, like sends to a dropped rank
            };
            let r = if sent < HDR {
                s.write_vectored(&[IoSlice::new(&hdr[sent..]), IoSlice::new(payload)])
            } else {
                s.write(&payload[sent - HDR..])
            };
            match r {
                Ok(n) if n > 0 => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.drain();
                    self.wait(Some(dst), None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A torn frame must never be followed by another one.
                _ => p.writable = false,
            }
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<WireFrame<'_>, LinkError> {
        self.release();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((src, tag, payload)) = self.ready.pop_front() {
                self.held_buf = payload;
                return Ok(WireFrame {
                    src,
                    tag,
                    payload: &self.held_buf,
                });
            }
            if let Some(i) = self.scan() {
                self.held = Some(i);
                let p = &self.peers[i];
                return Ok(WireFrame {
                    src: i,
                    tag: p.tag(),
                    payload: &p.body[..p.len()],
                });
            }
            if self.live == 0 {
                return Err(LinkError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline && !timeout.is_zero() {
                return Err(LinkError::Timeout);
            }
            self.wait(None, Some(deadline.saturating_duration_since(now)));
            if timeout.is_zero() && !self.peers.iter().any(|p| p.pending) {
                return Err(LinkError::Timeout);
            }
        }
    }

    fn close(&mut self) {
        for p in &mut self.peers {
            if let Some(s) = p.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
            *p = Peer::default();
        }
        self.live = 0;
    }
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

const POLLIN: std::ffi::c_short = 0x1;
const POLLOUT: std::ffi::c_short = 0x4;

/// A `poll(2)` timeout: whole milliseconds, rounded up, since waking
/// early would only spin.
fn poll_ms(t: Duration) -> std::ffi::c_int {
    t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int
}

/// `poll(2)` over `fds` for up to `timeout_ms` milliseconds (-1: no
/// limit). Returns the number of ready descriptors, 0 on timeout, or -1
/// on an error such as `EINTR`; every caller rechecks its condition and
/// comes back, so an error is just an early wake.
#[cfg(unix)]
fn poll_fds(fds: &mut [PollFd], timeout_ms: std::ffi::c_int) -> std::ffi::c_int {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    // SAFETY: `poll(2)` as libc (which std links) declares it, with
    // `nfds_t` as `unsigned long`. The kernel reads and writes exactly
    // `fds.len()` `struct pollfd` records starting at the pointer; they
    // are a live, exclusively borrowed slice of `#[repr(C)]` structs
    // with the C layout (`int`, `short`, `short`) for the whole call,
    // and nothing keeps the pointer after it returns. Descriptors that
    // are not open are reported as `POLLNVAL`, not dereferenced.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn mesh(n: usize) -> Vec<TcpLink> {
        let (addr, coord) = spawn_coordinator(n).unwrap();
        let links: Vec<TcpLink> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let addr = addr.clone();
                    s.spawn(move || TcpLink::rendezvous(&addr, r, n).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        coord.join().unwrap().unwrap();
        links
    }

    /// Rank 0 of a two-rank mesh as a `TcpLink`, rank 1 as the plain
    /// socket a hand-written peer would use.
    fn link_and_raw_peer() -> (TcpLink, TcpStream) {
        let (addr, coord) = spawn_coordinator(2).unwrap();
        let out = thread::scope(|s| {
            let link = s.spawn(|| TcpLink::rendezvous(&addr, 0, 2).unwrap());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut c = connect_retry(&addr.parse().unwrap()).unwrap();
            c.write_all(&1u32.to_le_bytes()).unwrap();
            c.write_all(&listener.local_addr().unwrap().port().to_le_bytes())
                .unwrap();
            let mut table = [0u8; 4];
            c.read_exact(&mut table).unwrap();
            let port0 = u16::from_le_bytes([table[0], table[1]]);
            let mut raw = connect_retry(&SocketAddr::from(([127, 0, 0, 1], port0))).unwrap();
            raw.write_all(&1u32.to_le_bytes()).unwrap();
            (link.join().unwrap(), raw)
        });
        coord.join().unwrap().unwrap();
        out
    }

    fn frame_bytes(tag: Tag, payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&tag.to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn mesh_moves_frames_both_directions() {
        let mut links = mesh(3);
        let mut c = links.remove(2);
        let mut b = links.remove(1);
        let mut a = links.remove(0);
        a.send_frame(2, 5, b"down");
        c.send_frame(0, 6, b"up");
        b.send_frame(0, 7, b"mid");
        let f = c.recv_frame(Duration::from_secs(2)).unwrap();
        assert_eq!((f.src, f.tag, f.payload), (0, 5, &b"down"[..]));
        let mut got: Vec<(usize, Tag)> = (0..2)
            .map(|_| {
                let f = a.recv_frame(Duration::from_secs(2)).unwrap();
                (f.src, f.tag)
            })
            .collect();
        got.sort();
        assert_eq!(got, vec![(1, 7), (2, 6)]);
    }

    #[test]
    fn peer_close_eventually_reports_disconnected() {
        let mut links = mesh(2);
        let mut b = links.remove(1);
        let mut a = links.remove(0);
        a.send_frame(1, 1, b"last words");
        a.close();
        drop(a);
        // The queued frame must still arrive, then EOF turns into
        // Disconnected.
        let f = b.recv_frame(Duration::from_secs(2)).unwrap();
        assert_eq!(f.payload, b"last words");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match b.recv_frame(Duration::from_millis(20)) {
                Err(LinkError::Disconnected) => break,
                Err(LinkError::Timeout) => assert!(Instant::now() < deadline, "no EOF signal"),
                Ok(f) => panic!("unexpected frame {f:?}"),
            }
        }
    }

    #[test]
    fn large_frames_cross_intact() {
        let mut links = mesh(2);
        let mut b = links.remove(1);
        let mut a = links.remove(0);
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        thread::scope(|s| {
            s.spawn(|| a.send_frame(1, 9, &payload));
            let f = b.recv_frame(Duration::from_secs(10)).unwrap();
            assert_eq!(f.payload, payload);
        });
    }

    #[test]
    fn a_frame_trickling_in_pieces_arrives_once_and_bitwise() {
        let (mut link, mut raw) = link_and_raw_peer();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i * 7 + 3) as u8).collect();
        let bytes = frame_bytes(42, &payload);
        thread::scope(|s| {
            s.spawn(|| {
                // 1-byte pieces through the header, 7-byte pieces into
                // the payload, then 64 KiB ones, each after a pause.
                let mut rest = &bytes[..];
                for piece in [1usize; 16].into_iter().chain([7; 16]).chain([64 << 10; 8]) {
                    let n = piece.min(rest.len());
                    raw.write_all(&rest[..n]).unwrap();
                    rest = &rest[n..];
                    thread::sleep(Duration::from_millis(1));
                }
                assert!(rest.is_empty());
            });
            let f = link.recv_frame(Duration::from_secs(10)).unwrap();
            assert_eq!((f.src, f.tag), (1, 42));
            assert_eq!(f.payload, payload);
        });
        assert_eq!(
            link.recv_frame(Duration::ZERO).unwrap_err(),
            LinkError::Timeout,
            "exactly one frame"
        );
    }

    #[test]
    fn zero_timeout_returns_at_once_and_a_timeout_waits_it_out() {
        let (mut link, _raw) = link_and_raw_peer();
        let t = Instant::now();
        assert_eq!(
            link.recv_frame(Duration::ZERO).unwrap_err(),
            LinkError::Timeout
        );
        assert!(t.elapsed() < Duration::from_millis(50), "{:?}", t.elapsed());
        let t = Instant::now();
        assert_eq!(
            link.recv_frame(Duration::from_millis(50)).unwrap_err(),
            LinkError::Timeout
        );
        assert!(
            t.elapsed() >= Duration::from_millis(50),
            "{:?}",
            t.elapsed()
        );
    }

    #[test]
    fn an_oversized_header_disconnects_the_peer_without_allocating() {
        let (mut link, mut raw) = link_and_raw_peer();
        raw.write_all(&frame_bytes(3, b"fine")).unwrap();
        let mut bad = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(&7u64.to_le_bytes());
        raw.write_all(&bad).unwrap();
        let f = link.recv_frame(Duration::from_secs(2)).unwrap();
        assert_eq!((f.tag, f.payload), (3, &b"fine"[..]));
        assert_eq!(
            link.recv_frame(Duration::from_secs(2)).unwrap_err(),
            LinkError::Disconnected
        );
        assert!(
            link.peers[1].body.capacity() < 1024,
            "the announced length was never allocated"
        );
        // The link hung up on the peer.
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut byte = [0u8; 1];
        assert!(matches!(raw.read(&mut byte), Ok(0) | Err(_)));
    }

    #[test]
    fn a_coordinator_missing_a_rank_times_out_and_fails_the_registered_ones() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_millis(150);
        let coord = thread::spawn(move || serve_until(listener, 2, deadline));
        // Rank 1 never comes: rank 0 sees EOF once the coordinator gives up.
        assert!(TcpLink::rendezvous(&addr, 0, 2).is_err());
        let err = coord.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    }

    #[test]
    fn an_aborted_rendezvous_fails_every_waiting_rank_at_once() {
        let (addr, coord) = spawn_coordinator(3).unwrap();
        let started = Instant::now();
        thread::scope(|s| {
            let waiting = [0, 2].map(|r| {
                let addr = &addr;
                s.spawn(move || TcpLink::rendezvous(addr, r, 3).map(|_| ()))
            });
            thread::sleep(Duration::from_millis(50));
            abort_rendezvous(&addr);
            for w in waiting {
                assert!(w.join().unwrap().is_err());
            }
        });
        let err = coord.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Far inside the coordinator's own deadline.
        assert!(started.elapsed() < RENDEZVOUS_TIMEOUT / 3);
        // A finished coordinator refuses the abort, and a rank dialling
        // it fails at once instead of retrying.
        abort_rendezvous(&addr);
        let started = Instant::now();
        assert!(TcpLink::rendezvous(&addr, 1, 3).is_err());
        assert!(started.elapsed() < RENDEZVOUS_TIMEOUT / 3);
    }
}
