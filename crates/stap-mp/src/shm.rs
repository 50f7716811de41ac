//! Multi-process shared-memory transport.
//!
//! One OS process per rank, exchanging frames through a single shared
//! region: an N×N grid of SPSC byte-stream ring buffers (one per
//! directed rank pair) living in a file under `/dev/shm` (tmpfs — the
//! pages *are* shared memory; falls back to the system temp dir). The
//! workspace is hermetic — no `libc`, no `mmap` — so ranks address the
//! region with positioned file I/O (`read_at` / `write_at` on the same
//! kernel page-cache pages), which keeps the implementation pure std at
//! the cost of a syscall per counter access. At pipeline scale (tens of
//! frames per CPI) that overhead is noise next to the compute.
//!
//! Ring discipline (per directed pair, single writer / single reader):
//!
//! * `head` — bytes ever written, bumped by the writer *after* the data
//!   lands; `tail` — bytes ever read, bumped by the reader after
//!   copying out. Both are 8-byte-aligned little-endian `u64` counters
//!   on their own 64-byte slot.
//! * Frames (`[len u32][tag u64][payload]`) are *streamed*: a frame
//!   larger than the ring trickles through as the reader drains, so
//!   capacity bounds memory, not message size. The reader reassembles
//!   partial frames in a per-source buffer.
//!
//! Teardown: process death cannot close a ring (there is no EOF), so
//! world disconnect is detected above this layer by `Comm`'s goodbye
//! control frames, and abnormal death by the cluster supervisor's
//! poison handle (see [`crate::Comm::poison_handle`]). The writer's
//! ring-full wait checks an abort flag so a supervisor can also unstick
//! blocked senders.

use crate::comm::Tag;
use crate::transport::{LinkError, WireFrame, WireLink};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAGIC: u64 = 0x5354_4150_5348_4D31; // "STAPSHM1"
const HEADER_BYTES: u64 = 64;
/// Per-ring control block: head and tail on separate 64-byte slots.
const RING_CTRL_BYTES: u64 = 128;
/// Default per-pair ring capacity. Frames stream through, so this
/// bounds region size (`ranks² × (capacity + 128)`), not frame size.
pub const DEFAULT_RING_CAPACITY: usize = 256 * 1024;

static REGION_COUNTER: AtomicU64 = AtomicU64::new(0);

fn region_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

fn read_u64_at(f: &File, off: u64) -> io::Result<u64> {
    let mut b = [0u8; 8];
    f.read_exact_at(&mut b, off)?;
    Ok(u64::from_le_bytes(b))
}

fn write_u64_at(f: &File, off: u64, v: u64) -> io::Result<()> {
    f.write_all_at(&v.to_le_bytes(), off)
}

/// Owner handle for a shared ring region. Created once by the launcher
/// (cluster parent); every rank then [`ShmLink::attach`]es by path. The
/// file is removed when this handle drops.
pub struct ShmRegion {
    path: PathBuf,
    ranks: usize,
    ring_capacity: usize,
}

impl ShmRegion {
    /// Creates and initializes a region for `ranks` endpoints with the
    /// default ring capacity.
    pub fn create(ranks: usize) -> io::Result<ShmRegion> {
        Self::create_with_capacity(ranks, DEFAULT_RING_CAPACITY)
    }

    /// Creates a region with an explicit per-pair ring capacity.
    pub fn create_with_capacity(ranks: usize, ring_capacity: usize) -> io::Result<ShmRegion> {
        assert!(ranks > 0, "region needs at least one rank");
        assert!(ring_capacity >= 64, "ring capacity unreasonably small");
        let n = REGION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = region_dir().join(format!("stap-shm-{}-{}.ring", std::process::id(), n));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let rings = (ranks * ranks) as u64;
        let total = HEADER_BYTES + rings * (RING_CTRL_BYTES + ring_capacity as u64);
        // Sparse-extend: tmpfs materializes pages on first touch, and
        // fresh pages read back as the zeros the counters start from.
        file.set_len(total)?;
        write_u64_at(&file, 8, ranks as u64)?;
        write_u64_at(&file, 16, ring_capacity as u64)?;
        // Publish the magic last: attach spins on it, so a reader never
        // sees a half-written header.
        write_u64_at(&file, 0, MAGIC)?;
        Ok(ShmRegion {
            path,
            ranks,
            ring_capacity,
        })
    }

    /// Path rank processes attach to (pass it on their command line).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of ranks the region was sized for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Per-pair ring capacity in bytes.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One rank's endpoint into a [`ShmRegion`].
pub struct ShmLink {
    file: File,
    rank: usize,
    size: usize,
    cap: u64,
    /// Cached head per destination ring (this rank is the sole writer).
    heads: Vec<u64>,
    /// Cached tail per source ring (this rank is the sole reader).
    tails: Vec<u64>,
    /// Partial-frame reassembly buffer per source.
    partial: Vec<Vec<u8>>,
    /// Complete frames `(src, tag, payload)` ready to hand out, in
    /// extraction order.
    ready: VecDeque<(usize, Tag, Vec<u8>)>,
    /// Payload of the frame `recv_frame` handed out last.
    held: Vec<u8>,
    /// Supervisor kill switch: aborts ring-full waits (see module docs).
    abort: Arc<AtomicBool>,
    /// A send gave up (abort or stall timeout); all further sends are
    /// discarded to avoid interleaving a torn frame into the stream.
    dead_tx: Vec<bool>,
    /// Ring-full patience before declaring the reader dead.
    stall_timeout: Duration,
}

impl ShmLink {
    /// Attaches rank `rank` to the region at `path`, waiting up to 10 s
    /// for the creator to finish initialization.
    pub fn attach(path: &Path, rank: usize) -> io::Result<ShmLink> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let file = loop {
            match OpenOptions::new().read(true).write(true).open(path) {
                Ok(f) => {
                    if read_u64_at(&f, 0).unwrap_or(0) == MAGIC {
                        break f;
                    }
                }
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                Err(_) => {}
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("shm region {} never became ready", path.display()),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let size = read_u64_at(&file, 8)? as usize;
        let cap = read_u64_at(&file, 16)?;
        assert!(rank < size, "rank {rank} outside shm region of {size}");
        Ok(ShmLink {
            file,
            rank,
            size,
            cap,
            heads: vec![0; size],
            tails: vec![0; size],
            partial: vec![Vec::new(); size],
            ready: VecDeque::new(),
            held: Vec::new(),
            abort: Arc::new(AtomicBool::new(false)),
            dead_tx: vec![false; size],
            stall_timeout: Duration::from_secs(60),
        })
    }

    /// Flag a supervisor can set to unstick a writer blocked on a ring
    /// whose reader died.
    pub fn abort_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.abort)
    }

    /// Byte offset of the `(src, dst)` ring's control block.
    fn ring_off(&self, src: usize, dst: usize) -> u64 {
        HEADER_BYTES + (src * self.size + dst) as u64 * (RING_CTRL_BYTES + self.cap)
    }

    /// Streams `bytes` into the `(self.rank, dst)` ring, waiting for the
    /// reader when full — and draining this rank's own inbound rings
    /// meanwhile, so two ranks streaming frames larger than the ring at
    /// each other cannot deadlock. Returns false when the send was
    /// abandoned.
    fn write_stream(&mut self, dst: usize, bytes: &[u8]) -> bool {
        let ring = self.ring_off(self.rank, dst);
        let data = ring + RING_CTRL_BYTES;
        let cap = self.cap;
        let mut head = self.heads[dst];
        let mut off = 0usize;
        let mut stall_since: Option<Instant> = None;
        while off < bytes.len() {
            let tail = match read_u64_at(&self.file, ring + 64) {
                Ok(t) => t,
                Err(_) => return false,
            };
            let free = (cap - (head - tail)) as usize;
            if free == 0 {
                if self.abort.load(Ordering::Relaxed) {
                    return false;
                }
                let since = *stall_since.get_or_insert_with(Instant::now);
                if since.elapsed() > self.stall_timeout {
                    return false;
                }
                if !self.pump_all() {
                    std::thread::sleep(Duration::from_micros(50));
                }
                continue;
            }
            stall_since = None;
            let n = free.min(bytes.len() - off);
            let pos = (head % cap) as usize;
            let first = n.min(cap as usize - pos);
            if self
                .file
                .write_all_at(&bytes[off..off + first], data + pos as u64)
                .is_err()
            {
                return false;
            }
            if n > first
                && self
                    .file
                    .write_all_at(&bytes[off + first..off + n], data)
                    .is_err()
            {
                return false;
            }
            head += n as u64;
            // Publish after the payload bytes: the positioned writes
            // above complete before this counter update is issued, so a
            // reader that observes the new head finds the data in place.
            if write_u64_at(&self.file, ring, head).is_err() {
                return false;
            }
            self.heads[dst] = head;
            off += n;
        }
        true
    }

    /// Drains newly arrived bytes from the `(src, self.rank)` ring into
    /// the reassembly buffer. Returns true when bytes moved.
    fn pump(&mut self, src: usize) -> bool {
        let ring = self.ring_off(src, self.rank);
        let data = ring + RING_CTRL_BYTES;
        let cap = self.cap;
        let head = match read_u64_at(&self.file, ring) {
            Ok(h) => h,
            Err(_) => return false,
        };
        let tail = self.tails[src];
        if head == tail {
            return false;
        }
        let avail = (head - tail) as usize;
        let pos = (tail % cap) as usize;
        let first = avail.min(cap as usize - pos);
        let buf = &mut self.partial[src];
        let old = buf.len();
        buf.resize(old + avail, 0);
        if self
            .file
            .read_exact_at(&mut buf[old..old + first], data + pos as u64)
            .is_err()
        {
            buf.truncate(old);
            return false;
        }
        if avail > first
            && self
                .file
                .read_exact_at(&mut buf[old + first..old + avail], data)
                .is_err()
        {
            buf.truncate(old);
            return false;
        }
        self.tails[src] = tail + avail as u64;
        let _ = write_u64_at(&self.file, ring + 64, self.tails[src]);
        self.extract(src);
        true
    }

    /// Pumps every inbound ring once; true when bytes moved.
    fn pump_all(&mut self) -> bool {
        let me = self.rank;
        let mut progress = false;
        for src in (0..self.size).filter(|&s| s != me) {
            progress |= self.pump(src);
        }
        progress
    }

    /// Pops every complete frame out of `src`'s reassembly buffer.
    fn extract(&mut self, src: usize) {
        let buf = &mut self.partial[src];
        let mut off = 0usize;
        while buf.len() - off >= 12 {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            if buf.len() - off < 12 + len {
                break;
            }
            let tag = Tag::from_le_bytes(buf[off + 4..off + 12].try_into().unwrap());
            let payload = buf[off + 12..off + 12 + len].to_vec();
            self.ready.push_back((src, tag, payload));
            off += 12 + len;
        }
        buf.drain(..off);
    }
}

impl WireLink for ShmLink {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_frame(&mut self, dst: usize, tag: Tag, payload: &[u8]) {
        assert!(dst < self.size && dst != self.rank, "bad shm dst {dst}");
        if self.dead_tx[dst] {
            return;
        }
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&tag.to_le_bytes());
        // Two stream writes form one frame; this rank is the ring's
        // only writer, so they cannot interleave with anything.
        if !self.write_stream(dst, &header) || !self.write_stream(dst, payload) {
            self.dead_tx[dst] = true;
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<WireFrame<'_>, LinkError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((src, tag, payload)) = self.ready.pop_front() {
                self.held = payload;
                return Ok(WireFrame {
                    src,
                    tag,
                    payload: &self.held,
                });
            }
            if self.abort.load(Ordering::Relaxed) {
                return Err(LinkError::Disconnected);
            }
            if self.pump_all() {
                continue;
            }
            if Instant::now() >= deadline {
                return Err(LinkError::Timeout);
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(n: usize, cap: usize) -> (ShmRegion, Vec<ShmLink>) {
        let region = ShmRegion::create_with_capacity(n, cap).unwrap();
        let links = (0..n)
            .map(|r| ShmLink::attach(region.path(), r).unwrap())
            .collect();
        (region, links)
    }

    #[test]
    fn frames_round_trip_between_attached_links() {
        let (_region, mut links) = links(2, 4096);
        let mut b = links.remove(1);
        let mut a = links.remove(0);
        a.send_frame(1, 7, b"hello shm");
        let f = b.recv_frame(Duration::from_secs(2)).unwrap();
        assert_eq!((f.src, f.tag, f.payload), (0, 7, &b"hello shm"[..]));
        b.send_frame(0, 9, &[]);
        let f = a.recv_frame(Duration::from_secs(2)).unwrap();
        assert_eq!((f.src, f.tag, f.payload.len()), (1, 9, 0));
        assert!(matches!(
            a.recv_frame(Duration::from_millis(10)),
            Err(LinkError::Timeout)
        ));
    }

    #[test]
    fn frames_larger_than_the_ring_stream_through() {
        // 256-byte rings, 8 KiB frame: the writer must trickle it
        // through as a concurrent reader drains.
        let (_region, mut links) = links(2, 256);
        let mut b = links.remove(1);
        let mut a = links.remove(0);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 + 13) as u8).collect();
        let expect = payload.clone();
        let writer = std::thread::spawn(move || {
            a.send_frame(1, 42, &payload);
            a
        });
        let f = b.recv_frame(Duration::from_secs(10)).unwrap();
        writer.join().unwrap();
        assert_eq!(f.tag, 42);
        assert_eq!(f.payload, expect);
    }

    #[test]
    fn region_file_is_removed_on_drop() {
        let region = ShmRegion::create(2).unwrap();
        let path = region.path().to_path_buf();
        assert!(path.exists());
        drop(region);
        assert!(!path.exists());
    }

    #[test]
    fn abort_unsticks_a_blocked_writer() {
        let (_region, mut links) = links(2, 128);
        let mut a = links.remove(0);
        let abort = a.abort_handle();
        let big = vec![0u8; 64 * 1024];
        let writer = std::thread::spawn(move || {
            // Nobody drains rank 1's ring; without the abort this would
            // sit in the ring-full wait until the stall timeout.
            a.send_frame(1, 1, &big);
        });
        std::thread::sleep(Duration::from_millis(50));
        abort.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
