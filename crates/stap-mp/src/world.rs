//! World construction and SPMD launch helpers.

use crate::comm::{Comm, Delivery};
use crate::fault::{Corruptor, FaultPlan, FaultState};
use std::sync::mpsc::channel as unbounded;
use std::sync::Arc;

/// Structured failure report from [`World::try_run`] /
/// [`World::try_run_collect`]: the first rank (by index) that panicked,
/// with its panic payload rendered to a string when possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldError {
    /// Index of the first panicking rank.
    pub rank: usize,
    /// The panic payload, downcast from `&str` / `String` when possible.
    pub message: String,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for WorldError {}

/// Renders a panic payload as a string (the two payload types `panic!`
/// produces in practice), falling back to a placeholder.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A set of `n` rank endpoints sharing a message space.
///
/// Construct with [`World::new`], then launch one scoped thread per rank
/// with [`World::run`] or one of its variants.
pub struct World<M> {
    comms: Vec<Comm<M>>,
}

impl<M: Send> World<M> {
    /// Creates a world of `n` ranks. Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "world must have at least one rank");
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Delivery<M>>();
            txs.push(tx);
            rxs.push(rx);
        }
        let senders = Arc::new(txs);
        let alive = Arc::new(std::sync::atomic::AtomicUsize::new(n));
        let poisoned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let comms = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Comm {
                rank,
                fabric: crate::comm::Fabric::Local(crate::comm::LocalFabric {
                    senders: Arc::clone(&senders),
                    inbox,
                    alive: Arc::clone(&alive),
                    poisoned: Arc::clone(&poisoned),
                }),
                pending: crate::comm::Mailbox::default(),
                faults: None,
                tracer: None,
            })
            .collect();
        World { comms }
    }

    /// Installs a deterministic [`FaultPlan`] on every rank endpoint (see
    /// [`crate::fault`]). Worlds without a plan skip the fault plane
    /// entirely — production sends pay exactly one `Option` branch.
    ///
    /// Requires `M: Clone` so [`crate::fault::FaultAction::Duplicate`]
    /// can deliver a payload twice.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self
    where
        M: Clone,
    {
        let plan = Arc::new(plan);
        for comm in &mut self.comms {
            comm.faults = Some(FaultState::new(Arc::clone(&plan), None));
        }
        self
    }

    /// Installs a payload corruptor used by
    /// [`crate::fault::FaultAction::Corrupt`] rules. Call *after*
    /// [`World::with_faults`]; without a plan this is a no-op.
    pub fn with_corruptor(mut self, corruptor: Corruptor<M>) -> Self {
        for comm in &mut self.comms {
            if let Some(f) = &mut comm.faults {
                f.set_corruptor(Arc::clone(&corruptor));
            }
        }
        self
    }

    /// Sets the soft mailbox high-water mark on every rank endpoint
    /// (see [`Comm::set_mailbox_high_water`]): buffered-message pushes
    /// at or above `high_water` are counted, never shed. 0 (the
    /// default) disables the check.
    pub fn with_mailbox_high_water(mut self, high_water: usize) -> Self {
        for comm in &mut self.comms {
            comm.set_mailbox_high_water(high_water);
        }
        self
    }

    /// Installs a span recorder on every rank endpoint (see
    /// [`crate::trace`]). Events are timestamped relative to `epoch`,
    /// payload sizes are attributed through `bytes_of`, and each rank
    /// flushes its buffer into `sink` when its endpoint drops. Worlds
    /// without tracing pay exactly one branch per instrumented call.
    pub fn with_tracing(
        mut self,
        epoch: std::time::Instant,
        sink: &crate::trace::TraceSink,
        bytes_of: fn(&M) -> u64,
    ) -> Self {
        for comm in &mut self.comms {
            comm.tracer = Some(crate::trace::CommTracer::new(epoch, sink.clone(), bytes_of));
        }
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comms.len()
    }

    /// Runs `f` once per rank on scoped threads and joins them all,
    /// propagating the first panic. This is the SPMD `mpirun`
    /// equivalent. A panicking rank *poisons* the world: peers blocked
    /// in receives observe `Disconnected` instead of hanging on a
    /// communication pattern that can no longer complete.
    pub fn run<F>(self, f: F)
    where
        F: Fn(Comm<M>) + Sync,
    {
        if let Err(e) = self.try_run(f) {
            panic!("{e}");
        }
    }

    /// Like [`World::run`] but reports the first panicking rank as a
    /// structured [`WorldError`] instead of re-panicking.
    pub fn try_run<F>(self, f: F) -> Result<(), WorldError>
    where
        F: Fn(Comm<M>) + Sync,
    {
        self.try_run_collect(f).map(|_| ())
    }

    /// Like [`World::run`] but collects each rank's return value, indexed
    /// by rank. Panics (with the original rank's message) when any rank
    /// panicked; use [`World::try_run_collect`] to handle that case.
    pub fn run_collect<F, R>(self, f: F) -> Vec<R>
    where
        F: Fn(Comm<M>) -> R + Sync,
        R: Send,
    {
        self.try_run_collect(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `f` on every rank and collects results indexed by rank. When
    /// one or more ranks panic, returns a [`WorldError`] naming the
    /// lowest-indexed *root-cause* panic — every rank is still joined
    /// first, so no threads leak.
    ///
    /// Root-cause attribution: a panic on one rank poisons the world,
    /// turning every peer's blocked receive into a `Disconnected` error
    /// whose `unwrap` panics in turn. Those secondary cascade panics
    /// carry the `Disconnected` payload signature and are skipped when
    /// any rank died of something else, so supervisors see the original
    /// failure (e.g. an injected fault) rather than whichever cascade
    /// victim happened to have the lowest rank.
    pub fn try_run_collect<F, R>(self, f: F) -> Result<Vec<R>, WorldError>
    where
        F: Fn(Comm<M>) -> R + Sync,
        R: Send,
    {
        let n = self.size();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<WorldError> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for comm in self.comms {
                let f = &f;
                // Named so per-thread CPU (`/proc/<pid>/task/*/stat`, see
                // scripts/thread_cpu.sh) can be attributed to ranks.
                let rank_thread = std::thread::Builder::new()
                    .name(format!("stap-r{}", comm.rank()))
                    .spawn_scoped(s, move || run_rank(f, comm))
                    .expect("spawn a rank thread");
                handles.push(rank_thread);
            }
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => out[i] = Some(r),
                    Err(payload) => failures.push(WorldError {
                        rank: i,
                        message: payload_message(payload.as_ref()),
                    }),
                }
            }
        });
        if failures.is_empty() {
            return Ok(out.into_iter().map(|r| r.unwrap()).collect());
        }
        let cascade = |e: &WorldError| e.message.contains("Disconnected");
        let root = failures
            .iter()
            .find(|e| !cascade(e))
            .unwrap_or(&failures[0]);
        Err(root.clone())
    }
}

thread_local! {
    /// True on a thread that runs a world rank body (set by
    /// [`run_rank`]); the quiet hook only mutes cascades here.
    static WORLD_RANK_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs — once, process-wide — a panic hook that silences the
/// default stderr printing for *cascade* panics on world rank threads:
/// the `Disconnected` unwraps that follow a poisoned world. One rank
/// dying makes every peer's blocked receive panic in turn, and all of
/// those are caught, joined and reduced to one root-cause
/// [`WorldError`] by [`World::try_run_collect`] — so their default-hook
/// spew is pure noise (a supervised serve session would print a dozen
/// identical backtraces per recovery). The root panic itself, and any
/// panic outside a world rank, still goes through the previous hook
/// untouched.
fn install_cascade_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let cascade = WORLD_RANK_THREAD.with(|flag| flag.get())
                && payload_message(info.payload()).contains("Disconnected");
            if !cascade {
                prev(info);
            }
        }));
    });
}

/// Runs `f(comm)` as a world rank on its own thread. If it panics,
/// `comm` drops while the rank unwinds, and its `Drop` poisons the world
/// and wakes every blocked peer so they fail fast rather than deadlock.
fn run_rank<M: Send, R>(f: impl Fn(Comm<M>) -> R, comm: Comm<M>) -> R {
    install_cascade_quiet_hook();
    // The thread runs nothing else, so the mark is never cleared.
    WORLD_RANK_THREAD.with(|flag| flag.set(true));
    f(comm)
}

/// Convenience: build a world of `n` ranks and run `f` on each.
pub fn run_spmd<M: Send, R: Send>(n: usize, f: impl Fn(Comm<M>) -> R + Sync) -> Vec<R> {
    World::new(n).run_collect(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_collect_indexes_by_rank() {
        let out = run_spmd::<(), usize>(6, |comm| comm.rank() * comm.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn ring_pass_accumulates() {
        const P: usize = 5;
        let sums = run_spmd::<u64, u64>(P, |mut comm| {
            let me = comm.rank();
            let next = (me + 1) % P;
            let prev = (me + P - 1) % P;
            comm.send(next, 0, me as u64);
            let from_prev = comm.recv(prev, 0).unwrap();
            from_prev + me as u64
        });
        let expect: Vec<u64> = (0..P).map(|me| ((me + P - 1) % P + me) as u64).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = World::<()>::new(0);
    }

    #[test]
    fn try_run_collect_names_first_panicking_rank() {
        // Ranks 1 and 3 both die (rank 3 with a String payload); the
        // error must report the lowest-indexed failure with its message.
        let world: World<()> = World::new(4);
        let err = world
            .try_run_collect(|comm| match comm.rank() {
                1 => panic!("static payload"),
                3 => panic!("formatted payload {}", 3),
                r => r,
            })
            .unwrap_err();
        assert_eq!(err.rank, 1);
        assert_eq!(err.message, "static payload");
        assert_eq!(format!("{err}"), "rank 1 panicked: static payload");
    }

    #[test]
    fn try_run_collect_reports_string_payloads() {
        let world: World<()> = World::new(2);
        let err = world
            .try_run_collect(|comm| {
                if comm.rank() == 1 {
                    panic!("rank {} hit shape mismatch", comm.rank());
                }
            })
            .unwrap_err();
        assert_eq!(err.rank, 1);
        assert_eq!(err.message, "rank 1 hit shape mismatch");
    }

    #[test]
    fn try_run_succeeds_and_collects_when_no_rank_panics() {
        let out = World::<()>::new(3)
            .try_run_collect(|comm| comm.rank() + 100)
            .unwrap();
        assert_eq!(out, vec![100, 101, 102]);
    }

    #[test]
    fn panicking_rank_poisons_blocked_peers() {
        // Rank 0 dies; ranks 1 and 2 are blocked in receives from it and
        // rank 3 in a receive with a minute to run. Poisoning must turn
        // every wait into Disconnected promptly instead of deadlocking or
        // timing out (so the error kind shows the wake, with no clock
        // read), and the original panic must come out of the world.
        use crate::comm::RecvError;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let disconnected = AtomicUsize::new(0);
        let err = World::<()>::new(4)
            .try_run(|mut comm| {
                let got = match comm.rank() {
                    0 => panic!("injected failure"),
                    3 => comm.recv_timeout(0, 1, std::time::Duration::from_secs(60)),
                    _ => comm.recv(0, 1),
                };
                if got == Err(RecvError::Disconnected) {
                    disconnected.fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap_err();
        assert_eq!((err.rank, err.message.as_str()), (0, "injected failure"));
        assert_eq!(disconnected.load(Ordering::SeqCst), 3);
    }
}
