//! Deterministic, seeded fault injection for the message-passing layer.
//!
//! A [`FaultPlan`] is a *schedule* of faults, not a random process: every
//! rule names the traffic it applies to — source rank, destination rank,
//! and a masked tag pattern — plus a bounded hit count, and every
//! rank-level event (stall, panic) names the rank and the epoch at which
//! it fires. Replaying the same plan against the same program therefore
//! produces the same fault sequence, which is what makes degraded-mode
//! behaviour testable. The `seed` only feeds the payload *corruption*
//! hook, so corrupted bytes are reproducible too.
//!
//! The plan is installed with [`crate::World::with_faults`]; a world
//! without a plan carries `None` and the send/checkpoint hot paths pay a
//! single branch (see `Comm::send`). Message-level actions are applied on
//! the *sender* side, exactly where a lossy or reordering interconnect
//! would act:
//!
//! * [`FaultAction::Drop`] — the message is silently discarded,
//! * [`FaultAction::Duplicate`] — delivered twice,
//! * [`FaultAction::Corrupt`] — mutated by the world's corruptor hook
//!   (the transport is payload-agnostic, so the application supplies the
//!   bit-flipper) and then delivered,
//! * [`FaultAction::DelayEpochs`] — held in the sender's delay queue and
//!   released at a later *epoch* (see below), modelling late delivery in
//!   logical rather than wall-clock time so tests stay deterministic.
//!
//! Epochs are application-defined progress points: SPMD loops call
//! [`crate::Comm::fault_checkpoint`] once per iteration (the STAP
//! pipeline passes the CPI index). The checkpoint is where rank stalls
//! (`thread::sleep`) and rank panics fire, and where delayed messages
//! are flushed.

use crate::comm::Tag;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// A masked match on message tags: a tag matches when
/// `tag & mask == value`.
///
/// With the STAP pipeline's `(edge << 48) | cpi` tag scheme this selects
/// an exact `(edge, cpi)` with [`TagPattern::exact`], a whole edge with
/// `TagPattern::masked(0xFF << 48, (edge as u64) << 48)`, or all traffic
/// with [`TagPattern::any`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagPattern {
    /// Bits of the tag that participate in the comparison.
    pub mask: Tag,
    /// Required value of the masked bits.
    pub value: Tag,
}

impl TagPattern {
    /// Matches every tag.
    pub fn any() -> Self {
        TagPattern { mask: 0, value: 0 }
    }

    /// Matches exactly `tag`.
    pub fn exact(tag: Tag) -> Self {
        TagPattern {
            mask: Tag::MAX,
            value: tag,
        }
    }

    /// Matches tags whose `mask` bits equal `value & mask`.
    pub fn masked(mask: Tag, value: Tag) -> Self {
        TagPattern {
            mask,
            value: value & mask,
        }
    }

    /// True when `tag` matches the pattern.
    #[inline]
    pub fn matches(&self, tag: Tag) -> bool {
        tag & self.mask == self.value
    }
}

/// What to do to a matched message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the message (it is never delivered).
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Mutate the payload via the world's corruptor hook, then deliver.
    /// Without a corruptor the message is delivered intact.
    Corrupt,
    /// Hold the message and release it `n` epochs after the sender's
    /// current epoch (flushed by [`crate::Comm::fault_checkpoint`]).
    DelayEpochs(u64),
}

/// One message-level fault rule.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Sending rank (`None` = any).
    pub src: Option<usize>,
    /// Destination rank (`None` = any).
    pub dst: Option<usize>,
    /// Tag pattern the message must match.
    pub tag: TagPattern,
    /// Action applied on a match.
    pub action: FaultAction,
    /// How many matching messages the rule applies to before it burns
    /// out (`u32::MAX` = unbounded).
    pub max_hits: u32,
}

impl FaultRule {
    fn matches(&self, src: usize, dst: usize, tag: Tag) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.tag.matches(tag)
    }
}

/// A deterministic schedule of injected faults (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for payload corruption (mixed per message, never shared
    /// state — determinism does not depend on delivery order).
    pub seed: u64,
    pub(crate) rules: Vec<FaultRule>,
    /// `(rank, epoch, sleep)` — the rank sleeps at the checkpoint.
    pub(crate) stalls: Vec<(usize, u64, Duration)>,
    /// `(rank, epoch)` — the rank panics at the checkpoint.
    pub(crate) panics: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan with a corruption seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when the plan schedules nothing (installing it still routes
    /// sends through the fault path; prefer not installing a plan for
    /// the true zero-cost production configuration).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.stalls.is_empty() && self.panics.is_empty()
    }

    /// Adds an arbitrary message rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    fn once(src: usize, dst: usize, tag: Tag, action: FaultAction) -> FaultRule {
        FaultRule {
            src: Some(src),
            dst: Some(dst),
            tag: TagPattern::exact(tag),
            action,
            max_hits: 1,
        }
    }

    /// Drops the first `src -> dst` message with exactly `tag`.
    pub fn drop_message(self, src: usize, dst: usize, tag: Tag) -> Self {
        self.rule(Self::once(src, dst, tag, FaultAction::Drop))
    }

    /// Duplicates the first `src -> dst` message with exactly `tag`.
    pub fn duplicate_message(self, src: usize, dst: usize, tag: Tag) -> Self {
        self.rule(Self::once(src, dst, tag, FaultAction::Duplicate))
    }

    /// Corrupts the first `src -> dst` message with exactly `tag`.
    pub fn corrupt_message(self, src: usize, dst: usize, tag: Tag) -> Self {
        self.rule(Self::once(src, dst, tag, FaultAction::Corrupt))
    }

    /// Delays the first `src -> dst` message with exactly `tag` by
    /// `epochs` sender epochs.
    pub fn delay_message(self, src: usize, dst: usize, tag: Tag, epochs: u64) -> Self {
        self.rule(Self::once(src, dst, tag, FaultAction::DelayEpochs(epochs)))
    }

    /// Sleeps `rank` for `sleep` at its `epoch` checkpoint.
    pub fn stall_rank(mut self, rank: usize, epoch: u64, sleep: Duration) -> Self {
        self.stalls.push((rank, epoch, sleep));
        self
    }

    /// Panics `rank` at its `epoch` checkpoint.
    pub fn panic_rank(mut self, rank: usize, epoch: u64) -> Self {
        self.panics.push((rank, epoch));
        self
    }
}

/// Application-supplied payload mutator: `(message, corruption_word)`.
/// The word is a seeded, per-message deterministic 64-bit value the hook
/// can use to pick which bits to flip.
pub type Corruptor<M> = Arc<dyn Fn(&mut M, u64) + Send + Sync>;

/// splitmix64 — tiny, dependency-free mixer for corruption words.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-rank mutable fault state. `Comm` is owned by a single thread, so
/// interior mutability via `RefCell` is safe and keeps `send(&self)`
/// signature intact.
pub(crate) struct FaultState<M> {
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) corruptor: Option<Corruptor<M>>,
    /// Clones a payload for [`FaultAction::Duplicate`]. Captured at plan
    /// installation time so `Comm::send` itself never needs `M: Clone`.
    cloner: Arc<dyn Fn(&M) -> M + Send + Sync>,
    inner: RefCell<FaultInner<M>>,
}

struct FaultInner<M> {
    /// Hits consumed per rule (parallel to `plan.rules`).
    hits: Vec<u32>,
    /// Current epoch, advanced by `fault_checkpoint`.
    epoch: u64,
    /// Held messages: `(release_epoch, dst, tag, msg)`.
    delayed: Vec<(u64, usize, Tag, M)>,
}

/// What `Comm::send` should do with a message after consulting the plan.
pub(crate) enum SendVerdict<M> {
    /// Deliver as usual (possibly corrupted in place).
    Deliver(M),
    /// Deliver both payloads (duplicate injection).
    DeliverTwice(M, M),
    /// Message consumed by the fault plane (dropped or held).
    Consumed,
}

impl<M> FaultState<M> {
    pub(crate) fn new(plan: Arc<FaultPlan>, corruptor: Option<Corruptor<M>>) -> Self
    where
        M: Clone,
    {
        let hits = vec![0u32; plan.rules.len()];
        FaultState {
            plan,
            corruptor,
            cloner: Arc::new(|m: &M| m.clone()),
            inner: RefCell::new(FaultInner {
                hits,
                epoch: 0,
                delayed: Vec::new(),
            }),
        }
    }

    pub(crate) fn set_corruptor(&mut self, c: Corruptor<M>) {
        self.corruptor = Some(c);
    }

    /// Applies the first live matching rule to an outgoing message.
    pub(crate) fn on_send(&self, src: usize, dst: usize, tag: Tag, mut msg: M) -> SendVerdict<M> {
        let mut inner = self.inner.borrow_mut();
        let rule_idx = self.plan.rules.iter().enumerate().find_map(|(i, r)| {
            (inner.hits[i] < r.max_hits && r.matches(src, dst, tag)).then_some(i)
        });
        let Some(i) = rule_idx else {
            return SendVerdict::Deliver(msg);
        };
        inner.hits[i] += 1;
        match self.plan.rules[i].action {
            FaultAction::Drop => SendVerdict::Consumed,
            FaultAction::Duplicate => {
                let copy = (self.cloner)(&msg);
                SendVerdict::DeliverTwice(msg, copy)
            }
            FaultAction::Corrupt => {
                if let Some(c) = &self.corruptor {
                    let word = mix64(
                        self.plan.seed
                            ^ mix64(((src as u64) << 32) | dst as u64)
                            ^ mix64(tag ^ inner.hits[i] as u64),
                    );
                    c(&mut msg, word);
                }
                SendVerdict::Deliver(msg)
            }
            FaultAction::DelayEpochs(n) => {
                let release = inner.epoch.saturating_add(n);
                inner.delayed.push((release, dst, tag, msg));
                SendVerdict::Consumed
            }
        }
    }

    /// Advances the epoch; returns held messages now due, plus the
    /// stall/panic scheduled for `(rank, epoch)` if any.
    pub(crate) fn on_checkpoint(
        &self,
        rank: usize,
        epoch: u64,
    ) -> (Vec<(usize, Tag, M)>, Option<Duration>, bool) {
        let mut inner = self.inner.borrow_mut();
        inner.epoch = epoch;
        let mut due = Vec::new();
        let mut i = 0;
        while i < inner.delayed.len() {
            if inner.delayed[i].0 <= epoch {
                let (_, dst, tag, msg) = inner.delayed.swap_remove(i);
                due.push((dst, tag, msg));
            } else {
                i += 1;
            }
        }
        let stall = self
            .plan
            .stalls
            .iter()
            .find(|&&(r, e, _)| r == rank && e == epoch)
            .map(|&(_, _, d)| d);
        let panic = self
            .plan
            .panics
            .iter()
            .any(|&(r, e)| r == rank && e == epoch);
        (due, stall, panic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_patterns_match_as_documented() {
        assert!(TagPattern::any().matches(0));
        assert!(TagPattern::any().matches(u64::MAX));
        assert!(TagPattern::exact(42).matches(42));
        assert!(!TagPattern::exact(42).matches(43));
        // Edge-style mask: top byte selects, low bits free.
        let edge = TagPattern::masked(0xFF << 48, 3 << 48);
        assert!(edge.matches((3 << 48) | 7));
        assert!(!edge.matches((2 << 48) | 7));
    }

    #[test]
    fn rules_burn_out_after_max_hits() {
        let plan = Arc::new(FaultPlan::seeded(1).drop_message(0, 1, 5));
        let st: FaultState<u32> = FaultState::new(plan, None);
        assert!(matches!(st.on_send(0, 1, 5, 10), SendVerdict::Consumed));
        // Second matching message passes through untouched.
        assert!(matches!(st.on_send(0, 1, 5, 11), SendVerdict::Deliver(11)));
        // Non-matching traffic is never touched.
        assert!(matches!(st.on_send(0, 1, 6, 12), SendVerdict::Deliver(12)));
    }

    #[test]
    fn delayed_messages_release_at_their_epoch() {
        let plan = Arc::new(FaultPlan::seeded(0).delay_message(0, 1, 9, 2));
        let st: FaultState<u32> = FaultState::new(plan, None);
        assert!(matches!(st.on_send(0, 1, 9, 77), SendVerdict::Consumed));
        let (due, _, _) = st.on_checkpoint(0, 1);
        assert!(due.is_empty(), "not due yet");
        let (due, _, _) = st.on_checkpoint(0, 2);
        assert_eq!(due, vec![(1, 9, 77)]);
    }

    #[test]
    fn corruption_words_are_deterministic() {
        let mk = || {
            let plan = Arc::new(FaultPlan::seeded(99).corrupt_message(0, 1, 4));
            let corr: Corruptor<u64> = Arc::new(|m, w| *m ^= w);
            FaultState::new(plan, Some(corr))
        };
        let out = |st: &FaultState<u64>| match st.on_send(0, 1, 4, 1000) {
            SendVerdict::Deliver(v) => v,
            _ => panic!("corrupt must deliver"),
        };
        let a = out(&mk());
        let b = out(&mk());
        assert_eq!(a, b, "same seed, same corruption");
        assert_ne!(a, 1000, "payload must actually change");
    }

    #[test]
    fn world_drop_rule_discards_exactly_one_message() {
        use crate::comm::RecvError;
        use crate::world::World;
        let world: World<u32> =
            World::new(2).with_faults(FaultPlan::seeded(7).drop_message(0, 1, 5));
        world
            .try_run_collect(|mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 5, 10); // dropped
                    comm.send(1, 5, 11); // delivered (rule burned out)
                } else {
                    assert_eq!(comm.recv(0, 5).unwrap(), 11);
                    // Nothing else ever arrives (Timeout while the sender is
                    // still winding down, Disconnected once it exits).
                    let err = comm
                        .recv_timeout(0, 5, std::time::Duration::from_millis(20))
                        .unwrap_err();
                    assert!(matches!(err, RecvError::Timeout | RecvError::Disconnected));
                }
            })
            .unwrap();
    }

    #[test]
    fn world_duplicate_rule_delivers_twice() {
        use crate::world::World;
        let world: World<u32> =
            World::new(2).with_faults(FaultPlan::seeded(0).duplicate_message(0, 1, 3));
        world
            .try_run_collect(|mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, 42);
                } else {
                    assert_eq!(comm.recv(0, 3).unwrap(), 42);
                    assert_eq!(comm.recv(0, 3).unwrap(), 42, "duplicate copy");
                }
            })
            .unwrap();
    }

    #[test]
    fn world_delay_rule_releases_at_checkpoint() {
        use crate::world::World;
        let world: World<u32> =
            World::new(2).with_faults(FaultPlan::seeded(0).delay_message(0, 1, 8, 2));
        const FENCE: u64 = 10;
        const CHECKED: u64 = 11;
        world
            .try_run_collect(|mut comm| {
                if comm.rank() == 0 {
                    comm.fault_checkpoint(0);
                    comm.send(1, 8, 5); // held until epoch >= 2
                    comm.send(1, 9, 1); // control message, untouched
                    comm.fault_checkpoint(1);
                    comm.send(1, FENCE, 0);
                    comm.recv(1, CHECKED).unwrap(); // receiver checked tag 8
                    comm.fault_checkpoint(2); // releases the held message
                } else {
                    assert_eq!(comm.recv(0, 9).unwrap(), 1);
                    // Per-sender FIFO: past the fence, anything rank 0 sent
                    // before it is buffered, so tag 8 is really still held.
                    comm.recv(0, FENCE).unwrap();
                    assert_eq!(
                        comm.recv_timeout(0, 8, std::time::Duration::ZERO),
                        Err(crate::comm::RecvError::Timeout),
                        "held until epoch 2"
                    );
                    comm.send(0, CHECKED, 0);
                    assert_eq!(comm.recv(0, 8).unwrap(), 5, "released at epoch 2");
                }
            })
            .unwrap();
    }

    #[test]
    fn world_corruptor_applies_to_corrupt_rules_only() {
        use crate::world::World;
        let corr: Corruptor<u64> = Arc::new(|m, w| *m ^= w);
        let world: World<u64> = World::new(2)
            .with_faults(FaultPlan::seeded(11).corrupt_message(0, 1, 1))
            .with_corruptor(corr);
        world
            .try_run_collect(|mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 100); // corrupted
                    comm.send(1, 2, 200); // clean
                } else {
                    assert_ne!(comm.recv(0, 1).unwrap(), 100);
                    assert_eq!(comm.recv(0, 2).unwrap(), 200);
                }
            })
            .unwrap();
    }

    #[test]
    fn world_panic_schedule_produces_structured_error() {
        use crate::world::World;
        let world: World<()> = World::new(3).with_faults(FaultPlan::seeded(0).panic_rank(1, 4));
        let err = world
            .try_run_collect(|mut comm| {
                for epoch in 0..6u64 {
                    comm.fault_checkpoint(epoch);
                }
            })
            .unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(
            err.message.contains("rank 1 panicked at epoch 4"),
            "got: {}",
            err.message
        );
    }

    #[test]
    fn checkpoint_reports_stall_and_panic_schedules() {
        let plan = Arc::new(
            FaultPlan::seeded(0)
                .stall_rank(3, 5, Duration::from_millis(10))
                .panic_rank(2, 1),
        );
        let st: FaultState<()> = FaultState::new(plan, None);
        let (_, stall, panic) = st.on_checkpoint(3, 5);
        assert_eq!(stall, Some(Duration::from_millis(10)));
        assert!(!panic);
        let (_, stall, panic) = st.on_checkpoint(2, 1);
        assert_eq!(stall, None);
        assert!(panic);
        let (_, stall, panic) = st.on_checkpoint(2, 2);
        assert!(stall.is_none() && !panic);
    }
}
