//! Buffer-conservation property for mid-flight disconnects.
//!
//! A stream leaving while it has CPIs queued (and one already
//! dispatched into a slot) must never leak pool buffers: every cube it
//! submitted is either purged at disconnect and recycled, or drains
//! through completion as `Dropped` and is recycled there. The proof is
//! the pool itself — after a warmup round, repeated churn rounds serve
//! every `take_cube_from` from the freelist (zero new pool misses), so
//! a single leaked buffer anywhere would fail the miss assertion on the
//! next round.
//!
//! The counting allocator additionally bounds the disconnect path's
//! heap traffic: a full churn round (8 admissions, a dispatch, a purge,
//! 8 completions) is allowed only ledger-sized allocations (the row
//! for the fresh stream id, the purge return vector) — far
//! below one cube's payload, so no data-plane buffer is ever allocated
//! or copied outside the pool.
//!
//! One `#[test]` because the allocation counters are process-global
//! (see `tests/zero_alloc.rs`).

use stap::cube::{CCube, SharedBufferPool};
use stap::math::Cx;
use stap::pipeline::CpiJob;
use stap::serve::{AdmissionConfig, Ingest};
use stap_bench::alloc_count::{self, CountingAllocator};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ROUNDS: usize = 5;
const SHAPE: [usize; 3] = [16, 8, 16];
/// CPIs per stream per round: stream 0 and the churn stream interleave.
const PER_STREAM: usize = 4;

/// One churn round against a disconnecting stream id.
///
/// Interleaves stream 0 with a fresh `churn` id, dispatches one slot
/// (so the churn stream has a CPI genuinely in flight), disconnects the
/// churn stream, recycles the purge, then completes everything —
/// the in-flight churn CPI draining as `Dropped`.
fn churn_round(ing: &mut Ingest, pool: &SharedBufferPool<Cx>, src: &CCube, churn: u16) {
    let now = Instant::now();
    ing.register(churn);
    for i in 0..PER_STREAM {
        assert_eq!(
            ing.submit(0, pool.take_cube_from(src), now)
                .map(|_| ())
                .map_err(|(r, _)| r),
            Ok(()),
            "stream 0 round admission {i}"
        );
        ing.submit(churn, pool.take_cube_from(src), now)
            .map_err(|(r, _)| r)
            .expect("churn admission");
    }

    // Dispatch one slot: [stream 0 CPI, churn CPI] leave the queue and
    // are now "in the pipeline".
    let mut slot: Vec<CpiJob> = Vec::with_capacity(2 * PER_STREAM);
    ing.next_group_into(2, &mut slot);
    assert_eq!(slot.len(), 2);
    assert_eq!(slot[1].stream, churn);

    // The producer dies. Queued churn CPIs are purged and their cubes
    // ride back for recycling; the dispatched one is past saving and
    // must drain instead.
    let purged = ing.disconnect(churn);
    assert_eq!(purged.len(), PER_STREAM - 1, "queued churn CPIs purge");
    for cube in purged {
        pool.recycle(cube);
    }

    // The slot completes: stream 0 clean, the churn CPI as a drain
    // (its stream is retired, so `complete` books it `Dropped`).
    for p in slot.drain(..) {
        ing.complete(p.stream, false, now);
        pool.recycle(p.cube);
    }

    // Drain the rest of stream 0's queue.
    ing.next_group_into(2 * PER_STREAM, &mut slot);
    assert_eq!(slot.len(), PER_STREAM - 1);
    for p in slot.drain(..) {
        assert_eq!(p.stream, 0, "only stream 0 survives the purge");
        ing.complete(p.stream, false, now);
        pool.recycle(p.cube);
    }
}

#[test]
fn disconnect_mid_slot_conserves_pool_buffers() {
    let cube_bytes = (SHAPE.iter().product::<usize>() * std::mem::size_of::<Cx>()) as u64;
    let src = CCube::from_fn(SHAPE, |i, j, k| {
        Cx::new((i + 2 * j) as f64, (k as f64) - 3.0)
    });
    let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
    // Peak demand of one round: both streams fully admitted.
    pool.reserve(SHAPE.iter().product(), 2 * PER_STREAM);

    let mut ing = Ingest::new(AdmissionConfig {
        queue_depth: PER_STREAM,
        shape: SHAPE,
        quarantine_streak: 0,
        probation_ms: 10,
    });
    ing.register(0);

    // Warmup: first churn round sizes the ledger's maps and vectors.
    churn_round(&mut ing, &pool, &src, 99);
    let warm = pool.stats();
    assert_eq!(warm.misses, 0, "reserve must cover a full round: {warm:?}");

    let (_, d) = alloc_count::count_in(|| {
        for r in 0..ROUNDS {
            churn_round(&mut ing, &pool, &src, 100 + r as u16);
        }
    });

    // Conservation: every cube of every round came back to the pool —
    // a leaked buffer would force a miss on a later round's take.
    let after = pool.stats();
    assert_eq!(
        after.misses, warm.misses,
        "churn rounds must not miss the pool (leaked buffer?): {after:?}"
    );
    assert_eq!(
        (after.hits - warm.hits) as usize,
        ROUNDS * 2 * PER_STREAM,
        "every take must go through the freelist: {after:?}"
    );

    // Bounded control-plane heap traffic: fresh ids insert ledger rows,
    // and each purge returns a vector — but nothing cube-sized. All
    // five rounds together must stay under a single cube payload.
    assert!(
        d.bytes < cube_bytes,
        "disconnect churn allocated {} bytes over {ROUNDS} rounds \
         (cube payload is {cube_bytes}): data-plane buffer escaped the pool",
        d.bytes
    );

    // The ledger tells the drain story: stream 0 is untouched, every
    // churn id accounts all its CPIs as dropped (purged or drained).
    let rows = ing.stream_health(Instant::now());
    let h0 = rows.iter().find(|h| h.stream == 0).unwrap();
    assert_eq!(h0.ok as usize, (ROUNDS + 1) * PER_STREAM);
    assert_eq!(h0.dropped, 0);
    assert_eq!(h0.rejects.total(), 0);
    for r in 0..ROUNDS {
        let id = 100 + r as u16;
        let h = rows.iter().find(|h| h.stream == id).unwrap();
        assert_eq!(h.ok, 0);
        assert_eq!(
            h.dropped as usize, PER_STREAM,
            "churn stream {id}: purged + drained must cover every CPI"
        );
        assert!(ing.is_retired(id));
    }
    assert_eq!(ing.purged as usize, (ROUNDS + 1) * (PER_STREAM - 1));

    // Sanity: the counter itself is live.
    assert!(alloc_count::snapshot().allocs > 0);
}
