//! Cross-crate test: `stap-cube`'s redistribution plans executed over
//! the real `stap-mp` runtime — the paper's "all-to-all personalized
//! communication" with data collection and reorganization, end to end.

use stap::cube::{AxisPartition, CCube, RedistPlan};
use stap::math::Cx;
use stap::mp::run_spmd;

/// Executes a redistribution plan on real rank threads: source ranks
/// pack and send, destination ranks receive and assemble. Source rank i
/// doubles as destination rank i when counts allow (like the pipeline's
/// distinct task groups, ranks 0..src are senders, src..src+dst are
/// receivers).
fn run_over_mp(plan: &RedistPlan, global: &CCube) -> Vec<CCube> {
    let src_n = plan.src_part.nodes();
    let dst_n = plan.dst_part.nodes();
    let outputs = run_spmd::<CCube, _>(src_n + dst_n, |mut comm| {
        let rank = comm.rank();
        if rank < src_n {
            // Sender: own slab of the global cube, pack per receiver.
            let mut r = [
                0..global.shape()[0],
                0..global.shape()[1],
                0..global.shape()[2],
            ];
            r[plan.src_part.axis] = plan.src_part.range_of(rank);
            let local = global.extract(r[0].clone(), r[1].clone(), r[2].clone());
            for block in plan.sends_of(rank) {
                let msg = plan.pack(block, &local);
                comm.send(src_n + block.dst, block.dst as u64, msg);
            }
            None
        } else {
            let me = rank - src_n;
            let mut local = CCube::zeros(plan.dst_local_shape(me));
            let blocks: Vec<_> = plan.recvs_of(me).cloned().collect();
            for block in &blocks {
                let msg = comm.recv(block.src, me as u64).unwrap();
                plan.unpack(block, &msg, &mut local);
            }
            Some(local)
        }
    });
    outputs.into_iter().flatten().collect()
}

fn numbered(shape: [usize; 3]) -> CCube {
    CCube::from_fn(shape, |i, j, k| {
        Cx::new((i * 10000 + j * 100 + k) as f64, -(k as f64))
    })
}

#[test]
fn k_to_n_reorganization_over_threads() {
    // The Doppler -> beamforming pattern: (K, 2J, N) partitioned on K
    // over 4 senders becomes (N, K, 2J) partitioned on N over 3
    // receivers.
    let shape = [32, 8, 16];
    let global = numbered(shape);
    let plan = RedistPlan::new(
        shape,
        AxisPartition::block(0, 32, 4),
        AxisPartition::block(0, 16, 3),
        [2, 0, 1],
    );
    let locals = run_over_mp(&plan, &global);
    let want = global.permute([2, 0, 1]);
    for (p, local) in locals.iter().enumerate() {
        let own = plan.dst_part.range_of(p);
        let expected = want.extract(own, 0..32, 0..8);
        assert_eq!(local, &expected, "receiver {p}");
    }
}

#[test]
fn same_axis_rebalance_over_threads() {
    // Beamforming -> pulse compression: same axis, different counts.
    let shape = [12, 6, 10];
    let global = numbered(shape);
    let plan = RedistPlan::new(
        shape,
        AxisPartition::block(0, 12, 5),
        AxisPartition::block(0, 12, 2),
        [0, 1, 2],
    );
    let locals = run_over_mp(&plan, &global);
    for (p, local) in locals.iter().enumerate() {
        let own = plan.dst_part.range_of(p);
        let expected = global.extract(own, 0..6, 0..10);
        assert_eq!(local, &expected, "receiver {p}");
    }
}

#[test]
fn repeated_redistributions_compose_to_identity() {
    // K->N then N->K recovers the original distribution.
    let shape = [16, 4, 8];
    let global = numbered(shape);
    let fwd = RedistPlan::new(
        shape,
        AxisPartition::block(0, 16, 3),
        AxisPartition::block(0, 8, 2),
        [2, 0, 1],
    );
    let fwd_locals = run_over_mp(&fwd, &global);
    // Reassemble the permuted global from receiver slabs, then go back.
    let mut permuted = CCube::zeros([8, 16, 4]);
    for (p, local) in fwd_locals.iter().enumerate() {
        let own = fwd.dst_part.range_of(p);
        permuted.place([own.start, 0, 0], local);
    }
    let back = RedistPlan::new(
        [8, 16, 4],
        AxisPartition::block(0, 8, 2),
        AxisPartition::block(0, 16, 3),
        [1, 2, 0],
    );
    let back_locals = run_over_mp(&back, &permuted);
    for (p, local) in back_locals.iter().enumerate() {
        let own = back.dst_part.range_of(p);
        let expected = global.extract(own, 0..4, 0..8);
        assert_eq!(local, &expected, "round-trip receiver {p}");
    }
}
