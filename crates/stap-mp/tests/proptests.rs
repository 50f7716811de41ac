//! Property-based tests for the message-passing runtime (in-tree
//! harness; see `stap_util::check`).

use stap_mp::world::run_spmd;
use stap_util::check::check;

#[test]
fn point_to_point_preserves_per_pair_order() {
    check("point_to_point_preserves_per_pair_order", 16, |g| {
        // Messages with the same (src, dst, tag) arrive FIFO.
        let n_msgs = g.int(1, 40);
        let got = run_spmd::<usize, Vec<usize>>(2, move |mut comm| {
            if comm.rank() == 0 {
                for i in 0..n_msgs {
                    comm.send(1, 9, i);
                }
                Vec::new()
            } else {
                (0..n_msgs).map(|_| comm.recv(0, 9).unwrap()).collect()
            }
        });
        let want: Vec<usize> = (0..n_msgs).collect();
        assert_eq!(&got[1], &want);
    });
}
