//! The Doppler corner turn: FFT output tiles scattered into bin-major
//! wire blocks.
//!
//! The Doppler task finishes a tile of range rows `[rows, lanes, N]`
//! with the Doppler bin at unit stride; every successor is partitioned
//! *by* bin and wants `[bin][row][channel]`. This is the "data
//! collection and reorganization" copy of Fig. 8, and on a cache machine
//! it is where the misses are paid — so it is done once, while the tile
//! is still cache-resident, straight into the blocks that go on the
//! wire. [`BinBlock`] describes one destination block once; the task
//! loop calls [`BinBlock::scatter`] per finished tile.

/// One corner-turn destination: a `[groups * bins, rows, channels]` block
/// holding, for each sub-CPI of a slot group and each of its Doppler
/// `bins`, the selected range `rows` of the first `channels` lanes —
/// element order `[u * bins + bin][row][channel]`.
pub struct BinBlock {
    bins: Vec<usize>,
    /// Block row positions `row_start[r]..row_start[r + 1]` take source
    /// row `r` of a sub-CPI: empty when the block skips the row, more
    /// than one when the row list repeats it.
    row_start: Vec<usize>,
    channels: usize,
}

impl BinBlock {
    /// A block taking Doppler `bins`, the ascending sub-CPI-local range
    /// `rows` (out of `klen` per sub-CPI) and the leading `channels`
    /// lanes of every source row.
    pub fn new(bins: &[usize], rows: &[usize], klen: usize, channels: usize) -> Self {
        assert!(
            rows.windows(2).all(|w| w[0] <= w[1]),
            "block rows must be ascending"
        );
        assert!(
            rows.last().is_none_or(|&r| r < klen),
            "block row out of range"
        );
        let mut row_start = vec![0usize; klen + 1];
        for &r in rows {
            row_start[r + 1] += 1;
        }
        for r in 0..klen {
            row_start[r + 1] += row_start[r];
        }
        BinBlock {
            bins: bins.to_vec(),
            row_start,
            channels,
        }
    }

    /// The block's cube shape for a slot group of `groups` sub-CPIs.
    pub fn shape(&self, groups: usize) -> [usize; 3] {
        let klen = self.row_start.len() - 1;
        [
            groups * self.bins.len(),
            self.row_start[klen],
            self.channels,
        ]
    }

    /// Scatters one finished tile into `block` (the storage of a cube of
    /// [`BinBlock::shape`]) and returns the number of elements written.
    /// `tile` is `[tile rows, lanes, n]` row-major and starts at slab row
    /// `row0`, where the slab stacks whole sub-CPIs of `klen` rows; a
    /// tile never straddles two sub-CPIs. Summed over the tiles of a
    /// slab the return values cover the block exactly once.
    pub fn scatter<T: Copy>(
        &self,
        tile: &[T],
        lanes: usize,
        n: usize,
        row0: usize,
        block: &mut [T],
    ) -> usize {
        let klen = self.row_start.len() - 1;
        let (u, r0) = (row0 / klen, row0 % klen);
        let tile_rows = tile.len() / (lanes * n);
        assert_eq!(tile.len(), tile_rows * lanes * n, "ragged tile");
        assert!(r0 + tile_rows <= klen, "tile straddles two sub-CPIs");
        assert!(
            self.channels <= lanes,
            "block wants more lanes than the tile has"
        );
        let positions = self.row_start[r0]..self.row_start[r0 + tile_rows];
        if positions.is_empty() {
            return 0;
        }
        let channels = self.channels;
        let plane = self.row_start[klen] * channels;
        let nb = self.bins.len();
        // Bin-major: each destination plane receives one contiguous run
        // (consecutive rows x channels), the strided reads stay inside
        // the cache-resident tile.
        for (bi, &bin) in self.bins.iter().enumerate() {
            let dst = &mut block[(u * nb + bi) * plane..][..plane];
            for t in 0..tile_rows {
                let src = &tile[t * lanes * n + bin..];
                for pos in self.row_start[r0 + t]..self.row_start[r0 + t + 1] {
                    let run = &mut dst[pos * channels..][..channels];
                    for (d, s) in run.iter_mut().zip(src.iter().step_by(n)) {
                        *d = *s;
                    }
                }
            }
        }
        positions.len() * nb * channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cube;
    use stap_util::check::check;

    /// The block built element by element from the whole slab.
    fn oracle(
        slab: &Cube<u32>,
        groups: usize,
        bins: &[usize],
        rows: &[usize],
        channels: usize,
    ) -> Vec<u32> {
        let klen = slab.shape()[0] / groups;
        let mut out = Vec::new();
        for u in 0..groups {
            for &bin in bins {
                for &row in rows {
                    for ch in 0..channels {
                        out.push(slab[(u * klen + row, ch, bin)]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn tiled_scatter_equals_elementwise_gather() {
        check("corner-turn scatter", 200, |g| {
            let groups = g.int(1, 4);
            let klen = g.int(1, 12);
            let lanes = g.int(1, 7);
            let n = g.int(1, 10);
            let channels = g.int(1, lanes + 1);
            let bins: Vec<usize> = (0..n).filter(|_| g.bool(0.6)).collect();
            // Ascending rows with skips and repeats.
            let mut rows = Vec::new();
            for r in 0..klen {
                for _ in 0..g.choose(&[0usize, 1, 1, 2]) {
                    rows.push(r);
                }
            }
            let mut c = 0u32;
            let slab = Cube::from_fn([groups * klen, lanes, n], |_, _, _| {
                c += 1;
                c
            });
            let layout = BinBlock::new(&bins, &rows, klen, channels);
            let shape = layout.shape(groups);
            assert_eq!(shape, [groups * bins.len(), rows.len(), channels]);
            let mut block = vec![u32::MAX; shape[0] * shape[1] * shape[2]];
            let tile_rows = g.int(1, klen + 2);
            let mut written = 0;
            for u in 0..groups {
                let mut r0 = 0;
                while r0 < klen {
                    let tr = tile_rows.min(klen - r0);
                    let row0 = u * klen + r0;
                    let tile = &slab.as_slice()[row0 * lanes * n..][..tr * lanes * n];
                    written += layout.scatter(tile, lanes, n, row0, &mut block);
                    r0 += tr;
                }
            }
            assert_eq!(written, block.len(), "coverage");
            assert_eq!(block, oracle(&slab, groups, &bins, &rows, channels));
        });
    }

    #[test]
    #[should_panic(expected = "straddles")]
    fn straddling_tile_is_rejected() {
        let layout = BinBlock::new(&[0], &[0, 1], 2, 1);
        let tile = [0u32; 4];
        let mut block = [0u32; 4];
        layout.scatter(&tile, 1, 2, 1, &mut block);
    }
}
