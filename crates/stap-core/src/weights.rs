//! Tasks 1 and 2: adaptive weight computation.
//!
//! Both tasks solve the beam-constrained least squares problem of the
//! paper's Appendix A: stack clutter training snapshots over a scaled
//! constraint block, put the steering vector on the constraint rows of
//! the right-hand side, solve, and normalize. The two tasks differ in
//! their training data and factorization strategy:
//!
//! * **easy** — training stacked from the last three CPIs in this azimuth
//!   (first stagger window only, `J` columns), fresh QR per CPI;
//! * **hard** — per (bin, range segment) recursive QR state over both
//!   stagger windows (`2J` columns), updated with an exponential
//!   forgetting factor, constrained with the stagger-phase-paired
//!   identity `[I | e^{-2 pi i d s / N} I]` so both windows combine
//!   coherently for a target at Doppler bin `d`.
//!
//! The weights a call produces are **for the next CPI**: callers feed the
//! *previous* CPI's staggered cube, which is exactly the temporal
//! dependency (`TD`) the parallel pipeline exploits to keep weight
//! computation off the latency-critical path.

use crate::params::StapParams;
use crate::training::{easy_snapshot, hard_snapshot_into, hard_training_cells, EasyTrainingStore};
use stap_cube::CCube;
use stap_math::qr::{qr_update_lanes, qr_update_with, Lane, LaneMat, QrScratch, LANES};
use stap_math::solve::{
    constrained_lstsq, constrained_lstsq_from_r_lanes, constrained_lstsq_from_r_with,
    constrained_lstsq_lanes, normalize_columns, LaneSolveScratch, SolveScratch,
};
use stap_math::{simd, CMat, Cx};
use std::collections::{HashMap, VecDeque};
use std::f64::consts::PI;
use std::hash::Hash;

/// Easy-bin weights: one `J x M` matrix per easy Doppler bin.
#[derive(Clone, Debug)]
pub struct EasyWeights {
    /// Indexed by easy-bin order (`StapParams::easy_bins`).
    pub per_bin: Vec<CMat>,
}

/// Hard-bin weights: one `2J x M` matrix per (hard bin, range segment).
#[derive(Clone, Debug)]
pub struct HardWeights {
    /// Outer index: hard-bin order (`StapParams::hard_bins`); inner:
    /// range segment.
    pub per_bin: Vec<Vec<CMat>>,
}

impl HardWeights {
    /// Preallocated weights (`2J x beams` zeros per (bin, segment)) for
    /// the zero-alloc [`HardWeightComputer::process_into`] path.
    pub fn zeros(params: &StapParams, beams: usize) -> Self {
        let jj = 2 * params.j_channels;
        HardWeights {
            per_bin: (0..params.n_hard)
                .map(|_| {
                    (0..params.num_segments())
                        .map(|_| CMat::zeros(jj, beams))
                        .collect()
                })
                .collect(),
        }
    }
}

/// The hard-bin constraint matrix `[I_J | e^{-2 pi i d s / N} I_J]`.
pub fn hard_constraint(params: &StapParams, bin: usize) -> CMat {
    let j = params.j_channels;
    let phase = Cx::cis(-2.0 * PI * bin as f64 * params.stagger as f64 / params.n_pulses as f64);
    CMat::from_fn(j, 2 * j, |r, c| {
        if c == r {
            Cx::real(1.0)
        } else if c == r + j {
            phase
        } else {
            Cx::new(0.0, 0.0)
        }
    })
}

/// Mean element magnitude of a matrix — the MATLAB reference's `average`,
/// used to scale the constraint block commensurately with the data.
pub fn mean_abs(m: &CMat) -> f64 {
    mean_abs_runs([m.as_slice()])
}

/// [`mean_abs`] of a matrix given as consecutive runs of its row-major
/// elements (a training snapshot still lying in the wire blocks it
/// arrived in). Magnitudes are summed in element order, so the result is
/// bit-identical to gathering the runs into a matrix first — and, since
/// `|x| == |conj(x)|` bitwise, to conjugating them on the way.
pub fn mean_abs_runs<'a>(runs: impl IntoIterator<Item = &'a [Cx]>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for run in runs {
        sum = simd::sum_abs(sum, run);
        count += run.len();
    }
    if count == 0 {
        return 1.0;
    }
    (sum / count as f64).max(1e-12)
}

/// Easy weight computation with per-azimuth training history.
pub struct EasyWeightComputer {
    params: StapParams,
    store: EasyTrainingStore,
    /// The easy constraint block (`I_J`), built once and reused each CPI.
    constraint: CMat,
}

impl EasyWeightComputer {
    /// Creates the computer (empty history).
    pub fn new(params: &StapParams) -> Self {
        EasyWeightComputer {
            params: params.clone(),
            store: EasyTrainingStore::new(params.easy_history),
            constraint: CMat::identity(params.j_channels),
        }
    }

    /// Quiescent (non-adaptive) weights: the normalized steering vectors,
    /// used until training history exists for an azimuth.
    pub fn quiescent(&self, steering: &CMat) -> EasyWeights {
        let w = normalize_columns(steering.clone());
        EasyWeights {
            per_bin: vec![w; self.params.n_easy()],
        }
    }

    /// Ingests the previous CPI's staggered cube for azimuth `beam` and
    /// returns the weights to apply to the *next* CPI in this azimuth.
    /// `steering` is `J x M`.
    pub fn process(&mut self, beam: usize, staggered: &CCube, steering: &CMat) -> EasyWeights {
        let bins = self.params.easy_bins();
        let snaps: Vec<CMat> = bins
            .iter()
            .map(|&b| easy_snapshot(staggered, &self.params, b))
            .collect();
        self.store.push(beam, snaps);
        let c = &self.constraint;
        let per_bin = (0..bins.len())
            .map(|bi| {
                let training = self
                    .store
                    .stacked(beam, bi)
                    .expect("history was just pushed");
                let k = mean_abs(&training) * self.params.beam_constraint_wt;
                constrained_lstsq(&training, c, k, steering)
            })
            .collect();
        EasyWeights { per_bin }
    }
}

/// Hard weight computation with per-(azimuth, bin, segment) recursive QR
/// state.
pub struct HardWeightComputer {
    params: StapParams,
    /// R factors keyed by (beam, hard-bin index, segment).
    r_state: HashMap<(usize, usize, usize), CMat>,
    /// Per-hard-bin constraint matrices `[I_J | e^{-2 pi i d s / N} I_J]`,
    /// built once and reused every CPI.
    constraints: Vec<CMat>,
    /// Hard Doppler bins, cached so the steady-state path never
    /// re-derives (and re-allocates) the list from the parameters.
    bins: Vec<usize>,
}

impl HardWeightComputer {
    /// Creates the computer (empty recursion state).
    pub fn new(params: &StapParams) -> Self {
        let bins = params.hard_bins();
        let constraints = bins
            .iter()
            .map(|&bin| hard_constraint(params, bin))
            .collect();
        HardWeightComputer {
            params: params.clone(),
            r_state: HashMap::new(),
            constraints,
            bins,
        }
    }

    /// Quiescent hard weights: steering duplicated over both stagger
    /// windows with the bin's alignment phase, normalized.
    pub fn quiescent(&self, steering: &CMat) -> HardWeights {
        let j = self.params.j_channels;
        let per_bin = self
            .params
            .hard_bins()
            .iter()
            .map(|&bin| {
                let phase = Cx::cis(
                    2.0 * PI * bin as f64 * self.params.stagger as f64
                        / self.params.n_pulses as f64,
                );
                let w = CMat::from_fn(2 * j, steering.cols(), |r, c| {
                    if r < j {
                        steering[(r, c)]
                    } else {
                        steering[(r - j, c)] * phase
                    }
                });
                vec![normalize_columns(w); self.params.num_segments()]
            })
            .collect();
        HardWeights { per_bin }
    }

    /// Ingests the previous CPI's staggered cube for azimuth `beam`
    /// (recursive update of every (bin, segment) R factor) and returns
    /// the weights for the next CPI. `steering` is `J x M`.
    pub fn process(&mut self, beam: usize, staggered: &CCube, steering: &CMat) -> HardWeights {
        let mut out = HardWeights::zeros(&self.params, steering.cols());
        let mut ws = HardWeightScratch::new(&self.params);
        self.process_into(beam, staggered, steering, &mut out, &mut ws);
        out
    }

    /// The zero-allocation steady-state form of
    /// [`HardWeightComputer::process`]: the snapshot gather, the planar
    /// recursive QR update and the constrained solve all run inside the
    /// caller's [`HardWeightScratch`] and write into a preallocated
    /// [`HardWeights`]. After the first CPI per azimuth (which inserts
    /// the recursion state), a steady-state call performs **zero** heap
    /// allocations. Results are bit-for-bit identical to `process`.
    pub fn process_into(
        &mut self,
        beam: usize,
        staggered: &CCube,
        steering: &CMat,
        out: &mut HardWeights,
        ws: &mut HardWeightScratch,
    ) {
        let jj = 2 * self.params.j_channels;
        let bins = &self.bins;
        assert_eq!(out.per_bin.len(), bins.len(), "hard weight bin count");
        for (bi, &bin) in bins.iter().enumerate() {
            let constraint = &self.constraints[bi];
            for seg in 0..self.params.num_segments() {
                ws.x.resize(0, jj);
                hard_snapshot_into(staggered, &ws.cells[seg], bin, &mut ws.x);
                let r_prev = self
                    .r_state
                    .entry((beam, bi, seg))
                    .or_insert_with(|| CMat::zeros(jj, jj));
                qr_update_with(
                    r_prev,
                    self.params.forgetting_factor,
                    &ws.x,
                    &mut ws.r_new,
                    &mut ws.qr,
                );
                let k = mean_abs(&ws.x) * self.params.beam_constraint_wt;
                constrained_lstsq_from_r_with(
                    &ws.r_new,
                    constraint,
                    k,
                    steering,
                    &mut out.per_bin[bi][seg],
                    &mut ws.solve,
                );
                r_prev.as_mut_slice().copy_from_slice(ws.r_new.as_slice());
            }
        }
    }
}

/// Persistent scratch for [`HardWeightComputer::process_into`]:
/// precomputed per-segment training cells, the snapshot gather matrix,
/// the updated `R` staging buffer and the QR/solve scratches.
pub struct HardWeightScratch {
    /// Training range cells per segment (fixed by the parameters).
    cells: Vec<Vec<usize>>,
    /// Snapshot gather, `samples x 2J`.
    x: CMat,
    /// Updated `R` before it is committed back to the recursion state.
    r_new: CMat,
    qr: QrScratch,
    solve: SolveScratch,
}

impl HardWeightScratch {
    /// Builds the scratch (training cells are precomputed here).
    pub fn new(params: &StapParams) -> Self {
        HardWeightScratch {
            cells: (0..params.num_segments())
                .map(|seg| hard_training_cells(params, seg))
                .collect(),
            x: CMat::zeros(0, 2 * params.j_channels),
            r_new: CMat::zeros(0, 0),
            qr: QrScratch::new(),
            solve: SolveScratch::new(),
        }
    }
}

/// The hard recursion of a set of hard Doppler bins, [`LANES`] bins to a
/// vector: what [`HardWeightComputer::process_into`] computes, bit for
/// bit, through the lane kernels of `stap-math`.
///
/// The `R` factors live in lane layout for good — one [`LaneMat`] per
/// (`key`, group of [`LANES`] adjacent bins, range segment), updated in
/// place — so nothing is packed or unpacked per CPI except the new
/// training rows, which are read straight from Doppler wire blocks
/// (`[bin][cell][2J]`, un-conjugated) rather than from a staggered
/// cube. Bins are batched within one segment, where every bin has the
/// same number of training rows; a last group short of [`LANES`] bins
/// is padded with copies of its first bin, whose results are dropped.
///
/// `K` names an independent recursion (the sequential reference keys by
/// azimuth beam, the resident pipeline by stream and beam).
pub struct HardWeightLanes<K> {
    beam_constraint_wt: f64,
    forgetting_factor: f64,
    /// `2J`, the order of every factor.
    jj: usize,
    /// Range segments per bin.
    segs: usize,
    /// `[I_J | e^{-2 pi i d s / N} I_J]` per owned bin.
    constraints: Vec<CMat>,
    /// Per input piece, per segment: where that segment's training rows
    /// start in the piece's `[cell][2J]` plane and how many there are.
    pieces: Vec<Vec<(usize, usize)>>,
    /// `R` per key, indexed `[group * segments + segment]`.
    state: HashMap<K, Vec<LaneMat>>,
    xt: LaneMat,
    solve: LaneSolveScratch,
}

impl<K: Copy + Eq + Hash> HardWeightLanes<K> {
    /// An empty recursion over the Doppler bins `bins`. Training rows
    /// arrive in `piece_rows.len()` pieces (one per Doppler node): piece
    /// `p` holds `piece_rows[p][seg]` of segment `seg`'s rows, segments
    /// in ascending order, and the pieces in order make up each
    /// segment's snapshot.
    pub fn new(params: &StapParams, bins: &[usize], piece_rows: &[Vec<usize>]) -> Self {
        let pieces = piece_rows
            .iter()
            .map(|rows| {
                assert_eq!(rows.len(), params.num_segments(), "rows per segment");
                let mut at = 0;
                rows.iter()
                    .map(|&n| {
                        at += n;
                        (at - n, n)
                    })
                    .collect()
            })
            .collect();
        HardWeightLanes {
            beam_constraint_wt: params.beam_constraint_wt,
            forgetting_factor: params.forgetting_factor,
            jj: 2 * params.j_channels,
            segs: params.num_segments(),
            constraints: bins.iter().map(|&b| hard_constraint(params, b)).collect(),
            pieces,
            state: HashMap::new(),
            xt: LaneMat::zeros(0, 0),
            solve: LaneSolveScratch::new(),
        }
    }

    /// The factors of recursion `key`, all zeros on first sight.
    fn factors(
        state: &mut HashMap<K, Vec<LaneMat>>,
        key: K,
        (nbins, segs, jj): (usize, usize, usize),
    ) -> &mut [LaneMat] {
        state.entry(key).or_insert_with(|| {
            let count = nbins.div_ceil(LANES) * segs;
            (0..count).map(|_| LaneMat::zeros(jj, jj)).collect()
        })
    }

    /// One CPI of recursion `key`: folds its training rows into every
    /// (bin, segment) factor and solves for the weights the next CPI of
    /// this recursion applies. `plane(p, b)` is piece `p`'s `[cell][2J]`
    /// plane of the `b`-th owned bin; `out` yields, per owned bin in
    /// order, that bin's per-segment weight matrices (resized grow-only
    /// to `2J x steering.cols()`).
    ///
    /// Allocates only the first time a `key` is seen.
    pub fn process<'a, 'o>(
        &mut self,
        key: K,
        steering: &CMat,
        plane: impl Fn(usize, usize) -> &'a [Cx],
        mut out: impl Iterator<Item = &'o mut [CMat]>,
    ) {
        let HardWeightLanes {
            beam_constraint_wt,
            forgetting_factor,
            jj,
            segs,
            constraints,
            pieces,
            state,
            xt,
            solve,
        } = self;
        let (nbins, segs, jj) = (constraints.len(), *segs, *jj);
        let factors = Self::factors(state, key, (nbins, segs, jj));
        for (g, factors) in factors.chunks_mut(segs.max(1)).enumerate() {
            let live = LANES.min(nbins - g * LANES);
            // Padding lanes rerun the group's first bin.
            let bin = |l: usize| g * LANES + if l < live { l } else { 0 };
            let mut weights: [Option<&mut [CMat]>; LANES] = std::array::from_fn(|l| {
                (l < live).then(|| out.next().expect("one weight row per owned bin"))
            });
            for (seg, r) in factors.iter_mut().enumerate() {
                let run = |p: usize, l: usize| {
                    let (at, rows) = pieces[p][seg];
                    &plane(p, bin(l))[at * jj..(at + rows) * jj]
                };
                xt.resize(jj, pieces.iter().map(|p| p[seg].1).sum());
                let mut row = 0;
                for (p, piece) in pieces.iter().enumerate() {
                    xt.fill_cols_conj(row, std::array::from_fn(|l| run(p, l)));
                    row += piece[seg].1;
                }
                qr_update_lanes(r, *forgetting_factor, xt, live);
                let mut k = [0.0; LANES];
                for l in 0..LANES {
                    k[l] = if l < live {
                        mean_abs_runs((0..pieces.len()).map(|p| run(p, l))) * *beam_constraint_wt
                    } else {
                        k[0]
                    };
                }
                constrained_lstsq_from_r_lanes(
                    r,
                    std::array::from_fn(|l| &constraints[bin(l)]),
                    k,
                    steering,
                    weights.each_mut().map(|w| w.as_mut().map(|w| &mut w[seg])),
                    solve,
                );
            }
        }
    }

    /// Installs `r` as the factor of (`key`, `bin`-th owned bin, `seg`).
    pub fn import(&mut self, key: K, bin: usize, seg: usize, r: &CMat) {
        let shape = (self.constraints.len(), self.segs, self.jj);
        Self::factors(&mut self.state, key, shape)[bin / LANES * self.segs + seg]
            .set_lane(bin % LANES, r);
    }

    /// Every factor held, as `(key, owned-bin index, segment, R)`.
    pub fn export(&self) -> impl Iterator<Item = (K, usize, usize, CMat)> + '_ {
        let (nbins, segs) = (self.constraints.len(), self.segs);
        self.state.iter().flat_map(move |(&key, factors)| {
            (0..nbins).flat_map(move |bin| {
                (0..segs).map(move |seg| {
                    let r = factors[bin / LANES * segs + seg].lane(bin % LANES);
                    (key, bin, seg, r)
                })
            })
        })
    }
}

/// One CPI's training rows of a group of [`LANES`] adjacent easy bins.
struct EasySnap {
    /// The rows, conjugated and transposed (`J x cells`): a block of the
    /// stacked system [`constrained_lstsq_lanes`] reduces.
    xt: LaneMat,
    /// `|x|` of the same elements in `[cell][channel]` order, the order
    /// [`mean_abs`] sums a stacked training matrix in; the magnitude is paid
    /// once per element, not once per CPI the element stays in history.
    abs: Vec<Lane>,
}

/// The history ring of one recursion: the last `len <= depth` CPIs of
/// every bin group, oldest at slot `head`.
struct EasyRing {
    head: usize,
    len: usize,
    /// Indexed `[group * depth + slot]`.
    snaps: Vec<EasySnap>,
}

/// The easy weights of a set of easy Doppler bins, [`LANES`] bins to a
/// vector: what [`EasyWeightComputer::process`] computes, bit for bit,
/// through the lane kernels of `stap-math`.
///
/// The training history lives in lane layout for good — per `key`, per
/// group of [`LANES`] adjacent bins, a ring of the last `easy_history`
/// CPIs' rows — so nothing is cloned or stacked per CPI: the new rows
/// are packed, conjugated, straight from Doppler wire blocks
/// (`[bin][cell][J]`, un-conjugated) over the oldest, and the solve
/// assembles `[oldest ... newest; k I_J]` into its own reused work
/// matrix. Every bin of a key has the same history depth, so the stacked
/// systems of a group's lanes are equally shaped; a last group short of
/// [`LANES`] bins is padded with copies of its first bin, whose results
/// are dropped.
///
/// `K` names an independent history (the sequential reference keys by
/// azimuth beam, the resident pipeline by stream and beam).
pub struct EasyWeightLanes<K> {
    beam_constraint_wt: f64,
    /// CPIs of history per key (`easy_history`).
    depth: usize,
    /// `J`, the order of every system.
    j: usize,
    nbins: usize,
    /// The easy constraint block, `I_J`.
    constraint: CMat,
    /// Training rows per input piece.
    pieces: Vec<usize>,
    state: HashMap<K, EasyRing>,
    solve: LaneSolveScratch,
}

impl<K: Copy + Eq + Hash> EasyWeightLanes<K> {
    /// Empty histories over `nbins` easy bins. Training rows arrive in
    /// `piece_rows.len()` pieces (one per Doppler node), `piece_rows[p]`
    /// of them in piece `p`; the pieces in order make up a CPI's
    /// snapshot.
    pub fn new(params: &StapParams, nbins: usize, piece_rows: &[usize]) -> Self {
        let j = params.j_channels;
        let cells: usize = piece_rows.iter().sum();
        let mut solve = LaneSolveScratch::new();
        solve.reserve_dense(params.easy_history * cells + j, j, params.m_beams);
        EasyWeightLanes {
            beam_constraint_wt: params.beam_constraint_wt,
            depth: params.easy_history,
            j,
            nbins,
            constraint: CMat::identity(j),
            pieces: piece_rows.to_vec(),
            state: HashMap::new(),
            solve,
        }
    }

    /// The ring of history `key`, empty (and fully allocated) on first
    /// sight.
    fn ring(
        state: &mut HashMap<K, EasyRing>,
        key: K,
        (nbins, depth, j, cells): (usize, usize, usize, usize),
    ) -> &mut EasyRing {
        state.entry(key).or_insert_with(|| EasyRing {
            head: 0,
            len: 0,
            snaps: (0..nbins.div_ceil(LANES) * depth)
                .map(|_| EasySnap {
                    xt: LaneMat::zeros(j, cells),
                    abs: vec![[0.0; LANES]; cells * j],
                })
                .collect(),
        })
    }

    /// `(bins, history depth, J, training rows per CPI)`.
    fn dims(&self) -> (usize, usize, usize, usize) {
        (self.nbins, self.depth, self.j, self.pieces.iter().sum())
    }

    /// One CPI of history `key`: its training rows replace the oldest
    /// CPI's (once `easy_history` are held) and every owned bin is solved
    /// for the weights the next CPI of this history applies. `plane(p,
    /// b)` is piece `p`'s `[cell][J]` plane of the `b`-th owned bin;
    /// `out` yields, per owned bin in order, that bin's weight matrix
    /// (resized grow-only to `J x steering.cols()`).
    ///
    /// Allocates only the first time a `key` is seen.
    pub fn process<'a, 'o>(
        &mut self,
        key: K,
        steering: &CMat,
        plane: impl Fn(usize, usize) -> &'a [Cx],
        mut out: impl Iterator<Item = &'o mut CMat>,
    ) {
        let dims @ (nbins, depth, j, _) = self.dims();
        let EasyWeightLanes {
            beam_constraint_wt: wt,
            constraint,
            pieces,
            state,
            solve,
            ..
        } = self;
        let ring = Self::ring(state, key, dims);
        // The newest CPI takes the free slot, or the oldest's.
        let newest = (ring.head + ring.len) % depth;
        if ring.len < depth {
            ring.len += 1;
        } else {
            ring.head = (ring.head + 1) % depth;
        }
        for (g, snaps) in ring.snaps.chunks_mut(depth).enumerate() {
            let live = LANES.min(nbins - g * LANES);
            // Padding lanes rerun the group's first bin.
            let bin = |l: usize| g * LANES + if l < live { l } else { 0 };
            let snap = &mut snaps[newest];
            let mut row = 0;
            for (p, &rows) in pieces.iter().enumerate() {
                let src: [&[Cx]; LANES] = std::array::from_fn(|l| plane(p, bin(l)));
                snap.xt.fill_cols_conj(row, src);
                for (i, a) in snap.abs[row * j..(row + rows) * j].iter_mut().enumerate() {
                    *a = simd::abs_lanes(
                        std::array::from_fn(|l| src[l][i].re),
                        std::array::from_fn(|l| src[l][i].im),
                    );
                }
                row += rows;
            }
            // `mean_abs` of the stacked history: one chain per lane,
            // ascending over the rows oldest CPI first.
            let slots = ring_slots(ring.head, ring.len, depth);
            let mut sum = [0.0; LANES];
            let mut count = 0usize;
            for slot in slots.clone() {
                for a in &snaps[slot].abs {
                    for l in 0..LANES {
                        sum[l] += a[l];
                    }
                }
                count += snaps[slot].abs.len();
            }
            let k = sum.map(|s| {
                let mean = if count == 0 {
                    1.0
                } else {
                    (s / count as f64).max(1e-12)
                };
                mean * *wt
            });
            let weights: [Option<&mut CMat>; LANES] = std::array::from_fn(|l| {
                (l < live).then(|| out.next().expect("one weight matrix per owned bin"))
            });
            let snaps = &*snaps;
            constrained_lstsq_lanes(
                slots.map(|slot| &snaps[slot].xt),
                constraint,
                k,
                steering,
                weights,
                solve,
            );
        }
    }

    /// Installs `history` (front = oldest, `cells x J` conjugated
    /// snapshots) as the ring of (`key`, `bin`-th owned bin). Every bin
    /// of a key must be given the same number of CPIs.
    pub fn import(&mut self, key: K, bin: usize, history: &VecDeque<CMat>) {
        let dims @ (nbins, depth, ..) = self.dims();
        assert!(history.len() <= depth, "imported history beyond the depth");
        let ring = Self::ring(&mut self.state, key, dims);
        assert!(
            ring.head == 0 && (ring.len == 0 || ring.len == history.len()),
            "ragged imported history"
        );
        ring.len = history.len();
        let (g, l) = (bin / LANES, bin % LANES);
        // The first bin of a short last group also fills its padding.
        let live = LANES.min(nbins - g * LANES);
        let lanes = if l == 0 { live..LANES } else { 0..0 };
        for (slot, m) in history.iter().enumerate() {
            let snap = &mut ring.snaps[g * depth + slot];
            let xt = m.transpose();
            for l in std::iter::once(l).chain(lanes.clone()) {
                snap.xt.set_lane(l, &xt);
            }
            // Four elements' magnitudes to a call (a short last chunk
            // pads with zeros and drops their magnitudes).
            for (a, v) in snap.abs.chunks_mut(LANES).zip(m.as_slice().chunks(LANES)) {
                let (mut re, mut im) = ([0.0; LANES], [0.0; LANES]);
                for (e, x) in v.iter().enumerate() {
                    (re[e], im[e]) = (x.re, x.im);
                }
                for (a, mag) in a.iter_mut().zip(simd::abs_lanes(re, im)) {
                    for l in std::iter::once(l).chain(lanes.clone()) {
                        a[l] = mag;
                    }
                }
            }
        }
    }

    /// Every ring held, as `(key, owned-bin index, history)` in the form
    /// [`Self::import`] takes.
    pub fn export(&self) -> impl Iterator<Item = (K, usize, VecDeque<CMat>)> + '_ {
        let (nbins, depth) = (self.nbins, self.depth);
        self.state.iter().flat_map(move |(&key, ring)| {
            (0..nbins).map(move |bin| {
                let history = ring_slots(ring.head, ring.len, depth)
                    .map(|slot| {
                        ring.snaps[bin / LANES * depth + slot]
                            .xt
                            .lane(bin % LANES)
                            .transpose()
                    })
                    .collect();
                (key, bin, history)
            })
        })
    }
}

/// Ring slots oldest to newest.
fn ring_slots(head: usize, len: usize, depth: usize) -> impl Iterator<Item = usize> + Clone {
    (0..len).map(move |i| (head + i) % depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_radar::ArrayGeometry;

    fn setup() -> (StapParams, ArrayGeometry, CMat) {
        let p = StapParams::reduced();
        let geom = ArrayGeometry::small(p.j_channels);
        let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
        (p, geom, steering)
    }

    /// A staggered cube dominated by a single spatial interferer at
    /// `az_deg`, present in every Doppler bin.
    fn interferer_cube(p: &StapParams, geom: &ArrayGeometry, az_deg: f64, power: f64) -> CCube {
        let s = geom.steering(az_deg);
        let mut state = 0x12345u64;
        let mut rngf = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut cube = CCube::zeros([p.k_range, 2 * p.j_channels, p.n_pulses]);
        for k in 0..p.k_range {
            for bin in 0..p.n_pulses {
                let g = Cx::new(rngf(), rngf()).scale(2.0 * power);
                let phase = Cx::cis(2.0 * PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64);
                for j in 0..p.j_channels {
                    cube[(k, j, bin)] = g * s[j] + Cx::new(rngf(), rngf()).scale(0.02);
                    cube[(k, p.j_channels + j, bin)] =
                        g * s[j] * phase + Cx::new(rngf(), rngf()).scale(0.02);
                }
            }
        }
        cube
    }

    #[test]
    fn easy_weights_are_unit_norm_per_beam() {
        let (p, geom, steering) = setup();
        let mut c = EasyWeightComputer::new(&p);
        let cube = interferer_cube(&p, &geom, 30.0, 5.0);
        let w = c.process(0, &cube, &steering);
        assert_eq!(w.per_bin.len(), p.n_easy());
        for wb in &w.per_bin {
            assert_eq!(wb.shape(), (p.j_channels, p.m_beams));
            for m in 0..p.m_beams {
                let n: f64 = (0..p.j_channels).map(|j| wb[(j, m)].norm_sqr()).sum();
                assert!((n - 1.0).abs() < 1e-9);
            }
        }
    }

    /// `mean_abs_runs` sums through `stap-math`'s magnitude kernel; on
    /// glibc that is bit for bit the libm `hypot` fold it replaced, so no
    /// constraint scale moves. Gated on glibc, whose `hypot` the kernel
    /// reproduces (other C libraries round theirs differently).
    #[cfg(target_env = "gnu")]
    #[test]
    fn mean_abs_runs_matches_the_libm_hypot_fold() {
        let mut state = 0x2545F491u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for scale in [1.0, 1e-3, 3e5, 1e-140, 1e150] {
            // Run lengths that split four-element groups every way.
            let runs: Vec<Vec<Cx>> = [0, 1, 7, 16, 2, 33, 5, 64, 3]
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|_| Cx::new(next(), next()).scale(scale))
                        .collect()
                })
                .collect();
            let count: usize = runs.iter().map(Vec::len).sum();
            let sum = runs.iter().flatten().fold(0.0, |s, x| s + x.re.hypot(x.im));
            let want = (sum / count as f64).max(1e-12);
            let got = mean_abs_runs(runs.iter().map(Vec::as_slice));
            assert_eq!(got.to_bits(), want.to_bits(), "scale {scale:e}");
        }
    }

    #[test]
    fn easy_weights_null_the_interferer() {
        let (p, geom, steering) = setup();
        let mut c = EasyWeightComputer::new(&p);
        let az_int = 35.0;
        let cube = interferer_cube(&p, &geom, az_int, 10.0);
        let w = c.process(0, &cube, &steering);
        let q = c.quiescent(&steering);
        let s_int = geom.steering(az_int);
        // Adapted response toward the interferer must drop well below the
        // quiescent response, while mainbeam response stays near 1.
        let resp = |wm: &CMat, dir: &[Cx], m: usize| {
            let mut acc = Cx::new(0.0, 0.0);
            for j in 0..p.j_channels {
                acc += wm[(j, m)].conj() * dir[j];
            }
            acc.abs()
        };
        let s_main = geom.steering(0.0);
        let bin = p.n_easy() / 2;
        for m in 0..p.m_beams {
            let adapted_int = resp(&w.per_bin[bin], &s_int, m);
            let quiescent_int = resp(&q.per_bin[bin], &s_int, m);
            let adapted_main = resp(&w.per_bin[bin], &s_main, m);
            assert!(
                adapted_int < 0.15 * quiescent_int.max(0.05),
                "beam {m}: interferer response {adapted_int} vs quiescent {quiescent_int}"
            );
            assert!(
                adapted_main > 0.3,
                "beam {m}: mainbeam response collapsed to {adapted_main}"
            );
        }
    }

    #[test]
    fn easy_history_accumulates_three_cpis() {
        let (p, geom, steering) = setup();
        let mut c = EasyWeightComputer::new(&p);
        let cube = interferer_cube(&p, &geom, 20.0, 3.0);
        for _ in 0..5 {
            let w = c.process(0, &cube, &steering);
            assert!(w.per_bin.iter().all(|m| m.is_finite()));
        }
    }

    #[test]
    fn hard_weights_shapes_and_norms() {
        let (p, geom, steering) = setup();
        let mut c = HardWeightComputer::new(&p);
        let cube = interferer_cube(&p, &geom, 25.0, 5.0);
        let w = c.process(0, &cube, &steering);
        assert_eq!(w.per_bin.len(), p.n_hard);
        for per_seg in &w.per_bin {
            assert_eq!(per_seg.len(), p.num_segments());
            for wm in per_seg {
                assert_eq!(wm.shape(), (2 * p.j_channels, p.m_beams));
                for m in 0..p.m_beams {
                    let n: f64 = (0..2 * p.j_channels).map(|j| wm[(j, m)].norm_sqr()).sum();
                    assert!((n - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn hard_weights_null_staggered_interferer() {
        let (p, geom, steering) = setup();
        let mut c = HardWeightComputer::new(&p);
        let az_int = 40.0;
        let cube = interferer_cube(&p, &geom, az_int, 10.0);
        // Two updates to let the recursion settle.
        let _ = c.process(0, &cube, &steering);
        let w = c.process(0, &cube, &steering);
        let q = c.quiescent(&steering);
        let s_int = geom.steering(az_int);
        let bin_idx = 0; // hard bin 0
        let bin = p.hard_bins()[bin_idx];
        let phase = Cx::cis(2.0 * PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64);
        // Full space-time interferer snapshot across both windows.
        let x: Vec<Cx> = (0..2 * p.j_channels)
            .map(|r| {
                if r < p.j_channels {
                    s_int[r]
                } else {
                    s_int[r - p.j_channels] * phase
                }
            })
            .collect();
        for m in 0..p.m_beams {
            let dot = |wm: &CMat| {
                let mut acc = Cx::new(0.0, 0.0);
                for (r, xv) in x.iter().enumerate() {
                    acc += wm[(r, m)].conj() * *xv;
                }
                acc.abs()
            };
            let adapted = dot(&w.per_bin[bin_idx][0]);
            let quiescent = dot(&q.per_bin[bin_idx][0]);
            assert!(
                adapted < 0.2 * quiescent.max(0.05),
                "beam {m}: adapted {adapted} vs quiescent {quiescent}"
            );
        }
    }

    #[test]
    fn hard_recursion_state_is_per_beam_bin_segment() {
        let (p, geom, steering) = setup();
        let mut c = HardWeightComputer::new(&p);
        let cube = interferer_cube(&p, &geom, 25.0, 5.0);
        let _ = c.process(0, &cube, &steering);
        let _ = c.process(1, &cube, &steering);
        assert_eq!(
            c.r_state.len(),
            2 * p.n_hard * p.num_segments(),
            "independent state per azimuth"
        );
    }

    #[test]
    fn quiescent_easy_weights_equal_normalized_steering() {
        let (p, _geom, steering) = setup();
        let c = EasyWeightComputer::new(&p);
        let q = c.quiescent(&steering);
        let want = normalize_columns(steering.clone());
        for wb in &q.per_bin {
            assert!(wb.max_abs_diff(&want) < 1e-12);
        }
    }

    #[test]
    fn constraint_matrix_structure() {
        let p = StapParams::reduced();
        let c = hard_constraint(&p, 4);
        assert_eq!(c.shape(), (p.j_channels, 2 * p.j_channels));
        let phase = Cx::cis(-2.0 * PI * 4.0 * p.stagger as f64 / p.n_pulses as f64);
        for r in 0..p.j_channels {
            for col in 0..2 * p.j_channels {
                let want = if col == r {
                    Cx::real(1.0)
                } else if col == r + p.j_channels {
                    phase
                } else {
                    Cx::new(0.0, 0.0)
                };
                assert!(c[(r, col)].approx_eq(want, 1e-15));
            }
        }
    }
}
