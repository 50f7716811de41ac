//! Node-assignment lattice search: the offline half of ROADMAP item 3.
//!
//! The paper hand-picks three node assignments and evaluates them in
//! Tables 7–10. This module *searches* the assignment lattice instead:
//! every way to split a node budget across the seven tasks is a lattice
//! point, each candidate runs through the calibrated DES ([`crate::des`]),
//! and the result is the Pareto frontier over (throughput, latency) —
//! the paper's own framing of the tradeoff ("tradeoffs exist between
//! assigning processors to maximize the overall throughput and
//! assigning processors to minimize a single data set's response
//! time").
//!
//! * **Exhaustive** for small worlds: the lattice for a budget `B` has
//!   `C(B-1, 6)` points (compositions of `B` into 7 positive parts);
//!   below [`ExploreOptions::exhaustive_limit`] every feasible point is
//!   visited.
//! * **Heuristic** beyond: seeded greedy hill-climb (move one node
//!   between two tasks while the objective improves) from the
//!   work-proportional [`proportional_seed`] plus any caller-provided
//!   seeds (the paper's hand-picked cases), under both objectives,
//!   bounded by [`ExploreOptions::eval_budget`] DES evaluations.
//! * **Pruned by the wire-byte volume calculus**: before a candidate is
//!   simulated, an optimistic per-stage bound (compute time plus
//!   perfectly-balanced unpack of the modeled edge bytes — the same
//!   volumes `msg::wire_bytes` puts on the wire) gives an upper bound
//!   on its throughput and a lower bound on its latency; candidates
//!   whose *bounds* are already dominated by an evaluated point cannot
//!   reach the frontier and are skipped without a simulation.

use crate::des::{simulate, SimConfig};
use stap_machine::ALL_TASKS;
use stap_pipeline::{task_capacity, NodeAssignment};
use stap_util::Json;
use std::collections::HashMap;

/// Number of lattice points for a budget: compositions of `budget` into
/// 7 positive parts, `C(budget - 1, 6)`.
pub fn lattice_size(budget: usize) -> u128 {
    if budget < 7 {
        return 0;
    }
    let n = (budget - 1) as u128;
    // C(n, 6) without overflow for any budget this repo can name.
    (n - 5..=n).product::<u128>() / 720
}

/// A work-proportional seed: nodes split proportionally to each task's
/// single-node compute time, at least one each. It may exceed a task's
/// partition capacity; [`explore`] repairs it before searching.
pub fn proportional_seed(cfg: &SimConfig, budget: usize) -> NodeAssignment {
    assert!(budget >= 7, "need at least one node per task");
    let work: Vec<f64> = (0..7)
        .map(|t| cfg.machine.compute_time(ALL_TASKS[t], cfg.flops.0[t], 1))
        .collect();
    let total: f64 = work.iter().sum();
    let mut counts = [1usize; 7];
    let mut used = 7usize;
    // Largest-remainder apportionment of the surplus.
    let surplus = budget - 7;
    let mut shares: Vec<(usize, f64)> = (0..7)
        .map(|t| (t, work[t] / total * surplus as f64))
        .collect();
    for (t, s) in &shares {
        counts[*t] += s.floor() as usize;
        used += s.floor() as usize;
    }
    shares.sort_by(|a, b| (b.1.fract()).total_cmp(&a.1.fract()));
    let mut i = 0;
    while used < budget {
        counts[shares[i % 7].0] += 1;
        used += 1;
        i += 1;
    }
    NodeAssignment(counts)
}

/// Whether every task's node count fits its partitionable space.
pub fn feasible(p: &stap_core::StapParams, a: &NodeAssignment) -> bool {
    let cap = task_capacity(p);
    (0..7).all(|t| a.0[t] >= 1 && a.0[t] <= cap[t])
}

/// Visits every composition of `budget` into 7 positive parts.
pub fn enumerate(budget: usize, f: &mut dyn FnMut(NodeAssignment)) {
    if budget < 7 {
        return;
    }
    let mut counts = [1usize; 7];
    fn rec(counts: &mut [usize; 7], t: usize, left: usize, f: &mut dyn FnMut(NodeAssignment)) {
        if t == 6 {
            counts[6] = left;
            f(NodeAssignment(*counts));
            return;
        }
        let reserve = 6 - t; // one node for each remaining task
        for c in 1..=left - reserve {
            counts[t] = c;
            rec(counts, t + 1, left - c, f);
        }
    }
    rec(&mut counts, 0, budget, f);
}

/// One evaluated lattice point.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The node assignment.
    pub assign: NodeAssignment,
    /// Measured DES throughput, CPI/s.
    pub throughput: f64,
    /// Measured DES latency, seconds.
    pub latency: f64,
}

impl Candidate {
    /// Pareto dominance: at least as good in both objectives.
    pub fn dominates(&self, other: &Candidate) -> bool {
        self.throughput >= other.throughput && self.latency <= other.latency
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "assign",
                Json::arr(self.assign.0.iter().map(|&n| Json::Num(n as f64))),
            ),
            ("nodes", Json::Num(self.assign.total() as f64)),
            ("throughput", Json::Num(self.throughput)),
            ("latency", Json::Num(self.latency)),
        ])
    }
}

/// Search controls.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Largest lattice (in points) still visited exhaustively.
    pub exhaustive_limit: u128,
    /// DES evaluation cap for the heuristic path.
    pub eval_budget: usize,
    /// Extra seeds for the heuristic local search (candidates with a
    /// different total than the explored budget are ignored). The
    /// paper's hand-picked cases go here so each is guaranteed to be
    /// *evaluated* — and thus provably on or dominated by the frontier.
    pub seeds: Vec<NodeAssignment>,
    /// Enable the wire-byte bound pruning.
    pub prune: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            exhaustive_limit: 4_000,
            eval_budget: 400,
            seeds: Vec::new(),
            prune: true,
        }
    }
}

/// The outcome of exploring one budget.
#[derive(Clone, Debug)]
pub struct LatticeReport {
    /// Node budget explored.
    pub budget: usize,
    /// Whether the full lattice was enumerated.
    pub exhaustive: bool,
    /// Full lattice size for this budget.
    pub lattice: u128,
    /// Candidates actually simulated.
    pub evaluated: usize,
    /// Candidates skipped by the wire-byte bound.
    pub pruned: usize,
    /// Lattice points whose node counts exceed a task's partitionable
    /// space at this geometry.
    pub infeasible: usize,
    /// Pareto frontier over (throughput up, latency down), sorted by
    /// descending throughput.
    pub frontier: Vec<Candidate>,
    /// The frontier endpoint with the best throughput.
    pub best_throughput: Candidate,
    /// The frontier endpoint with the best latency.
    pub best_latency: Candidate,
}

impl LatticeReport {
    /// Whether `probe` (an assignment evaluated by this exploration or
    /// not) is on the frontier or dominated by a frontier member.
    /// Returns `(on_frontier, dominator)`.
    pub fn on_or_dominated(&self, probe: &Candidate) -> (bool, Option<&Candidate>) {
        let on = self.frontier.iter().any(|c| c.assign == probe.assign);
        if on {
            return (true, None);
        }
        (false, self.frontier.iter().find(|c| c.dominates(probe)))
    }

    /// JSON rendering for `stapctl assign`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("budget", Json::Num(self.budget as f64)),
            ("exhaustive", Json::Bool(self.exhaustive)),
            ("lattice", Json::Num(self.lattice as f64)),
            ("evaluated", Json::Num(self.evaluated as f64)),
            ("pruned", Json::Num(self.pruned as f64)),
            ("infeasible", Json::Num(self.infeasible as f64)),
            ("best_throughput", self.best_throughput.to_json()),
            ("best_latency", self.best_latency.to_json()),
            (
                "frontier",
                Json::arr(self.frontier.iter().map(Candidate::to_json)),
            ),
        ])
    }
}

/// Optimistic per-stage bounds from the wire-byte volume calculus:
/// returns `(throughput_upper_bound, latency_lower_bound)`. The stage
/// bound is its compute time plus a perfectly-balanced unpack of its
/// inbound modeled bytes — both are costs the DES always charges, so no
/// candidate can beat its bound.
pub fn stage_bounds(cfg: &SimConfig, assign: NodeAssignment) -> (f64, f64) {
    // Only compute time is charged unconditionally by the DES for every
    // node of every task on every CPI, so only compute time yields a
    // sound optimistic bound. Communication terms (unpack, pack, wire)
    // are deliberately excluded: the latency critical path threads one
    // node per stage (possibly the least-loaded one under remaindered
    // block partitioning), and weight-edge traffic targets `cpi + beams`
    // so early measured CPIs see less unpack than the steady-state
    // average — adding an average-volume comm term over-estimates and
    // would prune true frontier members.
    let comp = |t: usize| {
        cfg.machine
            .compute_time(ALL_TASKS[t], cfg.flops.0[t], assign.0[t].max(1))
            / cfg.machine.smp_speedup(cfg.cpus_per_node)
    };
    // Throughput: each node of each task serially spends >= comp(t) per
    // CPI, and (with single-replica stages in lockstep under double
    // buffering) CFAR completion intervals telescope over every stage.
    let slowest = (0..7).map(comp).fold(0.0f64, f64::max);
    // Latency: the data path for one CPI is Doppler -> both beamformers
    // (PC joins on easy and hard outputs of the same CPI) -> PC -> CFAR.
    // Weight tasks feed weights computed `beams` CPIs earlier, so they
    // sit off the per-CPI critical path.
    let lat_lb = comp(0) + comp(3).max(comp(4)) + comp(5) + comp(6);
    (1.0 / slowest, lat_lb)
}

struct Search<'a> {
    cfg: &'a SimConfig,
    opts: &'a ExploreOptions,
    evaluated: HashMap<[usize; 7], Candidate>,
    pruned: usize,
    // Running Pareto front over evaluated points, used for pruning.
    front: Vec<Candidate>,
}

impl<'a> Search<'a> {
    fn new(cfg: &'a SimConfig, opts: &'a ExploreOptions) -> Self {
        Search {
            cfg,
            opts,
            evaluated: HashMap::new(),
            pruned: 0,
            front: Vec::new(),
        }
    }

    /// Whether the candidate's optimistic bounds are already dominated.
    fn bound_dominated(&self, a: NodeAssignment) -> bool {
        if !self.opts.prune || self.front.is_empty() {
            return false;
        }
        let (tp_ub, lat_lb) = stage_bounds(self.cfg, a);
        self.front
            .iter()
            .any(|c| c.throughput >= tp_ub && c.latency <= lat_lb)
    }

    /// Evaluates `a` through the DES (memoized). Returns `None` when it
    /// was pruned instead.
    fn eval(&mut self, a: NodeAssignment) -> Option<Candidate> {
        if let Some(c) = self.evaluated.get(&a.0) {
            return Some(c.clone());
        }
        if self.bound_dominated(a) {
            self.pruned += 1;
            return None;
        }
        let mut c = self.cfg.clone();
        c.assign = a;
        let r = simulate(&c);
        let cand = Candidate {
            assign: a,
            throughput: r.measured_throughput,
            latency: r.measured_latency,
        };
        self.evaluated.insert(a.0, cand.clone());
        // Maintain the running front (drop newly-dominated members).
        if !self.front.iter().any(|f| f.dominates(&cand)) {
            self.front.retain(|f| !cand.dominates(f));
            self.front.push(cand.clone());
        }
        Some(cand)
    }
}

/// Non-dominated subset, sorted by descending throughput (ties broken
/// toward lower latency, then lexicographic assignment for
/// determinism).
fn pareto(mut all: Vec<Candidate>) -> Vec<Candidate> {
    all.sort_by(|a, b| {
        b.throughput
            .total_cmp(&a.throughput)
            .then(a.latency.total_cmp(&b.latency))
            .then(a.assign.0.cmp(&b.assign.0))
    });
    let mut front: Vec<Candidate> = Vec::new();
    let mut best_lat = f64::INFINITY;
    for c in all {
        if c.latency < best_lat {
            best_lat = c.latency;
            front.push(c);
        }
    }
    front
}

/// Clamps an assignment to the per-task partition capacities, moving
/// any overflow onto the tasks with the most remaining headroom. The
/// proportional seed needs this at large budgets: pure work-share
/// apportionment can hand a task more nodes than it has partitionable
/// bin spaces (e.g. 122 hard-weight nodes against 56 hard bins at the
/// paper geometry), and an over-capacity seed would strand the local
/// search — every single-node move keeps the violated coordinate
/// violated. Returns `None` when the budget exceeds the summed
/// capacity (no feasible point exists at all).
fn repair_to_capacity(
    p: &stap_core::StapParams,
    mut a: NodeAssignment,
    budget: usize,
) -> Option<NodeAssignment> {
    let cap = task_capacity(p);
    if cap.iter().sum::<usize>() < budget {
        return None;
    }
    let mut overflow = 0usize;
    for (n, &c) in a.0.iter_mut().zip(&cap) {
        if *n > c {
            overflow += *n - c;
            *n = c;
        }
    }
    while overflow > 0 {
        let t = (0..7)
            .max_by_key(|&t| cap[t] - a.0[t])
            .expect("seven tasks");
        debug_assert!(a.0[t] < cap[t], "summed capacity covers the budget");
        a.0[t] += 1;
        overflow -= 1;
    }
    Some(a)
}

/// Explores the assignment lattice at `budget` total nodes.
pub fn explore(cfg: &SimConfig, budget: usize, opts: &ExploreOptions) -> LatticeReport {
    assert!(budget >= 7, "need at least one node per task");
    let lattice = lattice_size(budget);
    let exhaustive = lattice <= opts.exhaustive_limit;
    let mut search = Search::new(cfg, opts);
    let mut infeasible = 0usize;

    // Seed the pruning front before sweeping: the proportional seed is
    // usually near-optimal, so most of the lattice prunes against it.
    let mut seeds: Vec<NodeAssignment> =
        repair_to_capacity(&cfg.params, proportional_seed(cfg, budget), budget)
            .into_iter()
            .collect();
    seeds.extend(
        opts.seeds
            .iter()
            .copied()
            .filter(|s| s.total() == budget && feasible(&cfg.params, s)),
    );
    for &s in &seeds {
        debug_assert!(feasible(&cfg.params, &s));
        search.eval(s);
    }

    if exhaustive {
        let mut points = Vec::new();
        enumerate(budget, &mut |a| points.push(a));
        for a in points {
            if !feasible(&cfg.params, &a) {
                infeasible += 1;
                continue;
            }
            search.eval(a);
        }
    } else {
        // Greedy local search from each seed, under each objective.
        for &seed in &seeds {
            for latency_pass in [false, true] {
                let mut current = match search.eval(seed) {
                    Some(c) => c,
                    None => continue,
                };
                loop {
                    if search.evaluated.len() >= opts.eval_budget {
                        break;
                    }
                    let mut best: Option<Candidate> = None;
                    for from in 0..7 {
                        if current.assign.0[from] <= 1 {
                            continue;
                        }
                        for to in 0..7 {
                            if to == from {
                                continue;
                            }
                            let mut next = current.assign;
                            next.0[from] -= 1;
                            next.0[to] += 1;
                            if !feasible(&cfg.params, &next) {
                                infeasible += 1;
                                continue;
                            }
                            if let Some(c) = search.eval(next) {
                                let better = if latency_pass {
                                    c.latency
                                        < best.as_ref().map_or(current.latency, |b| b.latency)
                                            * 0.9995
                                } else {
                                    c.throughput
                                        > best.as_ref().map_or(current.throughput, |b| b.throughput)
                                            * 1.0005
                                };
                                if better {
                                    best = Some(c);
                                }
                            }
                        }
                    }
                    match best {
                        Some(c) => current = c,
                        None => break,
                    }
                }
            }
        }
    }

    let all: Vec<Candidate> = search.evaluated.values().cloned().collect();
    assert!(
        !all.is_empty(),
        "no feasible assignment at budget {budget} for this geometry"
    );
    let frontier = pareto(all);
    let best_throughput = frontier.first().expect("non-empty frontier").clone();
    let best_latency = frontier.last().expect("non-empty frontier").clone();
    LatticeReport {
        budget,
        exhaustive,
        lattice,
        evaluated: search.evaluated.len(),
        pruned: search.pruned,
        infeasible,
        frontier,
        best_throughput,
        best_latency,
    }
}

/// Evaluates one assignment through the DES of `cfg` (helper for the
/// paper-case validation and `stapctl assign`).
pub fn evaluate(cfg: &SimConfig, a: NodeAssignment) -> Candidate {
    let mut c = cfg.clone();
    c.assign = a;
    let r = simulate(&c);
    Candidate {
        assign: a,
        throughput: r.measured_throughput,
        latency: r.measured_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::paper(NodeAssignment::case3())
    }

    #[test]
    fn proportional_seed_uses_entire_budget() {
        let cfg = base();
        for budget in [7usize, 59, 118, 236] {
            let a = proportional_seed(&cfg, budget);
            assert_eq!(a.total(), budget, "budget {budget}");
            assert!(a.0.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn seed_gives_most_nodes_to_hard_weights() {
        // Hard weight is the heaviest task (Table 1); the seed must
        // reflect that, like the paper's hand-tuned cases do.
        let a = proportional_seed(&base(), 118);
        let max_task = (0..7).max_by_key(|&t| a.0[t]).unwrap();
        assert_eq!(max_task, 2, "hard weight should dominate: {:?}", a.0);
    }

    #[test]
    fn over_capacity_proportional_seed_is_repaired() {
        // At 236 total nodes the work-share seed wants ~122 hard-weight
        // nodes against 56 hard bins; unrepaired, the local search
        // strands on a point whose every neighbor is still infeasible.
        let cfg = base();
        let raw = proportional_seed(&cfg, 236);
        assert!(!feasible(&cfg.params, &raw), "seed no longer over cap?");
        let fixed = repair_to_capacity(&cfg.params, raw, 236).expect("capacity covers 236");
        assert!(feasible(&cfg.params, &fixed));
        assert_eq!(fixed.total(), 236);
        // And a budget beyond the summed capacity is reported as such.
        let cap_sum: usize = task_capacity(&cfg.params).iter().sum();
        assert!(repair_to_capacity(
            &cfg.params,
            proportional_seed(&cfg, cap_sum + 1),
            cap_sum + 1
        )
        .is_none());
    }

    #[test]
    fn heuristic_search_escapes_the_repaired_seed() {
        // The repaired 236-node seed must actually search (the bug was
        // 1 evaluated / 84 infeasible): a small eval budget still visits
        // a neighborhood and keeps every frontier point feasible.
        let mut cfg = base();
        cfg.num_cpis = 6;
        let opts = ExploreOptions {
            eval_budget: 40,
            ..ExploreOptions::default()
        };
        let rep = explore(&cfg, 236, &opts);
        assert!(!rep.exhaustive);
        assert!(
            rep.evaluated > 10,
            "search stalled: {} evaluated",
            rep.evaluated
        );
        for c in &rep.frontier {
            assert!(feasible(&cfg.params, &c.assign));
            assert_eq!(c.assign.total(), 236);
        }
    }

    #[test]
    fn lattice_size_matches_enumeration_counts() {
        // C(budget-1, 6): 7 -> 1, 8 -> 7, 9 -> 28, 13 -> 924.
        assert_eq!(lattice_size(7), 1);
        assert_eq!(lattice_size(8), 7);
        assert_eq!(lattice_size(9), 28);
        assert_eq!(lattice_size(13), 924);
        for budget in 7..=13 {
            let mut n = 0u128;
            enumerate(budget, &mut |a| {
                assert_eq!(a.total(), budget);
                assert!(a.0.iter().all(|&c| c >= 1));
                n += 1;
            });
            assert_eq!(n, lattice_size(budget), "budget {budget}");
        }
    }

    #[test]
    fn exhaustive_explore_emits_a_consistent_frontier() {
        let cfg = base();
        let r = explore(&cfg, 10, &ExploreOptions::default());
        assert!(r.exhaustive);
        assert_eq!(r.lattice, 84);
        // The proportional seed is itself a lattice point (memoized), so
        // every point is exactly one of evaluated/pruned/infeasible.
        assert_eq!(r.evaluated + r.pruned + r.infeasible, 84);
        assert!(!r.frontier.is_empty());
        // Frontier is mutually non-dominated and sorted.
        for w in r.frontier.windows(2) {
            assert!(w[0].throughput > w[1].throughput);
            assert!(w[0].latency > w[1].latency);
        }
        // Endpoints agree with the labels.
        assert_eq!(r.best_throughput.assign, r.frontier.first().unwrap().assign);
        assert_eq!(r.best_latency.assign, r.frontier.last().unwrap().assign);
    }

    #[test]
    fn pruning_never_changes_the_frontier() {
        let cfg = base();
        let pruned = explore(&cfg, 9, &ExploreOptions::default());
        let full = explore(
            &cfg,
            9,
            &ExploreOptions {
                prune: false,
                ..ExploreOptions::default()
            },
        );
        assert!(pruned.pruned > 0, "bound should prune something");
        assert_eq!(full.pruned, 0);
        assert_eq!(pruned.frontier.len(), full.frontier.len());
        for (a, b) in pruned.frontier.iter().zip(&full.frontier) {
            assert_eq!(a.assign, b.assign);
        }
    }

    #[test]
    fn heuristic_agrees_with_exhaustive_where_feasible() {
        let cfg = base();
        let exhaustive = explore(&cfg, 11, &ExploreOptions::default());
        assert!(exhaustive.exhaustive);
        let heuristic = explore(
            &cfg,
            11,
            &ExploreOptions {
                exhaustive_limit: 0, // force the heuristic path
                ..ExploreOptions::default()
            },
        );
        assert!(!heuristic.exhaustive);
        assert!(heuristic.evaluated < exhaustive.evaluated + exhaustive.pruned);
        // The heuristic's endpoints must reach the exhaustive optimum
        // to within a rounding hair on this small world.
        assert!(
            heuristic.best_throughput.throughput >= exhaustive.best_throughput.throughput * 0.995,
            "heuristic {} vs exhaustive {}",
            heuristic.best_throughput.throughput,
            exhaustive.best_throughput.throughput
        );
        assert!(
            heuristic.best_latency.latency <= exhaustive.best_latency.latency * 1.005,
            "heuristic {} vs exhaustive {}",
            heuristic.best_latency.latency,
            exhaustive.best_latency.latency
        );
    }

    #[test]
    fn paper_cases_are_on_or_dominated_by_the_frontier() {
        // Seeded with each paper case, the case is evaluated, so it is on
        // or dominated by the frontier.
        let cfg = base();
        for (name, case) in [
            ("case3", NodeAssignment::case3()),
            ("case2", NodeAssignment::case2()),
        ] {
            let r = explore(
                &cfg,
                case.total(),
                &ExploreOptions {
                    seeds: vec![case],
                    eval_budget: 300,
                    ..ExploreOptions::default()
                },
            );
            let probe = evaluate(&cfg, case);
            let (on, dominator) = r.on_or_dominated(&probe);
            assert!(
                on || dominator.is_some(),
                "{name} neither on nor dominated by the frontier"
            );
            // The searched frontier must do at least as well as the
            // hand-picked assignment in its own objective.
            assert!(r.best_throughput.throughput >= probe.throughput * 0.999);
        }
    }

    #[test]
    fn optimizer_matches_or_beats_paper_case2() {
        // Unseeded at case 2's budget, the search alone must still come
        // within 3% of case 2's throughput.
        let cfg = base();
        let case2 = NodeAssignment::case2();
        let r = explore(
            &cfg,
            case2.total(),
            &ExploreOptions {
                eval_budget: 300,
                ..ExploreOptions::default()
            },
        );
        let paper = evaluate(&cfg, case2);
        assert_eq!(r.best_throughput.assign.total(), case2.total());
        assert!(
            r.best_throughput.throughput >= paper.throughput * 0.97,
            "optimized {:.3} {:?} vs paper case 2 {:.3}",
            r.best_throughput.throughput,
            r.best_throughput.assign.0,
            paper.throughput
        );
    }
}
