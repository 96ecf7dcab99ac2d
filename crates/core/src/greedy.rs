//! Algorithm 2's scheme generation as an incremental local search on
//! the part system.
//!
//! The paper's greedy loop starts from the per-component splits
//! (§III-B: "one part executes locally, and another part executes
//! remotely") and migrates parts while the combined objective `E + T`
//! decreases (Algorithm 2's termination test
//! `E_t + T_t < E_{t-1} + T_{t-1}`). This module generalises that loop
//! just enough to be robust under shared-server contention:
//!
//! - moves go in **both directions** (device → server and back) — a
//!   crowd of users can only reach the contention equilibrium if early
//!   placement mistakes are revertible;
//! - besides single parts, candidates include **whole components**
//!   (escaping the sibling-coupling trap), **whole users** (the big
//!   payoff of a user leaving the server — one less capacity sharer —
//!   only materialises when their last part departs), and component
//!   **orientation swaps** (which half of a split is the local one);
//! - every candidate is priced in `O(1)`–`O(parts of user)` against an
//!   incrementally-maintained objective, and a final guard ensures the
//!   result is never worse than not offloading at all.
//!
//! Two drivers: [`GreedyMode::Exhaustive`] re-prices every candidate
//! each round (the literal reading of Algorithm 2); [`GreedyMode::Lazy`]
//! drains a lazily-updated max-heap and rescans when it runs dry — far
//! fewer evaluations, same kind of local optimum.
//!
//! A delta replan warm-starts the lazy driver ([`run_greedy_warm`]):
//! it drains only the churned users' candidates, then must show that no
//! candidate of the crowd improves. Under `EqualShare` and
//! `ProportionalToLoad` the [`MoveIndex`] certificate shows it from
//! per-block line envelopes, pricing only the touched users'
//! candidates (`greedy/certificate.rs`); a full rescan runs only when
//! the certificate finds an improving candidate, for `Fifo`, and for
//! the exhaustive driver. Candidate pricing itself allocates nothing.

mod certificate;

pub(crate) use certificate::MoveIndex;

use crate::parts::PartSystem;
use mec_graph::Side;
use mec_model::{AllocationPolicy, SystemParams};
use mec_obs::{FieldValue, TraceSink};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which greedy driver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum GreedyMode {
    /// Scan all candidates every iteration and apply the best.
    Exhaustive,
    /// Lazily-updated priority queue with rescan phases (default).
    #[default]
    Lazy,
}

/// Statistics from a greedy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyOutcome {
    /// Part relocations applied (both directions).
    pub moves: usize,
    /// Objective `E + T` of the initial split placement.
    pub initial_objective: f64,
    /// Objective after convergence.
    pub final_objective: f64,
    /// Candidate evaluations performed.
    pub evaluations: usize,
}

const EPS: f64 = 1e-9;

/// What a move relocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    /// One part.
    Single(usize),
    /// Both parts of a component.
    Pair(usize),
    /// Every part of a user.
    User(usize),
}

/// A local-search candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Move {
    /// Relocate the target onto the device.
    Home(Target),
    /// Relocate the target onto the server.
    Out(Target),
    /// Swap which half of a split component is the local one.
    Swap(usize),
}

/// Incrementally-maintained objective state.
struct ObjectiveState {
    params: SystemParams,
    /// Total local work (including pinned), all users.
    lw: f64,
    /// Total remote work, all users.
    rw: f64,
    /// Total transmission volume incl. control overhead, all users.
    tv: f64,
    /// Remote work per user (to track the offloader count).
    rw_user: Vec<f64>,
    /// Users with positive remote work.
    offloaders: usize,
    /// Users whose parts [`apply_batch`](Self::apply_batch) moved, in
    /// move order (may repeat).
    moved: Vec<usize>,
}

/// The parts one relocation moves, without materialising a list.
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// One part, or both parts of a component (`len` of `ids` used).
    Parts { ids: [usize; 2], len: usize },
    /// Every part of the user on the side opposite the destination.
    User(usize),
}

impl Batch {
    fn one(i: usize) -> Self {
        Batch::Parts {
            ids: [i, i],
            len: 1,
        }
    }

    fn pair(a: usize, b: usize) -> Self {
        Batch::Parts {
            ids: [a, b],
            len: 2,
        }
    }

    /// The moving parts in ascending order (their components are
    /// therefore non-decreasing), given destination `to`.
    fn iter<'a>(&'a self, ps: &'a PartSystem, to: Side) -> impl Iterator<Item = usize> + 'a {
        let (few, user): (&[usize], &[usize]) = match self {
            Batch::Parts { ids, len } => (&ids[..*len], &[]),
            Batch::User(u) => (&[], ps.parts_of_user(*u)),
        };
        let moving = user.iter().copied().filter(move |&i| ps.side(i) != to);
        few.iter().copied().chain(moving)
    }

    /// `true` if part `p` is one of the moving parts.
    fn contains(&self, ps: &PartSystem, p: usize, to: Side) -> bool {
        match self {
            Batch::Parts { ids, len } => ids[..*len].contains(&p),
            Batch::User(u) => ps.parts()[p].user == *u && ps.side(p) != to,
        }
    }
}

impl ObjectiveState {
    fn new(ps: &PartSystem, params: &SystemParams) -> Self {
        // Single passes over the part and component arrays instead of
        // per-user scans: `work_split_of_user` / `tx_volume_of_user`
        // filter the whole system per user, which is O(users²) at the
        // crowd sizes the streaming service tracks. The per-user
        // accumulators below add the same terms in the same order
        // (each user's records are contiguous and ascending), so the
        // folded totals are bit-identical to the per-user scans.
        let users = ps.user_count();
        let oh = params.control_overhead;
        let mut l_user = vec![0.0; users];
        let mut rw_user = vec![0.0; users];
        let mut tv_user = vec![0.0; users];
        for (u, l) in l_user.iter_mut().enumerate() {
            *l = ps.pinned_work(u);
        }
        for p in ps.parts() {
            match p.side {
                Side::Local => l_user[p.user] += p.work,
                Side::Remote => rw_user[p.user] += p.work,
            }
        }
        for c in ps.components() {
            if let Some(p2) = c.part2 {
                if ps.side(c.part1) != ps.side(p2) {
                    tv_user[c.user] += c.cross_weight + c.cross_count as f64 * oh;
                }
            }
        }
        for p in ps.parts() {
            if p.side == Side::Remote {
                tv_user[p.user] += p.pinned_cut + p.pinned_crossings as f64 * oh;
            }
        }
        let mut lw = 0.0;
        let mut rw = 0.0;
        let mut tv = 0.0;
        for u in 0..users {
            lw += l_user[u];
            rw += rw_user[u];
            tv += tv_user[u];
        }
        let offloaders = rw_user.iter().filter(|&&r| r > EPS).count();
        ObjectiveState {
            params: *params,
            lw,
            rw,
            tv,
            rw_user,
            offloaders,
            moved: Vec::new(),
        }
    }

    /// Server time `Σ (t_s + wt)` for a remote-work profile.
    /// `adjusted` optionally overrides one user's remote work.
    fn server_time(&self, rw_total: f64, offloaders: usize, adjusted: Option<(usize, f64)>) -> f64 {
        let cap = self.params.server_capacity;
        match self.params.allocation {
            // EqualShare: t_s^i = rw_i · k / I_S  →  Σ = k · RW / I_S.
            // Proportional: t_s^i = RW / I_S each →  Σ = k · RW / I_S.
            AllocationPolicy::EqualShare | AllocationPolicy::ProportionalToLoad => {
                offloaders as f64 * rw_total / cap
            }
            // FIFO in user order: position j (0-based) of k jobs
            // contributes t_j · (k − j). k is derived from the adjusted
            // profile itself — the caller's `offloaders` hint matches it
            // for real moves but not for hypothetical what-ifs like the
            // all-local guard.
            AllocationPolicy::Fifo => {
                let _ = offloaders;
                let value = |u: usize, r: f64| match adjusted {
                    Some((au, val)) if au == u => val,
                    _ => r,
                };
                let k = self
                    .rw_user
                    .iter()
                    .enumerate()
                    .filter(|&(u, &r)| value(u, r) > EPS)
                    .count();
                let mut total = 0.0;
                let mut pos = 0usize;
                for (u, &r) in self.rw_user.iter().enumerate() {
                    let r = value(u, r);
                    if r > EPS {
                        total += r / cap * (k - pos) as f64;
                        pos += 1;
                    }
                }
                total
            }
        }
    }

    /// `E + T` for a hypothetical state.
    fn objective_for(
        &self,
        lw: f64,
        rw: f64,
        tv: f64,
        offloaders: usize,
        adjusted: Option<(usize, f64)>,
    ) -> f64 {
        let p = &self.params;
        let local_time = lw / p.local_capacity;
        let tx_time = tv / p.bandwidth;
        let energy = local_time * p.local_power + tx_time * p.tx_power;
        let time = local_time + self.server_time(rw, offloaders, adjusted) + tx_time;
        energy + time
    }

    /// Current objective.
    fn objective(&self) -> f64 {
        self.objective_for(self.lw, self.rw, self.tv, self.offloaders, None)
    }

    /// Per-part pinned transmission term.
    fn pin_term(&self, ps: &PartSystem, i: usize) -> f64 {
        let p = &ps.parts()[i];
        p.pinned_cut + p.pinned_crossings as f64 * self.params.control_overhead
    }

    /// Transmission-volume change if every part in `batch` (all
    /// currently on the opposite side) moves to `to`.
    fn batch_tx_delta(&self, ps: &PartSystem, batch: &Batch, to: Side) -> f64 {
        let oh = self.params.control_overhead;
        let mut delta = 0.0;
        // pinned edges cross exactly when the part is remote
        for i in batch.iter(ps, to) {
            match to {
                Side::Local => delta -= self.pin_term(ps, i),
                Side::Remote => delta += self.pin_term(ps, i),
            }
        }
        // sibling cross edges: recompute the crossing indicator for
        // every touched component, each once (a batch's components
        // come in non-decreasing order)
        let mut last_comp = usize::MAX;
        for i in batch.iter(ps, to) {
            let c = ps.parts()[i].component;
            if c == last_comp {
                continue;
            }
            debug_assert!(last_comp == usize::MAX || c > last_comp);
            last_comp = c;
            let comp = &ps.components()[c];
            let Some(p2) = comp.part2 else { continue };
            let p1 = comp.part1;
            let before = ps.side(p1) != ps.side(p2);
            let side_after = |p: usize| {
                if batch.contains(ps, p, to) {
                    to
                } else {
                    ps.side(p)
                }
            };
            let after = side_after(p1) != side_after(p2);
            if before != after {
                let cross = comp.cross_weight + comp.cross_count as f64 * oh;
                delta += if after { cross } else { -cross };
            }
        }
        delta
    }

    /// The offloader-count change `δ ∈ {−1, 0, +1}` when user `u`'s
    /// remote work becomes `user_rw2`.
    fn offloader_step(&self, u: usize, user_rw2: f64) -> isize {
        match (self.rw_user[u] > EPS, user_rw2 > EPS) {
            (true, false) => -1,
            (false, true) => 1,
            _ => 0,
        }
    }

    /// Moved work, transmission-volume change and the user's new remote
    /// work if `batch` (parts of user `u`) relocates to `to`.
    fn batch_terms(&self, ps: &PartSystem, u: usize, batch: &Batch, to: Side) -> (f64, f64, f64) {
        debug_assert!(batch.iter(ps, to).all(|i| ps.parts()[i].user == u));
        debug_assert!(batch.iter(ps, to).all(|i| ps.side(i) != to));
        let w: f64 = batch.iter(ps, to).map(|i| ps.parts()[i].work).sum();
        let user_rw2 = match to {
            Side::Local => self.rw_user[u] - w,
            Side::Remote => self.rw_user[u] + w,
        };
        (w, self.batch_tx_delta(ps, batch, to), user_rw2)
    }

    /// Objective change if `batch` (parts of user `u`, all currently
    /// on the opposite side) relocates to `to`. Negative = improvement.
    fn batch_delta(&self, ps: &PartSystem, u: usize, batch: &Batch, to: Side) -> f64 {
        let (w, dtv, user_rw2) = self.batch_terms(ps, u, batch, to);
        let (lw2, rw2) = match to {
            Side::Local => (self.lw + w, self.rw - w),
            Side::Remote => (self.lw - w, self.rw + w),
        };
        let tv2 = self.tv + dtv;
        let offloaders2 = self
            .offloaders
            .wrapping_add_signed(self.offloader_step(u, user_rw2));
        self.objective_for(lw2, rw2, tv2, offloaders2, Some((u, user_rw2))) - self.objective()
    }

    /// Commits a batch relocation.
    fn apply_batch(&mut self, ps: &mut PartSystem, u: usize, batch: Batch, to: Side) {
        let (w, dtv, user_rw2) = self.batch_terms(ps, u, &batch, to);
        self.tv += dtv;
        match to {
            Side::Local => {
                self.lw += w;
                self.rw -= w;
            }
            Side::Remote => {
                self.lw -= w;
                self.rw += w;
            }
        }
        self.offloaders = self
            .offloaders
            .wrapping_add_signed(self.offloader_step(u, user_rw2));
        self.rw_user[u] = user_rw2;
        match batch {
            Batch::Parts { ids, len } => {
                for &i in &ids[..len] {
                    ps.set_side(i, to);
                }
            }
            Batch::User(_) => {
                for k in 0..ps.parts_of_user(u).len() {
                    let i = ps.parts_of_user(u)[k];
                    ps.set_side(i, to);
                }
            }
        }
        self.moved.push(u);
    }

    /// Resolves a relocation move into `(user, parts, destination)`;
    /// `None` when currently invalid (wrong sides, missing sibling,
    /// nothing to do).
    fn resolve(&self, ps: &PartSystem, mv: Move) -> Option<(usize, Batch, Side)> {
        let (target, to) = match mv {
            Move::Home(t) => (t, Side::Local),
            Move::Out(t) => (t, Side::Remote),
            Move::Swap(_) => unreachable!("swaps are priced separately"),
        };
        let from = to.flipped();
        let (user, batch) = match target {
            Target::Single(i) => {
                if ps.side(i) != from {
                    return None;
                }
                (ps.parts()[i].user, Batch::one(i))
            }
            Target::Pair(c) => {
                let comp = &ps.components()[c];
                let p2 = comp.part2?;
                let p1 = comp.part1;
                if ps.side(p1) != from || ps.side(p2) != from {
                    return None;
                }
                (comp.user, Batch::pair(p1, p2))
            }
            Target::User(u) => {
                let moving = ps
                    .parts_of_user(u)
                    .iter()
                    .filter(|&&i| ps.side(i) == from)
                    .count();
                if moving < 2 {
                    return None; // single moves cover this
                }
                (u, Batch::User(u))
            }
        };
        Some((user, batch, to))
    }

    /// Gain (= −Δobjective) of a candidate, `None` when invalid.
    fn gain_of(&self, ps: &PartSystem, mv: Move) -> Option<f64> {
        match mv {
            Move::Swap(c) => self.swap_delta(ps, c).map(|(_, _, d)| -d),
            _ => {
                let (u, batch, to) = self.resolve(ps, mv)?;
                Some(-self.batch_delta(ps, u, &batch, to))
            }
        }
    }

    /// Commits a candidate; returns how many parts moved.
    fn apply_move(&mut self, ps: &mut PartSystem, mv: Move) -> usize {
        match mv {
            Move::Swap(c) => {
                let (to_remote, to_local, _) =
                    self.swap_delta(ps, c).expect("swap validated before apply");
                let u = ps.parts()[to_remote].user;
                self.apply_batch(ps, u, Batch::one(to_local), Side::Local);
                self.apply_batch(ps, u, Batch::one(to_remote), Side::Remote);
                2
            }
            _ => {
                let (u, batch, to) = self.resolve(ps, mv).expect("move validated before apply");
                let n = batch.iter(ps, to).count();
                self.apply_batch(ps, u, batch, to);
                n
            }
        }
    }

    /// The halves of split component `c` a swap would move:
    /// `(to_remote, to_local)`; `None` unless the component currently
    /// has exactly one local and one remote half.
    fn swap_parts(ps: &PartSystem, c: usize) -> Option<(usize, usize)> {
        let comp = &ps.components()[c];
        let p2 = comp.part2?;
        let p1 = comp.part1;
        match (ps.side(p1), ps.side(p2)) {
            (Side::Local, Side::Remote) => Some((p1, p2)),
            (Side::Remote, Side::Local) => Some((p2, p1)),
            _ => None,
        }
    }

    /// Objective change if split component `c` swaps which half is
    /// local. Returns `(to_remote, to_local, delta)`; `None` unless the
    /// component currently has exactly one local and one remote half.
    fn swap_delta(&self, ps: &PartSystem, c: usize) -> Option<(usize, usize, f64)> {
        let (to_remote, to_local) = Self::swap_parts(ps, c)?;
        let (wl, wr) = (ps.parts()[to_remote].work, ps.parts()[to_local].work);
        let u = ps.components()[c].user;
        // newly-remote half starts paying its pinned coupling, the
        // newly-local one stops; the cross edges keep crossing.
        let tv2 = self.tv + self.pin_term(ps, to_remote) - self.pin_term(ps, to_local);
        let lw2 = self.lw - wl + wr;
        let rw2 = self.rw + wl - wr;
        let user_rw2 = self.rw_user[u] + wl - wr;
        let offloaders2 = self
            .offloaders
            .wrapping_add_signed(self.offloader_step(u, user_rw2));
        let delta =
            self.objective_for(lw2, rw2, tv2, offloaders2, Some((u, user_rw2))) - self.objective();
        Some((to_remote, to_local, delta))
    }

    /// The candidate as a line in the shared load parameter: under
    /// `EqualShare` and `ProportionalToLoad` its exact gain is
    /// `α − β·(k+δ)/C − δ·rw/C` with `α = a·β − b·Δtv`, and `β`, `Δtv`
    /// and `δ` are computed here exactly as [`gain_of`](Self::gain_of)
    /// computes them. `None` when the move is invalid.
    fn line_of(&self, ps: &PartSystem, mv: Move) -> Option<certificate::Line> {
        match mv {
            Move::Swap(c) => {
                let (to_remote, to_local) = Self::swap_parts(ps, c)?;
                let (wl, wr) = (ps.parts()[to_remote].work, ps.parts()[to_local].work);
                let u = ps.components()[c].user;
                let user_rw2 = self.rw_user[u] + wl - wr;
                Some(certificate::Line {
                    beta: wl - wr,
                    dtv: self.pin_term(ps, to_remote) - self.pin_term(ps, to_local),
                    delta: self.offloader_step(u, user_rw2),
                })
            }
            _ => {
                let (u, batch, to) = self.resolve(ps, mv)?;
                let (w, dtv, user_rw2) = self.batch_terms(ps, u, &batch, to);
                Some(certificate::Line {
                    beta: match to {
                        Side::Local => -w,
                        Side::Remote => w,
                    },
                    dtv,
                    delta: self.offloader_step(u, user_rw2),
                })
            }
        }
    }
}

/// f64 heap key with total order (all keys are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gain(f64);

impl Eq for Gain {}

impl PartialOrd for Gain {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gain {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("gains are finite")
    }
}

fn all_moves(ps: &PartSystem) -> Vec<Move> {
    let singles = (0..ps.parts().len()).map(Target::Single);
    let pairs = (0..ps.components().len()).map(Target::Pair);
    let users = (0..ps.user_count()).map(Target::User);
    let targets: Vec<Target> = singles.chain(pairs).chain(users).collect();
    let mut moves: Vec<Move> = Vec::with_capacity(2 * targets.len() + ps.components().len());
    moves.extend(targets.iter().map(|&t| Move::Home(t)));
    moves.extend(targets.iter().map(|&t| Move::Out(t)));
    moves.extend((0..ps.components().len()).map(Move::Swap));
    moves
}

/// Every candidate that involves user `u` alone: both directions for
/// each part, each component pair and the whole user, plus each
/// component's orientation swap. Invalid candidates are included;
/// pricing skips them.
fn for_each_move_of_user(ps: &PartSystem, u: usize, mut f: impl FnMut(Move)) {
    let mut last_comp = usize::MAX;
    for &i in ps.parts_of_user(u) {
        f(Move::Home(Target::Single(i)));
        f(Move::Out(Target::Single(i)));
        let c = ps.parts()[i].component;
        if c != last_comp {
            f(Move::Home(Target::Pair(c)));
            f(Move::Out(Target::Pair(c)));
            f(Move::Swap(c));
            last_comp = c;
        }
    }
    f(Move::Home(Target::User(u)));
    f(Move::Out(Target::User(u)));
}

/// The candidates that directly involve the given users. This is the
/// warm-start seed set — the moves whose prices changed
/// *structurally* after churn touched those users; the
/// capacity-coupled re-pricing every other server-resident part sees
/// is settled by the convergence certificate or the rescan phase that
/// follows the seeded drain.
fn moves_of_users(ps: &PartSystem, users: &[usize]) -> Vec<Move> {
    let mut moves = Vec::new();
    for &u in users.iter().filter(|&&u| u < ps.user_count()) {
        for_each_move_of_user(ps, u, |mv| moves.push(mv));
    }
    moves
}

/// Runs the local search over `ps`, mutating part sides in place.
///
/// After convergence, the all-local plan is checked as a final guard:
/// the returned assignment is never worse than not offloading at all.
#[cfg(test)]
pub(crate) fn run_greedy(
    ps: &mut PartSystem,
    params: &SystemParams,
    mode: GreedyMode,
) -> GreedyOutcome {
    run_greedy_traced(ps, params, mode, &mec_obs::NullSink)
}

/// Emits one `greedy.step` objective-trajectory point.
fn emit_step(sink: &dyn TraceSink, moves: usize, objective: f64) {
    sink.event(
        "greedy.step",
        &[
            ("moves", FieldValue::from(moves)),
            ("objective", FieldValue::from(objective)),
        ],
    );
}

/// [`run_greedy`] with telemetry: bumps `greedy.evaluated` /
/// `greedy.accepted` counters, records the per-run `greedy.evaluations`
/// / `greedy.moves` histograms, and (when the sink is enabled) emits a
/// `greedy.step` event after every applied move — the objective
/// trajectory — plus a final `greedy.done` summary. The search itself
/// is unchanged.
pub(crate) fn run_greedy_traced(
    ps: &mut PartSystem,
    params: &SystemParams,
    mode: GreedyMode,
    sink: &dyn TraceSink,
) -> GreedyOutcome {
    run_greedy_seeded(ps, params, mode, sink, None).outcome
}

/// What a warm-started search did besides its [`GreedyOutcome`].
pub(crate) struct WarmSearch {
    pub(crate) outcome: GreedyOutcome,
    /// User slots whose parts moved, in move order (may repeat).
    pub(crate) moved: Vec<usize>,
}

/// Warm-started greedy for delta replans: `ps` already carries a
/// previously converged placement plus the churned users' fresh
/// initial splits. A seeded phase drains only the candidates that
/// involve `dirty_users` (the structurally re-priced moves). Then
/// convergence has to be shown for every candidate of the crowd:
///
/// - with an `index` (lazy driver, `EqualShare` or
///   `ProportionalToLoad`), the [`MoveIndex`] certificate shows it at
///   a cost that grows with churn — it re-prices only the touched
///   users' candidates and the blocks whose bound comes near `EPS`;
/// - otherwise, or when the certificate finds an improving candidate,
///   the standard rescan phases run to the same criterion as a
///   from-scratch search.
///
/// A certificate passes only if a rescan would find no candidate with
/// gain above `EPS`, so plans, objectives and move counts equal those
/// of the rescan-only path bit for bit.
pub(crate) fn run_greedy_warm(
    ps: &mut PartSystem,
    params: &SystemParams,
    mode: GreedyMode,
    sink: &dyn TraceSink,
    dirty_users: &[usize],
    index: Option<&mut MoveIndex>,
) -> WarmSearch {
    run_greedy_seeded(ps, params, mode, sink, Some((dirty_users, index)))
}

/// Lazily drains a max-heap of candidates: pop, re-price, repush when
/// the gain drifted below the runner-up, apply while improving.
/// Returns `true` when at least one move was applied.
#[allow(clippy::too_many_arguments)]
fn drain_heap(
    heap: &mut BinaryHeap<(Gain, Move)>,
    state: &mut ObjectiveState,
    ps: &mut PartSystem,
    moves: &mut usize,
    evaluations: &mut usize,
    move_cap: usize,
    traced: bool,
    sink: &dyn TraceSink,
) -> bool {
    let mut applied = false;
    while let Some((_, mv)) = heap.pop() {
        let Some(gain) = state.gain_of(ps, mv) else {
            continue;
        };
        *evaluations += 1;
        if gain <= EPS {
            continue;
        }
        // stale (gain drifted below the next candidate): repush
        if let Some(&(next, _)) = heap.peek() {
            if gain + EPS < next.0 {
                heap.push((Gain(gain), mv));
                continue;
            }
        }
        *moves += state.apply_move(ps, mv);
        if traced {
            emit_step(sink, *moves, state.objective());
        }
        applied = true;
        if *moves >= move_cap {
            break;
        }
    }
    applied
}

fn run_greedy_seeded(
    ps: &mut PartSystem,
    params: &SystemParams,
    mode: GreedyMode,
    sink: &dyn TraceSink,
    warm: Option<(&[usize], Option<&mut MoveIndex>)>,
) -> WarmSearch {
    let traced = sink.enabled();
    let mut state = ObjectiveState::new(ps, params);
    let initial = state.objective();
    let mut moves = 0usize;
    let mut evaluations = 0usize;
    // strict cap against pathological float drift; never reached in
    // practice (each applied move improves the objective by > EPS)
    let move_cap = 20 * (ps.parts().len() + ps.user_count() + 4);
    let (dirty, mut index) = warm.unwrap_or((&[], None));

    // Warm phase: settle the churned users' own candidates first, so
    // that convergence usually holds already and only has to be
    // shown. (Exhaustive mode re-scans every candidate per iteration
    // anyway, so seeding buys it nothing.)
    if mode == GreedyMode::Lazy && !dirty.is_empty() {
        let mut heap: BinaryHeap<(Gain, Move)> = BinaryHeap::new();
        for mv in moves_of_users(ps, dirty) {
            if let Some(g) = state.gain_of(ps, mv) {
                evaluations += 1;
                if g > EPS {
                    heap.push((Gain(g), mv));
                }
            }
        }
        drain_heap(
            &mut heap,
            &mut state,
            ps,
            &mut moves,
            &mut evaluations,
            move_cap,
            traced,
            sink,
        );
    }

    // Convergence certificate: when it holds, the first rescan phase
    // below would find no candidate above EPS and stop at once.
    let mut certified = false;
    if let Some(index) = index.as_deref_mut() {
        debug_assert!(mode == GreedyMode::Lazy && MoveIndex::supports(params));
        index.touch(dirty);
        index.touch(&state.moved);
        let cert = index.certify(&state, ps);
        evaluations += cert.evaluations;
        sink.counter_add("greedy.certified", u64::from(cert.holds));
        sink.counter_add("greedy.certificate_fallbacks", u64::from(!cert.holds));
        sink.counter_add("greedy.block_reprices", cert.block_reprices as u64);
        if cert.holds {
            debug_assert!(
                all_moves(ps)
                    .into_iter()
                    .all(|mv| state.gain_of(ps, mv).is_none_or(|g| g <= EPS)),
                "certified placement has an improving candidate"
            );
        }
        certified = cert.holds;
    }

    match mode {
        _ if certified => {}
        GreedyMode::Exhaustive => {
            while moves < move_cap {
                let mut best: Option<(Move, f64)> = None;
                for mv in all_moves(ps) {
                    let Some(g) = state.gain_of(ps, mv) else {
                        continue;
                    };
                    evaluations += 1;
                    let better = match best {
                        None => true,
                        Some((_, bg)) => g > bg,
                    };
                    if better {
                        best = Some((mv, g));
                    }
                }
                match best {
                    Some((mv, g)) if g > EPS => {
                        moves += state.apply_move(ps, mv);
                        if traced {
                            emit_step(sink, moves, state.objective());
                        }
                    }
                    _ => break,
                }
            }
        }
        GreedyMode::Lazy => {
            // phases: drain a heap of positive-gain candidates; gains
            // drift as aggregates change, so when the heap runs dry,
            // rescan everything once and start a new phase if anything
            // still improves.
            while moves < move_cap {
                let mut heap: BinaryHeap<(Gain, Move)> = BinaryHeap::new();
                for mv in all_moves(ps) {
                    if let Some(g) = state.gain_of(ps, mv) {
                        evaluations += 1;
                        if g > EPS {
                            heap.push((Gain(g), mv));
                        }
                    }
                }
                if heap.is_empty() {
                    break;
                }
                let applied_this_phase = drain_heap(
                    &mut heap,
                    &mut state,
                    ps,
                    &mut moves,
                    &mut evaluations,
                    move_cap,
                    traced,
                    sink,
                );
                if !applied_this_phase {
                    break;
                }
            }
        }
    }

    // final guard: never do worse than not offloading at all
    let total_work = state.lw + state.rw;
    let all_local = state.objective_for(total_work, 0.0, 0.0, 0, None);
    if all_local + EPS < state.objective() {
        for u in 0..ps.user_count() {
            let remote = ps
                .parts_of_user(u)
                .iter()
                .filter(|&&i| ps.side(i) == Side::Remote)
                .count();
            if remote > 0 {
                state.apply_batch(ps, u, Batch::User(u), Side::Local);
                moves += remote;
            }
        }
    }

    // every user moved in this search holds an incrementally updated
    // remote-work sum; its lines are re-derived from the next
    // replan's fresh sums
    if let Some(index) = index {
        index.touch(&state.moved);
    }

    let final_objective = state.objective();
    sink.counter_add("greedy.evaluated", evaluations as u64);
    sink.counter_add("greedy.accepted", moves as u64);
    // per-run distributions: the delta-vs-full work reduction shows up
    // here even when wall-clock noise hides it
    sink.histogram_record("greedy.evaluations", evaluations as u64);
    sink.histogram_record("greedy.moves", moves as u64);
    if traced {
        sink.event(
            "greedy.done",
            &[
                ("moves", FieldValue::from(moves)),
                ("evaluations", FieldValue::from(evaluations)),
                ("initial_objective", FieldValue::from(initial)),
                ("final_objective", FieldValue::from(final_objective)),
            ],
        );
    }

    WarmSearch {
        outcome: GreedyOutcome {
            moves,
            initial_objective: initial,
            final_objective,
            evaluations,
        },
        moved: state.moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::{Bipartition, GraphBuilder};
    use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule};
    use mec_model::{Scenario, SystemParams, UserWorkload};
    use mec_netgen::NetgenSpec;

    fn params() -> SystemParams {
        SystemParams::default()
    }

    /// A compressed, cut user ready for `PartSystem::add_user`.
    fn prepared(g: &mec_graph::Graph) -> (mec_labelprop::CompressionOutcome, Vec<Bipartition>) {
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::MeanFactor(1.5)));
        let outcome = compressor.compress(g);
        let cuts = outcome
            .components
            .iter()
            .map(|c| {
                mec_spectral::SpectralBisector::new()
                    .bisect(c.quotient.graph())
                    .expect("non-empty component")
                    .partition
            })
            .collect();
        (outcome, cuts)
    }

    fn build_ps(graphs: &[mec_graph::Graph]) -> PartSystem {
        let mut ps = PartSystem::new();
        for g in graphs {
            let (outcome, cuts) = prepared(g);
            ps.add_user(g, &outcome, &cuts);
        }
        ps
    }

    #[test]
    fn incremental_objective_matches_scenario_evaluation() {
        let g = NetgenSpec::new(60, 150).seed(4).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let state = ObjectiveState::new(&ps, &p);
        let scenario = Scenario::new(p).with_user(UserWorkload::new("u", g));
        let eval = scenario.evaluate(&ps.plan()).unwrap();
        assert!(
            (state.objective() - eval.totals.objective()).abs() < 1e-9,
            "incremental {} vs model {}",
            state.objective(),
            eval.totals.objective()
        );
        // and after greedy runs
        run_greedy(&mut ps, &p, GreedyMode::Lazy);
        let state2 = ObjectiveState::new(&ps, &p);
        let eval2 = scenario.evaluate(&ps.plan()).unwrap();
        assert!((state2.objective() - eval2.totals.objective()).abs() < 1e-9);
    }

    #[test]
    fn batch_delta_predicts_applied_change() {
        let g = NetgenSpec::new(40, 100).seed(7).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let mut state = ObjectiveState::new(&ps, &p);
        for i in 0..ps.parts().len() {
            let to = ps.side(i).flipped();
            let u = ps.parts()[i].user;
            let before = state.objective();
            let predicted = state.batch_delta(&ps, u, &Batch::one(i), to);
            state.apply_batch(&mut ps, u, Batch::one(i), to);
            let after = state.objective();
            assert!(
                (after - before - predicted).abs() < 1e-9,
                "part {i}: predicted {predicted}, actual {}",
                after - before
            );
        }
    }

    #[test]
    fn swap_delta_predicts_applied_change() {
        let g = NetgenSpec::new(50, 130).seed(3).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let mut state = ObjectiveState::new(&ps, &p);
        for c in 0..ps.components().len() {
            let Some((to_remote, to_local, predicted)) = state.swap_delta(&ps, c) else {
                continue;
            };
            let before = state.objective();
            let u = ps.parts()[to_remote].user;
            state.apply_batch(&mut ps, u, Batch::one(to_local), Side::Local);
            state.apply_batch(&mut ps, u, Batch::one(to_remote), Side::Remote);
            assert!(
                (state.objective() - before - predicted).abs() < 1e-9,
                "component {c}"
            );
        }
    }

    #[test]
    fn greedy_never_increases_objective() {
        let g = NetgenSpec::new(80, 250).seed(2).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let out = run_greedy(&mut ps, &params(), GreedyMode::Lazy);
        assert!(out.final_objective <= out.initial_objective + 1e-9);
    }

    #[test]
    fn lazy_and_exhaustive_reach_comparable_optima() {
        for seed in [1u64, 5, 9, 13] {
            let g = NetgenSpec::new(70, 200).seed(seed).generate().unwrap();
            let mut ps_a = build_ps(std::slice::from_ref(&g));
            let mut ps_b = ps_a.clone();
            let a = run_greedy(&mut ps_a, &params(), GreedyMode::Exhaustive);
            let b = run_greedy(&mut ps_b, &params(), GreedyMode::Lazy);
            // different move orders may land in different local optima;
            // they must be close and both below the start
            let denom = a.final_objective.abs().max(1.0);
            assert!(
                (a.final_objective - b.final_objective).abs() / denom < 0.05,
                "seed {seed}: exhaustive {} vs lazy {}",
                a.final_objective,
                b.final_objective
            );
            assert!(a.final_objective <= a.initial_objective + 1e-9);
            assert!(b.final_objective <= b.initial_objective + 1e-9);
        }
    }

    #[test]
    fn greedy_result_is_locally_optimal() {
        let g = NetgenSpec::new(50, 140).seed(11).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        run_greedy(&mut ps, &p, GreedyMode::Exhaustive);
        let state = ObjectiveState::new(&ps, &p);
        for mv in all_moves(&ps) {
            if let Some(g) = state.gain_of(&ps, mv) {
                assert!(g <= 1e-6, "{mv:?} still improves after convergence");
            }
        }
    }

    #[test]
    fn multi_user_contention_reaches_partial_equilibrium() {
        // symmetric crowd with a server sized so that only some users
        // can profitably offload: the search must keep a middle ground,
        // not collapse to all-local or all-remote.
        let p = SystemParams {
            server_capacity: 300.0,
            ..params()
        };
        let graphs: Vec<_> = (0..40)
            .map(|i| {
                NetgenSpec::new(60, 150)
                    .seed(20 + (i % 3))
                    .generate()
                    .unwrap()
            })
            .collect();
        let mut ps = build_ps(&graphs);
        run_greedy(&mut ps, &p, GreedyMode::Lazy);
        let offloaders = (0..ps.user_count())
            .filter(|&u| ps.work_split_of_user(u).1 > 1.0)
            .count();
        assert!(
            offloaders > 0 && offloaders < 40,
            "expected partial equilibrium, got {offloaders}/40 offloaders"
        );
    }

    #[test]
    fn contention_monotonically_reduces_offloading() {
        let p = params();
        let graphs_few: Vec<_> = (0..2)
            .map(|i| NetgenSpec::new(50, 140).seed(20 + i).generate().unwrap())
            .collect();
        let graphs_many: Vec<_> = (0..12)
            .map(|i| {
                NetgenSpec::new(50, 140)
                    .seed(20 + (i % 2))
                    .generate()
                    .unwrap()
            })
            .collect();
        let mut ps_few = build_ps(&graphs_few);
        let mut ps_many = build_ps(&graphs_many);
        run_greedy(&mut ps_few, &p, GreedyMode::Lazy);
        run_greedy(&mut ps_many, &p, GreedyMode::Lazy);
        let remote_frac = |ps: &PartSystem| {
            let total: f64 = ps.parts().iter().map(|q| q.work).sum();
            let remote: f64 = ps
                .parts()
                .iter()
                .filter(|q| q.side == Side::Remote)
                .map(|q| q.work)
                .sum();
            remote / total
        };
        assert!(
            remote_frac(&ps_many) <= remote_frac(&ps_few) + 1e-9,
            "contention must not increase offloading"
        );
    }

    #[test]
    fn fifo_policy_is_priced_consistently() {
        let mut p = params();
        p.allocation = mec_model::AllocationPolicy::Fifo;
        let graphs: Vec<_> = (0..3)
            .map(|i| NetgenSpec::new(40, 100).seed(30 + i).generate().unwrap())
            .collect();
        let mut ps = build_ps(&graphs);
        let state = ObjectiveState::new(&ps, &p);
        let scenario = Scenario::new(p).with_users(
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| UserWorkload::new(format!("u{i}"), g.clone())),
        );
        let eval = scenario.evaluate(&ps.plan()).unwrap();
        assert!(
            (state.objective() - eval.totals.objective()).abs() < 1e-9,
            "incremental {} vs model {}",
            state.objective(),
            eval.totals.objective()
        );
        // delta prediction under FIFO, both directions
        let mut state = state;
        for to in [Side::Local, Side::Remote] {
            let i = 0usize;
            if ps.side(i) == to {
                continue;
            }
            let u = ps.parts()[i].user;
            let before = state.objective();
            let predicted = state.batch_delta(&ps, u, &Batch::one(i), to);
            state.apply_batch(&mut ps, u, Batch::one(i), to);
            assert!((state.objective() - before - predicted).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_greedy_from_converged_state_is_a_no_op() {
        let graphs: Vec<_> = (0..6)
            .map(|i| NetgenSpec::new(50, 140).seed(40 + i).generate().unwrap())
            .collect();
        let mut ps = build_ps(&graphs);
        let p = params();
        run_greedy(&mut ps, &p, GreedyMode::Lazy);
        let plan_before = ps.plan();
        let mut index = MoveIndex::new(ps.user_count());
        let sink = mec_obs::Recorder::new();
        let out =
            super::run_greedy_warm(&mut ps, &p, GreedyMode::Lazy, &sink, &[], Some(&mut index));
        assert_eq!(
            out.outcome.moves, 0,
            "a converged placement has no improving move"
        );
        assert_eq!(ps.plan(), plan_before);
        assert_eq!(sink.counter_value("greedy.certified"), 1);
    }

    #[test]
    fn warm_greedy_after_churn_matches_full_quality() {
        // converge on 5 users, remove one and add another, then warm
        // replan; the objective must be no worse than a from-scratch
        // greedy over the same crowd.
        let p = SystemParams {
            server_capacity: 800.0,
            ..params()
        };
        for seed in [1u64, 7, 21] {
            let graphs: Vec<_> = (0..5)
                .map(|i| {
                    NetgenSpec::new(50, 140)
                        .seed(seed * 100 + i)
                        .generate()
                        .unwrap()
                })
                .collect();
            let mut ps = build_ps(&graphs);
            run_greedy(&mut ps, &p, GreedyMode::Lazy);
            ps.remove_user(2);
            let newcomer = NetgenSpec::new(50, 140)
                .seed(seed * 100 + 9)
                .generate()
                .unwrap();
            let (outcome, cuts) = prepared(&newcomer);
            ps.add_user(&newcomer, &outcome, &cuts);
            let dirty = [ps.user_count() - 1];
            let warm = super::run_greedy_warm(
                &mut ps,
                &p,
                GreedyMode::Lazy,
                &mec_obs::NullSink,
                &dirty,
                None,
            )
            .outcome;

            let mut crowd: Vec<_> = graphs;
            crowd.remove(2);
            crowd.push(newcomer);
            let mut fresh = build_ps(&crowd);
            let full = run_greedy(&mut fresh, &p, GreedyMode::Lazy);
            let denom = full.final_objective.abs().max(1.0);
            assert!(
                warm.final_objective <= full.final_objective + 1e-9 * denom,
                "seed {seed}: warm {} worse than full {}",
                warm.final_objective,
                full.final_objective
            );
        }
    }

    #[test]
    fn a_passing_certificate_leaves_no_improving_candidate() {
        // a contended crowd, so departures re-price the survivors: the
        // certificate must fall back whenever they open an improving
        // move, and may pass only when an exact scan finds none
        let p = SystemParams {
            server_capacity: 400.0,
            ..params()
        };
        let graphs: Vec<_> = (0..24)
            .map(|i| NetgenSpec::new(40, 110).seed(60 + i).generate().unwrap())
            .collect();
        let mut ps = build_ps(&graphs);
        run_greedy(&mut ps, &p, GreedyMode::Lazy);
        let mut index = MoveIndex::new(ps.user_count());
        let sink = mec_obs::Recorder::new();
        let mut rng = 0x5eed_u64;
        for step in 0..30 {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let pick = (rng >> 33) as usize;
            let mut dirty = Vec::new();
            if step % 3 == 0 || ps.user_count() < 8 {
                let g = &graphs[pick % graphs.len()];
                let (outcome, cuts) = prepared(g);
                ps.add_user(g, &outcome, &cuts);
                index.push();
                dirty.push(ps.user_count() - 1);
            } else {
                // several departures at once move the load a lot
                for _ in 0..(1 + pick % 3) {
                    let u = (rng >> 17) as usize % ps.user_count();
                    ps.remove_user(u);
                    index.remove(u);
                    rng = rng.rotate_left(7);
                }
            }
            let mut reference = ps.clone();
            let before = sink.counter_value("greedy.certified");
            let warm = run_greedy_warm(
                &mut ps,
                &p,
                GreedyMode::Lazy,
                &sink,
                &dirty,
                Some(&mut index),
            );
            let rescan = run_greedy_warm(
                &mut reference,
                &p,
                GreedyMode::Lazy,
                &mec_obs::NullSink,
                &dirty,
                None,
            );
            assert_eq!(ps.plan(), reference.plan(), "step {step}");
            assert_eq!(warm.outcome.moves, rescan.outcome.moves, "step {step}");
            assert_eq!(
                warm.outcome.final_objective.to_bits(),
                rescan.outcome.final_objective.to_bits()
            );
            if sink.counter_value("greedy.certified") > before {
                // the certificate ran after the seeded drain; nothing
                // moved afterwards, so the final state is the one it
                // certified
                let state = ObjectiveState::new(&ps, &p);
                for mv in all_moves(&ps) {
                    if let Some(g) = state.gain_of(&ps, mv) {
                        assert!(g <= EPS, "step {step}: certified, yet {mv:?} gains {g}");
                    }
                }
            }
        }
        assert!(sink.counter_value("greedy.certified") > 0);
        assert!(sink.counter_value("greedy.certificate_fallbacks") > 0);
    }

    #[test]
    fn parts_coupled_to_pinned_nodes_come_home_when_tx_is_ruinous() {
        // pinned —1000— free: keeping the free node remote means paying
        // the huge pinned-edge transmission forever.
        let mut b = GraphBuilder::new();
        let pin = b.add_pinned_node(1.0);
        let free = b.add_node(1.0);
        b.add_edge(pin, free, 1000.0).unwrap();
        let g = b.build();
        let mut p = params();
        p.tx_power = 1000.0;
        let mut ps = build_ps(std::slice::from_ref(&g));
        let out = run_greedy(&mut ps, &p, GreedyMode::Lazy);
        assert!(ps.parts().iter().all(|q| q.side == Side::Local));
        assert!(out.final_objective <= out.initial_objective);
    }

    #[test]
    fn loose_heavy_work_goes_remote() {
        // two heavy, barely-coupled functions and a fast uncontended
        // server: the search should ship both out.
        let mut b = GraphBuilder::new();
        let x = b.add_node(500.0);
        let y = b.add_node(500.0);
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build();
        let mut ps = build_ps(std::slice::from_ref(&g));
        run_greedy(&mut ps, &params(), GreedyMode::Lazy);
        assert!(
            ps.parts().iter().all(|q| q.side == Side::Remote),
            "heavy loose work should offload entirely"
        );
    }
}
