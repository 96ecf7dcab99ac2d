//! The warm greedy's convergence certificate.
//!
//! Algorithm 2 stops when no candidate move lowers `E + T`. After a
//! delta replan's seeded drain, proving that by rescanning every
//! candidate of the crowd costs `O(crowd)` and, on a steady-state
//! churn stream, almost never finds a move. This module proves it at a
//! cost that grows with churn instead.
//!
//! Write `a = (1+P_l)/C_l`, `b = (1+P_t)/B` and `C` for the server
//! capacity. Under `EqualShare` and `ProportionalToLoad` the objective
//! is `a·lw + b·tv + k·rw/C`, so a candidate that adds remote work `β`,
//! changes the transmission volume by `Δtv` and the offloader count by
//! `δ ∈ {−1, 0, +1}` has the exact gain
//!
//! ```text
//! gain = α − β·x − δ·rw/C,    x = (k+δ)/C,    α = a·β − b·Δtv.
//! ```
//!
//! `α`, `β` and `δ` depend only on the owning user's part sides, so
//! every candidate is a line in `x`, a parameter all candidates of one
//! `δ` class share. The load-coupled re-pricing that a churn event
//! causes across the crowd is a new `x` and a new offset; the lines
//! themselves change only for the users whose parts changed. (This is
//! the threshold structure You & Huang prove for multiuser
//! offloading: a move out pays off exactly while `x < α/β`.) "No
//! candidate improves" is then, per class, an upper-envelope query at
//! one `x`.
//!
//! [`MoveIndex`] keeps the lines in blocks of about `√N` users, keyed
//! by a stable per-user handle so that an order-preserving leave
//! touches one block instead of reshuffling all of them, and keeps the
//! upper envelope of each block and class. (A crowd that grows past
//! four times the size its blocks were cut for is re-blocked once.) A
//! certificate re-derives the lines of the touched users only
//! (churned, or moved by the search), rebuilds their blocks'
//! envelopes, and queries every block.
//! A block whose envelope lies within a rigorous rounding margin `τ`
//! of `EPS` is re-priced exactly with `gain_of`; the certificate holds
//! when no exact gain exceeds `EPS`. Otherwise the caller runs its
//! ordinary rescan.
//!
//! The envelopes are conservative: a line is dropped only when the
//! float test shows, with its rounding error accounted for, that two
//! kept lines dominate it everywhere. Domination is transitive, so the
//! maximum over the kept lines is never below the maximum over all
//! lines, and the query can take that maximum directly.

use super::{for_each_move_of_user, ObjectiveState, EPS};
use crate::parts::PartSystem;
use mec_model::{AllocationPolicy, SystemParams};

/// One candidate's coefficients: the remote work it adds, its
/// transmission-volume change and its offloader-count change, as
/// [`ObjectiveState::gain_of`] computes them.
#[derive(Debug, Clone, Copy)]
pub(super) struct Line {
    pub(super) beta: f64,
    pub(super) dtv: f64,
    pub(super) delta: isize,
}

/// The margin factor on the magnitudes a certificate's arithmetic
/// touches. Pricing one candidate rounds a few dozen times, each
/// within one `f64::EPSILON` of the magnitudes involved; 64 leaves a
/// wide safety factor and still certifies every block whose envelope
/// is not a near-tie with `EPS`.
const TOLERANCE: f64 = 64.0 * f64::EPSILON;

/// Marks a handle with no user.
const FREE: u32 = u32::MAX;

/// A candidate line `α − β·x` of one user, stored in its block.
#[derive(Debug, Clone, Copy)]
struct BlockLine {
    handle: u32,
    /// `δ + 1`.
    class: u8,
    alpha: f64,
    beta: f64,
    /// `|a·β| + |b·Δtv| + |β|`: the scale the line's rounding error
    /// grows with.
    scale: f64,
}

/// One block of handles: its users' lines and, per class, the kept
/// lines of their upper envelope.
#[derive(Debug, Default)]
struct Block {
    lines: Vec<BlockLine>,
    /// Per class: the envelope's kept `(α, β)`, by decreasing `β`.
    hulls: [Vec<(f64, f64)>; 3],
    /// Per class: the largest line scale; `∞` forces an exact
    /// re-price (a non-finite coefficient).
    scale: [f64; 3],
    stale: bool,
}

impl Block {
    /// Rebuilds the per-class envelopes from `lines`.
    fn rebuild(&mut self) {
        for (class, hull) in self.hulls.iter_mut().enumerate() {
            hull.clear();
            self.scale[class] = 0.0;
            for l in self.lines.iter().filter(|l| usize::from(l.class) == class) {
                self.scale[class] = if l.alpha.is_finite() && l.scale.is_finite() {
                    self.scale[class].max(l.scale)
                } else {
                    f64::INFINITY
                };
                hull.push((l.alpha, l.beta));
            }
            if self.scale[class].is_finite() {
                upper_envelope(hull);
            }
        }
        self.stale = false;
    }

    /// `true` unless every class's envelope at its `x`, less its offset,
    /// lies at least the rounding margin below `EPS`.
    fn near(&self, k: f64, rw_over_cap: f64, cap: f64, objective_scale: f64) -> bool {
        self.hulls.iter().enumerate().any(|(class, hull)| {
            if hull.is_empty() {
                return false;
            }
            let delta = class as f64 - 1.0;
            let x = (k + delta) / cap;
            let top = hull
                .iter()
                .map(|&(alpha, beta)| alpha - beta * x)
                .fold(f64::NEG_INFINITY, f64::max);
            let u = top - delta * rw_over_cap;
            let tau = TOLERANCE
                * (objective_scale
                    + self.scale[class] * (1.0 + x.abs())
                    + rw_over_cap.abs()
                    + u.abs());
            let clear = u + tau <= EPS;
            !clear
        })
    }
}

/// Reduces `lines` to the ones its upper envelope `max α − β·x` may
/// need, in place and by decreasing `β` (increasing slope `−β`). A
/// line is dropped only when it is dominated everywhere in exact
/// arithmetic on the stored coefficients: by a line of equal slope and
/// no smaller `α`, or, per the rounding-aware test below, by its two
/// neighbours.
fn upper_envelope(lines: &mut Vec<(f64, f64)>) {
    lines.sort_unstable_by(|p, q| q.1.total_cmp(&p.1).then(q.0.total_cmp(&p.0)));
    lines.dedup_by(|later, kept| later.1 == kept.1);
    let mut kept = 0;
    for i in 0..lines.len() {
        let l = lines[i];
        while kept >= 2 && dominated(lines[kept - 2], lines[kept - 1], l) {
            kept -= 1;
        }
        lines[kept] = l;
        kept += 1;
    }
    lines.truncate(kept);
}

/// `true` when line `j` lies on or below `max(i, l)` for every `x`,
/// with `β_i > β_j > β_l`: the lines `i` and `l` meet on or above `j`.
/// With slopes `s = −β`, that is
/// `(α_j − α_i)(s_l − s_i) + (s_j − s_i)(α_i − α_l) ≤ 0`; the float
/// value must clear zero by its own rounding bound.
fn dominated(i: (f64, f64), j: (f64, f64), l: (f64, f64)) -> bool {
    let p = (j.0 - i.0) * (i.1 - l.1);
    let q = (i.1 - j.1) * (i.0 - l.0);
    p + q + 8.0 * f64::EPSILON * (p.abs() + q.abs()) <= 0.0
}

/// What one certificate query did.
pub(super) struct Certificate {
    /// No candidate of the crowd has a gain above `EPS`.
    pub(super) holds: bool,
    /// Candidates priced: line derivations plus exact re-prices.
    pub(super) evaluations: usize,
    /// Blocks whose envelope came within the margin of `EPS` and were
    /// re-priced exactly.
    pub(super) block_reprices: usize,
}

/// The candidate lines of every user in blocks with per-block upper
/// envelopes, kept slot-aligned with a [`PartSystem`] across churn.
#[derive(Debug)]
pub(crate) struct MoveIndex {
    /// Handles per block.
    block: usize,
    /// Slot → handle.
    handle_of: Vec<u32>,
    /// Handle → slot, or [`FREE`].
    slot_of: Vec<u32>,
    /// Released handles, reused by later joins.
    free: Vec<u32>,
    /// Handle → whether its lines must be re-derived.
    stale: Vec<bool>,
    stale_list: Vec<u32>,
    blocks: Vec<Block>,
}

impl MoveIndex {
    /// `true` when `params` give every candidate the line form above;
    /// `Fifo` pricing depends on queue positions and is never indexed.
    pub(crate) fn supports(params: &SystemParams) -> bool {
        matches!(
            params.allocation,
            AllocationPolicy::EqualShare | AllocationPolicy::ProportionalToLoad
        )
    }

    /// An index over `users` slots, every one stale, in blocks of
    /// about `√users` handles.
    pub(crate) fn new(users: usize) -> Self {
        let mut index = MoveIndex {
            block: ((users as f64).sqrt().ceil() as usize).max(1),
            handle_of: Vec::with_capacity(users),
            slot_of: Vec::with_capacity(users),
            free: Vec::new(),
            stale: Vec::with_capacity(users),
            stale_list: Vec::with_capacity(users),
            blocks: Vec::new(),
        };
        for _ in 0..users {
            index.push();
        }
        index
    }

    /// Appends a slot for a joining user; its lines are derived at the
    /// next certificate.
    pub(crate) fn push(&mut self) {
        let slot = self.handle_of.len() as u32;
        let h = self.free.pop().unwrap_or_else(|| {
            let h = self.slot_of.len();
            self.slot_of.push(FREE);
            self.stale.push(false);
            if h / self.block == self.blocks.len() {
                self.blocks.push(Block::default());
            }
            h as u32
        });
        self.handle_of.push(h);
        self.slot_of[h as usize] = slot;
        self.mark_stale(h);
    }

    /// Removes slot `slot` order-preservingly, like
    /// [`PartSystem::remove_user`]: its lines leave their block, and
    /// every other user keeps its handle.
    pub(crate) fn remove(&mut self, slot: usize) {
        let h = self.handle_of.remove(slot);
        for s in &mut self.slot_of {
            if *s != FREE && *s as usize > slot {
                *s -= 1;
            }
        }
        self.slot_of[h as usize] = FREE;
        let block = &mut self.blocks[h as usize / self.block];
        block.lines.retain(|l| l.handle != h);
        block.stale = true;
        self.free.push(h);
    }

    /// Marks the given slots' lines stale (a churned or moved user).
    pub(super) fn touch(&mut self, slots: &[usize]) {
        for &slot in slots {
            if let Some(&h) = self.handle_of.get(slot) {
                self.mark_stale(h);
            }
        }
    }

    fn mark_stale(&mut self, h: u32) {
        if !std::mem::replace(&mut self.stale[h as usize], true) {
            self.stale_list.push(h);
        }
    }

    /// Shows that no candidate of `ps` has a gain above `EPS` under
    /// `state`, or reports that it could not. Every slot must be
    /// current: the lines of a user whose parts or sides changed since
    /// they were derived must have been [`touch`](Self::touch)ed.
    pub(super) fn certify(&mut self, state: &ObjectiveState, ps: &PartSystem) -> Certificate {
        debug_assert_eq!(self.handle_of.len(), ps.user_count());
        if self.slot_of.len() > 4 * self.block * self.block {
            // the crowd outgrew the blocks sized for it: re-block at
            // the current √N, re-deriving every user's lines once
            *self = MoveIndex::new(self.handle_of.len());
        }
        let p = &state.params;
        let a = (1.0 + p.local_power) / p.local_capacity;
        let b = (1.0 + p.tx_power) / p.bandwidth;
        let cap = p.server_capacity;
        let mut cert = Certificate {
            holds: true,
            evaluations: 0,
            block_reprices: 0,
        };

        for &h in &self.stale_list {
            self.stale[h as usize] = false;
            let block = &mut self.blocks[h as usize / self.block];
            block.lines.retain(|l| l.handle != h);
            block.stale = true;
            let slot = self.slot_of[h as usize];
            if slot == FREE {
                continue;
            }
            for_each_move_of_user(ps, slot as usize, |mv| {
                if let Some(line) = state.line_of(ps, mv) {
                    cert.evaluations += 1;
                    block.lines.push(BlockLine {
                        handle: h,
                        class: (line.delta + 1) as u8,
                        alpha: a * line.beta - b * line.dtv,
                        beta: line.beta,
                        scale: (a * line.beta).abs() + (b * line.dtv).abs() + line.beta.abs(),
                    });
                }
            });
        }
        self.stale_list.clear();

        let k = state.offloaders as f64;
        let rw_over_cap = state.rw / cap;
        // magnitude of the current objective; every candidate
        // objective adds at most its line's scale and the offset
        let objective_scale =
            a * state.lw.abs() + b * state.tv.abs() + (k + 1.0) * rw_over_cap.abs();
        for (i, block) in self.blocks.iter_mut().enumerate() {
            if block.stale {
                block.rebuild();
            }
            if !block.near(k, rw_over_cap, cap, objective_scale) {
                continue;
            }
            cert.block_reprices += 1;
            let end = ((i + 1) * self.block).min(self.slot_of.len());
            for &slot in &self.slot_of[i * self.block..end] {
                if slot == FREE {
                    continue;
                }
                let mut improving = false;
                for_each_move_of_user(ps, slot as usize, |mv| {
                    if let Some(g) = state.gain_of(ps, mv) {
                        cert.evaluations += 1;
                        improving |= g > EPS;
                    }
                });
                if improving {
                    cert.holds = false;
                    return cert;
                }
            }
        }
        cert
    }
}
