//! The paper's Section 2 view-table maintenance as a membership provider:
//! a [`DelegateView`] keeps each process's membership knowledge **structured
//! by the tree coordinates** of the `pmcast` address space instead of as one
//! flat bounded list.
//!
//! ## Why a third provider
//!
//! The flat [`PartialView`](crate::PartialView) models lpbcast: a bounded
//! *uniform random* sample of the group.  pmcast, however, gossips through
//! the **delegates** of its per-depth views — the `R` smallest-address
//! processes of every sibling subgroup — and at paper scale (`n ≈ 10 648`,
//! views of a few hundred entries) those specific processes are almost never
//! inside a small random sample, so pmcast's reliability collapses (see
//! `examples/partial_view_sweep.rs`).  Section 2 of the paper never
//! maintains a flat sample in the first place: a process's view *is* the
//! hierarchy — per depth `i`, one slot group per sibling subgroup, holding
//! that subgroup's delegates.  `DelegateView` reproduces exactly that
//! shape:
//!
//! * **Per-depth delegate slots.**  For every depth `l ∈ 1..d` a process
//!   keeps, for each of the `a` subgroups sharing its depth-`(l−1)` prefix,
//!   up to [`DelegateViewConfig::slots`] delegate entries — the smallest
//!   known-live members of that subgroup, mirroring the paper's
//!   smallest-address delegate election.  At the leaf depth it keeps its
//!   `a − 1` subgroup neighbours.  Total view size is
//!   `(d−1)·a·slots + a ∈ O(d·R·n^{1/d})` (Equation 2), **not** `n`.
//! * **Bootstrap = the join handoff.**  A joining process receives its view
//!   table from a delegate of each subgroup along its path (Section 2.3);
//!   the simulation collapses that handshake into a fully populated
//!   bootstrap, so at round zero every slot holds the subgroup's current
//!   delegates — the same processes
//!   [`SharedViews`](../../pmcast_core/struct.SharedViews.html) elects,
//!   whenever `slots ≥ R`.
//! * **Gossip piggybacks delegate tables per subtree.**  Once per
//!   simulation round every live process contacts
//!   [`DelegateViewConfig::gossip_fanout`] known peers and pushes its own
//!   subscription plus a random [`DelegateViewConfig::digest_size`]-entry
//!   digest of its view; the receiver files each candidate into the slot
//!   groups of **every depth at which the candidate qualifies** (a peer
//!   sharing a length-`k` prefix is a candidate for depths `1..=k+1`).
//! * **Eviction keeps delegates, not randomness.**  A slot group only
//!   overflows when a *smaller* live candidate arrives, in which case the
//!   largest entry is evicted — so each group deterministically converges to
//!   the `slots` smallest live members of its subgroup, which is precisely
//!   the paper's re-election rule.  Slot entries are **monitored** like
//!   delegates in Section 2.3: a crash is swept from every table within one
//!   membership round (unlike the deliberately lazy failure detection of
//!   [`PartialView`](crate::PartialView)), and the sweep immediately
//!   re-elects replacements from the already-gossiped candidates in the
//!   evictor's view, keeping at least one live delegate per occupied
//!   subtree whenever one is known.
//! * **Pinned ring contact as the connectivity fallback.**  Exactly as in
//!   [`PartialView`](crate::PartialView), every process pins its live ring
//!   successor (monitored, never evicted), so the live overlay stays
//!   connected even through churn that empties slot groups — gossip can
//!   always route candidates back in.
//!
//! ## Determinism
//!
//! All randomness (gossip target picks, digest sampling) flows from the
//! seed the view was constructed with — for simulation trials, the same
//! per-trial membership stream [`PartialView`](crate::PartialView) uses
//! (rule 3 of the seed contract in `pmcast-sim`'s runner docs), so parallel
//! Monte-Carlo trials stay bit-identical to sequential ones.  Slot
//! admission and eviction are fully deterministic (smallest-address order)
//! and consume no randomness at all.
//!
//! `DelegateView` implements the whole [`MembershipView`] contract: the
//! flat [`peer_count`](MembershipView::peer_count) /
//! [`peer_at`](MembershipView::peer_at) enumeration (used by the flooding
//! and genuine baselines) walks the deduplicated union of all slot entries
//! plus the pinned contact, while
//! [`knows_at_depth`](MembershipView::knows_at_depth) — the query the
//! pmcast fanout draw asks — resolves in `O(slots)` straight from the slot
//! group of the queried depth, and
//! [`filter_known_at_depth`](MembershipView::filter_known_at_depth) answers
//! a whole depth's candidate list under one read lock.
//!
//! ## Settled tables
//!
//! Once gossip has converged, almost every digest entry lands in a table
//! that already holds it or holds only smaller members, so a round's
//! admissions are overwhelmingly no-ops.  Each table therefore carries a
//! *settled* mark meaning "equal to the fixed point": every slot group
//! holds the smallest live members of its subgroup, exactly the seats
//! [`LazyDelegateView`](crate::LazyDelegateView) computes.  Admitting a
//! live peer into a settled table cannot change it — admission compares
//! addresses only, and the peer is either seated already or larger than
//! every entry of a full group — so the admission returns before touching
//! the table.
//!
//! * Bootstrap seats the fixed point by construction, so every occupied
//!   process starts settled.
//! * A table that changes (an admission, a stale-entry eviction, the crash
//!   sweep's evict and re-elect, a leave) loses the mark and is queued; at
//!   the end of each membership round the queued tables are re-verified
//!   against the fixed point.  A join unmarks the tables the joiner can be
//!   seated in: those under its shortest prefix at whose next depth it
//!   ranks among the smallest live members.  A round thus costs its gossip
//!   draws plus the tables that actually change, not `O(n)` full
//!   admissions.
//! * The fast path is **stream-neutral**: skipping a provably no-op
//!   admission draws nothing.  Admission never consumes randomness, and the
//!   gossip picks and digest samples are drawn in the same order either
//!   way, so the provider's ChaCha8 stream, every table and every flat
//!   enumeration stay bit-identical to admitting everything — the same
//!   argument that makes skipping a quiescent process in the engine's
//!   active set safe.

use std::sync::RwLock;

use pmcast_addr::Prefix;
use pmcast_interest::Event;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::provider::MembershipView;
use crate::summaries::InterestAnnex;
use crate::SubtreeSummaries;

/// Sentinel marking an unoccupied delegate slot.  `u32::MAX` sorts after
/// every valid index, so a slot group is simply kept sorted ascending.
const EMPTY: u32 = u32::MAX;

/// Parameters of the [`DelegateView`] hierarchical membership layer.
///
/// # Examples
///
/// ```rust
/// use pmcast_membership::DelegateViewConfig;
///
/// let config = DelegateViewConfig::default().with_slots(3);
/// // A 22-ary depth-3 tree (the paper-scale group, n = 10 648) needs only
/// // (3 − 1) · 22 · 3 + 22 = 154 view entries per process.
/// assert_eq!(config.table_entries(22, 3), 154);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegateViewConfig {
    /// Delegate slots per subgroup per depth — the membership-side mirror of
    /// the protocol's redundancy factor `R`; keep `slots ≥ R` so every
    /// delegate the dissemination layer elects is representable.
    pub slots: usize,
    /// Number of known peers each process contacts per membership round.
    pub gossip_fanout: usize,
    /// Number of view entries piggybacked on each contact (besides the
    /// sender's own subscription).
    pub digest_size: usize,
}

impl Default for DelegateViewConfig {
    fn default() -> Self {
        Self {
            slots: 3,
            gossip_fanout: 3,
            digest_size: 4,
        }
    }
}

impl DelegateViewConfig {
    /// Sets the per-subgroup delegate slot count, returning the config for
    /// chaining.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// The bounded per-process view size this configuration yields on a
    /// regular `arity^depth` tree: `(d−1)·a·slots + a` (Equation 2 of the
    /// paper), the hierarchical counterpart of `PartialViewConfig::view_size`.
    pub fn table_entries(&self, arity: u32, depth: usize) -> usize {
        let a = arity as usize;
        depth.saturating_sub(1) * a * self.slots + a
    }
}

/// Dense-index arithmetic over a regular `arity^depth` tree.
///
/// Dense identifiers enumerate addresses in lexicographic order, so index
/// `i`'s address components are simply its base-`arity` digits, most
/// significant first.  They are precomputed once into an `n × depth` byte
/// table (≈32 KB at n = 10 648, ≈4 MB at 32⁴), so every tree coordinate a
/// view table needs is a lookup or a multiply-add, never a division.
/// Shared with the lazy provider (`crate::lazy`), which computes seat
/// answers from exactly this arithmetic instead of storing tables.
#[derive(Debug, Clone)]
pub(crate) struct TreeShape {
    pub(crate) arity: usize,
    pub(crate) depth: usize,
    /// `pows[k] = arity^k`, `k ∈ 0..=depth`.
    pows: Vec<usize>,
    /// `digits[i·depth + k]` is the `k`-th address component of index `i`.
    digits: Vec<u8>,
    pub(crate) slots: usize,
}

impl TreeShape {
    /// # Panics
    ///
    /// Panics if `arity` exceeds 256 (components are stored as bytes) or
    /// the group size overflows `usize`.
    pub(crate) fn new(arity: usize, depth: usize, slots: usize) -> Self {
        assert!(arity <= 256, "arity must be at most 256");
        let mut pows = Vec::with_capacity(depth + 1);
        let mut p = 1usize;
        for _ in 0..=depth {
            pows.push(p);
            p = p.checked_mul(arity).expect("group size overflows usize");
        }
        // Count through the indices in base `arity`, least significant
        // component last, so the table is built without a division.
        let n = pows[depth];
        let mut digits = Vec::with_capacity(n * depth);
        let mut current = vec![0u8; depth];
        for _ in 0..n {
            digits.extend_from_slice(&current);
            for k in (0..depth).rev() {
                if usize::from(current[k]) + 1 < arity {
                    current[k] += 1;
                    break;
                }
                current[k] = 0;
            }
        }
        Self {
            arity,
            depth,
            pows,
            digits,
            slots,
        }
    }

    pub(crate) fn member_count(&self) -> usize {
        self.pows[self.depth]
    }

    /// The address components of dense index `i`, most significant first.
    fn components(&self, i: usize) -> &[u8] {
        &self.digits[i * self.depth..(i + 1) * self.depth]
    }

    /// The `k`-th address component (0-based, most significant first) of
    /// dense index `i`.
    pub(crate) fn digit(&self, i: usize, k: usize) -> usize {
        usize::from(self.digits[i * self.depth + k])
    }

    /// Number of leading address components `p` and `q` share.
    pub(crate) fn common_prefix(&self, p: usize, q: usize) -> usize {
        self.components(p)
            .iter()
            .zip(self.components(q))
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// First dense index of the subtree under `q`'s length-`len` prefix
    /// (which spans `arity^(depth − len)` indices).
    pub(crate) fn prefix_base(&self, q: usize, len: usize) -> usize {
        self.components(q)[..len]
            .iter()
            .zip(self.pows[self.depth - len..self.depth].iter().rev())
            .map(|(&component, &weight)| usize::from(component) * weight)
            .sum()
    }

    /// Total slots in one process's table: `(d−1)·a·slots` inner entries
    /// plus `a` leaf-neighbour entries.
    fn table_len(&self) -> usize {
        (self.depth - 1) * self.arity * self.slots + self.arity
    }

    /// Slot range of the depth-`l` group for sibling component `g`
    /// (`l ∈ 1..=depth`; the leaf depth has one slot per component).
    fn group_range(&self, l: usize, g: usize) -> std::ops::Range<usize> {
        if l == self.depth {
            let start = (self.depth - 1) * self.arity * self.slots + g;
            start..start + 1
        } else {
            let start = ((l - 1) * self.arity + g) * self.slots;
            start..start + self.slots
        }
    }

    /// First dense index of the depth-`l` sibling subgroup `g` of process
    /// `q` (the subgroup `q.prefix(l−1) · g`).
    pub(crate) fn subgroup_base(&self, q: usize, l: usize, g: usize) -> usize {
        self.prefix_base(q, l - 1) + g * self.pows[self.depth - l]
    }

    /// Number of processes in any depth-`l` subgroup.
    pub(crate) fn subgroup_size(&self, l: usize) -> usize {
        self.pows[self.depth - l]
    }
}

/// Where a process's slot table stands against the fixed point gossip
/// converges to: every group holding the smallest live members of its
/// subgroup (the seats [`LazyDelegateView`](crate::LazyDelegateView)
/// computes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seal {
    /// Verified equal to the fixed point: admitting a live peer is a no-op.
    Settled,
    /// Changed since the last verification; queued on `DelegateState::dirty`.
    Dirty,
    /// Not at the fixed point (or absent): admissions take the full path
    /// until the next change queues the table again.
    Open,
}

/// Mutable provider state behind one lock: the per-process slot tables, the
/// flat (deduplicated) peer enumerations, pinned contacts, liveness, the
/// settled-table bookkeeping and the provider-private PRNG stream.
#[derive(Debug)]
struct DelegateState {
    shape: TreeShape,
    /// `tables[q]` is the fixed-layout slot table of `q` (see
    /// [`TreeShape::group_range`]); inner groups are sorted ascending with
    /// [`EMPTY`] sentinels at the end.
    tables: Vec<Vec<u32>>,
    /// `flat[q]` is the dense peer enumeration backing `peer_count` /
    /// `peer_at`: the deduplicated union of `q`'s slot entries plus its
    /// pinned contact.
    flat: Vec<Vec<u32>>,
    /// `contact[q]` is `q`'s pinned live ring successor (monitored, never
    /// evicted) — the connectivity fallback.
    contact: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
    /// Crashes observed since the last membership round, awaiting the
    /// monitored-delegate sweep.
    pending_dead: Vec<u32>,
    /// `seal[q]` says whether `tables[q]` is known to sit at the fixed point.
    seal: Vec<Seal>,
    /// Tables changed since the last membership round, each listed once
    /// (`seal[q] == Seal::Dirty`); re-verified at the end of the next round.
    dirty: Vec<u32>,
    rng: ChaCha8Rng,
}

impl DelegateState {
    /// The next live index strictly after `of`, cyclically.
    fn next_live(&self, of: usize) -> Option<usize> {
        let n = self.alive.len();
        (1..n).map(|offset| (of + offset) % n).find(|&i| self.alive[i])
    }

    /// Returns `true` if `peer` sits in `of`'s depth-`depth` slot group (the
    /// answer to [`MembershipView::knows_at_depth`]).
    fn seated_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        if of == peer || depth == 0 || depth > self.shape.depth {
            return false;
        }
        if self.shape.common_prefix(of, peer) + 1 < depth {
            return false; // not under the shared prefix of this view depth
        }
        let g = self.shape.digit(peer, depth - 1);
        self.tables[of][self.shape.group_range(depth, g)].contains(&(peer as u32))
    }

    /// Returns `true` if `peer` occupies any slot of `q`'s table.
    fn table_contains(&self, q: usize, peer: usize) -> bool {
        let cp = self.shape.common_prefix(q, peer);
        let deepest = (cp + 1).min(self.shape.depth);
        (1..=deepest).any(|l| {
            let g = self.shape.digit(peer, l - 1);
            self.tables[q][self.shape.group_range(l, g)].contains(&(peer as u32))
        })
    }

    /// Records that `tables[q]` changed: it loses its settled status and is
    /// queued for re-verification.
    fn touch(&mut self, q: usize) {
        if self.seal[q] != Seal::Dirty {
            self.seal[q] = Seal::Dirty;
            self.dirty.push(q as u32);
        }
    }

    /// Returns `true` if every slot group of `q`'s table holds exactly the
    /// smallest live members of its subgroup (`q` itself excluded), padded
    /// with [`EMPTY`] when the subgroup has fewer live members than slots.
    fn at_fixed_point(&self, q: usize) -> bool {
        let shape = &self.shape;
        (1..=shape.depth).all(|l| {
            (0..shape.arity).all(|g| {
                let base = shape.subgroup_base(q, l, g);
                let mut seats = (base..base + shape.subgroup_size(l))
                    .filter(|&m| m != q && self.alive[m])
                    .map(|m| m as u32)
                    .chain(std::iter::repeat(EMPTY));
                self.tables[q][shape.group_range(l, g)]
                    .iter()
                    .all(|&slot| seats.next() == Some(slot))
            })
        })
    }

    /// Re-verifies every table changed since the last call: live tables at
    /// the fixed point become settled, the rest stay open.
    fn settle_dirty(&mut self) {
        for k in 0..self.dirty.len() {
            let q = self.dirty[k] as usize;
            self.seal[q] = if self.alive[q] && self.at_fixed_point(q) {
                Seal::Settled
            } else {
                Seal::Open
            };
        }
        self.dirty.clear();
    }

    /// Queues every table whose fixed point changes now that `joiner` is
    /// live: those of the processes under `joiner`'s shortest prefix at
    /// whose next depth it ranks among the smallest live members.  A
    /// process sharing exactly `c` components with the joiner could seat
    /// it only in its depth-`(c+1)` group, the subgroup `joiner.prefix(c+1)`;
    /// the rank is monotone in `c`, and at the leaf depth (`c = d − 1`) the
    /// joiner is always seated.
    fn unsettle_for_join(&mut self, joiner: usize) {
        let depth = self.shape.depth;
        let shared = (0..depth)
            .find(|&c| {
                let capacity = if c + 1 == depth { 1 } else { self.shape.slots };
                let base = self.shape.prefix_base(joiner, c + 1);
                let smaller_live = (base..joiner).filter(|&m| self.alive[m]).take(capacity);
                smaller_live.count() < capacity
            })
            .expect("the leaf depth always seats the joiner");
        let base = self.shape.prefix_base(joiner, shared);
        for q in base..base + self.shape.subgroup_size(shared) {
            self.touch(q);
        }
    }

    /// Drops `peer` from `q`'s flat enumeration unless a slot or the pinned
    /// contact still references it.
    fn maybe_drop_from_flat(&mut self, q: usize, peer: usize) {
        if self.contact[q] as usize == peer || self.table_contains(q, peer) {
            return;
        }
        if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == peer) {
            self.flat[q].swap_remove(pos);
        }
    }

    /// Files `peer` into the depth-`l` slot group it belongs to in `q`'s
    /// table.  The group holds the `slots` smallest known-live members of
    /// the subgroup: a smaller candidate evicts the largest entry (the
    /// deterministic smallest-address re-election of Section 2).  Returns
    /// `true` if the table changed.
    fn admit_at_level(&mut self, q: usize, l: usize, peer: usize) -> bool {
        let g = self.shape.digit(peer, l - 1);
        let range = self.shape.group_range(l, g);
        let peer = peer as u32;
        let group = &mut self.tables[q][range];
        if group.contains(&peer) {
            return false;
        }
        let last = group.len() - 1;
        let evicted = group[last];
        if peer >= evicted {
            return false; // group is full of smaller (or equal) entries
        }
        // Insert in sorted position, shifting the tail out.
        let pos = group.partition_point(|&e| e < peer);
        group[pos..].rotate_right(1);
        group[pos] = peer;
        self.touch(q);
        if evicted != EMPTY {
            self.maybe_drop_from_flat(q, evicted as usize);
        }
        true
    }

    /// Admits `peer` into `q`'s view: every slot group it qualifies for
    /// (depths `1..=cp+1`), plus the flat enumeration if any slot took it.
    ///
    /// `peer` must be live.  A settled table returns at once: it holds the
    /// smallest members of every subgroup out of a live set that includes
    /// `peer` (changes to that set re-queue the tables they affect), and
    /// admission compares addresses only, so the full path would find every
    /// group already holding `peer` or full of smaller entries.
    fn admit_peer(&mut self, q: usize, peer: usize) {
        debug_assert!(self.alive[peer], "only live peers are admitted");
        if q == peer || self.seal[q] == Seal::Settled {
            return;
        }
        let cp = self.shape.common_prefix(q, peer);
        let deepest = (cp + 1).min(self.shape.depth);
        let mut admitted = false;
        for l in 1..=deepest {
            admitted |= self.admit_at_level(q, l, peer);
        }
        if admitted && !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    /// Removes `x` from every slot group of `q`'s table, re-electing
    /// replacements from the candidates already gossiped into `q`'s flat
    /// view so every occupied subtree keeps a live delegate if one is
    /// known.
    fn evict_from_table(&mut self, q: usize, x: usize) {
        let cp = self.shape.common_prefix(q, x);
        let deepest = (cp + 1).min(self.shape.depth);
        for l in 1..=deepest {
            let g = self.shape.digit(x, l - 1);
            let range = self.shape.group_range(l, g);
            let group = &mut self.tables[q][range.clone()];
            let Some(pos) = group.iter().position(|&e| e as usize == x) else {
                continue;
            };
            group[pos..].rotate_left(1);
            let last = group.len() - 1;
            group[last] = EMPTY;
            self.touch(q);
            if l == self.shape.depth {
                continue; // leaf slots name one fixed process; nothing to re-elect
            }
            // Re-election: promote the smallest live already-known member
            // of the subgroup that is not yet seated.
            let base = self.shape.subgroup_base(q, l, g);
            let size = self.shape.subgroup_size(l);
            let mut candidate: Option<usize> = None;
            for &e in &self.flat[q] {
                let e = e as usize;
                if e != q
                    && e >= base
                    && e < base + size
                    && self.alive[e]
                    && candidate.is_none_or(|best| e < best)
                    && !self.tables[q][range.clone()].contains(&(e as u32))
                {
                    candidate = Some(e);
                }
            }
            if let Some(winner) = candidate {
                self.admit_at_level(q, l, winner);
            }
        }
    }

    /// Evicts `x` from every process's view (slot tables and flat
    /// enumerations) and re-pins any process whose ring contact it was.
    fn evict_everywhere(&mut self, x: usize) {
        for q in 0..self.alive.len() {
            if q == x {
                continue;
            }
            self.evict_from_table(q, x);
            if let Some(pos) = self.flat[q].iter().position(|&e| e as usize == x) {
                self.flat[q].swap_remove(pos);
            }
            if self.alive[q] && self.contact[q] as usize == x {
                self.pin_contact(q);
            }
        }
    }

    /// Pins `q`'s contact to `peer`, keeping it in `q`'s flat view (and
    /// its slot groups when it qualifies).
    fn pin_to(&mut self, q: usize, peer: usize) {
        self.contact[q] = peer as u32;
        self.admit_peer(q, peer);
        if !self.flat[q].contains(&(peer as u32)) {
            self.flat[q].push(peer as u32);
        }
    }

    /// Re-pins `q`'s contact to its current live ring successor.
    fn pin_contact(&mut self, q: usize) {
        if let Some(successor) = self.next_live(q) {
            self.pin_to(q, successor);
        }
    }
}

/// The Section 2 hierarchical membership provider: per-depth delegate slot
/// tables over a regular tree, maintained by gossip (see the
/// [module docs](self) for the full design).
///
/// # Examples
///
/// ```rust
/// use pmcast_membership::{DelegateView, DelegateViewConfig, MembershipView};
///
/// // A 4-ary tree of depth 2 (n = 16), three delegate slots per subgroup.
/// let view = DelegateView::bootstrap(4, 2, DelegateViewConfig::default(), 7);
/// // Process 0 knows the three smallest members of the sibling subgroup
/// // starting at index 12 as its depth-1 delegates …
/// assert!(view.knows_at_depth(0, 1, 12));
/// assert!(view.knows_at_depth(0, 1, 14));
/// // … but not that subgroup's largest member: views stay bounded.
/// assert!(!view.knows_at_depth(0, 1, 15));
/// // Its leaf view holds every subgroup neighbour.
/// assert!(view.knows_at_depth(0, 2, 1) && view.knows_at_depth(0, 2, 3));
/// ```
#[derive(Debug)]
pub struct DelegateView {
    config: DelegateViewConfig,
    state: RwLock<DelegateState>,
    /// Aggregated-interest tables attached via
    /// [`MembershipView::attach_interest_summaries`]: each slot group's
    /// subtree carries the over-approximating summary of the interests
    /// below it, maintained through the same (collapsed) gossip that
    /// carries view digests — a leave retracts the departed filter along
    /// its root path, a rejoin re-announces it.
    interest: RwLock<Option<InterestAnnex>>,
}

impl DelegateView {
    /// Bootstraps the delegate views of a fully populated regular
    /// `arity^depth` tree (the paper's analysis topology); all provider
    /// randomness flows from `seed`.
    ///
    /// Bootstrap models the paper's join handoff: every slot group starts
    /// out holding its subgroup's current delegates (the `slots` smallest
    /// members, the sitting process excluded from its own view).
    ///
    /// # Panics
    ///
    /// Panics if `arity`, `depth`, `slots` or `gossip_fanout` is zero, or
    /// if `arity` exceeds 256.
    pub fn bootstrap(arity: u32, depth: usize, config: DelegateViewConfig, seed: u64) -> Self {
        let n = TreeShape::new(arity as usize, depth, config.slots).member_count();
        Self::bootstrap_sparse(arity, depth, config, seed, &vec![true; n])
    }

    /// Bootstraps over a **sparse** population: `occupied[i]` says whether
    /// dense index `i` is a member at round zero.  The join handoff is
    /// gap-aware — every slot group seats the `slots` smallest *occupied*
    /// members of its subgroup, an empty subgroup's group stays entirely
    /// unseated (all sentinel slots), and the pinned ring contact is
    /// each process's nearest occupied successor, so the live overlay rings
    /// over the occupied subset.  Processes joining later (into occupied
    /// *or empty* subgroups) re-enter through
    /// [`observe_join`](MembershipView::observe_join) and are seated by
    /// gossip: `admit_peer` files a newcomer into every slot group it
    /// qualifies for, including groups that were empty until then.
    ///
    /// With every address occupied this is exactly
    /// [`bootstrap`](Self::bootstrap) — same tables, same untouched RNG
    /// stream — so static scenarios are unaffected.  Sparse bootstrap
    /// itself consumes **no** randomness.
    ///
    /// # Panics
    ///
    /// Panics if `arity`, `depth`, `slots` or `gossip_fanout` is zero, if
    /// `arity` exceeds 256, or if `occupied.len() != arity^depth`.
    pub fn bootstrap_sparse(
        arity: u32,
        depth: usize,
        config: DelegateViewConfig,
        seed: u64,
        occupied: &[bool],
    ) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert!(depth > 0, "depth must be positive");
        assert!(config.slots > 0, "delegate slots must be positive");
        assert!(config.gossip_fanout > 0, "gossip_fanout must be positive");
        let shape = TreeShape::new(arity as usize, depth, config.slots);
        let n = shape.member_count();
        assert_eq!(occupied.len(), n, "occupancy flags must cover all {n} addresses");
        let live = occupied.iter().filter(|&&o| o).count();
        let next_occupied = |q: usize| crate::population::next_occupied_after(occupied, q);
        let mut tables = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for q in 0..n {
            let mut table = vec![EMPTY; shape.table_len()];
            let mut known: Vec<u32> = Vec::new();
            if occupied[q] {
                known.reserve_exact(shape.table_len() + 1);
                for l in 1..=depth {
                    let size = shape.subgroup_size(l);
                    let first = shape.subgroup_base(q, l, 0);
                    for g in 0..shape.arity {
                        let base = first + g * size;
                        let range = shape.group_range(l, g);
                        let mut slot = range.start;
                        for (member, discovered) in
                            seen.iter_mut().enumerate().skip(base).take(size)
                        {
                            if member == q || !occupied[member] {
                                continue;
                            }
                            if slot == range.end {
                                break;
                            }
                            table[slot] = member as u32;
                            slot += 1;
                            if !*discovered {
                                *discovered = true;
                                known.push(member as u32);
                            }
                        }
                    }
                }
                let contact = next_occupied(q);
                if live > 1 && !seen[contact as usize] {
                    known.push(contact);
                }
                for &member in &known {
                    seen[member as usize] = false;
                }
            }
            tables.push(table);
            flat.push(known);
        }
        Self {
            config,
            state: RwLock::new(DelegateState {
                shape,
                tables,
                flat,
                contact: (0..n).map(next_occupied).collect(),
                alive: occupied.to_vec(),
                live,
                pending_dead: Vec::new(),
                // The join handoff seats the fixed point by construction.
                seal: occupied
                    .iter()
                    .map(|&o| if o { Seal::Settled } else { Seal::Open })
                    .collect(),
                dirty: Vec::new(),
                rng: ChaCha8Rng::seed_from_u64(seed),
            }),
            interest: RwLock::new(None),
        }
    }

    /// The provider's configuration.
    pub fn config(&self) -> &DelegateViewConfig {
        &self.config
    }

    /// Returns `true` if the process is currently believed alive.
    pub fn is_live(&self, process: usize) -> bool {
        self.state.read().expect("delegate view lock poisoned").alive[process]
    }

    /// The live delegates `of` currently seats for the depth-`l` sibling
    /// subgroup with component `g` — an inspection hook for tests and
    /// diagnostics (the re-election invariant is asserted over exactly this
    /// set).
    pub fn live_delegates_of(&self, of: usize, depth: usize, g: usize) -> Vec<usize> {
        let state = self.state.read().expect("delegate view lock poisoned");
        state.tables[of][state.shape.group_range(depth, g)]
            .iter()
            .filter(|&&e| e != EMPTY && state.alive[e as usize])
            .map(|&e| e as usize)
            .collect()
    }
}

impl MembershipView for DelegateView {
    fn estimated_size(&self) -> usize {
        self.state.read().expect("delegate view lock poisoned").live
    }

    fn peer_count(&self, of: usize) -> usize {
        self.state.read().expect("delegate view lock poisoned").flat[of].len()
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.state.read().expect("delegate view lock poisoned").flat[of][k] as usize
    }

    fn knows(&self, of: usize, peer: usize) -> bool {
        self.state.read().expect("delegate view lock poisoned").flat[of]
            .contains(&(peer as u32))
    }

    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        self.state
            .read()
            .expect("delegate view lock poisoned")
            .seated_at_depth(of, depth, peer)
    }

    /// One read lock for the whole filter, not one per pair.
    fn filter_known_at_depth(
        &self,
        of: usize,
        depth: usize,
        pairs: &mut dyn Iterator<Item = (usize, usize)>,
        out: &mut Vec<usize>,
    ) {
        let state = self.state.read().expect("delegate view lock poisoned");
        out.extend(
            pairs
                .filter(|&(_, peer)| state.seated_at_depth(of, depth, peer))
                .map(|(position, _)| position),
        );
    }

    /// Attaches the aggregated-interest tables the slot groups carry:
    /// after this, [`MembershipView::summary_allows`] answers from the
    /// subtree summaries instead of the over-approximating default.
    ///
    /// # Panics
    ///
    /// Panics if the summary table does not cover exactly this group's
    /// member capacity.
    fn attach_interest_summaries(&self, summaries: SubtreeSummaries) {
        let annex = InterestAnnex::new(summaries);
        let members = {
            let state = self.state.read().expect("delegate view lock poisoned");
            state.shape.member_count()
        };
        assert_eq!(
            annex.member_capacity(),
            members as u128,
            "summary table must cover the delegate group's member capacity"
        );
        *self.interest.write().expect("interest annex lock poisoned") = Some(annex);
    }

    fn summary_allows(&self, subgroup: &Prefix, event: &Event) -> bool {
        match self
            .interest
            .read()
            .expect("interest annex lock poisoned")
            .as_ref()
        {
            Some(annex) => annex.allows(subgroup, event),
            None => true,
        }
    }

    /// One membership round: first the monitored-delegate sweep (crashes
    /// observed since the last round are evicted from every table, with
    /// immediate re-election from known candidates), then every live
    /// process pushes its subscription plus a random view digest to
    /// `gossip_fanout` known peers.  Finally the tables changed since the
    /// last round are re-verified against the fixed point, so settled
    /// tables skip the admissions of the next round.
    fn round_elapsed(&self) {
        let mut swept: Vec<u32> = Vec::new();
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        // Monitored delegates: a crash is detected and swept within one
        // membership round (pinned-contact re-pinning included).
        while let Some(x) = state.pending_dead.pop() {
            state.evict_everywhere(x as usize);
            swept.push(x);
        }
        let n = state.alive.len();
        for sender in 0..n {
            if !state.alive[sender] {
                continue;
            }
            for _ in 0..self.config.gossip_fanout {
                if state.flat[sender].is_empty() {
                    break;
                }
                let pick = state.rng.gen_range(0..state.flat[sender].len());
                let target = state.flat[sender][pick] as usize;
                if !state.alive[target] {
                    // Stale entry (e.g. a crash observed mid-round): evict
                    // on contact, like any failure detector would.
                    state.flat[sender].swap_remove(pick);
                    state.evict_from_table(sender, target);
                    continue;
                }
                // Piggyback the sender's subscription plus a view digest;
                // the receiver files every candidate into the slot groups
                // of each depth it qualifies for.
                state.admit_peer(target, sender);
                for _ in 0..self.config.digest_size {
                    let len = state.flat[sender].len();
                    let candidate = state.flat[sender][state.rng.gen_range(0..len)] as usize;
                    if candidate != target && state.alive[candidate] {
                        state.admit_peer(target, candidate);
                    }
                }
            }
        }
        state.settle_dirty();
        // The same sweep retracts the swept processes' interests from the
        // summary tables (the digest that evicts a delegate also carries
        // the shrunk subtree summary).
        if !swept.is_empty() {
            if let Some(annex) = self
                .interest
                .write()
                .expect("interest annex lock poisoned")
                .as_mut()
            {
                for x in swept {
                    annex.on_departure(x as usize);
                }
            }
        }
    }

    fn observe_join(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if state.alive[process] {
            return;
        }
        state.alive[process] = true;
        state.live += 1;
        // Re-announce the rejoiner's subscription to the summary tables.
        if let Some(annex) = self
            .interest
            .write()
            .expect("interest annex lock poisoned")
            .as_mut()
        {
            annex.on_join(process);
        }
        // A crash-then-rejoin must not leave the process queued for the
        // monitored sweep: it is live again, so nothing to evict.
        state.pending_dead.retain(|&x| x as usize != process);
        // The joiner's own table and every table it can now be seated in
        // leave the settled fast path before anything is admitted.
        state.unsettle_for_join(process);
        // The joiner re-subscribes through its ring successor; its live
        // ring predecessor re-pins onto it.  Slot tables refill by gossip
        // (the join handoff, replayed incrementally).
        state.pin_contact(process);
        let n = state.alive.len();
        if let Some(offset) = (1..n).find(|offset| state.alive[(process + n - offset) % n]) {
            let predecessor = (process + n - offset) % n;
            if predecessor != process {
                state.pin_to(predecessor, process);
            }
        }
    }

    fn observe_leave(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.alive[process] = false;
        state.live -= 1;
        // An unsub propagates eagerly: evict the leaver everywhere (with
        // re-election) and drop the leaver's own knowledge.
        state.evict_everywhere(process);
        for slot in state.tables[process].iter_mut() {
            *slot = EMPTY;
        }
        state.touch(process);
        state.flat[process].clear();
        // The eager unsub also retracts the leaver's interests.
        if let Some(annex) = self
            .interest
            .write()
            .expect("interest annex lock poisoned")
            .as_mut()
        {
            annex.on_departure(process);
        }
    }

    fn observe_crash(&self, process: usize) {
        let state = &mut *self.state.write().expect("delegate view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.alive[process] = false;
        state.live -= 1;
        // Swept by the monitored-delegate pass of the next membership round.
        state.pending_dead.push(process as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LazyDelegateView;
    use std::collections::VecDeque;

    /// Number of live processes reachable from `start` over live-to-live
    /// view edges.
    fn reachable_live(view: &DelegateView, n: usize, start: usize) -> usize {
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        let mut count = 1;
        while let Some(process) = queue.pop_front() {
            for k in 0..view.peer_count(process) {
                let peer = view.peer_at(process, k);
                if view.is_live(peer) && !seen[peer] {
                    seen[peer] = true;
                    count += 1;
                    queue.push_back(peer);
                }
            }
        }
        count
    }

    #[test]
    fn bootstrap_seats_the_subgroup_delegates_per_depth() {
        // 3-ary tree of depth 3 (n = 27), 2 slots per subgroup.
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap(3, 3, config, 1);
        // Process 0's depth-1 view: the two smallest members of each root
        // subgroup (itself excluded from its own).
        for (g, expected) in [(0, [1, 2]), (1, [9, 10]), (2, [18, 19])] {
            for peer in expected {
                assert!(view.knows_at_depth(0, 1, peer), "depth 1 group {g} delegate {peer}");
            }
        }
        assert!(!view.knows_at_depth(0, 1, 11), "non-delegates stay unknown");
        // Depth-2 view of process 13 (digits 1.1.1): delegates of subgroups
        // 1.0 / 1.1 / 1.2.
        for peer in [9, 10, 12, 14, 15, 16] {
            assert!(view.knows_at_depth(13, 2, peer), "depth 2 delegate {peer}");
        }
        // Leaf neighbours.
        assert!(view.knows_at_depth(13, 3, 12) && view.knows_at_depth(13, 3, 14));
        assert!(!view.knows_at_depth(13, 3, 9), "9 is outside 13's leaf subgroup");
        // Flat view is bounded by (d−1)·a·slots + a (+1 for the contact),
        // far below n would be for larger trees; never includes self.
        assert!(view.peer_count(13) <= config.table_entries(3, 3) + 1);
        assert!(!view.knows(13, 13));
        assert_eq!(view.estimated_size(), 27);
    }

    #[test]
    fn knows_at_depth_defaults_to_flat_knows_for_other_providers() {
        use crate::provider::{GlobalOracleView, PartialView, PartialViewConfig};
        let global = GlobalOracleView::new(8);
        assert!(global.knows_at_depth(0, 1, 5));
        assert!(!global.knows_at_depth(0, 2, 0));
        let partial = PartialView::bootstrap(8, PartialViewConfig::default(), 3);
        for peer in 0..8 {
            for depth in 1..=3 {
                assert_eq!(
                    partial.knows_at_depth(2, depth, peer),
                    partial.knows(2, peer),
                    "flat providers ignore the depth"
                );
            }
        }
    }

    #[test]
    fn gossip_rounds_are_deterministic_per_seed_and_stay_bounded() {
        let snapshot = |seed: u64| {
            let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), seed);
            for _ in 0..10 {
                view.round_elapsed();
            }
            (0..9)
                .map(|p| {
                    let mut peers: Vec<usize> =
                        (0..view.peer_count(p)).map(|k| view.peer_at(p, k)).collect();
                    peers.sort_unstable();
                    peers
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(snapshot(9), snapshot(9));
        let view = DelegateView::bootstrap(4, 3, DelegateViewConfig::default(), 5);
        for _ in 0..20 {
            view.round_elapsed();
        }
        let bound = DelegateViewConfig::default().table_entries(4, 3) + 1;
        for p in 0..64 {
            assert!(view.peer_count(p) <= bound, "flat view stays bounded");
        }
    }

    #[test]
    fn crash_triggers_sweep_and_re_election_within_one_round() {
        // n = 16, a = 4, d = 2, 2 slots: process 15's depth-1 delegates of
        // subgroup 0 are {0, 1}.
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap(4, 2, config, 11);
        assert_eq!(view.live_delegates_of(15, 1, 0), vec![0, 1]);
        view.observe_crash(0);
        // Crash detection is monitored: swept at the next membership round.
        assert!(view.knows(15, 0), "crash is not evicted before the sweep");
        view.round_elapsed();
        assert!(!view.knows(15, 0), "sweep evicts the crashed delegate everywhere");
        for sibling in 1..4 {
            assert!(
                !view.knows(sibling, 0),
                "leaf sibling {sibling} still knows crashed 0"
            );
            assert!(
                !view.knows_at_depth(sibling, 2, 0),
                "0 still seated at {sibling}'s leaf"
            );
        }
        // Re-election promoted an already-known live member of subgroup 0
        // (1 kept its seat; 2 or 3 may join as gossip spreads candidates).
        let seated = view.live_delegates_of(15, 1, 0);
        assert!(seated.contains(&1), "surviving delegate keeps its seat: {seated:?}");
        assert!(!seated.is_empty(), "the occupied subtree keeps a live delegate");
        // The live overlay stays connected through the churn.
        assert_eq!(reachable_live(&view, 16, 1), 15);
    }

    #[test]
    fn smaller_candidates_displace_larger_delegates_deterministically() {
        let config = DelegateViewConfig::default().with_slots(1);
        let view = DelegateView::bootstrap(4, 2, config, 2);
        // With one slot, process 0 seats only the smallest member of
        // subgroup 3 (index 12).
        assert!(view.knows_at_depth(0, 1, 12));
        assert!(!view.knows_at_depth(0, 1, 13));
        view.observe_crash(12);
        view.round_elapsed();
        // 12's seat passes to the next-smallest live member once gossip
        // has carried a candidate over; run a few rounds to let it arrive.
        for _ in 0..10 {
            view.round_elapsed();
        }
        let seated = view.live_delegates_of(0, 1, 3);
        assert!(
            seated.first().is_some_and(|&d| d == 13),
            "smallest live member re-elected, got {seated:?}"
        );
    }

    #[test]
    fn leave_is_evicted_eagerly_and_rejoin_reconnects() {
        let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), 3);
        view.observe_leave(4);
        assert_eq!(view.estimated_size(), 8);
        for p in 0..9 {
            assert!(!view.knows(p, 4), "unsub evicts everywhere");
        }
        assert!(view.knows(3, 5), "ring predecessor re-pins past the leaver");
        view.observe_join(4);
        assert_eq!(view.estimated_size(), 9);
        assert!(view.knows(4, 5), "joiner knows its ring contact");
        assert!(view.knows(3, 4), "predecessor re-pins onto the joiner");
        for _ in 0..15 {
            view.round_elapsed();
        }
        assert_eq!(reachable_live(&view, 9, 0), 9, "gossip re-fills the joiner's view");
        // Duplicate notifications are idempotent.
        view.observe_join(4);
        view.observe_leave(7);
        view.observe_leave(7);
        assert_eq!(view.estimated_size(), 8);
    }

    #[test]
    fn crash_then_rejoin_is_not_swept() {
        let view = DelegateView::bootstrap(3, 2, DelegateViewConfig::default(), 13);
        view.observe_crash(4);
        view.observe_join(4);
        // The rejoin cancels the queued monitored sweep: the next round
        // must not evict the (live again) process from anyone's view.
        view.round_elapsed();
        assert!(view.is_live(4));
        assert_eq!(view.estimated_size(), 9);
        assert!(view.knows(3, 4), "ring predecessor still pins the rejoined process");
        assert!(view.knows(4, 5), "joiner still knows its ring contact");
    }

    #[test]
    fn connectivity_and_delegate_cover_survive_heavy_churn() {
        let view = DelegateView::bootstrap(3, 3, DelegateViewConfig::default().with_slots(2), 17);
        for round in 0..30usize {
            if round % 3 == 0 {
                view.observe_crash((round * 5 + 1) % 27);
            }
            if round % 4 == 0 {
                view.observe_leave((round * 7 + 2) % 27);
            }
            view.round_elapsed();
        }
        for _ in 0..10 {
            view.round_elapsed();
        }
        let live: Vec<usize> = (0..27).filter(|&p| view.is_live(p)).collect();
        assert!(live.len() >= 2, "churn left enough of the group alive");
        assert_eq!(
            reachable_live(&view, 27, live[0]),
            live.len(),
            "every live process stays reachable after churn"
        );
    }

    #[test]
    fn sparse_bootstrap_seats_delegates_over_gaps() {
        // 4-ary depth-2 tree (n = 16); subgroup 2 (8..12) keeps only its
        // largest member, subgroup 3 (12..16) starts entirely empty.
        let mut occupied = vec![true; 16];
        for absent in [8, 9, 10, 12, 13, 14, 15] {
            occupied[absent] = false;
        }
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap_sparse(4, 2, config, 5, &occupied);
        assert_eq!(view.estimated_size(), 9);
        // Gap-aware election: subgroup 2's only delegate is 11 — the
        // smallest *occupied* member, not the smallest address.
        assert_eq!(view.live_delegates_of(0, 1, 2), vec![11]);
        assert!(view.knows_at_depth(0, 1, 11));
        assert!(!view.knows_at_depth(0, 1, 8), "absent addresses are never seated");
        // The empty subgroup has no delegates anywhere.
        assert!(view.live_delegates_of(0, 1, 3).is_empty());
        // The ring contact skips the trailing gap: 11's successor wraps to 0.
        assert!(view.knows(11, 0));
        // Absent processes hold no knowledge yet.
        assert_eq!(view.peer_count(12), 0);
        // The live overlay is connected from the start.
        assert_eq!(reachable_live(&view, 16, 0), 9);
    }

    #[test]
    fn join_into_an_empty_subgroup_gets_seated_by_gossip() {
        // Subgroup 3 of the 4-ary depth-2 tree starts empty; 12 joins later.
        let mut occupied = vec![true; 16];
        occupied[12..16].fill(false);
        let config = DelegateViewConfig::default().with_slots(2);
        let view = DelegateView::bootstrap_sparse(4, 2, config, 9, &occupied);
        assert!(view.live_delegates_of(0, 1, 3).is_empty());
        view.observe_join(12);
        assert_eq!(view.estimated_size(), 13);
        assert!(view.knows(12, 0), "joiner pins its occupied ring successor");
        assert!(view.knows(11, 12), "ring predecessor re-pins onto the joiner");
        // Gossip seats the newcomer in the (previously empty) slot groups.
        for _ in 0..25 {
            view.round_elapsed();
        }
        let mut seated = 0;
        for q in (0..12).filter(|&q| view.is_live(q)) {
            let delegates = view.live_delegates_of(q, 1, 3);
            if !delegates.is_empty() {
                assert_eq!(delegates, vec![12]);
                seated += 1;
            }
        }
        assert!(
            seated >= 10,
            "gossip must spread the joiner into almost every table, got {seated}/12"
        );
        assert_eq!(reachable_live(&view, 16, 0), 13);
    }

    #[test]
    fn sparse_bootstrap_over_a_full_population_is_the_plain_bootstrap() {
        let config = DelegateViewConfig::default();
        let full = DelegateView::bootstrap(3, 3, config, 21);
        let sparse = DelegateView::bootstrap_sparse(3, 3, config, 21, &[true; 27]);
        for p in 0..27 {
            let peers = |v: &DelegateView| -> Vec<usize> {
                (0..v.peer_count(p)).map(|k| v.peer_at(p, k)).collect()
            };
            assert_eq!(peers(&full), peers(&sparse));
            for depth in 1..=3 {
                for peer in 0..27 {
                    assert_eq!(
                        full.knows_at_depth(p, depth, peer),
                        sparse.knows_at_depth(p, depth, peer)
                    );
                }
            }
        }
        // And the gossip streams stay aligned (same RNG, same state).
        full.round_elapsed();
        sparse.round_elapsed();
        for p in 0..27 {
            assert_eq!(full.peer_count(p), sparse.peer_count(p));
        }
    }

    #[test]
    fn interest_annex_follows_churn() {
        use crate::SubtreeSummaries;
        use pmcast_addr::AddressSpace;
        use pmcast_interest::{Filter, Predicate};

        let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 5);
        let space = AddressSpace::regular(2, 2).unwrap();
        let event = Event::builder(1).int("topic", 7).build();
        let subtree_1 = Prefix::from_components(vec![1]);
        // Without summaries every subgroup over-approximates to "maybe".
        assert!(view.summary_allows(&subtree_1, &event));
        // Only process 1.0 (dense index 2) subscribes to topic 7.
        let mut filters = vec![None; 4];
        filters[2] = Some(Filter::new().with("topic", Predicate::one_of([7i64])));
        view.attach_interest_summaries(SubtreeSummaries::build(space, filters));
        assert!(view.summary_allows(&subtree_1, &event));
        assert!(!view.summary_allows(&Prefix::from_components(vec![0]), &event));
        // The subscriber leaves: its interest is retracted along the path...
        view.observe_leave(2);
        assert!(!view.summary_allows(&subtree_1, &event));
        // ...and a rejoin re-announces the original subscription.
        view.observe_join(2);
        assert!(view.summary_allows(&subtree_1, &event));
        // A crash retracts too, but only once the monitored sweep runs.
        view.observe_crash(2);
        assert!(view.summary_allows(&subtree_1, &event));
        view.round_elapsed();
        assert!(!view.summary_allows(&subtree_1, &event));
    }

    #[test]
    #[should_panic(expected = "member capacity")]
    fn mismatched_summary_capacity_is_rejected() {
        use crate::SubtreeSummaries;
        use pmcast_addr::AddressSpace;

        let view = DelegateView::bootstrap(2, 2, DelegateViewConfig::default(), 5);
        let space = AddressSpace::regular(2, 3).unwrap();
        view.attach_interest_summaries(SubtreeSummaries::build(space, vec![None; 9]));
    }

    /// Checks every settled live table against the lazy provider's seats
    /// under the same liveness; returns how many tables were checked.
    fn assert_settled_tables_match(view: &DelegateView, lazy: &LazyDelegateView) -> usize {
        let state = view.state.read().expect("delegate view lock poisoned");
        let shape = &state.shape;
        assert_eq!(state.live, lazy.estimated_size(), "same liveness");
        let mut checked = 0;
        for q in 0..shape.member_count() {
            if !state.alive[q] || state.seal[q] != Seal::Settled {
                continue;
            }
            for l in 1..=shape.depth {
                for g in 0..shape.arity {
                    let base = shape.subgroup_base(q, l, g);
                    let seats: Vec<u32> = (base..base + shape.subgroup_size(l))
                        .filter(|&m| lazy.knows_at_depth(q, l, m))
                        .map(|m| m as u32)
                        .collect();
                    let group: Vec<u32> = state.tables[q][shape.group_range(l, g)]
                        .iter()
                        .copied()
                        .filter(|&e| e != EMPTY)
                        .collect();
                    assert_eq!(group, seats, "settled table {q}, depth {l}, group {g}");
                }
            }
            checked += 1;
        }
        checked
    }

    proptest::proptest! {
        /// The settled fast path's invariant: after every membership
        /// round, a settled live table is exactly the fixed point — the
        /// seats the lazy provider computes under the same liveness — over
        /// sparse bootstraps and random join / leave / crash schedules.
        #[test]
        fn settled_tables_are_the_lazy_fixed_point(
            shape in proptest::prop_oneof![
                proptest::prelude::Just((4u32, 3usize)),
                proptest::prelude::Just((5u32, 2usize)),
            ],
            slots in 1usize..4,
            seed in 0u64..1000,
            occupancy in proptest::collection::vec(0usize..4, 64),
            ops in proptest::collection::vec((0u8..4, 0usize..64), 1..80),
        ) {
            let (arity, depth) = shape;
            let n = (arity as usize).pow(depth as u32);
            // Three in four addresses start occupied.
            let occupied: Vec<bool> = occupancy[..n].iter().map(|&o| o != 0).collect();
            let config = DelegateViewConfig::default().with_slots(slots);
            let view = DelegateView::bootstrap_sparse(arity, depth, config, seed, &occupied);
            let lazy = LazyDelegateView::new(arity, depth, slots, Some(&occupied));
            let mut checked = assert_settled_tables_match(&view, &lazy);
            for (kind, process) in ops {
                let process = process % n;
                let both: [&dyn MembershipView; 2] = [&view, &lazy];
                match kind {
                    0 => both.iter().for_each(|v| v.observe_join(process)),
                    1 => both.iter().for_each(|v| v.observe_leave(process)),
                    2 => both.iter().for_each(|v| v.observe_crash(process)),
                    _ => {
                        view.round_elapsed();
                        checked += assert_settled_tables_match(&view, &lazy);
                    }
                }
            }
            for _ in 0..3 {
                view.round_elapsed();
                checked += assert_settled_tables_match(&view, &lazy);
            }
            proptest::prop_assert!(checked > 0, "some settled table was checked");
        }
    }

    #[test]
    fn admitting_live_peers_into_a_settled_table_changes_nothing() {
        let view = DelegateView::bootstrap(4, 3, DelegateViewConfig::default().with_slots(2), 31);
        for (round, process) in [(0, 5), (1, 17), (2, 40), (3, 63)] {
            match round % 3 {
                0 => view.observe_crash(process),
                1 => view.observe_leave(process),
                _ => view.observe_join(process),
            }
            view.round_elapsed();
        }
        view.observe_join(5);
        for _ in 0..10 {
            view.round_elapsed();
        }
        let state = &mut *view.state.write().expect("delegate view lock poisoned");
        let live: Vec<usize> = (0..64).filter(|&p| state.alive[p]).collect();
        let mut settled = 0;
        for &q in &live {
            if state.seal[q] != Seal::Settled {
                continue;
            }
            settled += 1;
            let (table, flat) = (state.tables[q].clone(), state.flat[q].clone());
            // Force the full admission path: the fast path must only ever
            // skip work that would have been a no-op.
            state.seal[q] = Seal::Open;
            for &peer in &live {
                state.admit_peer(q, peer);
            }
            assert_eq!(state.tables[q], table, "table of {q}");
            assert_eq!(state.flat[q], flat, "flat view of {q}");
            assert!(state.dirty.is_empty(), "no table was touched");
            state.seal[q] = Seal::Settled;
        }
        assert!(
            settled > live.len() / 2,
            "most tables settle: {settled}/{}",
            live.len()
        );
    }

    #[test]
    fn digit_table_matches_division_arithmetic() {
        let shape = TreeShape::new(5, 3, 2);
        for i in 0..125 {
            for k in 0..3 {
                assert_eq!(shape.digit(i, k), (i / 5usize.pow(2 - k as u32)) % 5);
            }
            for len in 0..=3 {
                let span = 5usize.pow(3 - len as u32);
                assert_eq!(shape.prefix_base(i, len), i / span * span);
            }
        }
        assert_eq!(shape.common_prefix(31, 33), 2);
        assert_eq!(shape.common_prefix(31, 36), 1);
        assert_eq!(shape.common_prefix(31, 124), 0);
        assert_eq!(shape.common_prefix(7, 7), 3);
    }

    #[test]
    #[should_panic(expected = "arity must be at most 256")]
    fn arity_beyond_a_byte_is_rejected() {
        let _ = TreeShape::new(257, 1, 1);
    }

    #[test]
    #[should_panic(expected = "delegate slots must be positive")]
    fn zero_slots_are_rejected() {
        let config = DelegateViewConfig {
            slots: 0,
            gossip_fanout: 1,
            digest_size: 1,
        };
        let _ = DelegateView::bootstrap(2, 2, config, 0);
    }
}
