//! The `Remove` protocol: flagging, marking and pointer swinging (paper §3.2.2,
//! listing lines 31–160), restructured as *canonical re-execution*.
//!
//! Every thread that discovers a pending removal — through the flagged
//! order-link, a marked right link, or a flagged parent link — re-executes the
//! removal's remaining steps in one canonical order.  All steps are idempotent
//! CAS instructions whose expected values are pinned by the flag/mark bits, so
//! duplicated execution by helpers is harmless and the first thread to complete
//! each step wins.
//!
//! Canonical step order for removing a node `v` whose order node is `o`:
//!
//! 1. **I**   flag the order-link (the threaded link into `v`) — done by the
//!    `remove` entry point;
//! 2. **II**  point `v.prelink` at `o`;
//! 3. **III** mark `v.child[1]` (logical removal);
//! 4. category 1/2 (the order node is `v` itself or `v`'s left child):
//!    mark `v.child[0]` for category 2 (see `DESIGN.md`, deviation 7), flag the
//!    parent link of `v` (**V**) and swing the order link and the parent link;
//! 5. category 3 (the order node is a distant predecessor): flag the parent
//!    link of `o` (**IV**), flag the parent link of `v` (**V**), mark
//!    `v.child[0]` (**VI**), mark `o.child[0]` (**VII**), then swing the six
//!    affected links so that `o` replaces `v`.
//!
//! The differences from the paper's listing (re-derived order node, traversal
//! based parent discovery on slow paths, the extra category-2 mark, flag
//! rollback on the step-IV ABA window) are documented in `DESIGN.md`.

use crossbeam_epoch::{ReclaimGuard, Reclaimer, Shared};

use cset::OpKind;

use crate::link::{is_clean, is_flag, is_mark, is_thread, same_node, CLAIMED, FLAG, MARK, THREAD};
use crate::node::Node;
use crate::trace_hooks::{dst_point, trace_ev, SpinBound};
use crate::tree::ord::{CAS, CAS_ERR, LOAD};
use crate::tree::LfBst;
use crate::value::MapValue;

/// Result of driving a removal forward from its flagged order-link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FinishOutcome {
    /// The victim has been (or is guaranteed to be) logically removed under the
    /// observed flag; the physical unlinking has been driven to completion.
    Done,
    /// The observed flag was wiped by a concurrent shift of the victim before
    /// the victim could be logically removed; the caller must re-locate and
    /// retry.
    Invalidated,
}

/// Result of the category-3 path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cat3Outcome {
    Done,
    /// The victim's category changed (its order node became its left child);
    /// the caller must re-dispatch.
    Reexamine,
}

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// Removes `key`; returns `true` if it was present and this call removed it.
    ///
    /// This is the paper's `Remove` (lines 31–40): locate the order-link of the
    /// node holding `key` with a predecessor query, flag it, then drive the
    /// removal to completion (helping any conflicting removals on the way).
    pub fn remove(&self, key: &K) -> bool {
        self.remove_with(key, &R::pin())
    }

    /// [`remove`](Self::remove) under a caller-held guard (see
    /// [`pin`](Self::pin)): skips the per-operation epoch pin.
    pub fn remove_with(&self, key: &K, guard: &R::Guard) -> bool {
        self.remove_node_with(key, guard).is_some()
    }

    /// The removal core: on success returns the victim node, which stays
    /// dereferenceable under `guard` even though it has been retired (used by
    /// `remove_entry` to read the evicted value).
    pub(crate) fn remove_node_with<'g>(
        &self,
        key: &K,
        guard: &'g R::Guard,
    ) -> Option<Shared<'g, Node<K, V>>> {
        self.remove_node_from(self.root1(), self.root0(), key, guard)
    }

    /// [`remove_node_with`](Self::remove_node_with) seeded at an arbitrary
    /// traversal anchor instead of the root.
    ///
    /// The anchor contract is the same one the in-loop restart idiom already
    /// relies on (`prev == curr == some vicinity node`): `anchor`'s key must
    /// not exceed `key`, and `anchor` must be dereferenceable under `guard` —
    /// retired-but-pinned nodes qualify, because a retired node's frozen right
    /// link still leads rightward to its live successor and
    /// [`locate_order_from`](Self::locate_order_from) strips tags while
    /// traversing.  The bulk sweep driver exploits this by anchoring each
    /// removal at the doomed node *itself* (pinned by the sweep's cursor):
    /// the order-locate goes left on an equal key, so it stops at the
    /// victim's own order link after `O(1)` hops instead of a root descent.
    pub(crate) fn remove_node_from<'g>(
        &self,
        anchor: Shared<'g, Node<K, V>>,
        anchor_curr: Shared<'g, Node<K, V>>,
        key: &K,
        guard: &'g R::Guard,
    ) -> Option<Shared<'g, Node<K, V>>> {
        let record = self.record_stats();
        self.note_op(OpKind::Remove);
        let mut prev = anchor;
        let mut curr = anchor_curr;
        let mut spin = SpinBound::new("remove_node_with");
        loop {
            spin.tick();
            dst_point!();
            let loc = self.locate_order_from(prev, curr, key, self.eager_help(), guard);
            let link = loc.link;
            let victim = link.with_tag(0);
            if self.cmp_node_key(victim, key) != std::cmp::Ordering::Equal {
                // The interval containing `key` is empty: the key is absent.
                return None;
            }
            let order = loc.curr;
            let order_ref = unsafe { order.deref() };

            if is_clean(link) {
                // Step I: try to flag the order-link.
                dst_point!();
                match order_ref.child[loc.dir].compare_exchange(
                    victim.with_tag(THREAD),
                    victim.with_tag(THREAD | FLAG),
                    CAS,
                    CAS_ERR,
                    guard,
                ) {
                    Ok(_) => {
                        if record {
                            self.stats.record_cas(true);
                        }
                        trace_ev!(FlagOrder, order, victim);
                        match self.clean_flag_threaded(order, loc.dir, victim, true, guard) {
                            FinishOutcome::Done => {
                                self.note_removal();
                                return Some(victim);
                            }
                            FinishOutcome::Invalidated => {
                                // Our flag was consumed by a shift of the victim;
                                // retry from the vicinity (or the root in the
                                // ablation mode).
                                if record {
                                    self.stats.record_restart();
                                }
                                if self.restart_from_root() {
                                    prev = self.root1();
                                    curr = self.root0();
                                } else {
                                    prev = loc.prev;
                                    curr = loc.prev;
                                }
                                continue;
                            }
                        }
                    }
                    Err(_) => {
                        if record {
                            self.stats.record_cas(false);
                        }
                        trace_ev!(FlagOrderLost, order, victim);
                        // Fall through to the failure analysis below.
                    }
                }
            }

            // Either the observed link was already tagged, or our flag CAS lost
            // a race.  Re-read and decide.
            let observed = order_ref.child[loc.dir].load(LOAD, guard);
            if same_node(observed, victim) && is_flag(observed) && is_thread(observed) {
                // Another `Remove` owns this victim: help it finish, then report
                // the key as already absent (our linearization point follows the
                // owner's).
                self.note_help();
                trace_ev!(HelpForeignFlag, order, victim);
                let _ = self.clean_flag_threaded(order, loc.dir, victim, false, guard);
                return None;
            }
            if same_node(observed, victim) && is_mark(observed) {
                // The order node itself is logically removed (dir == 1) or the
                // victim is being shifted by its successor's removal (dir == 0):
                // help, then retry nearby.
                self.note_help();
                self.help_node(order, guard);
                if record {
                    self.stats.record_restart();
                }
                if self.restart_from_root() {
                    prev = self.root1();
                    curr = self.root0();
                } else {
                    let back = order_ref.backlink.load(LOAD, guard).with_tag(0);
                    prev = back;
                    curr = back;
                }
                continue;
            }
            // The link's target changed (an insert landed in the interval or a
            // swing completed): re-locate from the current position.
            if record {
                self.stats.record_restart();
            }
            prev = loc.prev;
            curr = loc.curr;
        }
    }

    /// Drives a removal whose order-link `order.child[dir]` has been observed
    /// flagged (and threaded) at `victim`: performs steps II and III and then
    /// the category-specific completion.
    ///
    /// `claimant` is `true` only for the one caller that flagged the order
    /// link itself and intends to report the removal as its own success (the
    /// owner path in [`remove_node_with`]).  Helpers pass `false`: they drive the
    /// protocol but never compete for success attribution.  An owner that
    /// reaches a success exit must additionally win the once-ever claim bit
    /// on the victim's `prelink` word ([`try_claim_removal`]) — without it, a
    /// category-1 flag can recur bit-identically after a shift-and-drain of
    /// the victim and two owners of *different* removal epochs would each see
    /// "marked under my flag" and both report success for a single key
    /// presence (DESIGN.md §7, bug 7).
    ///
    /// Paper: `CleanFlag` with a threaded link (lines 72–88).
    ///
    /// [`remove_node_with`]: Self::remove_node_with
    /// [`try_claim_removal`]: Self::try_claim_removal
    pub(crate) fn clean_flag_threaded<'g>(
        &self,
        order: Shared<'g, Node<K, V>>,
        dir: usize,
        victim: Shared<'g, Node<K, V>>,
        claimant: bool,
        guard: &'g R::Guard,
    ) -> FinishOutcome {
        let victim_ref = unsafe { victim.deref() };
        let order_ref = unsafe { order.deref() };
        // Whether a mark on the victim proves *this* removal's logical point
        // depends on the order-link category (see the flag re-validation
        // below): a category-2/3 order link (`dir == 1`, a thread out of the
        // predecessor) is only ever swung by the removal that flagged it, so
        // under it any mark is ours.  A category-1 order link (`dir == 0`,
        // the victim's own left self-thread) is never cleaned by its own
        // removal — the victim retires still carrying it — but it *can* be
        // consumed when the victim is shifted upward by its successor's
        // category-3 removal.  After such a shift the victim lives on, and a
        // mark found on it belongs to a *later* removal of the same key; if
        // this removal counted that mark as its own, both removals would
        // report success for a single key presence.  So for `dir == 0` a mark
        // only counts while the flag is still in place.
        let mut spin = SpinBound::new("clean_flag_threaded");
        loop {
            spin.tick();
            dst_point!();
            let r = victim_ref.child[1].load(LOAD, guard);
            if is_mark(r) {
                if dir == 1 {
                    if claimant && !self.try_claim_removal(victim_ref, guard) {
                        self.clean_mark_right(victim, guard);
                        trace_ev!(ClaimLost, order, victim);
                        return FinishOutcome::Invalidated;
                    }
                    break;
                }
                let ol = order_ref.child[dir].load(LOAD, guard);
                if same_node(ol, victim) && is_flag(ol) && is_thread(ol) {
                    // Marked under a standing flag that is bit-identical to
                    // ours.  For an owner that is *almost always* proof the
                    // logical point is ours — but a category-1 flag is
                    // self-referential (`THREAD|FLAG → victim` on the victim's
                    // own left link), so after a shift consumes our flag and
                    // the inherited left subtree drains, a second removal of
                    // the same key re-flags with the very same word and this
                    // check cannot tell the two epochs apart.  The once-ever
                    // claim bit can: whichever owner sets it first owns the
                    // (single) success.
                    if claimant && !self.try_claim_removal(victim_ref, guard) {
                        self.clean_mark_right(victim, guard);
                        trace_ev!(ClaimLost, order, victim);
                        return FinishOutcome::Invalidated;
                    }
                    break;
                }
                // Our flag was consumed by a shift and the mark belongs to a
                // later removal of the shifted (still live) victim.
                trace_ev!(FlagInvalidated, order, victim);
                return FinishOutcome::Invalidated;
            }
            if is_flag(r) {
                // The victim's right link is held by another removal:
                //  * threaded  — the victim is the order node of its successor's
                //    removal; that removal has priority (Lemma 12(d)): help it.
                //  * unthreaded — the victim's right child is being removed and
                //    has flagged this parent link: help it.
                self.note_help();
                if is_thread(r) {
                    let _ = self.clean_flag_threaded(victim, 1, r.with_tag(0), false, guard);
                } else {
                    self.help_node(r.with_tag(0), guard);
                }
                continue;
            }
            // Verify the flag we are working under is still in place before
            // going irreversible (DESIGN.md deviation 4).  If the victim was
            // shifted upward by its successor's removal, a category-1 order
            // link is overwritten by the shift and this removal must restart.
            let ol = order_ref.child[dir].load(LOAD, guard);
            if !(same_node(ol, victim) && is_flag(ol) && is_thread(ol)) {
                if dir == 1 {
                    // A category-2/3 order link is consumed only by its own
                    // removal's swing, which follows the mark: the victim is
                    // logically removed by *us* and the unlinking is driven by
                    // whoever performed the swing.
                    let r2 = victim_ref.child[1].load(LOAD, guard);
                    if is_mark(r2) {
                        if claimant && !self.try_claim_removal(victim_ref, guard) {
                            self.clean_mark_right(victim, guard);
                            trace_ev!(ClaimLost, order, victim);
                            return FinishOutcome::Invalidated;
                        }
                        break;
                    }
                }
                // `dir == 0`: the flag was consumed by a shift of the (still
                // live) victim; whatever state the victim is in now belongs
                // to a different removal.  Restart.
                trace_ev!(FlagInvalidated, order, victim);
                return FinishOutcome::Invalidated;
            }
            // Step II: record the order node for later helpers (validated
            // hint).  This must be a CAS on the value read *after* the flag
            // re-validation above, not a blind store: a thread can pass the
            // validation, get descheduled for a whole removal epoch, and wake
            // to find its flag consumed and the victim shifted into a new
            // category — a blind store would then clobber the live removal's
            // hint with a stale order node (PR 7, found by `chain-shift`: the
            // poisoned hint made `finish_unlink` install the victim as its own
            // replacement, which both rolled the step-V flag back off the
            // parent link and retired the still-linked victim).  With a CAS,
            // any late write either expects a value that predates the live
            // removal's (it fails) or writes the same order node (harmless);
            // a stale write that does land pre-III is cured here by the thread
            // that goes on to perform step III, before the hint is ever used.
            let pre = victim_ref.prelink.load(LOAD, guard);
            if !same_node(pre, order) {
                dst_point!();
                // Preserve the claim bit: the hint CAS must never erase a
                // success claim already recorded on this word.
                let _ = victim_ref.prelink.compare_exchange(
                    pre,
                    order.with_tag(pre.tag() & CLAIMED),
                    CAS,
                    CAS_ERR,
                    guard,
                );
            }
            // Step III: mark the right link (the logical removal point).
            dst_point!();
            match victim_ref.child[1].compare_exchange(
                r,
                r.with_tag(r.tag() | MARK),
                CAS,
                CAS_ERR,
                guard,
            ) {
                Ok(_) => {
                    if self.record_stats() {
                        self.stats.record_cas(true);
                    }
                    trace_ev!(MarkRight, victim, order);
                    // Winning the mark CAS does not by itself win the success:
                    // a stale owner of an earlier, bit-identical category-1
                    // flag epoch may concurrently observe this mark under
                    // "its" flag and race us for the claim.
                    if claimant && !self.try_claim_removal(victim_ref, guard) {
                        self.clean_mark_right(victim, guard);
                        trace_ev!(ClaimLost, order, victim);
                        return FinishOutcome::Invalidated;
                    }
                    break;
                }
                Err(_) => {
                    if self.record_stats() {
                        self.stats.record_cas(false);
                    }
                }
            }
        }
        self.clean_mark_right(victim, guard);
        FinishOutcome::Done
    }

    /// Attempts to claim the success of `victim`'s logical removal by setting
    /// the once-ever [`CLAIMED`] bit on its `prelink` word.  Returns `true`
    /// iff this call's CAS set the bit (i.e. this owner gets to report the
    /// removal); `false` if some other owner already holds the claim.
    ///
    /// Soundness rests on two lifetime facts: a node's right link is marked at
    /// most once (marked nodes only ever retire, never revive — a reinserted
    /// key gets a fresh node), so there is exactly one logical removal per
    /// node; and the bit is only ever set, never cleared (the step-II hint CAS
    /// preserves it), so the CAS here arbitrates exactly one winner.  Owners
    /// reach this point only after passing the mark/flag evidence checks in
    /// [`clean_flag_threaded`], and every marked node's standing category-1
    /// flag (if any) survives until retirement, so the rightful owner always
    /// gets a chance to claim: at most one `true` per node, and at least one
    /// among the owners that pass those checks.
    ///
    /// [`clean_flag_threaded`]: Self::clean_flag_threaded
    fn try_claim_removal(&self, victim_ref: &Node<K, V>, guard: &R::Guard) -> bool {
        let mut spin = SpinBound::new("try_claim_removal");
        loop {
            spin.tick();
            dst_point!();
            let pre = victim_ref.prelink.load(LOAD, guard);
            if pre.tag() & CLAIMED != 0 {
                return false;
            }
            dst_point!();
            if victim_ref
                .prelink
                .compare_exchange(pre, pre.with_tag(pre.tag() | CLAIMED), CAS, CAS_ERR, guard)
                .is_ok()
            {
                return true;
            }
            // Lost to a concurrent claim or a concurrent hint CAS: re-read and
            // decide again.
        }
    }

    /// Completes the removal of a node whose right link is marked.
    ///
    /// Paper: `CleanMark` with `markDir == 1` (lines 122–140) plus the final
    /// pointer swings of `CleanFlag`/`CleanMark`.
    pub(crate) fn clean_mark_right<'g>(&self, victim: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        let victim_ref = unsafe { victim.deref() };
        let mut spin = SpinBound::new("clean_mark_right");
        loop {
            spin.tick();
            dst_point!();
            let left = victim_ref.child[0].load(LOAD, guard);
            let order = self.order_node_of(victim, guard);
            if order.is_null() {
                // No threaded link points at the victim any more: the
                // order-link swing of this removal has already happened.  The
                // remaining unlinking (the parent swing) may still be pending
                // if the thread that performed the order-link swing stalled
                // between the two — so drive it to completion here instead of
                // assuming that thread is still running (PR 7: the old
                // early-return here let a single descheduled thread wedge
                // every helper in a `flag_parent` -> `help_node` spin and let
                // owners report success with the victim still linked).
                self.finish_unlink(victim, guard);
                trace_ev!(CleanMarkEscape, victim, victim);
                return;
            }
            if same_node(order, victim) || same_node(order, left) {
                if self.remove_cat12(victim, order, guard) {
                    return;
                }
            } else {
                match self.remove_cat3(victim, order, guard) {
                    Cat3Outcome::Done => return,
                    Cat3Outcome::Reexamine => {}
                }
            }
        }
    }

    /// Determines the order node of a victim whose right link is marked: the
    /// node whose threaded (and flagged) link points at the victim.
    ///
    /// Uses the `prelink` hint when it validates, otherwise re-derives it by
    /// walking the right spine of the victim's left subtree (the order node is
    /// pinned for the whole removal, so every helper derives the same node).
    ///
    /// Returns a null pointer when no threaded link points at the victim any
    /// more — which means the order-link swing of this removal has already been
    /// performed and a late helper has nothing left to contribute.  (Without
    /// this escape a helper that reaches an already-completed category-2/3
    /// victim would search forever for an order link that no longer exists.)
    fn order_node_of<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Shared<'g, Node<K, V>> {
        let victim_ref = unsafe { victim.deref() };
        let hint = victim_ref.prelink.load(LOAD, guard).with_tag(0);
        if !hint.is_null() && self.is_order_node_of(hint, victim, guard) {
            return hint;
        }
        // The owner (and any helper of a still-live removal) always has a
        // validating hint, so the walk below only runs for stale helpers and
        // for the narrow hint-overwrite window; bound the restarts so that a
        // helper of an already-completed removal cannot spin forever.
        for _ in 0..8 {
            let left = victim_ref.child[0].load(LOAD, guard);
            if is_thread(left) {
                if is_flag(left) {
                    // No left child and the self-thread is flagged: the victim
                    // is its own order node (category 1).
                    return victim;
                }
                // A clean self-thread means no removal currently holds the
                // victim's order link.
                trace_ev!(OrderEscape, victim, victim);
                return Shared::null();
            }
            // Walk the right spine of the left subtree.
            let mut n = left.with_tag(0);
            let mut spin = SpinBound::new("order_node_of");
            loop {
                spin.tick();
                if self.is_order_node_of(n, victim, guard) {
                    return n;
                }
                let r = unsafe { n.deref() }.child[1].load(LOAD, guard);
                if is_thread(r) {
                    // A thread that does not point back at the victim: either
                    // the order link has already been swung (removal complete)
                    // or we raced with a restructuring; retry a bounded number
                    // of times.
                    if same_node(r, victim) {
                        return n;
                    }
                    break;
                }
                n = r.with_tag(0);
            }
        }
        // The bounded walk found no threaded link into the victim.
        trace_ev!(OrderEscape, victim, victim);
        Shared::null()
    }

    /// Returns `true` if `cand` currently is the order node of `victim`:
    /// either `victim` itself with a threaded (flagged) left self-link, or a
    /// node whose threaded right link points at `victim`.
    fn is_order_node_of<'g>(
        &self,
        cand: Shared<'g, Node<K, V>>,
        victim: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> bool {
        if same_node(cand, victim) {
            let l = unsafe { victim.deref() }.child[0].load(LOAD, guard);
            return is_thread(l) && same_node(l, victim);
        }
        let r = unsafe { cand.deref() }.child[1].load(LOAD, guard);
        is_thread(r) && same_node(r, victim)
    }

    /// Category 1/2 completion: (optional category-2 left mark,) flag the
    /// victim's parent link, then swing the order link and the parent link.
    ///
    /// Returns `true` when the removal is complete, `false` to re-dispatch.
    fn remove_cat12<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        order: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> bool {
        let victim_ref = unsafe { victim.deref() };
        let is_cat1 = same_node(order, victim);

        if !is_cat1 {
            // DESIGN.md deviation 7: freeze the victim's left link so that a
            // reader holding a stale backlink to the (soon physically removed)
            // victim can recognise it as dead instead of flagging its links.
            let mut spin = SpinBound::new("remove_cat12");
            loop {
                spin.tick();
                dst_point!();
                let vl = victim_ref.child[0].load(LOAD, guard);
                if is_mark(vl) {
                    break;
                }
                if !same_node(vl, order) {
                    // Our category read was stale; re-dispatch.
                    return false;
                }
                if is_flag(vl) {
                    // Cannot happen for a category-2 victim (the order node's
                    // removal is blocked on our flagged order link), but be
                    // conservative: help and re-check.
                    self.help_node(order, guard);
                    continue;
                }
                dst_point!();
                if victim_ref.child[0]
                    .compare_exchange(vl, vl.with_tag(vl.tag() | MARK), CAS, CAS_ERR, guard)
                    .is_ok()
                {
                    trace_ev!(MarkLeft, victim, order);
                    break;
                }
            }
        }

        // Step V: flag the parent link of the victim.
        let Some((parent, pdir)) = self.flag_parent(victim, guard) else {
            // The victim is already physically removed.
            return true;
        };
        let parent_ref = unsafe { parent.deref() };

        // Frozen right link of the victim (marked in step III, never changes).
        let vr = victim_ref.child[1].load(LOAD, guard);
        let rt = is_thread(vr);
        let rtarget = vr.with_tag(0);
        let new_right = rtarget.with_tag(if rt { THREAD } else { 0 });

        // Backlink fixes are performed *before* the pointer swing that installs
        // the corresponding new parent (DESIGN.md, Lemma-7 ordering): this keeps
        // the invariant that a backlink never refers to a retired node, which is
        // what makes dereferencing backlinks safe under epoch reclamation.
        if is_cat1 {
            // Swing the parent link straight to the victim's right link value
            // (paper lines 99-101).
            if !rt {
                let _ = unsafe { rtarget.deref() }.backlink.compare_exchange(
                    victim.with_tag(0),
                    parent.with_tag(0),
                    CAS,
                    CAS_ERR,
                    guard,
                );
            }
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            dst_point!();
            if same_node(pl, victim)
                && is_flag(pl)
                && parent_ref.child[pdir]
                    .compare_exchange(pl, new_right, CAS, CAS_ERR, guard)
                    .is_ok()
            {
                self.retire(victim, guard);
            }
        } else {
            // Category 2 (paper lines 102-106): the order node (the victim's
            // left child) inherits the victim's right link and takes its place.
            let order_ref = unsafe { order.deref() };
            if !rt {
                let _ = unsafe { rtarget.deref() }.backlink.compare_exchange(
                    victim.with_tag(0),
                    order.with_tag(0),
                    CAS,
                    CAS_ERR,
                    guard,
                );
            }
            let orl = order_ref.child[1].load(LOAD, guard);
            dst_point!();
            if same_node(orl, victim) && is_flag(orl) && is_thread(orl) {
                let _ = order_ref.child[1].compare_exchange(orl, new_right, CAS, CAS_ERR, guard);
            }
            let _ = order_ref.backlink.compare_exchange(
                victim.with_tag(0),
                parent.with_tag(0),
                CAS,
                CAS_ERR,
                guard,
            );
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            dst_point!();
            if same_node(pl, victim)
                && is_flag(pl)
                && parent_ref.child[pdir]
                    .compare_exchange(pl, order.with_tag(0), CAS, CAS_ERR, guard)
                    .is_ok()
            {
                self.retire(victim, guard);
            }
        }
        true
    }

    /// Category 3 completion: the order node (a distant predecessor) replaces
    /// the victim.  Steps IV–VII followed by the pointer swings of paper lines
    /// 147–160.
    fn remove_cat3<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        order: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Cat3Outcome {
        let victim_ref = unsafe { victim.deref() };
        let order_ref = unsafe { order.deref() };

        // ---- Step IV: flag the parent link of the order node. -----------------
        let mut spin = SpinBound::new("remove_cat3/step-iv");
        loop {
            spin.tick();
            dst_point!();
            // Category re-check: if the order node became the victim's left
            // child, the victim is now category 2.
            let vl = victim_ref.child[0].load(LOAD, guard);
            if same_node(vl, order) {
                trace_ev!(Cat3Reexamine, victim, order);
                return Cat3Outcome::Reexamine;
            }
            let ocl = order_ref.child[0].load(LOAD, guard);
            if is_mark(ocl) {
                // Step VII already happened, therefore step IV did too.
                break;
            }
            if is_mark(vl) && same_node(ocl, vl) {
                // The swings already replaced the order node's left link with
                // the victim's left subtree: everything up to s3 is done.
                break;
            }
            // Find the order node's current parent (backlink fast path with a
            // traversal fallback).
            let Some((opar, odir)) = self.find_parent_of(order, guard) else {
                // A live node with no unthreaded parent is not a transient
                // miss: it is the mid-shift state — s1 already spliced the
                // order node out of its old position (consuming the step-IV
                // flag), and only s3/s4 can still be pending.  Retrying the
                // parent search here spun forever (PR 7, found by
                // `cat3-three-way`): nothing downstream would ever restore a
                // parent, because finishing the shift is *this* removal's own
                // job.  Skip ahead to the (individually guarded, idempotent)
                // swings instead.
                // First distinguish "mid-shift" from "this removal finished
                // long ago".  The order node's right link holds
                // `THREAD|FLAG→victim` continuously from step I until s3, and
                // the value can never recur (the victim is retired and never
                // re-linked), so its absence is an instance-unique witness
                // that a helper already drove the removal past the swings —
                // possibly so far past that the shifted order node has since
                // been removed *itself*, in which case both searches below
                // would miss forever (PR 7, found by the depth-3 hunt on
                // `cat3-three-way`).
                let orl = order_ref.child[1].load(LOAD, guard);
                if !(same_node(orl, victim) && is_flag(orl) && is_thread(orl)) {
                    break;
                }
                let okey = order_ref
                    .key
                    .as_key()
                    .expect("sentinel nodes are never order nodes of a category-3 removal");
                if self.find_exact(okey, order, guard) {
                    break;
                }
                continue;
            };
            if same_node(opar, victim) {
                // The order node's old parent was removed after the category
                // re-check above, so the order node is now the victim's left
                // child: this is a category-2 removal.  Flagging this link
                // would put a step-IV flag on the victim's own left link,
                // which no category-2 swing consumes: every helper would then
                // cycle `remove_cat12` -> `help_node(order)` ->
                // `clean_flag_threaded` -> `clean_mark_right` -> `remove_cat12`
                // without bound (a stack overflow in the tiny-range stress
                // tests).
                trace_ev!(Cat3Reexamine, victim, order);
                return Cat3Outcome::Reexamine;
            }
            let opar_ref = unsafe { opar.deref() };
            let ol = opar_ref.child[odir].load(LOAD, guard);
            if !same_node(ol, order) || is_thread(ol) {
                // Raced with a restructuring; retry.
                continue;
            }
            if is_flag(ol) {
                break;
            }
            if is_mark(ol) {
                self.help_node(opar, guard);
                continue;
            }
            match opar_ref.child[odir].compare_exchange(
                ol,
                ol.with_tag(ol.tag() | FLAG),
                CAS,
                CAS_ERR,
                guard,
            ) {
                Ok(_) => {
                    // ABA mitigation (DESIGN.md): confirm the removal is still
                    // pre-swing; if not, our flag is spurious — roll it back.
                    dst_point!();
                    let live = {
                        let orl = order_ref.child[1].load(LOAD, guard);
                        same_node(orl, victim) && is_flag(orl) && is_thread(orl)
                    };
                    if live {
                        trace_ev!(FlagOrderParent, order, opar);
                        break;
                    }
                    trace_ev!(Cat3Rollback, order, victim);
                    let _ = opar_ref.child[odir].compare_exchange(
                        ol.with_tag(ol.tag() | FLAG),
                        ol,
                        CAS,
                        CAS_ERR,
                        guard,
                    );
                    return Cat3Outcome::Done;
                }
                Err(_) => {
                    if self.record_stats() {
                        self.stats.record_cas(false);
                    }
                    continue;
                }
            }
        }

        // ---- Step V: flag the parent link of the victim. -----------------------
        let Some((parent, pdir)) = self.flag_parent(victim, guard) else {
            return Cat3Outcome::Done;
        };
        let parent_ref = unsafe { parent.deref() };

        // ---- Step VI: mark the victim's left link. -----------------------------
        let mut spin = SpinBound::new("remove_cat3/step-vii");
        loop {
            spin.tick();
            dst_point!();
            let vl = victim_ref.child[0].load(LOAD, guard);
            if is_mark(vl) {
                break;
            }
            if same_node(vl, order) || is_thread(vl) {
                // Category changed under us (cannot normally happen after step
                // IV); re-dispatch to be safe.
                trace_ev!(Cat3Reexamine, victim, order);
                return Cat3Outcome::Reexamine;
            }
            if is_flag(vl) {
                // The left child is under removal (its parent link is this
                // flagged link): help it finish, then retry.
                self.note_help();
                self.help_child_of_flagged_parent(vl.with_tag(0), guard);
                continue;
            }
            dst_point!();
            if victim_ref.child[0]
                .compare_exchange(vl, vl.with_tag(vl.tag() | MARK), CAS, CAS_ERR, guard)
                .is_ok()
            {
                trace_ev!(MarkLeft, victim, order);
                break;
            }
        }

        // ---- Step VII: mark the order node's left link. ------------------------
        let vl_frozen = victim_ref.child[0].load(LOAD, guard);
        let mut spin = SpinBound::new("remove_cat3/swing");
        loop {
            spin.tick();
            dst_point!();
            let ocl = order_ref.child[0].load(LOAD, guard);
            if is_mark(ocl) {
                break;
            }
            if same_node(ocl, vl_frozen) {
                // s3 already replaced the order node's left link; nothing to mark.
                break;
            }
            if is_flag(ocl) && !is_thread(ocl) {
                // The order node's left child is under removal: help it first
                // (Lemma 8 forbids marking a flagged unthreaded left link).
                self.note_help();
                self.help_child_of_flagged_parent(ocl.with_tag(0), guard);
                continue;
            }
            // A flagged *threaded* left link (the order node's own pending
            // removal, blocked behind ours) is marked in place, preserving the
            // flag (Lemma 8 allows flag+mark on threaded left links).
            dst_point!();
            // The mark is only ever needed while the step-IV flag stands: s1
            // both requires the mark and consumes that flag, and s2 (the only
            // step that clears the mark) acts on the mark s1 witnessed.  If
            // the order node's parent link is no longer a flagged unthreaded
            // link at it, the splice already happened and a late mark here
            // would tag a link that belongs to the node's post-shift life
            // (PR 7: after the splice, a *new* removal can legitimately have
            // rewritten `order.child[0]`, and re-marking it would let s2
            // resurrect a retired subtree).
            let iv_standing = match self.find_parent_of(order, guard) {
                Some((op2, od2)) => {
                    let ol2 = unsafe { op2.deref() }.child[od2].load(LOAD, guard);
                    same_node(ol2, order) && is_flag(ol2) && !is_thread(ol2)
                }
                None => false,
            };
            if !iv_standing {
                break;
            }
            // Stale-straggler guard (PR 7): unlike every other removal CAS,
            // step VII's expected value lives on a node that *stays live* (the
            // order node), so the value can legitimately recur after a helper
            // completes this removal — a descheduled owner waking up here
            // would then mark a bystander's link.  The parent link is a
            // one-way latch: it holds FLAG→victim continuously from step V
            // until s4 and can never hold that value again (the victim is
            // never re-linked and the guard pins its address), so observing
            // it proves `ocl` is a pending-window value.
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            if !(same_node(pl, victim) && is_flag(pl) && !is_thread(pl)) {
                // s4 already happened: a helper finished this removal while we
                // were descheduled.  Nothing here is ours to touch any more.
                return Cat3Outcome::Done;
            }
            if order_ref.child[0]
                .compare_exchange(ocl, ocl.with_tag(ocl.tag() | MARK), CAS, CAS_ERR, guard)
                .is_ok()
            {
                break;
            }
        }

        // ---- Pointer swings (paper lines 147-160). ------------------------------
        // Each backlink fix is performed *before* the swing that installs the
        // corresponding new parent (DESIGN.md, Lemma-7 ordering), so that a
        // backlink never refers to a retired node.
        let vr_frozen = victim_ref.child[1].load(LOAD, guard);
        let rt = is_thread(vr_frozen);
        let rtarget = vr_frozen.with_tag(0);
        let lstar = vl_frozen.with_tag(0);

        // s1: splice the order node out of its old position (its parent adopts
        // the order node's left link value); the left child's backlink is fixed
        // first.
        dst_point!();
        // Pending latch (PR 7): `FLAG→order` on a parent link is *not*
        // instance-unique — after this removal completes, the shifted (live)
        // order node can be the target of a step-V flag of its own removal,
        // sitting on a link its re-read backlink points at.  A descheduled
        // thread waking up here would mistake that flag for its own step-IV
        // flag and splice a live node out of the tree.  The victim's parent
        // link, by contrast, holds FLAG→victim exactly until s4 and never
        // again; if it no longer does, every swing below belongs to the past.
        {
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            if !(same_node(pl, victim) && is_flag(pl) && !is_thread(pl)) {
                return Cat3Outcome::Done;
            }
        }
        let opar = order_ref.backlink.load(LOAD, guard).with_tag(0);
        if !opar.is_null() {
            let opar_ref = unsafe { opar.deref() };
            let okey = &order_ref.key;
            let odir = if *okey < unsafe { opar.deref() }.key { 0 } else { 1 };
            let ol = opar_ref.child[odir].load(LOAD, guard);
            if same_node(ol, order) && is_flag(ol) && !is_thread(ol) {
                let ofl = order_ref.child[0].load(LOAD, guard);
                if is_mark(ofl) {
                    if !is_thread(ofl) {
                        let _ = unsafe { ofl.with_tag(0).deref() }.backlink.compare_exchange(
                            order.with_tag(0),
                            opar.with_tag(0),
                            CAS,
                            CAS_ERR,
                            guard,
                        );
                    }
                    let new_val = ofl.with_tag(if is_thread(ofl) { THREAD } else { 0 });
                    dst_point!();
                    let _ = opar_ref.child[odir].compare_exchange(ol, new_val, CAS, CAS_ERR, guard);
                }
            }
        }

        // s2: the order node adopts the victim's left subtree.
        let _ = unsafe { lstar.deref() }.backlink.compare_exchange(
            victim.with_tag(0),
            order.with_tag(0),
            CAS,
            CAS_ERR,
            guard,
        );
        let ocl = order_ref.child[0].load(LOAD, guard);
        dst_point!();
        // Same stale-straggler guard as step VII: a marked left link on the
        // (live) order node can recur via a later removal that elects it as
        // order node again, so prove `ocl` belongs to *this* removal's pending
        // window before swinging it to the victim's left subtree.
        let pl = parent_ref.child[pdir].load(LOAD, guard);
        if !(same_node(pl, victim) && is_flag(pl) && !is_thread(pl)) {
            return Cat3Outcome::Done;
        }
        if is_mark(ocl) {
            let _ =
                order_ref.child[0].compare_exchange(ocl, lstar.with_tag(0), CAS, CAS_ERR, guard);
        }

        // s3: the order node adopts the victim's right link.
        if !rt {
            let _ = unsafe { rtarget.deref() }.backlink.compare_exchange(
                victim.with_tag(0),
                order.with_tag(0),
                CAS,
                CAS_ERR,
                guard,
            );
        }
        let orl = order_ref.child[1].load(LOAD, guard);
        dst_point!();
        if same_node(orl, victim) && is_flag(orl) && is_thread(orl) {
            let new_right = rtarget.with_tag(if rt { THREAD } else { 0 });
            let _ = order_ref.child[1].compare_exchange(orl, new_right, CAS, CAS_ERR, guard);
        }

        // s4: the victim's parent adopts the order node (physical removal).
        if !opar.is_null() && !same_node(opar, parent) {
            let _ = order_ref.backlink.compare_exchange(
                opar.with_tag(0),
                parent.with_tag(0),
                CAS,
                CAS_ERR,
                guard,
            );
        }
        let pl = parent_ref.child[pdir].load(LOAD, guard);
        dst_point!();
        if same_node(pl, victim)
            && is_flag(pl)
            && parent_ref.child[pdir]
                .compare_exchange(pl, order.with_tag(0), CAS, CAS_ERR, guard)
                .is_ok()
        {
            self.retire(victim, guard);
        }
        Cat3Outcome::Done
    }

    /// Completes the physical unlinking of a marked victim whose order link
    /// has already been swung (the `order_node_of` escape): if the victim's
    /// parent link is still flagged at it, perform the pending parent swing
    /// and retire the victim.
    ///
    /// Safety of the re-derived swing value: once the victim's right link is
    /// marked (step III), its left link and `prelink` *target* are frozen for
    /// the rest of the removal (the prelink's `CLAIMED` tag bit may still be
    /// set by the success-claim CAS, but readers here strip tags) — every
    /// step-II writer stored the same order node while
    /// the order-link flag stood, and no new threaded link into the victim can
    /// form (inserts refuse tagged links).  So a marked left link means the
    /// order node (`prelink`) replaces the victim (categories 2/3, the same
    /// value `remove_cat12`/`remove_cat3` install), and a flagged self-thread
    /// means category 1 (the parent adopts the victim's frozen right-link
    /// value).  The swing itself is the usual CAS on the flagged parent link,
    /// so it still happens exactly once no matter how many threads race here
    /// with the stalled swinger — and only the winner retires.
    fn finish_unlink<'g>(&self, victim: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        let victim_ref = unsafe { victim.deref() };
        let mut spin = SpinBound::new("finish_unlink");
        loop {
            spin.tick();
            dst_point!();
            let r = victim_ref.child[1].load(LOAD, guard);
            if !is_mark(r) {
                // Not logically removed: nothing pending.
                return;
            }
            let vl = victim_ref.child[0].load(LOAD, guard);
            let order = if is_thread(vl) {
                if !is_flag(vl) {
                    // A clean self-thread: no removal owns this node.
                    return;
                }
                // Category 1: no replacement node, the parent adopts the
                // victim's right-link value directly.
                Shared::null()
            } else {
                if !is_mark(vl) {
                    // The left link is not frozen yet (pre-VI): the driving
                    // thread is still mid-protocol and the order link must
                    // still exist; leave this to the normal path.
                    return;
                }
                let o = victim_ref.prelink.load(LOAD, guard).with_tag(0);
                if o.is_null() || self.is_order_node_of(o, victim, guard) {
                    // The order link still stands: the normal (re-derived)
                    // completion path owns this removal.
                    return;
                }
                // A category-2/3 order node is a strict predecessor, never the
                // victim itself; the step-II CAS discipline keeps the hint
                // exact once the right link is marked.  Guard anyway: swinging
                // the parent link to the victim itself would silently undo
                // step V and retire a node that is still linked.
                if same_node(o, victim) {
                    return;
                }
                o
            };

            let Some((parent, pdir)) = self.find_parent_of(victim, guard) else {
                // Confirm the victim is really unlinked (same guard as
                // `flag_parent`): a transient miss must not abandon the swing.
                let key = unsafe { victim.deref() }
                    .key
                    .as_key()
                    .expect("sentinel nodes are never removed");
                if self.find_exact(key, victim, guard) {
                    self.help_shift_path(key, guard);
                    continue;
                }
                return;
            };
            let parent_ref = unsafe { parent.deref() };
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            if !same_node(pl, victim) || is_thread(pl) {
                // Raced with the swing (or a stale parent): re-derive.
                continue;
            }
            if is_mark(pl) {
                // The parent is itself logically removed; completing it
                // rewires the victim's incoming link.
                self.note_help();
                self.help_node(parent, guard);
                continue;
            }
            if !is_flag(pl) {
                // Step V has not happened: the order link must still stand
                // (the swings only start after V), so the state we derived is
                // stale; re-derive.
                continue;
            }

            let new_val = if order.is_null() {
                let vr = victim_ref.child[1].load(LOAD, guard);
                let rtarget = vr.with_tag(0);
                if !is_thread(vr) {
                    let _ = unsafe { rtarget.deref() }.backlink.compare_exchange(
                        victim.with_tag(0),
                        parent.with_tag(0),
                        CAS,
                        CAS_ERR,
                        guard,
                    );
                }
                rtarget.with_tag(if is_thread(vr) { THREAD } else { 0 })
            } else {
                let _ = unsafe { order.deref() }.backlink.compare_exchange(
                    victim.with_tag(0),
                    parent.with_tag(0),
                    CAS,
                    CAS_ERR,
                    guard,
                );
                order.with_tag(0)
            };
            dst_point!();
            if parent_ref.child[pdir].compare_exchange(pl, new_val, CAS, CAS_ERR, guard).is_ok() {
                trace_ev!(FinishUnlink, victim, parent);
                self.retire(victim, guard);
            }
            return;
        }
    }

    /// Step V (and the category 1/2 flag): flags the link from the victim's
    /// current parent to the victim.
    ///
    /// Returns `None` when the victim has already been physically removed.
    fn flag_parent<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Option<(Shared<'g, Node<K, V>>, usize)> {
        let mut spin = SpinBound::new("flag_parent");
        loop {
            spin.tick();
            dst_point!();
            let Some((parent, pdir)) = self.find_parent_of(victim, guard) else {
                // The descent did not find the victim; confirm with a key
                // search before concluding that it has been unlinked (a
                // transient miss here would otherwise skip the final swing).
                let key = unsafe { victim.deref() }
                    .key
                    .as_key()
                    .expect("sentinel nodes are never removed");
                if self.find_exact(key, victim, guard) {
                    // Reachable but with no unthreaded parent: the victim is
                    // an order node mid-shift, between the s1 splice and the
                    // s4 parent swing of the removal it replaces.  Retrying
                    // alone would spin until the shifting thread resumes
                    // (PR 7); the pending s4's flagged link lies on the
                    // victim's own search path, so help it forward first.
                    self.help_shift_path(key, guard);
                    continue;
                }
                return None;
            };
            let parent_ref = unsafe { parent.deref() };
            let pl = parent_ref.child[pdir].load(LOAD, guard);
            if !same_node(pl, victim) || is_thread(pl) {
                // Raced with a swing; retry from scratch.
                continue;
            }
            if is_flag(pl) {
                return Some((parent, pdir));
            }
            if is_mark(pl) {
                // The parent itself is logically removed; finish it first (its
                // completion rewires the victim's incoming link) and retry.
                self.note_help();
                self.help_node(parent, guard);
                continue;
            }
            dst_point!();
            match parent_ref.child[pdir].compare_exchange(
                pl,
                pl.with_tag(pl.tag() | FLAG),
                CAS,
                CAS_ERR,
                guard,
            ) {
                Ok(_) => {
                    trace_ev!(FlagParent, victim, parent);
                    return Some((parent, pdir));
                }
                Err(_) => {
                    if self.record_stats() {
                        self.stats.record_cas(false);
                    }
                }
            }
        }
    }

    /// Finds the node whose unthreaded child link currently points at `node`
    /// (its parent), or `None` if `node` is not reachable through parent links
    /// (it has been physically removed, or is mid-shift).
    ///
    /// Fast path: the node's backlink.  Slow path: a root-to-node descent that
    /// follows only unthreaded links.
    fn find_parent_of<'g>(
        &self,
        node: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Option<(Shared<'g, Node<K, V>>, usize)> {
        let node_ref = unsafe { node.deref() };
        // Fast path: the backlink hint.  A marked link is not trusted: a
        // removed category-2/3 node keeps its frozen, marked left link to its
        // old child, so a stale backlink to it would "validate" forever and
        // wedge `flag_parent` in a `help_node` loop on a node with nothing
        // left to help.  The descent below tells a dying parent (still
        // reachable, returned again) from a dead one (skipped).
        let hint = node_ref.backlink.load(LOAD, guard).with_tag(0);
        if !hint.is_null() {
            let hdir = if node_ref.key < unsafe { hint.deref() }.key { 0 } else { 1 };
            let hl = unsafe { hint.deref() }.child[hdir].load(LOAD, guard);
            if same_node(hl, node) && !is_thread(hl) && !is_mark(hl) {
                return Some((hint, hdir));
            }
        }
        // Slow path: descend from the root following unthreaded links only.
        // Two passes guard against a transient miss caused by an in-flight swing.
        for _ in 0..2 {
            let mut curr = self.root1();
            let mut spin = SpinBound::new("find_parent_of");
            loop {
                spin.tick();
                let curr_ref = unsafe { curr.deref() };
                let dir = match curr_ref.key.cmp(&node_ref.key) {
                    std::cmp::Ordering::Greater => 0,
                    std::cmp::Ordering::Less => 1,
                    std::cmp::Ordering::Equal => {
                        // A different node with the same key: the original is gone.
                        break;
                    }
                };
                let link = curr_ref.child[dir].load(LOAD, guard);
                if is_thread(link) {
                    break;
                }
                if same_node(link, node) {
                    return Some((curr, dir));
                }
                curr = link.with_tag(0);
            }
        }
        None
    }

    /// Drives forward whatever pending removal obstructs the search path from
    /// the root toward `key`.
    ///
    /// Used when a node is reachable by key search yet has no unthreaded
    /// parent: that is the mid-shift window of a category-3 removal — the
    /// order node has been rewired as the replacement (s1–s3 done) but the
    /// final parent swing (s4) is still pending, so the replacement hangs off
    /// a flagged parent link somewhere on its own search path.  One descent
    /// that helps the first tagged link it meets completes that swing (via
    /// `clean_mark_right` → `finish_unlink` if the owner is descheduled),
    /// after which the caller's `find_parent_of` retry can succeed.
    fn help_shift_path(&self, key: &K, guard: &R::Guard) {
        let mut curr = self.root1();
        let mut spin = SpinBound::new("help_shift_path");
        loop {
            spin.tick();
            let curr_ref = unsafe { curr.deref() };
            let dir = match self.cmp_node_key(curr, key) {
                std::cmp::Ordering::Greater => 0,
                std::cmp::Ordering::Less => 1,
                std::cmp::Ordering::Equal => {
                    // A node with the key itself sits on the path; finish
                    // whatever protocol state its links reveal.
                    self.help_node(curr, guard);
                    return;
                }
            };
            let link = curr_ref.child[dir].load(LOAD, guard);
            if is_thread(link) {
                return;
            }
            if is_flag(link) {
                // A pending parent swing: its target is a victim whose
                // removal stalled after step V.
                self.help_child_of_flagged_parent(link.with_tag(0), guard);
                return;
            }
            if is_mark(link) {
                self.help_node(curr, guard);
                return;
            }
            curr = link.with_tag(0);
        }
    }

    /// Helps the removal of `child`, which was discovered through a flagged
    /// parent link pointing at it.  By the canonical step order the child's
    /// right link is already marked, so completing it is a `clean_mark_right`.
    fn help_child_of_flagged_parent<'g>(&self, child: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        let r = unsafe { child.deref() }.child[1].load(LOAD, guard);
        if is_mark(r) {
            self.clean_mark_right(child, guard);
        }
    }

    /// Best-effort helper dispatch for a node that obstructed us: examines the
    /// node's links and finishes whatever pending removal they reveal.
    pub(crate) fn help_node<'g>(&self, node: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        trace_ev!(HelpNode, node, node);
        let node_ref = unsafe { node.deref() };
        let r = node_ref.child[1].load(LOAD, guard);
        if is_mark(r) {
            // The node is logically removed.
            self.clean_mark_right(node, guard);
            return;
        }
        if is_flag(r) {
            if is_thread(r) {
                // The node is the order node of its successor's removal.
                let _ = self.clean_flag_threaded(node, 1, r.with_tag(0), false, guard);
            } else {
                // The node's right child is under removal.
                self.help_child_of_flagged_parent(r.with_tag(0), guard);
            }
            return;
        }
        let l = node_ref.child[0].load(LOAD, guard);
        if is_flag(l) {
            if is_thread(l) {
                // The node's own order link is flagged: it is a category-1
                // victim whose removal has not yet marked the right link.
                let _ = self.clean_flag_threaded(node, 0, node, false, guard);
            } else {
                // The node's left child is under removal.
                self.help_child_of_flagged_parent(l.with_tag(0), guard);
            }
        }
    }

    /// Hands a physically removed node to the epoch reclamation scheme.
    ///
    /// Called exactly once per removed node: only the thread whose CAS unlinked
    /// the last incoming parent link reaches this call.
    fn retire<'g>(&self, victim: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        if self.record_stats() {
            self.stats.record_retire();
        }
        trace_ev!(Retire, victim, victim);
        unsafe {
            guard.defer_destroy(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    fn tree_with(keys: &[u64]) -> LfBst<u64> {
        let t = LfBst::new();
        for &k in keys {
            assert!(t.insert(k));
        }
        t
    }

    #[test]
    fn remove_category1_leaf() {
        // 7 is a leaf whose left link is a self thread: category 1.
        let t = tree_with(&[10, 5, 15, 7]);
        assert!(t.remove(&7));
        assert!(!t.contains(&7));
        assert_eq!(t.iter_keys(), vec![5, 10, 15]);
        validate(&t).unwrap();
    }

    #[test]
    fn remove_category1_right_unary() {
        // 5 has only a right child (7): still category 1 (no left child).
        let t = tree_with(&[10, 5, 7, 15]);
        assert!(t.remove(&5));
        assert_eq!(t.iter_keys(), vec![7, 10, 15]);
        assert!(t.contains(&7));
        validate(&t).unwrap();
    }

    #[test]
    fn remove_category2_node() {
        // 10's left child is 5, and 5 has no right child: removing 10 is category 2.
        let t = tree_with(&[10, 5, 15, 3]);
        assert!(t.remove(&10));
        assert_eq!(t.iter_keys(), vec![3, 5, 15]);
        validate(&t).unwrap();
    }

    #[test]
    fn remove_category3_node() {
        // 10's left subtree is {5, 7, 8}; its predecessor 8 is distant: category 3.
        let t = tree_with(&[10, 5, 15, 7, 8, 12, 20]);
        assert!(t.remove(&10));
        assert_eq!(t.iter_keys(), vec![5, 7, 8, 12, 15, 20]);
        validate(&t).unwrap();
        // The predecessor 8 must have taken 10's place and still be removable.
        assert!(t.remove(&8));
        assert_eq!(t.iter_keys(), vec![5, 7, 12, 15, 20]);
        validate(&t).unwrap();
    }

    #[test]
    fn remove_root_repeatedly() {
        let t = tree_with(&[50, 25, 75, 12, 37, 62, 87]);
        for k in [50, 37, 25, 62, 75, 87, 12] {
            assert!(t.remove(&k), "failed to remove {k}");
            assert!(!t.contains(&k));
            validate(&t).unwrap();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_missing_key_returns_false() {
        let t = tree_with(&[1, 2, 3]);
        assert!(!t.remove(&4));
        assert!(!t.remove(&0));
        assert_eq!(t.len(), 3);
        validate(&t).unwrap();
    }

    #[test]
    fn interleaved_insert_remove_sequence() {
        let t = LfBst::new();
        for k in 0..200u64 {
            assert!(t.insert(k));
        }
        for k in (0..200).step_by(2) {
            assert!(t.remove(&k));
        }
        for k in 0..200u64 {
            assert_eq!(t.contains(&k), k % 2 == 1, "key {k}");
        }
        for k in (0..200).step_by(2) {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), 200);
        validate(&t).unwrap();
    }

    #[test]
    fn remove_descending_and_ascending_orders() {
        let t = tree_with(&(0..64).collect::<Vec<_>>());
        for k in (0..64).rev() {
            assert!(t.remove(&k));
            validate(&t).unwrap();
        }
        assert!(t.is_empty());
        let t = tree_with(&(0..64).rev().collect::<Vec<_>>());
        for k in 0..64 {
            assert!(t.remove(&k));
        }
        assert!(t.is_empty());
        validate(&t).unwrap();
    }
}
