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
//! Each protocol decision is written once:
//!
//! * `unlink` ends every category: it swings the victim's flagged parent link
//!   to the replacement read off the victim's frozen state, and retires the
//!   victim if that CAS wins.  It is the only place a tree node is retired.
//! * `flagged_parent` is the one parent lookup: step V, for the removal's
//!   own path and for `finish_unlink` alike.
//! * `is_order_flag` and `is_parent_flag` are the instance witnesses of
//!   `DESIGN.md` §7.
//! * `cas_link` is every flag, mark and swing CAS on a child link, and counts
//!   its outcome in `OpStats`.
//!
//! The differences from the paper's listing (re-derived order node, traversal
//! based parent discovery on slow paths, the extra category-2 mark, flag
//! rollback on the step-IV ABA window) are documented in `DESIGN.md`.

use crossbeam_epoch::{ReclaimGuard, Reclaimer, Shared};

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

/// Result of one category completion (`remove_cat12`, `remove_cat3`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Completion {
    /// The removal is complete, by this thread or by others.
    Done,
    /// The victim's category changed (its order node became its left child)
    /// or was read stale; the caller must re-dispatch.
    Reexamine,
}

/// Instance witness: `link` is the standing order link of `victim`'s
/// removal, `THREAD|FLAG→victim`.
///
/// On a category-2/3 order node it holds from step I until the order-link
/// swing and never recurs, because the victim gains no threaded link after
/// step III (the pre-s3 witness, `DESIGN.md` §7).  A category-1 order link is
/// the victim's own left self-thread, which can recur bit-identically after a
/// shift (bug 7); owners arbitrate that case with the claim bit.
fn is_order_flag<T>(link: Shared<'_, T>, victim: Shared<'_, T>) -> bool {
    same_node(link, victim) && is_flag(link) && is_thread(link)
}

/// Instance witness: `link` is a flagged parent link at `node`, unthreaded
/// `FLAG→node`.
///
/// On the victim's parent link this is the pending latch: it holds from step
/// V until the unlink and never recurs, because the victim is never linked
/// again.  On the order node's parent link it is the step-IV flag, which is
/// *not* instance-unique (the live order node can be flagged again by a later
/// removal), so every use of it also checks the latch.
fn is_parent_flag<T>(link: Shared<'_, T>, node: Shared<'_, T>) -> bool {
    same_node(link, node) && is_flag(link) && !is_thread(link)
}

/// Moves `node`'s backlink hint from `from` to `to`; a lost race leaves it as
/// it is.  Backlinks are hints, not protocol state, so this CAS is uncounted.
fn move_backlink<K, V: MapValue, G: ReclaimGuard>(
    node: Shared<'_, Node<K, V>>,
    from: Shared<'_, Node<K, V>>,
    to: Shared<'_, Node<K, V>>,
    guard: &G,
) {
    let _ = unsafe { node.deref() }.backlink.compare_exchange(
        from.with_tag(0),
        to.with_tag(0),
        CAS,
        CAS_ERR,
        guard,
    );
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
    /// [`locate_from::<true>`](Self::locate_from) strips tags while
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
        let mut prev = anchor;
        let mut curr = anchor_curr;
        let mut spin = SpinBound::new("remove_node_with");
        loop {
            spin.tick();
            dst_point!();
            let loc = self.locate_from::<true>(prev, curr, key, self.eager_help(), guard);
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
                let (thread, flagged) = (victim.with_tag(THREAD), victim.with_tag(THREAD | FLAG));
                if self.cas_link(&order_ref.child[loc.dir], thread, flagged, guard) {
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
                trace_ev!(FlagOrderLost, order, victim);
                // Fall through to the failure analysis below.
            }

            // Either the observed link was already tagged, or our flag CAS lost
            // a race.  Re-read and decide.
            let observed = order_ref.child[loc.dir].load(LOAD, guard);
            if is_order_flag(observed, victim) {
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
                if dir == 1 || is_order_flag(order_ref.child[dir].load(LOAD, guard), victim) {
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
            if !is_order_flag(order_ref.child[dir].load(LOAD, guard), victim) {
                // A category-2/3 order link is consumed only by its own
                // removal's swing, which follows the mark: the victim is
                // logically removed by *us* and the unlinking is driven by
                // whoever performed the swing.
                if dir == 1 && is_mark(victim_ref.child[1].load(LOAD, guard)) {
                    break;
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
            // hint with a stale order node (bug 6, found by `chain-shift`: the
            // poisoned hint made the unlink install the victim as its own
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
            if self.cas_link(&victim_ref.child[1], r, r.with_tag(r.tag() | MARK), guard) {
                trace_ev!(MarkRight, victim, order);
                break;
            }
        }
        // The victim is marked under our flag.  For an owner that is *almost
        // always* proof the logical point is ours — winning the mark CAS
        // included — but a category-1 flag is self-referential (`THREAD|FLAG
        // → victim` on the victim's own left link), so after a shift consumes
        // our flag and the inherited left subtree drains, a second removal of
        // the same key re-flags with the very same word and no check of link
        // values can tell the two epochs apart.  The once-ever claim bit can:
        // whichever owner sets it first owns the (single) success.
        if claimant && !self.try_claim_removal(victim_ref, guard) {
            self.clean_mark_right(victim, guard);
            trace_ev!(ClaimLost, order, victim);
            return FinishOutcome::Invalidated;
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
                // assuming that thread is still running (bug 1: an early
                // return here let a single descheduled thread wedge every
                // helper in a step-V `help_node` spin and let owners report
                // success with the victim still linked).
                self.finish_unlink(victim, guard);
                trace_ev!(CleanMarkEscape, victim, victim);
                return;
            }
            let completion = if same_node(order, victim) || same_node(order, left) {
                self.remove_cat12(victim, order, guard)
            } else {
                self.remove_cat3(victim, order, guard)
            };
            if completion == Completion::Done {
                return;
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

    /// Category 1/2 completion: (the category-2 left mark,) step V, (the
    /// category-2 order-link swing,) then the unlink (paper lines 99–106).
    fn remove_cat12<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        order: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Completion {
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
                    return Completion::Reexamine;
                }
                if is_flag(vl) {
                    // Cannot happen for a category-2 victim (the order node's
                    // removal is blocked on our flagged order link), but be
                    // conservative: help and re-check.
                    self.help_node(order, guard);
                    continue;
                }
                dst_point!();
                if self.cas_link(&victim_ref.child[0], vl, vl.with_tag(vl.tag() | MARK), guard) {
                    trace_ev!(MarkLeft, victim, order);
                    break;
                }
            }
        }

        // Step V: flag the parent link of the victim.
        let Some((parent, pdir)) = self.flagged_parent(victim, guard) else {
            // The victim is already physically removed.
            return Completion::Done;
        };
        if !is_cat1 {
            // Category 2: the order node (the victim's left child) inherits
            // the victim's right link, then takes the victim's place.
            self.adopt_right_link(victim, order, guard);
        }
        self.unlink(victim, parent, pdir, victim, guard);
        Completion::Done
    }

    /// Category 3 completion: the order node (a distant predecessor) replaces
    /// the victim.  Steps IV–VII followed by the pointer swings of paper lines
    /// 147–160.
    fn remove_cat3<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        order: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Completion {
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
                return Completion::Reexamine;
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
            // The category can flip between the re-check above and the
            // parent search below (bug 8); a preemption point here lets the
            // model checker schedule that flip.
            dst_point!();
            // Find the order node's current parent (backlink fast path with a
            // traversal fallback).
            let Some((opar, odir)) = self.find_parent_of(order, guard) else {
                // A live node with no unthreaded parent is not a transient
                // miss: it is the mid-shift state — s1 already spliced the
                // order node out of its old position (consuming the step-IV
                // flag), and only s3/s4 can still be pending.  Retrying the
                // parent search here spun forever (bug 3, found by
                // `cat3-three-way`): nothing downstream would ever restore a
                // parent, because finishing the shift is *this* removal's own
                // job.  Skip ahead to the (individually guarded, idempotent)
                // swings instead.
                // First distinguish "mid-shift" from "this removal finished
                // long ago" with the pre-s3 witness: its absence proves that a
                // helper already drove the removal past the swings — possibly
                // so far past that the shifted order node has since been
                // removed *itself*, in which case both searches below would
                // miss forever (bug 5).
                if !is_order_flag(order_ref.child[1].load(LOAD, guard), victim) {
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
                // without bound (bug 8, a stack overflow).
                trace_ev!(Cat3Reexamine, victim, order);
                return Completion::Reexamine;
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
            // `ol` lives on the live order node's parent link, so it can recur
            // after helpers finish this removal; a late flag there would then
            // land on a link that a later removal of the order node flags as
            // its own step V, and the rollback below would take that flag
            // away again, stranding the later removal half-done.  The pre-s3
            // witness proves that this removal is still pending.
            if !is_order_flag(order_ref.child[1].load(LOAD, guard), victim) {
                break;
            }
            let flagged = ol.with_tag(ol.tag() | FLAG);
            if !self.cas_link(&opar_ref.child[odir], ol, flagged, guard) {
                continue;
            }
            // ABA mitigation (DESIGN.md): confirm the removal is still
            // pre-swing; if not, our flag is spurious — roll it back.
            dst_point!();
            if is_order_flag(order_ref.child[1].load(LOAD, guard), victim) {
                trace_ev!(FlagOrderParent, order, opar);
                break;
            }
            trace_ev!(Cat3Rollback, order, victim);
            self.cas_link(&opar_ref.child[odir], flagged, ol, guard);
            return Completion::Done;
        }

        // ---- Step V: flag the parent link of the victim. -----------------------
        let Some((parent, pdir)) = self.flagged_parent(victim, guard) else {
            return Completion::Done;
        };
        let parent_ref = unsafe { parent.deref() };
        // The pending latch (DESIGN.md §7): every CAS below that targets the
        // live order node first proves, on the victim's parent link, that
        // this removal has not been completed by a helper yet.
        let pending = || is_parent_flag(parent_ref.child[pdir].load(LOAD, guard), victim);

        // ---- Step VI: mark the victim's left link. -----------------------------
        let mut spin = SpinBound::new("remove_cat3/step-vi");
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
                return Completion::Reexamine;
            }
            if is_flag(vl) {
                // The left child is under removal (its parent link is this
                // flagged link): help it finish, then retry.
                self.note_help();
                self.help_child_of_flagged_parent(vl.with_tag(0), guard);
                continue;
            }
            dst_point!();
            if self.cas_link(&victim_ref.child[0], vl, vl.with_tag(vl.tag() | MARK), guard) {
                trace_ev!(MarkLeft, victim, order);
                break;
            }
        }

        // ---- Step VII: mark the order node's left link. ------------------------
        let vl_frozen = victim_ref.child[0].load(LOAD, guard);
        let mut spin = SpinBound::new("remove_cat3/step-vii");
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
            if is_parent_flag(ocl, ocl) {
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
            // (after the splice, a *new* removal can legitimately have
            // rewritten `order.child[0]`, and re-marking it would let s2
            // resurrect a retired subtree).
            let iv_standing = self.find_parent_of(order, guard).is_some_and(|(op, od)| {
                is_parent_flag(unsafe { op.deref() }.child[od].load(LOAD, guard), order)
            });
            if !iv_standing {
                break;
            }
            // Stale-straggler guard (bug 3): unlike every other removal CAS,
            // step VII's expected value lives on a node that *stays live* (the
            // order node), so the value can legitimately recur after a helper
            // completes this removal — a descheduled owner waking up here
            // would then mark a bystander's link.  The latch proves `ocl` is
            // a pending-window value.
            if !pending() {
                // A helper finished this removal while we were descheduled.
                // Nothing here is ours to touch any more.
                return Completion::Done;
            }
            if self.cas_link(&order_ref.child[0], ocl, ocl.with_tag(ocl.tag() | MARK), guard) {
                break;
            }
        }

        // ---- Pointer swings (paper lines 147-160). ------------------------------
        // Each backlink fix is performed *before* the swing that installs the
        // corresponding new parent (DESIGN.md, Lemma-7 ordering), so that a
        // backlink never refers to a retired node.
        let lstar = vl_frozen.with_tag(0);

        // s1: splice the order node out of its old position (its parent adopts
        // the order node's left link value); the left child's backlink is fixed
        // first.
        dst_point!();
        // `FLAG→order` on a parent link is *not* instance-unique — after this
        // removal completes, the shifted (live) order node can be the target
        // of a step-V flag of its own removal, sitting on a link its re-read
        // backlink points at.  A descheduled thread waking up here would
        // mistake that flag for its own step-IV flag and splice a live node
        // out of the tree (bug 4), so s1 sits behind the latch too.
        if !pending() {
            return Completion::Done;
        }
        let opar = order_ref.backlink.load(LOAD, guard).with_tag(0);
        if !opar.is_null() {
            let opar_ref = unsafe { opar.deref() };
            let odir = if order_ref.key < opar_ref.key { 0 } else { 1 };
            let ol = opar_ref.child[odir].load(LOAD, guard);
            if is_parent_flag(ol, order) {
                let ofl = order_ref.child[0].load(LOAD, guard);
                if is_mark(ofl) {
                    if !is_thread(ofl) {
                        move_backlink(ofl, order, opar, guard);
                    }
                    let spliced = ofl.with_tag(ofl.tag() & THREAD);
                    dst_point!();
                    self.cas_link(&opar_ref.child[odir], ol, spliced, guard);
                }
            }
        }

        // s2: the order node adopts the victim's left subtree.
        move_backlink(lstar, victim, order, guard);
        let ocl = order_ref.child[0].load(LOAD, guard);
        dst_point!();
        // Same stale-straggler guard as step VII: a marked left link on the
        // (live) order node can recur via a later removal that elects it as
        // order node again, so prove `ocl` belongs to *this* removal's pending
        // window before swinging it to the victim's left subtree.
        if !pending() {
            return Completion::Done;
        }
        if is_mark(ocl) {
            self.cas_link(&order_ref.child[0], ocl, lstar, guard);
        }

        // s3: the order node adopts the victim's right link.
        self.adopt_right_link(victim, order, guard);

        // s4: the victim's parent adopts the order node (physical removal).
        self.unlink(victim, parent, pdir, opar, guard);
        Completion::Done
    }

    /// The order-link swing of categories 2 and 3 (s3): the order node
    /// replaces its `THREAD|FLAG→victim` right link with the victim's frozen
    /// right link, after the victim's right child (if any) has moved its
    /// backlink to the order node.
    fn adopt_right_link<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        order: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) {
        let vr = unsafe { victim.deref() }.child[1].load(LOAD, guard);
        if !is_thread(vr) {
            move_backlink(vr, victim, order, guard);
        }
        let order_ref = unsafe { order.deref() };
        let orl = order_ref.child[1].load(LOAD, guard);
        dst_point!();
        if is_order_flag(orl, victim) {
            self.cas_link(&order_ref.child[1], orl, vr.with_tag(vr.tag() & THREAD), guard);
        }
    }

    /// The last step of every removal, and the only place a tree node is
    /// retired: swings the victim's flagged parent link `parent.child[pdir]`
    /// to the victim's replacement, and retires the victim if that CAS wins.
    /// Returns whether it did.
    ///
    /// The replacement is read off the victim's frozen state.  Once the
    /// victim's right link is marked (step III), its left link and its
    /// `prelink` target no longer change (the prelink's `CLAIMED` bit may
    /// still be set by the success-claim CAS, but readers here strip tags):
    /// every step-II writer stored the same order node while the order-link
    /// flag stood, and no new threaded link into the victim can form (inserts
    /// refuse tagged links).  So a threaded left link (the flagged
    /// self-thread) means category 1, and the parent adopts the victim's
    /// right-link value (paper lines 99–101); a marked left link means
    /// category 2 or 3, and the order node (`prelink`) takes the victim's
    /// place.
    ///
    /// The replacement's backlink moves from `back` to `parent` before the
    /// swing (DESIGN.md, Lemma-7 ordering).  `back` is the victim, except at
    /// category 3's s4, where the order node's backlink still names its old
    /// parent (null: leave the backlink alone).  The swing is the usual CAS
    /// away from `FLAG→victim`, so it happens exactly once however many
    /// threads race here, and only the winner retires.
    fn unlink<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        parent: Shared<'g, Node<K, V>>,
        pdir: usize,
        back: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> bool {
        let victim_ref = unsafe { victim.deref() };
        let (new_link, heir) = if is_thread(victim_ref.child[0].load(LOAD, guard)) {
            let vr = victim_ref.child[1].load(LOAD, guard);
            let heir = if is_thread(vr) { Shared::null() } else { vr.with_tag(0) };
            (vr.with_tag(vr.tag() & THREAD), heir)
        } else {
            let order = victim_ref.prelink.load(LOAD, guard).with_tag(0);
            // A category-2/3 order node is a strict predecessor, never the
            // victim itself; the step-II CAS discipline keeps the hint exact
            // once the right link is marked.  Guard anyway: swinging the
            // parent link to the victim itself would silently undo step V and
            // retire a node that is still linked (bug 6).
            if order.is_null() || same_node(order, victim) {
                return false;
            }
            (order, order)
        };
        if !heir.is_null() && !back.is_null() && !same_node(back, parent) {
            move_backlink(heir, back, parent, guard);
        }
        let parent_ref = unsafe { parent.deref() };
        let pl = parent_ref.child[pdir].load(LOAD, guard);
        dst_point!();
        let won = is_parent_flag(pl, victim)
            && self.cas_link(&parent_ref.child[pdir], pl, new_link, guard);
        if won {
            self.retire(victim, guard);
        }
        won
    }

    /// Completes the physical unlinking of a marked victim whose order link
    /// has already been swung (the `order_node_of` escape): finds the
    /// victim's flagged parent link, and [`unlink`](Self::unlink) performs
    /// the pending parent swing.
    ///
    /// The states checked here only move forward — a mark is never cleared,
    /// and a swung order link never comes back — so they are checked once.
    fn finish_unlink<'g>(&self, victim: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
        let victim_ref = unsafe { victim.deref() };
        if !is_mark(victim_ref.child[1].load(LOAD, guard)) {
            // Not logically removed: nothing pending.
            return;
        }
        let vl = victim_ref.child[0].load(LOAD, guard);
        let owned_elsewhere = if is_thread(vl) {
            // A clean self-thread: no removal owns this node.  A flagged one
            // is category 1.
            !is_flag(vl)
        } else {
            // The left link is not frozen yet (pre-VI), or the order link
            // still stands: the driving thread is still mid-protocol and the
            // normal (re-derived) completion path owns this removal.
            !is_mark(vl) || {
                let order = victim_ref.prelink.load(LOAD, guard).with_tag(0);
                order.is_null() || self.is_order_node_of(order, victim, guard)
            }
        };
        if owned_elsewhere {
            return;
        }
        // Step V precedes every swing, so the parent link is normally
        // flagged already.  A clean one means a stale step-IV rollback took
        // the flag away (bug 10); flagging it again is step V once more.
        if let Some((parent, pdir)) = self.flagged_parent(victim, guard) {
            if self.unlink(victim, parent, pdir, victim, guard) {
                trace_ev!(FinishUnlink, victim, parent);
            }
        }
    }

    /// Step V (also the category-1/2 flag), the one parent lookup: finds the
    /// link from the victim's current parent, flags it if it is clean, and
    /// returns it once it is flagged at the victim — or `None` once the
    /// victim is no longer linked.
    fn flagged_parent<'g>(
        &self,
        victim: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Option<(Shared<'g, Node<K, V>>, usize)> {
        let mut spin = SpinBound::new("flagged_parent");
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
                    // (bug 2); the pending s4's flagged link lies on the
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
            if self.cas_link(&parent_ref.child[pdir], pl, pl.with_tag(pl.tag() | FLAG), guard) {
                trace_ev!(FlagParent, victim, parent);
                return Some((parent, pdir));
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
        // wedge `flagged_parent` in a `help_node` loop on a node with nothing
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
    /// Called exactly once per removed node, from [`unlink`](Self::unlink):
    /// only the thread whose CAS swung the victim's parent link reaches it.
    fn retire<'g>(&self, victim: Shared<'g, Node<K, V>>, guard: &'g R::Guard) {
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

    /// Every flag, mark and swing CAS on a child link counts once; backlink,
    /// `prelink` and claim CASes do not.  Uncontended, each category's
    /// removal issues a fixed number of them, all successful: category 1
    /// I, III, V and the unlink; category 2 adds the left mark and the
    /// order-link swing; category 3 is I, III, IV–VII and s1–s4.
    #[cfg(feature = "stats")]
    #[test]
    fn every_protocol_cas_counts_once_per_category() {
        for (keys, victim, cases) in [
            (&[10u64, 5, 15, 7][..], 7, 4),
            (&[10, 5, 15, 3][..], 10, 6),
            (&[10, 5, 15, 7, 8, 12, 20][..], 10, 10),
        ] {
            let t: LfBst<u64> = LfBst::with_config(crate::Config::new().record_stats(true));
            for &k in keys {
                assert!(t.insert(k));
            }
            let before = t.stats();
            assert!(t.remove(&victim));
            let d = t.stats().since(&before);
            assert_eq!(
                (d.cas_successes, d.cas_failures),
                (cases, 0),
                "removing {victim} of {keys:?}"
            );
        }
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
