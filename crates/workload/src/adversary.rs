//! Fault-injection adversary for reclamation robustness experiments.
//!
//! Epoch-based reclamation has a well-known failure mode: one reader that
//! stops making progress while pinned blocks the global epoch, and **every**
//! retirement in the domain — no matter how young — piles up behind it.
//! Interval-based reclamation bounds the damage to nodes whose lifetime
//! overlaps the stalled reservation.  This module makes that difference
//! measurable (experiment E17) by injecting the three faults that matter in
//! practice:
//!
//! * **Stalled readers** ([`Adversary::stall_ms`] / [`Adversary::stall_one_in`]):
//!   a worker periodically takes a bare reclamation guard and holds it across a
//!   sleep, modelling a reader descheduled (page fault, preemption, cgroup
//!   throttling) in the middle of a traversal.
//! * **Pauses mid-retire** ([`Adversary::pause_mid_retire_one_in`]):
//!   a remover keeps its reservation alive across a yield right after the
//!   physical unlink, modelling a writer preempted between retiring a node and
//!   unpinning — its own retirement bag cannot drain while it sleeps.
//! * **Retire storms** ([`Adversary::storm_every`] / [`Adversary::storm_size`]):
//!   bursts of back-to-back removes (each followed by a reinsert so the
//!   structure size stays stable), modelling phase changes — bulk deletes,
//!   TTL expiry sweeps — that spike the retirement rate far above steady state.
//!
//! The driver, [`run_adversarial_workload`], is generic over the
//! [`Reclaimer`] backend precisely because the faults are *domain-level*: a
//! bare `R::pin()` held across a sleep stalls EBR's global epoch (or freezes
//! an IBR reservation) regardless of which structure the surrounding workload
//! hammers.  The structure under test only needs to be a
//! [`cset::ConcurrentSet`] whose own operations pin the same backend `R`
//! (e.g. `LfBst<u64, (), R>`).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_epoch::Reclaimer;
use cset::ConcurrentSet;

use crate::runner::{
    prefill, run_closed_loop, Measurement, OpKind, OpStream, ThreadStats, Tick, Worker,
};
use crate::spec::WorkloadSpec;

/// Fault-injection knobs for [`run_adversarial_workload`].
///
/// The default is the E17 configuration: 250 ms stalls on a 1-in-4 duty
/// cycle, mid-retire pauses on 1-in-64 removes, and a 256-key retire storm
/// every 4096 operations.
///
/// # Examples
///
/// ```
/// use workload::Adversary;
/// let quiet = Adversary::none();
/// assert!(!quiet.any_faults());
/// let e17 = Adversary::default();
/// assert!(e17.any_faults());
/// assert_eq!(e17.stall_ms, 250);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adversary {
    /// How long a stalled reader holds its reclamation guard, in milliseconds.
    pub stall_ms: u64,
    /// Duty cycle of the stalls: after every `stall_one_in` batches, worker 0
    /// stalls once.  `0` disables stalled readers.
    pub stall_one_in: u64,
    /// One in this many removes keeps its reservation pinned across a yield
    /// (a writer preempted mid-retire).  `0` disables the fault.
    pub pause_mid_retire_one_in: u64,
    /// Every `storm_every` operations a worker issues a retire storm.
    /// `0` disables storms.
    pub storm_every: u64,
    /// Number of remove+reinsert pairs per retire storm.
    pub storm_size: u64,
}

impl Adversary {
    /// No fault injection: the run degenerates to a plain churn workload
    /// (the control row of an A/B experiment).
    pub fn none() -> Self {
        Adversary {
            stall_ms: 0,
            stall_one_in: 0,
            pause_mid_retire_one_in: 0,
            storm_every: 0,
            storm_size: 0,
        }
    }

    /// Returns `true` if any fault is enabled.
    pub fn any_faults(&self) -> bool {
        (self.stall_ms > 0 && self.stall_one_in > 0)
            || self.pause_mid_retire_one_in > 0
            || (self.storm_every > 0 && self.storm_size > 0)
    }

    /// Sets the stalled-reader fault: hold a guard for `ms` milliseconds once
    /// every `one_in` batches.
    pub fn stalls(mut self, ms: u64, one_in: u64) -> Self {
        self.stall_ms = ms;
        self.stall_one_in = one_in;
        self
    }
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary {
            stall_ms: 250,
            stall_one_in: 4,
            pause_mid_retire_one_in: 64,
            storm_every: 4096,
            storm_size: 256,
        }
    }
}

/// What [`run_adversarial_workload`] reports: the plain measurement plus
/// counters for every fault the adversary actually injected (a run whose
/// fault counters are zero measured nothing adversarial).
#[derive(Clone, Debug)]
pub struct AdversaryReport {
    /// Throughput / latency / op counts, as from
    /// [`run_workload`](crate::run_workload).
    pub measurement: Measurement,
    /// Stalled-reader episodes injected (guard held for
    /// [`Adversary::stall_ms`]).
    pub stalls: u64,
    /// Removes that kept their reservation pinned across a yield.
    pub pauses: u64,
    /// Retire storms issued.
    pub storms: u64,
}

/// Prefills `set`, then hammers it from `threads` threads for `duration`
/// while injecting the faults described by `adv` — generic over the
/// reclamation backend `R` so the same run can be A/B'd between
/// [`Ebr`](crossbeam_epoch::Ebr) and [`Ibr`](crossbeam_epoch::Ibr).
///
/// Worker 0 doubles as the stalled reader (one stall per
/// [`Adversary::stall_one_in`] batches keeps the remaining workers measuring
/// honest throughput); every worker participates in mid-retire pauses and
/// retire storms.  Stall time is excluded from nothing: the measurement
/// window is wall-clock, exactly like a production incident.
///
/// The caller is responsible for snapshotting `R::stats()` (and resetting the
/// bag-depth high-water mark) around the call; this function only drives load.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use workload::{run_adversarial_workload, Adversary, OperationMix, WorkloadSpec};
///
/// let set: Arc<lfbst::LfBst<u64>> = Arc::new(lfbst::LfBst::new());
/// let spec = WorkloadSpec::new(512, OperationMix::updates(50)).seed(9);
/// let adv = Adversary::default().stalls(10, 2);
/// let r = run_adversarial_workload::<lfbst::Ebr, _>(
///     set,
///     &spec,
///     2,
///     Duration::from_millis(60),
///     adv,
/// );
/// assert!(r.measurement.total_ops() > 0);
/// assert!(r.stalls > 0);
/// ```
pub fn run_adversarial_workload<R, S>(
    set: Arc<S>,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    adv: Adversary,
) -> AdversaryReport
where
    R: Reclaimer,
    S: ConcurrentSet<u64>,
{
    prefill(spec, |k| set.insert(k));
    let prefill_size = set.len();
    let faults = Faults::default();
    let m = run_closed_loop(spec, threads, duration, |t| Saboteur::<R, S> {
        t,
        set: &set,
        ops: OpStream::new(spec, t),
        adv,
        key_range: spec.key_range(),
        batches: 0,
        faults: &faults,
        backend: PhantomData,
    });
    AdversaryReport {
        measurement: Measurement {
            set_name: set.name().to_string(),
            prefill_size,
            final_size: set.len(),
            ..m
        },
        stalls: faults.stalls.into_inner(),
        pauses: faults.pauses.into_inner(),
        storms: faults.storms.into_inner(),
    }
}

/// Injected-fault tallies, summed over all workers.
#[derive(Default)]
struct Faults {
    stalls: AtomicU64,
    pauses: AtomicU64,
    storms: AtomicU64,
}

/// One adversarial worker: point operations from its [`OpStream`], with the
/// faults of [`Adversary`] woven in.
struct Saboteur<'a, R, S> {
    t: usize,
    set: &'a S,
    ops: OpStream,
    adv: Adversary,
    key_range: u64,
    batches: u64,
    faults: &'a Faults,
    backend: PhantomData<R>,
}

impl<R: Reclaimer, S: ConcurrentSet<u64>> Worker for Saboteur<'_, R, S> {
    fn batch(&mut self, stats: &mut ThreadStats) {
        // Worker 0 is the designated stalled reader: one guard held across a
        // sleep per `stall_one_in` batches.  Only one worker stalls so the
        // others keep generating the garbage the stall is supposed to strand.
        self.batches += 1;
        let adv = self.adv;
        if self.t == 0
            && adv.stall_ms > 0
            && adv.stall_one_in > 0
            && self.batches % adv.stall_one_in == 0
        {
            let guard = R::pin();
            let key = self.ops.key();
            stats.count(OpKind::Contains, self.set.contains(&key));
            std::thread::sleep(Duration::from_millis(adv.stall_ms));
            self.faults.stalls.fetch_add(1, Ordering::Relaxed);
            drop(guard);
        }
    }

    fn op(&mut self, stats: &mut ThreadStats, tick: &mut Tick) {
        let (adv, set) = (self.adv, self.set);
        let (kind, key) = self.ops.next(tick);
        let hit = match kind {
            OpKind::Contains => set.contains(&key),
            OpKind::Insert => set.insert(key),
            _ if adv.pause_mid_retire_one_in > 0 && tick.n() % adv.pause_mid_retire_one_in == 0 => {
                // Keep a reservation of our own alive across the remove
                // *and* a yield: the retirement this remove produced sits in
                // our bag while we sleep on it.
                let guard = R::pin();
                let hit = set.remove(&key);
                std::thread::yield_now();
                self.faults.pauses.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                hit
            }
            _ => set.remove(&key),
        };
        stats.count(kind, hit);
        // Retire storm: a burst of removes (followed by reinserts, so the
        // size and the next storm's hit rate stay stable) from a random base
        // key.
        if adv.storm_every > 0 && adv.storm_size > 0 && tick.n() % adv.storm_every == 0 {
            let base = self.ops.key();
            for i in 0..adv.storm_size {
                let k = (base + i) % self.key_range;
                let removed = set.remove(&k);
                stats.count(OpKind::Remove, removed);
                if removed {
                    stats.count(OpKind::Insert, set.insert(k));
                }
            }
            self.faults.storms.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_knobs() {
        assert!(!Adversary::none().any_faults());
        assert!(Adversary::default().any_faults());
        assert!(Adversary::none().stalls(5, 2).any_faults());
        let a = Adversary { stall_ms: 0, ..Adversary::default() };
        assert!(a.any_faults(), "storms and pauses still enabled");
    }
}
