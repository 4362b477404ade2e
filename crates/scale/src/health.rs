//! Per-replica health tracking for health-gated routing.
//!
//! The consistent-hash ring ([`crate::router::HashRing`]) only knows
//! which replicas *exist*; under the paper's fault model (AEX storms,
//! EPC thrash, injected SBI failures) a replica can be alive yet
//! useless, timing out or erroring on most of what it serves. The
//! [`HealthTracker`] watches every completion the harness observes —
//! success/failure and service latency — and drives the same
//! closed → open → half-open machine the middleware breaker uses
//! ([`shield5g_mw::BreakerCore`], keyed by [`ReplicaId`]): a replica
//! whose failure EWMA trips is **ejected** from the ring (traffic routes
//! around it), after the hold-off a single half-open probe tests it, and
//! a probe success **reinstates** it.
//!
//! The tracker is pure bookkeeping — the pool owns the ring, so ring
//! surgery (and the never-empty-the-ring guard) lives in
//! `EnclavePool::note_outcome`. Determinism: `BTreeMap`
//! state, virtual time only, no RNG.

use crate::router::ReplicaId;
use shield5g_mw::{
    BreakerCore, BreakerDecision, BreakerPolicy, BreakerState, BreakerStats, BreakerTransition,
};
use shield5g_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Thresholds for ejection and reinstatement.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// The trip/recovery machine: EWMA threshold, hold-off, probes.
    pub breaker: BreakerPolicy,
    /// Smoothing factor for the per-replica service-latency EWMA
    /// (reported for brownout triggers; never trips the breaker itself).
    pub latency_alpha: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            breaker: BreakerPolicy::default(),
            latency_alpha: 0.3,
        }
    }
}

/// A routing-relevant health transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// The replica's failure EWMA tripped: take it off the ring.
    Ejected(ReplicaId),
    /// A half-open probe succeeded: put it back on the ring.
    Reinstated(ReplicaId),
    /// A half-open probe failed: stay off the ring for another hold-off.
    Reopened(ReplicaId),
}

/// EWMA health state across one pool's replicas.
#[derive(Debug)]
pub struct HealthTracker {
    policy: HealthPolicy,
    core: BreakerCore<ReplicaId>,
    latency: BTreeMap<ReplicaId, f64>,
    ejected: BTreeSet<ReplicaId>,
}

impl HealthTracker {
    /// A tracker with no history: every replica starts healthy.
    #[must_use]
    pub fn new(policy: HealthPolicy) -> Self {
        HealthTracker {
            policy,
            core: BreakerCore::new(policy.breaker),
            latency: BTreeMap::new(),
            ejected: BTreeSet::new(),
        }
    }

    /// The thresholds in force.
    #[must_use]
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Trip/probe counter snapshot.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        self.core.stats()
    }

    /// Feed one observed completion for `id`. `ok` is transport-level
    /// success (no 5xx/timeout); `latency` is the request's observed
    /// service time. Returns [`HealthEvent::Ejected`] when this outcome
    /// trips the replica's circuit.
    pub fn note(
        &mut self,
        id: ReplicaId,
        ok: bool,
        latency: SimDuration,
        now: SimTime,
    ) -> Option<HealthEvent> {
        let alpha = self.policy.latency_alpha;
        let sample = latency.as_nanos() as f64;
        self.latency
            .entry(id)
            .and_modify(|l| *l = alpha * sample + (1.0 - alpha) * *l)
            .or_insert(sample);
        match self.core.on_outcome(&id, false, ok, now) {
            Some(BreakerTransition::Opened) => {
                self.ejected.insert(id);
                Some(HealthEvent::Ejected(id))
            }
            _ => None,
        }
    }

    /// Whether an ejected replica's hold-off has expired and a half-open
    /// probe slot is free. A `true` claims the probe slot: report the
    /// probe's outcome through [`HealthTracker::note_probe`].
    pub fn due_probe(&mut self, id: ReplicaId, now: SimTime) -> bool {
        self.ejected.contains(&id) && self.core.admit(&id, now) == BreakerDecision::Probe
    }

    /// Feed a probe outcome back. Returns [`HealthEvent::Reinstated`]
    /// on success (put the replica back on the ring) or
    /// [`HealthEvent::Reopened`] on failure.
    pub fn note_probe(&mut self, id: ReplicaId, ok: bool, now: SimTime) -> Option<HealthEvent> {
        match self.core.on_outcome(&id, true, ok, now) {
            Some(BreakerTransition::Closed) => {
                self.ejected.remove(&id);
                Some(HealthEvent::Reinstated(id))
            }
            Some(BreakerTransition::Reopened) => Some(HealthEvent::Reopened(id)),
            _ => None,
        }
    }

    /// Replicas currently routed around, ascending.
    #[must_use]
    pub fn ejected(&self) -> Vec<ReplicaId> {
        self.ejected.iter().copied().collect()
    }

    /// Whether `id` is currently ejected.
    #[must_use]
    pub fn is_ejected(&self, id: ReplicaId) -> bool {
        self.ejected.contains(&id)
    }

    /// The replica's circuit state.
    #[must_use]
    pub fn state(&self, id: ReplicaId) -> BreakerState {
        self.core.state(&id)
    }

    /// The replica's failure EWMA.
    #[must_use]
    pub fn failure_ewma(&self, id: ReplicaId) -> f64 {
        self.core.failure_ewma(&id)
    }

    /// The replica's service-latency EWMA in nanoseconds, if observed.
    #[must_use]
    pub fn latency_ewma(&self, id: ReplicaId) -> Option<f64> {
        self.latency.get(&id).copied()
    }

    /// The pool-wide mean of the per-replica latency EWMAs (brownout
    /// triggers key off this).
    #[must_use]
    pub fn pool_latency_ewma(&self) -> Option<f64> {
        if self.latency.is_empty() {
            return None;
        }
        Some(self.latency.values().sum::<f64>() / self.latency.len() as f64)
    }

    /// Reset `id` to healthy regardless of history (the pool refuses to
    /// eject its last ring member).
    pub fn force_close(&mut self, id: ReplicaId) {
        self.core.force_close(&id);
        self.ejected.remove(&id);
    }

    /// Drop `id`'s history entirely (killed or retired).
    pub fn forget(&mut self, id: ReplicaId) {
        self.core.forget(&id);
        self.latency.remove(&id);
        self.ejected.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HealthTracker {
        HealthTracker::new(HealthPolicy::default())
    }

    fn trip(t: &mut HealthTracker, id: ReplicaId, now: SimTime) {
        for _ in 0..8 {
            if t.note(id, false, SimDuration::from_micros(900), now)
                .is_some()
            {
                return;
            }
        }
        panic!("eight straight failures did not eject replica {id}");
    }

    #[test]
    fn sustained_failures_eject() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        trip(&mut t, 3, now);
        assert!(t.is_ejected(3));
        assert_eq!(t.ejected(), vec![3]);
        assert_eq!(t.state(3), BreakerState::Open);
    }

    #[test]
    fn probe_success_reinstates() {
        let mut t = tracker();
        let t0 = SimTime::from_nanos(0);
        trip(&mut t, 1, t0);
        // Not due inside the hold-off.
        assert!(!t.due_probe(1, t0));
        let later = t0 + t.policy().breaker.open_for;
        assert!(t.due_probe(1, later));
        // The probe slot is claimed: no second probe until it resolves.
        assert!(!t.due_probe(1, later));
        assert_eq!(
            t.note_probe(1, true, later),
            Some(HealthEvent::Reinstated(1))
        );
        assert!(!t.is_ejected(1));
        assert_eq!(t.state(1), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_keeps_ejected() {
        let mut t = tracker();
        let t0 = SimTime::from_nanos(0);
        trip(&mut t, 1, t0);
        let later = t0 + t.policy().breaker.open_for;
        assert!(t.due_probe(1, later));
        assert_eq!(
            t.note_probe(1, false, later),
            Some(HealthEvent::Reopened(1))
        );
        assert!(t.is_ejected(1));
        // Fresh hold-off: not due again until it passes.
        assert!(!t.due_probe(1, later));
        assert!(t.due_probe(1, later + t.policy().breaker.open_for));
    }

    #[test]
    fn latency_ewma_tracks_but_never_trips() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        for _ in 0..64 {
            // Slow but successful: latency EWMA climbs, circuit stays
            // closed.
            assert!(t
                .note(2, true, SimDuration::from_micros(5_000), now)
                .is_none());
        }
        assert!(t.latency_ewma(2).unwrap() > 4_000_000.0);
        assert_eq!(t.state(2), BreakerState::Closed);
        assert!(t.pool_latency_ewma().is_some());
    }

    #[test]
    fn forget_clears_history() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        trip(&mut t, 7, now);
        t.forget(7);
        assert!(!t.is_ejected(7));
        assert_eq!(t.state(7), BreakerState::Closed);
        assert!(t.latency_ewma(7).is_none());
    }
}
