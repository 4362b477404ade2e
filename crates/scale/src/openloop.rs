//! The open-loop client driver behind every pool experiment.
//!
//! `pool_sweep`, `fault_sweep` and `degradation_sweep` all ask what a
//! sharded eUDM enclave pool does under open-loop, gNBSIM-style
//! registration load. This module owns the machinery once:
//!
//! - the world build ([`OpenLoop::build`]): deploy, provision, EPC
//!   thrash, rebaseline, health gating, the Poisson trace, then an engine
//!   with every ready replica registered as its own endpoint;
//! - the arrival loop ([`OpenLoop::run`]): run the engine up to each
//!   arrival, settle what finished, serve AV-cache hits frontend-local,
//!   and schedule a single or batch AV request on the SUPI's owner;
//! - one in-flight table, one settle pass and one drain loop.
//!
//! Everything the experiments differ in is data on [`OpenLoopSpec`],
//! where `None` or `0` means off: replica kills and enclave crashes,
//! emergency marking, health-gated routing with half-open probes, and
//! brownout.
//!
//! Client retries live here rather than in the middleware's retry
//! layer. A layer retry holds the worker and re-sends to the same
//! destination; a client retry re-routes through the pool's *current*
//! ring, so after a failover or a health ejection it lands on a
//! survivor. Both share [`shield5g_mw::retryable`] and
//! [`RetryPolicy`].
//!
//! Every run is a pure function of the seed: the workload and the retry
//! jitter come from forked [`DetRng`] streams labelled after the spec's
//! `name`, and emergency marking goes by arrival index, not RNG.

use crate::avcache::{AvCache, AvCacheConfig, CacheStats};
use crate::health::{HealthEvent, HealthPolicy};
use crate::metrics::{RecoveryTracker, RunRecorder};
use crate::pool::{replica_addr, EnclavePool, FailoverReport, PoolConfig};
use shield5g_core::paka::PakaKind;
use shield5g_crypto::keys::ServingNetworkName;
use shield5g_mw::{retryable, RetryPolicy, RetryStats};
use shield5g_nf::backend::{decode_he_av_batch, sqn_add, UdmAkaBatchRequest, UdmAkaRequest};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::{poisson_registrations, test_supi, Arrival, WorkloadSpec};
use shield5g_sim::engine::{Completion, Engine, PriorityClass, FAULT_HEADER, PRIORITY_HEADER};
use shield5g_sim::http::HttpRequest;
use shield5g_sim::rng::DetRng;
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::collections::BTreeMap;

/// Long-term key of every workload subscriber (the standard test K).
pub(crate) const K: [u8; 16] = [0x46; 16];
const OPC: [u8; 16] = [0xcd; 16];

/// VNF-side cost of serving an authentication from the AV cache: a hash
/// lookup and a vector copy in frontend memory — no enclave, no TLS hop.
const CACHE_HIT_NANOS: u64 = 1_500;

/// Brownout trigger thresholds (hysteresis on the client-observed
/// response-latency EWMA).
#[derive(Clone, Copy, Debug)]
pub struct BrownoutPolicy {
    /// Enter brownout when the latency EWMA exceeds this.
    pub enter_above: SimDuration,
    /// Exit once the EWMA falls below `exit_fraction * enter_above`
    /// (strictly below the entry threshold, so the mode doesn't
    /// flap at the boundary).
    pub exit_fraction: f64,
    /// EWMA smoothing factor.
    pub alpha: f64,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            enter_above: SimDuration::from_millis(5),
            exit_fraction: 0.7,
            alpha: 0.3,
        }
    }
}

/// Everything one open-loop run is configured by.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSpec {
    /// Prefix of the forked RNG streams: `"{name}-workload"` draws the
    /// arrival trace, `"{name}-retry"` the retry jitter.
    pub name: &'static str,
    /// Pool deployment: ring size, standbys, admission queue, emergency
    /// headroom.
    pub pool: PoolConfig,
    /// Offered load in authentications per second.
    pub offered_per_sec: f64,
    /// Arrivals in the trace.
    pub arrivals: u32,
    /// Subscriber population.
    pub ues: u32,
    /// AV pre-generation; `None` = one enclave round trip per request.
    pub cache: Option<AvCacheConfig>,
    /// Provision one extra subscriber (`test_supi(ues)`) that half-open
    /// health probes authenticate as.
    pub probe_subscriber: bool,
    /// EPC thrash pages charged to every replica for the whole run.
    pub thrash_pages: u64,
    /// Health-gated routing; `None` disables ejection and probes.
    pub health: Option<HealthPolicy>,
    /// Client retries of failed pool requests; `None` abandons every
    /// failure at once and forks no retry stream.
    pub retry: Option<RetryPolicy>,
    /// Kill the replica owning the n-th arrival's SUPI just before that
    /// arrival is offered; the pool fails over and the frontend purges
    /// the dead replica's pre-generated AVs.
    pub kill_at: Option<u32>,
    /// Crash the enclave of the replica owning the n-th arrival's SUPI:
    /// it stays on the ring and its next request pays the full reload.
    pub crash_at: Option<u32>,
    /// AEX burst injected into the crashed enclave alongside the crash.
    pub aex_storm: u64,
    /// Every n-th arrival (by index) is an emergency registration;
    /// 0 = no emergency traffic.
    pub emergency_period: u32,
    /// Brownout trigger; `None` keeps batch prefetching unconditionally.
    pub brownout: Option<BrownoutPolicy>,
}

/// Per-priority-class outcome counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Arrivals of this class offered to the pool.
    pub arrivals: u64,
    /// Arrivals eventually served (cache hits included).
    pub served: u64,
    /// Arrivals abandoned (shed or failed, retries spent).
    pub lost: u64,
}

/// What one open-loop run observed; each experiment projects its report
/// from these.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Arrival and served-response timing.
    pub recorder: RunRecorder,
    /// Fault instants, failures and recoveries.
    pub recovery: RecoveryTracker,
    /// First attempts, retransmissions, recoveries and abandonments.
    pub retry: RetryStats,
    /// AV-cache statistics when pre-generation was enabled.
    pub cache: Option<CacheStats>,
    /// Normal-class outcomes.
    pub normal: ClassTally,
    /// Emergency-class outcomes.
    pub emergency: ClassTally,
    /// The failover, when a replica was killed.
    pub failover: Option<FailoverReport>,
    /// Pre-generated AVs purged when their replica died.
    pub purged_avs: usize,
    /// Replicas ejected from the ring by health gating.
    pub ejections: u64,
    /// Replicas reinstated after a successful half-open probe.
    pub reinstatements: u64,
    /// Half-open probes sent.
    pub probes: u64,
    /// Times the frontend entered brownout.
    pub brownout_entries: u64,
    /// Times the frontend exited brownout.
    pub brownout_exits: u64,
    /// End-of-run client-observed response-latency EWMA in nanoseconds,
    /// when brownout is armed and any pool round trip happened.
    pub latency_ewma_ns: Option<f64>,
    /// First arrival instant (run start for an empty trace).
    pub first_arrival: SimTime,
    /// Latest completion instant; a cache hit counts at its arrival.
    pub last_finish: SimTime,
}

/// A built open-loop world; [`OpenLoop::run`] consumes it.
pub struct OpenLoop {
    /// The run's environment: clock, RNG and log.
    pub env: Env,
    /// The pool under load.
    pub pool: EnclavePool,
    spec: OpenLoopSpec,
    engine: Engine,
    trace: Vec<Arrival>,
    probe_supi: Option<String>,
}

impl std::fmt::Debug for OpenLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenLoop")
            .field("spec", &self.spec)
            .field("pool", &self.pool)
            .field("arrivals", &self.trace.len())
            .finish_non_exhaustive()
    }
}

impl OpenLoop {
    /// Deploys and provisions the pool, draws the arrival trace, and
    /// registers every ready replica on a fresh engine. Callers arm
    /// fault injection on `pool.fault_switch()` between this and
    /// [`OpenLoop::run`].
    #[must_use]
    pub fn build(seed: u64, spec: &OpenLoopSpec) -> Self {
        let mut env = Env::new(seed);
        let mut pool = EnclavePool::deploy(&mut env, PakaKind::EUdm, spec.pool);
        for i in 0..spec.ues {
            pool.provision_subscriber(&mut env, &test_supi(i), K);
        }
        let probe_supi = spec.probe_subscriber.then(|| test_supi(spec.ues));
        if let Some(supi) = &probe_supi {
            pool.provision_subscriber(&mut env, supi, K);
        }
        if spec.thrash_pages > 0 {
            for replica in pool.replicas() {
                replica
                    .module()
                    .borrow_mut()
                    .set_epc_thrash(spec.thrash_pages);
            }
        }
        pool.rebaseline();
        if let Some(policy) = spec.health {
            pool.enable_health(policy);
        }
        let mut wl_rng = env.rng.fork(&format!("{}-workload", spec.name));
        let trace = poisson_registrations(
            &mut wl_rng,
            env.clock.now(),
            &WorkloadSpec {
                ues: spec.ues,
                arrivals: spec.arrivals,
                rate_per_sec: spec.offered_per_sec,
            },
        );
        let mut engine = Engine::new();
        pool.register_on(&mut engine);
        OpenLoop {
            env,
            pool,
            spec: *spec,
            engine,
            trace,
            probe_supi,
        }
    }

    /// Offers the whole trace, drains every request (retransmissions
    /// included), and returns the pool (its replicas hold their
    /// endpoints' admission counters) with what the run observed.
    ///
    /// # Panics
    ///
    /// Panics when a kill would leave the ring empty, when a cache
    /// refill fails to decode, or when the engine leaves requests
    /// unsettled.
    #[must_use]
    pub fn run(mut self) -> (EnclavePool, OpenLoopRun) {
        let now = self.env.clock.now();
        let retry = self.spec.retry.map(|policy| {
            let rng = self.env.rng.fork(&format!("{}-retry", self.spec.name));
            (policy, rng)
        });
        let trace = std::mem::take(&mut self.trace);
        let mut client = Client {
            cache: self.spec.cache.map(AvCache::new),
            sqn_counters: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            retry,
            browned_out: false,
            out: OpenLoopRun {
                first_arrival: trace.first().map_or(now, |a| a.at),
                last_finish: now,
                ..OpenLoopRun::default()
            },
            world: &mut self,
        };
        for (i, arrival) in trace.iter().enumerate() {
            client.arrive(i as u32, arrival);
        }
        client.drain();
        let mut out = client.out;
        out.cache = client.cache.map(|c| c.stats());
        (self.pool, out)
    }
}

/// One in-flight (possibly retransmitted) pool request.
struct Pending {
    supi: String,
    req: HttpRequest,
    attempt: u32,
    class: PriorityClass,
    /// The replica the request was scheduled on (health accounting).
    replica: u32,
    /// `Some(id)` marks a half-open health probe aimed at ejected
    /// replica `id`: its outcome feeds `note_probe`, not the tallies.
    probe: Option<u32>,
    /// Whether the request was a batch prefetch, so a success refills
    /// the cache.
    batch: bool,
}

/// The frontend's mutable state over one run.
struct Client<'w> {
    world: &'w mut OpenLoop,
    cache: Option<AvCache>,
    /// The UDM's per-subscriber SQN generator for single-AV requests.
    sqn_counters: BTreeMap<String, [u8; 6]>,
    in_flight: BTreeMap<u64, Pending>,
    retry: Option<(RetryPolicy, DetRng)>,
    browned_out: bool,
    out: OpenLoopRun,
}

impl Client<'_> {
    fn class_mut(&mut self, class: PriorityClass) -> &mut ClassTally {
        match class {
            PriorityClass::Normal => &mut self.out.normal,
            PriorityClass::Emergency => &mut self.out.emergency,
        }
    }

    /// Offers arrival `idx`: catches the engine up, fires any kill or
    /// crash scheduled for this index, then serves it from the cache or
    /// schedules it on its owner.
    fn arrive(&mut self, idx: u32, arrival: &Arrival) {
        let spec = self.world.spec;
        // A cold failover (or crash reload) can push the clock past the
        // next arrival instants; offered load then piles up at `now`,
        // which is exactly what an outage does to a real frontend.
        let horizon = arrival.at.max(self.world.env.clock.now());
        let done = self.world.engine.run_until(&mut self.world.env, horizon);
        self.settle(horizon, done);
        self.send_probes(horizon);

        if spec.kill_at == Some(idx) {
            self.kill(&arrival.supi);
        }
        if spec.crash_at == Some(idx) {
            let victim = self.world.pool.route(&arrival.supi);
            let module = self.world.pool.replica(victim).module();
            let mut m = module.borrow_mut();
            if m.inject_crash(&mut self.world.env) {
                self.out.recovery.fault(self.world.env.clock.now());
            }
            if spec.aex_storm > 0 {
                m.inject_aex_storm(&mut self.world.env, spec.aex_storm);
            }
        }

        let class = if spec.emergency_period > 0 && idx.is_multiple_of(spec.emergency_period) {
            PriorityClass::Emergency
        } else {
            PriorityClass::Normal
        };
        self.class_mut(class).arrivals += 1;
        self.out.recorder.arrival(horizon);
        // Cache hits never reach a replica, so they cannot be queued or
        // shed.
        if let Some(c) = self.cache.as_mut() {
            if c.take(&arrival.supi).is_some() {
                let finish = horizon + SimDuration::from_nanos(CACHE_HIT_NANOS);
                self.out.recovery.success(finish);
                self.out.recorder.served(horizon, SimDuration::ZERO, finish);
                self.class_mut(class).served += 1;
                self.out.last_finish = self.out.last_finish.max(horizon);
                return;
            }
        }
        // Brownout disables batch prefetching: each miss pays one
        // single-AV round trip and the cache refills only from hits
        // already banked.
        let env = &mut self.world.env;
        let (batch, request) = match self.cache.as_ref() {
            Some(c) if !self.browned_out => (true, batch_request(env, c, &arrival.supi)),
            _ => (
                false,
                single_request(env, &mut self.sqn_counters, &arrival.supi),
            ),
        };
        let request = match class {
            PriorityClass::Emergency => request.with_header(PRIORITY_HEADER, "emergency"),
            PriorityClass::Normal => request,
        };
        self.out.retry.calls += 1;
        self.schedule(
            horizon,
            Pending {
                supi: arrival.supi.clone(),
                req: request,
                attempt: 0,
                class,
                replica: 0, // set by `schedule`
                probe: None,
                batch,
            },
        );
    }

    /// Routes `pending` through the pool's current ring and schedules it
    /// at `at`.
    fn schedule(&mut self, at: SimTime, pending: Pending) {
        let id = self.world.pool.route(&pending.supi);
        let addr = replica_addr(self.world.pool.kind(), id);
        let tag = self
            .world
            .engine
            .schedule_request(at, &addr, pending.req.clone());
        self.in_flight.insert(
            tag,
            Pending {
                replica: id,
                ..pending
            },
        );
    }

    /// Kills the replica owning `supi`: the pool fails over on the
    /// engine and the frontend purges the AVs pre-generated through the
    /// dead replica.
    fn kill(&mut self, supi: &str) {
        let pool = &mut self.world.pool;
        let victim = pool.route(supi);
        // The SUPIs whose pre-generated AVs die with the replica —
        // computed against the ring *before* the kill remaps it.
        let owned: Vec<String> = (0..self.world.spec.ues)
            .map(test_supi)
            .filter(|s| pool.route(s) == victim)
            .collect();
        let report = pool.fail_over_on_engine(&mut self.world.env, &mut self.world.engine, victim);
        self.out.purged_avs = self
            .cache
            .as_mut()
            .map_or(0, |c| c.purge_where(|s| owned.iter().any(|o| o == s)));
        self.out.recovery.fault(report.at);
        self.out.failover = Some(report);
    }

    /// Absorbs a batch of engine completions: probe outcomes feed the
    /// health tracker; every other outcome feeds health gating and the
    /// brownout EWMA, then successes refill the cache and the tallies,
    /// and retryable failures are retransmitted through the current
    /// ring (never earlier than `floor`, which the engine has already
    /// run up to) until the budget is spent.
    fn settle(&mut self, floor: SimTime, done: Vec<Completion>) {
        for completion in done {
            let pending = self
                .in_flight
                .remove(&completion.tag)
                .expect("completion for unscheduled tag");
            let finished = completion.finished;
            self.out.last_finish = self.out.last_finish.max(finished);
            let ok = completion.response.is_success();
            let pool = &mut self.world.pool;
            if let Some(id) = pending.probe {
                if let Some(HealthEvent::Reinstated(_)) = pool.note_probe(id, ok, finished) {
                    self.out.reinstatements += 1;
                }
                continue;
            }
            let latency = finished - completion.submitted;
            if let Some(HealthEvent::Ejected(_)) =
                pool.note_outcome(pending.replica, ok, latency, finished)
            {
                self.out.ejections += 1;
            }
            self.observe_latency(latency);
            if ok {
                self.out.recovery.success(finished);
                if let (true, Some(c)) = (pending.batch, self.cache.as_mut()) {
                    let avs = decode_he_av_batch(&completion.response.body).expect("batch wire");
                    c.put_batch(&pending.supi, avs);
                    // The missing request consumes the batch head itself.
                    let _ = c.pop_uncounted(&pending.supi);
                }
                if pending.attempt > 0 {
                    self.out.retry.recovered += 1;
                }
                self.out
                    .recorder
                    .served(completion.submitted, completion.queued, finished);
                self.class_mut(pending.class).served += 1;
                continue;
            }
            // A failure marked by the fault layer is a manifested fault;
            // sheds (admission control) are failures but not faults.
            if completion.response.header(FAULT_HEADER).is_some() {
                self.out.recovery.fault(finished);
            }
            self.out.recovery.failure(finished);
            let backoff = match self.retry.as_mut() {
                Some((policy, rng))
                    if retryable(&completion.response) && pending.attempt < policy.max_retries =>
                {
                    let base = policy.backoff(pending.attempt + 1).as_nanos();
                    Some(SimDuration::from_nanos(rng.jitter(base, policy.jitter)))
                }
                _ => None,
            };
            if let Some(backoff) = backoff {
                self.out.retry.retries += 1;
                let attempt = pending.attempt + 1;
                self.schedule(
                    (finished + backoff).max(floor),
                    Pending { attempt, ..pending },
                );
            } else {
                self.out.retry.exhausted += 1;
                self.out.recorder.shed();
                self.class_mut(pending.class).lost += 1;
            }
        }
    }

    /// Updates the latency EWMA and the brownout mode with hysteresis.
    fn observe_latency(&mut self, latency: SimDuration) {
        let Some(policy) = self.world.spec.brownout else {
            return;
        };
        let sample = latency.as_nanos() as f64;
        let ewma = match self.out.latency_ewma_ns {
            Some(e) => policy.alpha * sample + (1.0 - policy.alpha) * e,
            None => sample,
        };
        self.out.latency_ewma_ns = Some(ewma);
        let enter = policy.enter_above.as_nanos() as f64;
        if !self.browned_out && ewma > enter {
            self.browned_out = true;
            self.out.brownout_entries += 1;
            obs::count("faults", "brownout", labels::BROWNOUT_ENTRIES, 1);
        } else if self.browned_out && ewma < policy.exit_fraction * enter {
            self.browned_out = false;
            self.out.brownout_exits += 1;
            obs::count("faults", "brownout", labels::BROWNOUT_EXITS, 1);
        }
    }

    /// Sends one half-open probe to every ejected replica whose hold-off
    /// expired. Probes are real single-AV requests for the probe
    /// subscriber, scheduled directly at the ejected endpoint (which the
    /// ring no longer routes to). No-op without health gating.
    fn send_probes(&mut self, now: SimTime) {
        let world = &mut *self.world;
        let Some(probe_supi) = world.probe_supi.as_deref() else {
            return;
        };
        for id in world.pool.due_probes(now) {
            let addr = replica_addr(world.pool.kind(), id);
            let req = single_request(&mut world.env, &mut self.sqn_counters, probe_supi);
            let tag = world.engine.schedule_request(now, &addr, req.clone());
            self.out.probes += 1;
            obs::count("pool", &addr, labels::BREAKER_PROBES, 1);
            self.in_flight.insert(
                tag,
                Pending {
                    supi: probe_supi.to_owned(),
                    req,
                    attempt: 0,
                    class: PriorityClass::Normal,
                    replica: id,
                    probe: Some(id),
                    batch: false,
                },
            );
        }
    }

    /// Runs the engine dry: each settle pass may retransmit or probe,
    /// scheduling fresh work.
    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            let done = self.world.engine.run_until_idle(&mut self.world.env);
            if done.is_empty() {
                break;
            }
            let floor = self.world.env.clock.now();
            self.settle(floor, done);
            self.send_probes(floor);
        }
        assert!(self.in_flight.is_empty(), "requests left in flight");
    }
}

fn snn() -> ServingNetworkName {
    ServingNetworkName::new("001", "01")
}

/// One single-AV request for `supi`, advancing its SQN.
pub(crate) fn single_request(
    env: &mut Env,
    sqn_counters: &mut BTreeMap<String, [u8; 6]>,
    supi: &str,
) -> HttpRequest {
    let sqn = sqn_counters
        .entry(supi.to_owned())
        .and_modify(|s| *s = sqn_add(s, 1))
        .or_insert([0, 0, 0, 0, 0, 1]);
    HttpRequest::post(
        "/eudm/generate-av",
        UdmAkaRequest {
            supi: supi.into(),
            opc: OPC.into(),
            rand: env.rng.bytes(),
            sqn: *sqn,
            amf_field: [0x80, 0],
            snn: snn(),
        }
        .encode(),
    )
}

/// One batch pre-generation request for `supi`, continuing from the
/// cache's next SQN.
fn batch_request(env: &mut Env, cache: &AvCache, supi: &str) -> HttpRequest {
    HttpRequest::post(
        "/eudm/generate-av-batch",
        UdmAkaBatchRequest {
            supi: supi.into(),
            opc: OPC.into(),
            rand_seed: env.rng.bytes(),
            sqn_start: cache.next_sqn(supi),
            amf_field: [0x80, 0],
            snn: snn(),
            count: cache.batch_size(),
        }
        .encode(),
    )
}
