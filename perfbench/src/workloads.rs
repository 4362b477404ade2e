//! The three workloads, each driven through the program's public entry
//! points on the calling thread.
//!
//! A workload is configured once from the run's seed, then its sub-runs
//! are repeated in turn: every repetition rebuilds its world from its
//! sub-run's seed, so its simulated outputs must come out identical each
//! time. Virtual-time outputs are a pure function of the seed; only the
//! host time differs between repetitions.

use crate::probes::{SbiShape, Shape};
use crate::trace::{cpu_ns, Tracer};
use shield5g_core::paka::PakaKind;
use shield5g_core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g_core::stats::Summary;
use shield5g_faults::degradation::{degradation_sweep, pressured_config, DegradationConfig};
use shield5g_faults::plan::FaultConfig;
use shield5g_obs::hub::{self, ObsHandle};
use shield5g_obs::span::SpanKind;
use shield5g_ran::gnbsim::GnbSim;
use shield5g_ran::workload::{poisson_registrations, test_supi, WorkloadSpec};
use shield5g_scale::harness::{pool_sweep, probe_service_time, SweepConfig};
use shield5g_scale::pool::{EnclavePool, PoolConfig};
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["av_pool_sgx", "registration_container", "fault_ramp_obs"];

/// Long-term key the pool harnesses provision for every subscriber.
const POOL_K: [u8; 16] = [0x46; 16];

/// Sub-runs per run: repetition `i` runs sub-run `i % SUB_RUNS`, each
/// with its own world seed derived from the run's seed. The simulated
/// metrics pool all sub-runs, so one run's figures rest on
/// `SUB_RUNS` independent arrival traces rather than one. Odd, so the
/// traced run's alternation gives every sub-run traced and untraced
/// repetitions.
pub const SUB_RUNS: u64 = 5;

/// World seed of sub-run `sub` of a run with seed `seed`.
#[must_use]
pub fn sub_seed(seed: u64, sub: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(sub)
}

/// Simulated metrics and per-op counts, by metric name.
pub type Sim = BTreeMap<&'static str, f64>;

/// What one repetition's reports say, in whole numbers. Must repeat
/// exactly for a given sub-run seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub ops: u64,
    /// Operations served.
    pub served: u64,
    /// Median virtual response (or setup) time, ns.
    pub p50_ns: u64,
    /// 99th-percentile virtual response (or setup) time, ns.
    pub p99_ns: u64,
    /// EENTER and AEX totals while serving.
    pub eenter_aex: [u64; 2],
    /// OCALL and EWB totals while serving, when the reports carry them.
    pub ocall_ewb: Option<[u64; 2]>,
    /// Requests shed by replica admission control.
    pub shed: u64,
    /// Replicas ejected from the ring.
    pub ejections: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Send attempts, retransmissions included.
    pub attempts: u64,
    /// SBI faults injected.
    pub injected: u64,
    /// Obs spans recorded (kept plus dropped at the cap).
    pub spans: u64,
    /// Obs spans dropped at the cap.
    pub spans_dropped: u64,
}

#[allow(clippy::cast_precision_loss)]
fn ratio(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

/// The simulated end-to-end metrics and per-op counts of a run, from
/// the tallies of its sub-runs: percentiles are the mean over
/// sub-runs, shares and per-op counts pool every operation.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn sim_metrics(tallies: &[Tally]) -> Sim {
    let total = |f: fn(&Tally) -> u64| -> u64 { tallies.iter().map(f).sum() };
    let ops = total(|t| t.ops);
    let subs = tallies.len().max(1) as f64;
    let mut sim = Sim::new();
    sim.insert("sim_p50_ms", total(|t| t.p50_ns) as f64 / subs / 1e6);
    sim.insert("sim_p99_ms", total(|t| t.p99_ns) as f64 / subs / 1e6);
    sim.insert(
        "sim_availability_pct",
        100.0 * ratio(total(|t| t.served), ops),
    );
    sim.insert("hmee.eenter_per_op", ratio(total(|t| t.eenter_aex[0]), ops));
    sim.insert("hmee.aex_per_op", ratio(total(|t| t.eenter_aex[1]), ops));
    if tallies.iter().all(|t| t.ocall_ewb.is_some()) {
        let ocall_ewb = |i: usize| {
            tallies
                .iter()
                .filter_map(|t| t.ocall_ewb)
                .map(|c| c[i])
                .sum()
        };
        sim.insert("hmee.ocall_per_op", ratio(ocall_ewb(0), ops));
        sim.insert("hmee.ewb_per_op", ratio(ocall_ewb(1), ops));
    }
    sim.insert("scale.shed_per_op", ratio(total(|t| t.shed), ops));
    sim.insert("scale.ejections", total(|t| t.ejections) as f64);
    sim.insert("mw.retries_per_op", ratio(total(|t| t.retries), ops));
    sim.insert(
        "mw.useful_ratio",
        ratio(total(|t| t.served), total(|t| t.attempts)),
    );
    sim.insert("faults.injected_per_op", ratio(total(|t| t.injected), ops));
    sim.insert("obs.spans_per_op", ratio(total(|t| t.spans), ops));
    sim.insert("obs.spans_dropped", total(|t| t.spans_dropped) as f64);
    sim
}

/// One timed repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Operations whose call returned an error or panicked.
    pub failed: u64,
    /// Thread CPU time over the timed calls, ns.
    pub cpu_ns: u64,
    /// What the reports say.
    pub tally: Tally,
    /// Failed output checks, described.
    pub problems: Vec<String>,
}

impl Rep {
    fn new(ops: u64, cpu_ns: u64) -> Rep {
        Rep {
            cpu_ns,
            tally: Tally {
                ops,
                ..Tally::default()
            },
            ..Rep::default()
        }
    }

    fn panicked(ops: u64, cpu_ns: u64, what: &str) -> Rep {
        Rep {
            failed: ops,
            problems: vec![format!("{what} panicked")],
            ..Rep::new(ops, cpu_ns)
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// EENTER, OCALL, AEX and EWB totals across every enclave, as the obs
/// hub's `(enclave, "sgx", event)` counters recorded them.
fn sgx_totals(hub: &ObsHandle) -> [u64; 4] {
    hub.with(|o| {
        let mut t = [0u64; 4];
        for (key, n) in o.registry.counters() {
            if key.endpoint != "sgx" {
                continue;
            }
            match key.label.as_str() {
                "eenter" => t[0] += n,
                "ocalls" => t[1] += n,
                "aex" => t[2] += n,
                "ewb" => t[3] += n,
                _ => {}
            }
        }
        t
    })
}

fn sub(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// A workload, configured from the seed.
// One value per process, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Workload {
    /// `scale::harness::pool_sweep` on a 2-replica SGX eUDM pool.
    AvPool {
        /// Run seed.
        seed: u64,
        /// Sweep configuration (rate from the capacity probe).
        cfg: SweepConfig,
    },
    /// Back-to-back gNBSIM registrations on a container slice.
    Registration {
        /// Run seed.
        seed: u64,
        /// Provisioned subscribers.
        ues: u32,
        /// Per sub-run, the subscriber index of each registration, from
        /// the sub-run's arrival trace.
        orders: Vec<Vec<usize>>,
    },
    /// `degradation_sweep` on the pressured config with 20% SBI faults,
    /// recorded by an obs hub.
    FaultRamp {
        /// Run seed.
        seed: u64,
        /// Degradation configuration.
        cfg: DegradationConfig,
        /// Per sub-run, the enclave transitions spent building the world,
        /// subtracted from the hub's totals so the counts cover serving.
        setup_sgx: Vec<[u64; 4]>,
    },
}

impl Workload {
    /// Configures workload `name` for `seed`; `short` shrinks it to a
    /// self-test size.
    #[must_use]
    pub fn new(name: &str, seed: u64, short: bool) -> Option<Workload> {
        match name {
            "av_pool_sgx" => {
                let replicas = 2;
                let capacity = f64::from(replicas) / probe_service_time(seed).as_secs_f64();
                Some(Workload::AvPool {
                    seed,
                    cfg: SweepConfig {
                        replicas,
                        offered_per_sec: 0.8 * capacity,
                        arrivals: if short { 300 } else { 8_000 },
                        ues: 80,
                        queue: QueueConfig {
                            capacity: 16,
                            deadline: SimDuration::from_millis(100),
                        },
                        cache: None,
                    },
                })
            }
            "registration_container" => {
                let ues = 80;
                let spec = WorkloadSpec {
                    ues,
                    arrivals: if short { 40 } else { 1_000 },
                    rate_per_sec: 100.0,
                };
                let index: BTreeMap<String, usize> =
                    (0..ues).map(|i| (test_supi(i), i as usize)).collect();
                let orders = (0..SUB_RUNS)
                    .map(|s| {
                        let mut env = Env::new(sub_seed(seed, s));
                        let mut rng = env.rng.fork("registration-workload");
                        poisson_registrations(&mut rng, env.clock.now(), &spec)
                            .iter()
                            .map(|a| index[&a.supi])
                            .collect()
                    })
                    .collect();
                Some(Workload::Registration { seed, ues, orders })
            }
            "fault_ramp_obs" => {
                let rate = 0.2;
                let cfg = DegradationConfig {
                    sbi: FaultConfig {
                        drop_rate: rate / 3.0,
                        delay_rate: rate / 3.0,
                        error_rate: rate / 3.0,
                        ..FaultConfig::default()
                    },
                    ..pressured_config(if short { 150 } else { 2_000 })
                };
                let setup_sgx = (0..SUB_RUNS)
                    .map(|s| {
                        let hub = ObsHandle::new();
                        let _scope = hub::scoped(&hub);
                        drop(fault_world(sub_seed(seed, s), &cfg));
                        sgx_totals(&hub)
                    })
                    .collect();
                Some(Workload::FaultRamp {
                    seed,
                    cfg,
                    setup_sgx,
                })
            }
            _ => None,
        }
    }

    /// The configuration, as hashed into the provenance.
    #[must_use]
    pub fn config_text(&self) -> String {
        match self {
            Workload::AvPool { seed, cfg } => format!("av_pool_sgx {seed} {cfg:?}"),
            Workload::Registration { seed, ues, orders } => {
                format!("registration_container {seed} ues={ues} orders={orders:?}")
            }
            Workload::FaultRamp { seed, cfg, .. } => format!("fault_ramp_obs {seed} {cfg:?}"),
        }
    }

    /// Inputs for the per-layer probes shaped like this workload's.
    #[must_use]
    pub fn shape(&self) -> Shape {
        match self {
            Workload::AvPool { cfg, .. } => Shape {
                sbi: SbiShape::UdmAka,
                hub: false,
                replicas: cfg.replicas,
            },
            Workload::Registration { .. } => Shape {
                sbi: SbiShape::Authenticate,
                hub: false,
                replicas: 2,
            },
            Workload::FaultRamp { cfg, .. } => Shape {
                sbi: SbiShape::UdmAka,
                hub: true,
                replicas: cfg.replicas,
            },
        }
    }

    /// Thread CPU time, ns, to build the world of sub-run 0 before its
    /// first operation; the world's teardown is not timed.
    #[must_use]
    pub fn time_setup(&self) -> u64 {
        let t0 = cpu_ns();
        let world: Box<dyn std::any::Any> = match self {
            Workload::AvPool { seed, cfg } => Box::new(av_world(sub_seed(*seed, 0), cfg)),
            Workload::Registration { seed, ues, .. } => {
                let mut env = Env::new(sub_seed(*seed, 0));
                env.log.disable();
                Box::new(build_slice(&mut env, &slice_config(*ues)).ok())
            }
            Workload::FaultRamp { seed, cfg, .. } => {
                let hub = ObsHandle::new();
                let _scope = hub::scoped(&hub);
                Box::new((fault_world(sub_seed(*seed, 0), cfg), hub.clone()))
            }
        };
        let took = cpu_ns() - t0;
        drop(world);
        took
    }

    /// Runs one timed repetition of sub-run `sub`; spans go to `tracer`
    /// under `run`.
    pub fn rep(&self, tracer: &mut Tracer, run: u64, sub: u64) -> Rep {
        match self {
            Workload::AvPool { seed, cfg } => av_rep(sub_seed(*seed, sub), cfg, tracer, run),
            Workload::Registration { seed, ues, orders } => registration_rep(
                sub_seed(*seed, sub),
                *ues,
                &orders[sub as usize],
                tracer,
                run,
            ),
            Workload::FaultRamp {
                seed,
                cfg,
                setup_sgx,
            } => fault_rep(
                sub_seed(*seed, sub),
                cfg,
                setup_sgx[sub as usize],
                tracer,
                run,
            ),
        }
    }

    /// The OCALL and EWB totals of sub-run 0 on the pool without a hub,
    /// which its report does not carry: a separate pass records them
    /// with a hub installed, checked against the report's EENTER count.
    /// `None` for workloads whose repetitions carry every count.
    pub fn hub_pass(&self, tracer: &mut Tracer, run: u64, first: &Tally) -> Option<Rep> {
        let Workload::AvPool { seed, cfg } = self else {
            return None;
        };
        let seed = sub_seed(*seed, 0);
        let ops = u64::from(cfg.arrivals);
        let span = tracer.open("hub_pass", run, None);
        let setup_hub = ObsHandle::new();
        {
            let _scope = hub::scoped(&setup_hub);
            drop(av_world(seed, cfg));
        }
        let hub = ObsHandle::new();
        // Only the counters are read; retaining spans would only cost
        // memory.
        hub.with(|o| o.spans.set_cap(0));
        let report = {
            let _scope = hub::scoped(&hub);
            catch_unwind(AssertUnwindSafe(|| pool_sweep(seed, cfg)))
        };
        tracer.close(span);
        if report.is_err() {
            return Some(Rep::panicked(ops, 0, "pool_sweep (hub pass)"));
        }
        let serve = sub(sgx_totals(&hub), sgx_totals(&setup_hub));
        let mut rep = Rep::new(ops, 0);
        rep.check(serve[0] == first.eenter_aex[0], || {
            format!(
                "hub pass counted {} EENTERs, the pool report {}",
                serve[0], first.eenter_aex[0]
            )
        });
        rep.tally.ocall_ewb = Some([serve[1], serve[3]]);
        Some(rep)
    }
}

fn av_world(seed: u64, cfg: &SweepConfig) -> (Env, EnclavePool) {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut pool = EnclavePool::deploy(
        &mut env,
        PakaKind::EUdm,
        PoolConfig {
            replicas: cfg.replicas,
            warm_standby: 0,
            queue: cfg.queue,
            ..PoolConfig::default()
        },
    );
    for i in 0..cfg.ues {
        pool.provision_subscriber(&mut env, &test_supi(i), POOL_K);
    }
    (env, pool)
}

/// The world `degradation_sweep` builds before its first arrival:
/// the pool plus its subscribers and the health-probe subscriber.
fn fault_world(seed: u64, cfg: &DegradationConfig) -> (Env, EnclavePool) {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut pool = EnclavePool::deploy(
        &mut env,
        PakaKind::EUdm,
        PoolConfig {
            replicas: cfg.replicas,
            warm_standby: cfg.warm_standby,
            queue: cfg.queue,
            emergency_headroom: cfg.emergency_headroom,
            ..PoolConfig::default()
        },
    );
    for i in 0..=cfg.ues {
        pool.provision_subscriber(&mut env, &test_supi(i), POOL_K);
    }
    (env, pool)
}

fn slice_config(ues: u32) -> SliceConfig {
    SliceConfig {
        deployment: AkaDeployment::Container,
        subscriber_count: ues,
    }
}

fn av_rep(seed: u64, cfg: &SweepConfig, tracer: &mut Tracer, run: u64) -> Rep {
    let ops = u64::from(cfg.arrivals);
    let span = tracer.open("pool_sweep", run, None);
    let t0 = cpu_ns();
    let report = catch_unwind(AssertUnwindSafe(|| pool_sweep(seed, cfg)));
    let cpu = cpu_ns() - t0;
    tracer.close(span);
    let Ok(r) = report else {
        return Rep::panicked(ops, cpu, "pool_sweep");
    };
    let mut rep = Rep::new(ops, cpu);
    rep.check(r.arrivals == ops && r.served + r.shed == r.arrivals, || {
        format!(
            "conservation: {} served + {} shed != {} arrivals (offered {ops})",
            r.served, r.shed, r.arrivals
        )
    });
    let t = &mut rep.tally;
    t.served = r.served;
    t.p50_ns = r.response.median.as_nanos();
    t.p99_ns = r.response.p99.as_nanos();
    t.eenter_aex = [
        r.per_replica.iter().map(|s| s.eenter_delta).sum(),
        r.per_replica.iter().map(|s| s.aex_delta).sum(),
    ];
    t.shed = r.shed;
    t.attempts = ops;
    rep
}

fn registration_rep(seed: u64, ues: u32, order: &[usize], tracer: &mut Tracer, run: u64) -> Rep {
    let ops = order.len() as u64;
    let mut env = Env::new(seed);
    env.log.disable();
    let slice = match build_slice(&mut env, &slice_config(ues)) {
        Ok(s) => s,
        Err(e) => {
            let mut rep = Rep::new(ops, 0);
            rep.failed = ops;
            rep.problems.push(format!("build_slice: {e}"));
            return rep;
        }
    };
    let mut gnbsim = GnbSim::new(&slice);
    let mut rep = Rep::new(ops, 0);
    let mut setup_times = Vec::with_capacity(order.len());
    let mut gutis = HashSet::new();
    for (k, &index) in order.iter().enumerate() {
        let op_run = run * 1_000_000 + k as u64;
        let op = tracer.open("registration", op_run, None);
        let t0 = cpu_ns();
        let ue_span = tracer.open("GnbSim::ue_for", op_run, op);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut ue = gnbsim.ue_for(&slice, index);
            tracer.close(ue_span);
            let reg_span = tracer.open("CotsUe::register", op_run, op);
            let result = ue.register(&mut env, gnbsim.gnb_mut());
            tracer.close(reg_span);
            result
        }));
        rep.cpu_ns += cpu_ns() - t0;
        tracer.close(op);
        match outcome {
            Ok(Ok(report)) => {
                setup_times.push(report.setup_time);
                rep.check(gutis.insert(report.guti), || {
                    format!("registration {k} reused GUTI {}", report.guti)
                });
            }
            Ok(Err(e)) => {
                rep.failed += 1;
                rep.problems.push(format!("registration {k}: {e}"));
            }
            Err(_) => {
                rep.failed += 1;
                rep.problems.push(format!("registration {k} panicked"));
            }
        }
    }
    let times = Summary::of(&setup_times);
    let sgx = PakaKind::all().iter().fold([0u64; 4], |acc, &kind| {
        let c = slice
            .module(kind)
            .and_then(|m| m.borrow().sgx_stats())
            .unwrap_or_default();
        [
            acc[0] + c.eenter,
            acc[1] + c.ocalls,
            acc[2] + c.aex,
            acc[3] + c.ewb,
        ]
    });
    let t = &mut rep.tally;
    t.served = setup_times.len() as u64;
    t.p50_ns = times.median.as_nanos();
    t.p99_ns = times.p99.as_nanos();
    t.eenter_aex = [sgx[0], sgx[2]];
    t.ocall_ewb = Some([sgx[1], sgx[3]]);
    t.attempts = ops;
    rep
}

fn fault_rep(
    seed: u64,
    cfg: &DegradationConfig,
    setup_sgx: [u64; 4],
    tracer: &mut Tracer,
    run: u64,
) -> Rep {
    let ops = u64::from(cfg.arrivals);
    let hub = ObsHandle::new();
    let span = tracer.open("degradation_sweep", run, None);
    let t0 = cpu_ns();
    let report = {
        let _scope = hub::scoped(&hub);
        catch_unwind(AssertUnwindSafe(|| degradation_sweep(seed, cfg)))
    };
    let cpu = cpu_ns() - t0;
    tracer.close(span);
    let Ok(r) = report else {
        return Rep::panicked(ops, cpu, "degradation_sweep");
    };
    let read = tracer.open("read_obs", run, None);
    let mut rep = Rep::new(ops, cpu);
    for (class, c) in [("normal", r.normal), ("emergency", r.emergency)] {
        rep.check(c.served + c.lost == c.arrivals, || {
            format!(
                "conservation ({class}): {} served + {} lost != {} arrivals",
                c.served, c.lost, c.arrivals
            )
        });
    }
    let arrivals = r.normal.arrivals + r.emergency.arrivals;
    rep.check(arrivals == ops, || {
        format!("{arrivals} arrivals classified, {ops} offered")
    });
    // Virtual response time of every pool attempt that succeeded: the
    // root request spans the obs layer closed with a 2xx status.
    let (response, spans, dropped) = hub.with(|o| {
        let served: Vec<SimDuration> = o
            .spans
            .finished()
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Request
                    && s.parent.is_none()
                    && s.attr("status").is_some_and(|st| (200..300).contains(&st))
            })
            .map(|s| SimDuration::from_nanos(s.duration_ns()))
            .collect();
        (
            Summary::of(&served),
            o.spans.finished().len() as u64,
            o.spans.dropped(),
        )
    });
    let sgx = sub(sgx_totals(&hub), setup_sgx);
    let t = &mut rep.tally;
    t.served = r.normal.served + r.emergency.served;
    t.p50_ns = response.median.as_nanos();
    t.p99_ns = response.p99.as_nanos();
    t.eenter_aex = [sgx[0], sgx[2]];
    t.ocall_ewb = Some([sgx[1], sgx[3]]);
    t.shed = r.sheds.normal + r.sheds.emergency;
    t.ejections = r.ejections;
    t.retries = r.retry.retries;
    t.attempts = r.retry.calls + r.retry.retries;
    t.injected = r.sbi.total();
    t.spans = spans + dropped;
    t.spans_dropped = dropped;
    tracer.close(read);
    rep
}
