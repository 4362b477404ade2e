//! Determinism guarantees: identical seeds replay bit-for-bit; distinct
//! seeds vary. Everything the benches print is reproducible.

use shield5g::core::harness::{measure_lf_lt, measure_response_times, ModuleDeployment};
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::engine::trace_lines;
use shield5g::sim::Env;

#[test]
fn same_seed_same_latency_distributions() {
    let a = measure_lf_lt(
        100,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
        20,
    );
    let b = measure_lf_lt(
        100,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
        20,
    );
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn different_seed_different_samples() {
    let a = measure_response_times(101, PakaKind::EAusf, ModuleDeployment::Container, 10);
    let b = measure_response_times(102, PakaKind::EAusf, ModuleDeployment::Container, 10);
    assert_ne!(a.1, b.1, "distinct seeds should shift jitter");
}

#[test]
fn same_seed_same_registration_transcript() {
    let run = |seed: u64| {
        let mut env = Env::new(seed);
        env.log.enable();
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Monolithic,
                subscriber_count: 2,
            },
        )
        .unwrap();
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 2).unwrap();
        (
            env.clock.now(),
            regs.iter()
                .map(|r| (r.report.guti, r.report.setup_time))
                .collect::<Vec<_>>(),
            env.log.len(),
        )
    };
    assert_eq!(run(103), run(103));
}

/// One SGX-slice registration run with the engine trace on, returning
/// the byte-exact event log.
fn engine_trace_of(seed: u64) -> Vec<String> {
    let mut env = Env::new(seed);
    env.log.enable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 2,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    trace_lines(&env.log)
}

#[test]
fn same_seed_byte_identical_engine_event_log() {
    // The scheduler is a binary heap keyed (virtual_time, seq): replaying
    // a seed must pop every event in exactly the same order with exactly
    // the same timestamps, so the rendered trace is byte-identical.
    let a = engine_trace_of(300);
    let b = engine_trace_of(300);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn engine_trace_matches_pre_refactor_golden() {
    // The refactor gate for the middleware extraction: the same-seed,
    // fault-rate-0, obs-off SGX registration trace must stay byte-for-
    // byte what the pre-refactor engine produced. The golden file was
    // generated from the monolithic engine (admission + faults + obs
    // inlined in the scheduler); regenerate only for an intentional
    // trace-format change:
    //   SHIELD5G_REGEN_GOLDEN=1 cargo test engine_trace_matches
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/engine_trace_seed300.txt");
    let trace = engine_trace_of(300).join("\n") + "\n";
    if std::env::var_os("SHIELD5G_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden trace present");
    assert!(
        golden == trace,
        "engine trace diverged from the pre-refactor golden \
         (first differing line: {:?})",
        golden
            .lines()
            .zip(trace.lines())
            .find(|(g, t)| g != t)
            .map(|(g, t)| format!("golden `{g}` vs live `{t}`"))
            .unwrap_or_else(|| format!(
                "length {} vs {}",
                golden.lines().count(),
                trace.lines().count()
            ))
    );
}

#[test]
fn overload_layers_disarmed_are_trace_invisible() {
    // Disarm-invariance gate for the overload-control subsystem: the
    // slice stack now carries a BreakerLayer on every endpoint, but with
    // no faults armed nothing ever fails, so the breaker must neither
    // draw randomness nor reshape the schedule — the seed-300 trace
    // stays byte-identical to the pre-overload golden file.
    let mut env = Env::new(300);
    env.log.enable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 2,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    let trace = trace_lines(&env.log);

    // Not vacuous: the breaker really sampled the slice's outbound legs…
    let breaker = slice.breaker.borrow();
    assert!(
        breaker.total_samples() > 0,
        "breaker guarded no traffic — the layer is not in the stack"
    );
    // …but with every call succeeding it never left closed, never
    // rejected, never probed.
    assert_eq!(breaker.stats(), shield5g::mw::BreakerStats::default());

    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/engine_trace_seed300.txt"),
    )
    .expect("golden trace present");
    assert_eq!(
        golden,
        trace.join("\n") + "\n",
        "disarmed overload layers perturbed the engine trace"
    );
}

#[test]
fn different_seed_diverging_engine_event_log() {
    // A different seed shifts RANDs and jitter, which moves event
    // timestamps — the logs must not coincide.
    assert_ne!(engine_trace_of(300), engine_trace_of(301));
}

/// Like [`engine_trace_of`], but with a seeded SBI fault plan installed
/// on the slice engine before the registrations run.
fn faulted_trace_of(seed: u64, cfg: shield5g::faults::FaultConfig) -> Vec<String> {
    let mut env = Env::new(seed);
    env.log.enable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 2,
        },
    )
    .unwrap();
    let _ = shield5g::faults::SbiFaultPlan::install(&slice.fault_switch, &mut env, cfg);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    trace_lines(&env.log)
}

/// A delay-only plan: every leg has a 50% chance of arriving late, which
/// reshapes the whole event schedule without failing any registration.
fn delay_heavy() -> shield5g::faults::FaultConfig {
    shield5g::faults::FaultConfig {
        delay_rate: 0.5,
        ..shield5g::faults::FaultConfig::default()
    }
}

#[test]
fn fault_plan_at_rate_zero_is_trace_invisible() {
    // The regression gate: a zero-rate plan installs nothing and draws
    // nothing, so the engine event log is byte-for-byte the pre-fault
    // baseline.
    assert_eq!(
        faulted_trace_of(300, shield5g::faults::FaultConfig::default()),
        engine_trace_of(300)
    );
}

#[test]
fn same_seed_byte_identical_fault_annotated_trace() {
    let a = faulted_trace_of(300, delay_heavy());
    let b = faulted_trace_of(300, delay_heavy());
    assert_eq!(a, b);
    // Faults actually fired and are visible in the trace...
    assert!(
        a.iter().any(|line| line.contains("fault-delay")),
        "a 50% delay rate must annotate the trace"
    );
    // ...which therefore differs from the fault-free baseline.
    assert_ne!(a, engine_trace_of(300));
}

#[test]
fn observability_is_zero_perturbation() {
    // The shielding gate for shield5g-obs: recording spans and metrics
    // must not steer the simulation. Observability reads the virtual
    // clock but never advances it, draws no randomness, and enqueues no
    // events — so the engine event log with a hub installed is
    // byte-identical to the log without one, same seed.
    let bare = engine_trace_of(300);
    let hub = shield5g::obs::hub::ObsHandle::new();
    let observed = {
        let _scope = shield5g::obs::hub::scoped(&hub);
        engine_trace_of(300)
    };
    assert_eq!(bare, observed);
    // Guard against a vacuous pass: the instrumented run really recorded.
    let finished = hub.with(|o| o.spans.finished().len());
    assert!(finished > 0, "installed hub recorded no spans");
}

#[test]
fn different_seed_divergent_fault_schedule() {
    assert_ne!(
        faulted_trace_of(300, delay_heavy()),
        faulted_trace_of(301, delay_heavy())
    );
}

#[test]
fn crypto_outputs_are_seed_independent() {
    // The protocol crypto depends only on keys and RAND — which the seed
    // controls via the UDM's RNG draw; with a pinned RAND, outputs are
    // constants regardless of the world.
    let mil = shield5g::crypto::milenage::Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
    let snn = shield5g::crypto::keys::ServingNetworkName::new("001", "01");
    let av1 = shield5g::crypto::keys::generate_he_av(&mil, &[9; 16], &[0; 6], &[0x80, 0], &snn);
    let av2 = shield5g::crypto::keys::generate_he_av(&mil, &[9; 16], &[0; 6], &[0x80, 0], &snn);
    assert_eq!(av1, av2);
}
