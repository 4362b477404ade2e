//! End-to-end integration: full-stack UE registrations across all three
//! AKA deployments, exercising every crate in the workspace at once.

use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::ota::OtaTestbed;
use shield5g::ran::RanError;
use shield5g::sim::engine::trace_lines;
use shield5g::sim::time::SimDuration;
use shield5g::sim::Env;

fn world(deployment: AkaDeployment, seed: u64) -> (Env, shield5g::core::slice::Slice) {
    let mut env = Env::new(seed);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment,
            subscriber_count: 4,
        },
    )
    .unwrap();
    (env, slice)
}

#[test]
fn registration_succeeds_in_all_deployments() {
    for deployment in [
        AkaDeployment::Monolithic,
        AkaDeployment::Container,
        AkaDeployment::Sgx(SgxConfig::default()),
    ] {
        let (mut env, slice) = world(deployment, 1);
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 4).unwrap();
        assert_eq!(regs.len(), 4, "{}", deployment.label());
        assert_eq!(slice.amf.borrow().registrations_completed(), 4);
    }
}

#[test]
fn sgx_and_container_runs_agree_on_protocol_outcomes() {
    // Same seed: identical RANDs, identical SUCIs, identical GUTIs — the
    // deployment changes timing, never the protocol.
    let (mut env_c, slice_c) = world(AkaDeployment::Container, 7);
    let (mut env_s, slice_s) = world(AkaDeployment::Sgx(SgxConfig::default()), 7);
    let mut sim_c = GnbSim::new(&slice_c);
    let mut sim_s = GnbSim::new(&slice_s);
    let rc = sim_c.register_ues(&mut env_c, &slice_c, 2).unwrap();
    let rs = sim_s.register_ues(&mut env_s, &slice_s, 2).unwrap();
    for (a, b) in rc.iter().zip(&rs) {
        assert_eq!(a.report.guti, b.report.guti);
        assert_eq!(a.report.resyncs, b.report.resyncs);
    }
    // But SGX registrations take longer.
    assert!(rs[1].report.setup_time > rc[1].report.setup_time);
}

#[test]
fn each_registration_touches_each_module_once() {
    let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()), 2);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 3).unwrap();
    for kind in PakaKind::all() {
        assert_eq!(slice.module(kind).unwrap().borrow().requests_served(), 3);
        let metrics = slice.backend_metrics(kind).unwrap();
        assert_eq!(metrics.borrow().response_times.len(), 3);
    }
}

#[test]
fn ota_full_stack_through_enclaves() {
    let mut testbed = OtaTestbed::assemble(3, AkaDeployment::Sgx(SgxConfig::default()));
    let report = testbed.run().unwrap();
    assert!(report.registered);
    assert!(report.data_echoed);
    // Warm run lands in the paper's session-setup decade.
    let warm = testbed.run().unwrap();
    assert!(warm.session_setup > SimDuration::from_millis(45));
    assert!(warm.session_setup < SimDuration::from_millis(90));
    // The P-AKA share of setup is small (paper: SGX cost ≈ 5.58 %).
    assert!(
        warm.paka_fraction() < 0.15,
        "paka fraction {:.3}",
        warm.paka_fraction()
    );
}

#[test]
fn udr_sqn_advances_once_per_av() {
    let (mut env, slice) = world(AkaDeployment::Monolithic, 4);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    // One registration = one authentication = one SQN consumed; the SQN
    // generator lives in the UDR which we can't reach directly from here,
    // but a second registration of the same subscriber must still work
    // (monotonically increasing SQNs accepted by the USIM).
    sim.register_ues(&mut env, &slice, 1).unwrap();
    assert_eq!(slice.amf.borrow().registrations_completed(), 2);
}

#[test]
fn subscriber_with_wrong_key_is_rejected() {
    let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()), 5);
    let sim = GnbSim::new(&slice);
    // Program a USIM with a wrong K: the UE will compute a different
    // RES*, and the SEAF's HRES* check must fail.
    let sub = &slice.subscribers[0];
    let usim = shield5g::ran::usim::Usim::program(
        sub.supi.clone(),
        [0xEE; 16], // wrong K
        sub.opc,
        slice.hn_key_id,
        slice.hn_public,
    );
    let mut ue = shield5g::ran::ue::CotsUe::sim_ue(usim);
    let mut gnb = shield5g::ran::gnb::Gnb::simulated(
        slice.engine.clone(),
        shield5g::crypto::ident::Plmn::test_network(),
    );
    let result = ue.register(&mut env, &mut gnb);
    // The UE cannot even verify AUTN (its MAC check fails first) — this
    // surfaces as a network-authentication failure on the UE side.
    assert!(
        matches!(result, Err(RanError::NetworkAuthenticationFailed(_))),
        "expected auth failure, got {result:?}"
    );
    assert_eq!(slice.amf.borrow().registrations_completed(), 0);
    let _ = sim;
}

#[test]
fn unknown_subscriber_is_rejected_cleanly() {
    let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()), 6);
    let unknown = shield5g::core::slice::Subscriber::test(99); // not provisioned
    let usim = shield5g::ran::usim::Usim::program(
        unknown.supi,
        unknown.k,
        unknown.opc,
        slice.hn_key_id,
        slice.hn_public,
    );
    let mut ue = shield5g::ran::ue::CotsUe::sim_ue(usim);
    let mut gnb = shield5g::ran::gnb::Gnb::simulated(
        slice.engine.clone(),
        shield5g::crypto::ident::Plmn::test_network(),
    );
    assert!(matches!(
        ue.register(&mut env, &mut gnb),
        Err(RanError::Rejected { .. })
    ));
}

#[test]
fn data_plane_works_after_registration() {
    let (mut env, slice) = world(AkaDeployment::Container, 8);
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    ue.register(&mut env, sim.gnb_mut()).unwrap();
    let ip = ue.establish_session(&mut env, sim.gnb_mut()).unwrap();
    assert_eq!(ip[..2], [10, 0]);
    let echo = ue.send_data(&mut env, sim.gnb_mut(), b"hello n6").unwrap();
    assert_eq!(echo, b"hello n6");
}

#[test]
fn deregistration_completes_the_lifecycle() {
    let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()), 10);
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    let report = ue.register(&mut env, sim.gnb_mut()).unwrap();
    ue.deregister(&mut env, sim.gnb_mut()).unwrap();
    assert!(!ue.is_registered());
    assert!(ue.guti().is_none());
    assert_eq!(slice.amf.borrow().deregistrations(), 1);
    // The old GUTI is invalid: re-registering with it is refused, SUCI
    // registration still works.
    let mut stale_ue = sim.ue_for(&slice, 0);
    // Hand-craft a GUTI re-registration with the now-invalid GUTI by
    // registering fresh first (stale_ue has no GUTI yet).
    let _ = report;
    let fresh = stale_ue.register(&mut env, sim.gnb_mut()).unwrap();
    assert_ne!(fresh.guti.tmsi, report.guti.tmsi);
}

#[test]
fn deregistered_guti_cannot_be_replayed() {
    let (mut env, slice) = world(AkaDeployment::Container, 11);
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    ue.register(&mut env, sim.gnb_mut()).unwrap();
    let guti_before = ue.guti().unwrap();
    // Re-register by GUTI works while registered…
    ue.re_register_with_guti(&mut env, sim.gnb_mut()).unwrap();
    // …then deregister; the latest GUTI dies with the context.
    ue.deregister(&mut env, sim.gnb_mut()).unwrap();
    // The UE itself discarded the GUTI at deregistration.
    assert!(matches!(
        ue.re_register_with_guti(&mut env, sim.gnb_mut()),
        Err(RanError::Protocol(_))
    ));
    // An attacker replaying the stale GUTI value gets an Identity Request
    // — without the USIM it cannot answer, so GUTI replay gains nothing.
    let nas = shield5g::nf::messages::NasUplink::RegistrationRequest {
        identity: shield5g::nf::messages::UeIdentity::Guti(guti_before),
    }
    .encode();
    let ngap = shield5g::nf::messages::Ngap::InitialUeMessage {
        ran_ue_id: 777,
        nas,
    }
    .encode();
    let resp = slice
        .engine
        .borrow_mut()
        .dispatch(
            &mut env,
            shield5g::nf::addr::AMF,
            shield5g::sim::http::HttpRequest::post("/ngap", ngap),
        )
        .unwrap();
    assert!(resp.is_success());
    let downlink = shield5g::nf::messages::Ngap::decode(&resp.body).unwrap();
    assert_eq!(
        shield5g::nf::messages::NasDownlink::decode(downlink.nas()).unwrap(),
        shield5g::nf::messages::NasDownlink::IdentityRequest
    );
}

#[test]
fn fig5_sequence_flows_through_the_engine() {
    // Acceptance check for the discrete-event refactor: every SBI and
    // module hop of the paper's Fig. 5 registration sequence must be an
    // engine event (callout/resume), not a nested synchronous call. The
    // engine trace is the ground truth: if any NF called another NF
    // directly, its hop would be missing here.
    let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()), 12);
    env.log.enable();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    let trace = trace_lines(&env.log);
    let pos = |needle: &str| {
        trace
            .iter()
            .position(|line| line.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` in engine trace:\n{}", trace.join("\n")))
    };
    let arrive_amf = pos("arrive amf.oai /ngap");
    let amf_to_ausf = pos("callout ausf.oai /nausf-auth");
    let ausf_to_udm = pos("callout udm.oai /nudm-ueau");
    let udm_to_udr = pos("callout udr.oai /nudr-dr");
    let udm_to_eudm = pos("callout eudm-paka.oai /eudm/generate-av");
    let ausf_to_eausf = pos("callout eausf-paka.oai /eausf/derive-se");
    let amf_to_eamf = pos("callout eamf-paka.oai /eamf/derive-kamf");
    // The challenge leg nests gNB→AMF→AUSF→UDM→{UDR, eUDM}, then the
    // AUSF derives the SE AV in its own module.
    assert!(arrive_amf < amf_to_ausf);
    assert!(amf_to_ausf < ausf_to_udm);
    assert!(ausf_to_udm < udm_to_udr);
    assert!(udm_to_udr < udm_to_eudm);
    assert!(udm_to_eudm < ausf_to_eausf);
    // K_AMF derivation happens on the confirmation leg, after the
    // challenge leg resolved.
    assert!(ausf_to_eausf < amf_to_eamf);
    // Each callout must resume its caller — continuation, not recursion.
    assert!(pos("resume ausf.oai /nudm-ueau") > ausf_to_udm);
    assert!(pos("resume udm.oai /nudr-dr") > udm_to_udr);
    assert!(pos("resume udm.oai /eudm/generate-av") > udm_to_eudm);
    assert!(pos("resume amf.oai /eamf/derive-kamf") > amf_to_eamf);
}

#[test]
fn event_log_narrates_the_flow() {
    let mut env = Env::new(9);
    env.log.enable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Monolithic,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    assert!(env.log.contains("aka", "HE AV"));
    assert!(env.log.contains("aka", "SE AV"));
    assert!(env.log.contains("aka", "confirmed RES*"));
    assert!(env.log.contains("aka", "registered as 5g-guti"));
    assert!(env.log.contains("ran", "RRC connected"));
}
