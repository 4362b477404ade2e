//! Table V: 3GPP TR 33.848 Key Issues and HMEE mitigation, substantiated
//! by attacker runs against the simulated slices.

use shield5g_bench::banner;
use shield5g_core::harness::standard_request;
use shield5g_core::ki::{demonstrate, table5, Resolution};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g_sim::Env;

fn main() {
    banner("Key Issues summary", "paper Table V (§VI)");
    println!("    ● = HMEE-applicable per 3GPP; + = full; ◐ = partial\n");
    for ki in table5() {
        println!(
            "    KI {:2} {} {} {:45} — {}",
            ki.number,
            if ki.hmee_flagged_by_3gpp { "●" } else { " " },
            match ki.resolution {
                Resolution::Full => "+",
                Resolution::Partial => "◐",
            },
            ki.description,
            ki.mechanism
        );
    }

    println!("\n    Demonstrations (the §III attacker against live slices):");
    for deployment in [
        AkaDeployment::Container,
        AkaDeployment::Sgx(SgxConfig::default()),
    ] {
        println!("    --- {} deployment ---", deployment.label());
        let mut env = Env::new(1600);
        let mut slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 2,
            },
        )
        .expect("slice deploys");
        if slice.module(PakaKind::EUdm).is_some() {
            let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").expect("client");
            let req = standard_request(PakaKind::EUdm);
            client
                .call(&mut env, &req.path, req.body.clone())
                .expect("AKA round");
        }
        for demo in demonstrate(&mut env, &mut slice) {
            println!(
                "      KI {:2} upheld={} — {}",
                demo.ki, demo.upheld, demo.evidence
            );
        }
    }
}
