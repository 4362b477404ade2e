//! gNBSIM mass registration (paper §V-A1): register a batch of UEs back
//! to back through the SGX slice and read the Table III counters off the
//! enclaves.
//!
//! ```sh
//! cargo run --release --example mass_registration [ue_count]
//! ```

use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::core::stats::Summary;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

fn main() {
    let count: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("== gNBSIM mass registration: {count} UEs through SGX P-AKA ==\n");

    let mut env = Env::new(77);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: count as u32,
        },
    )
    .expect("slice deploys");
    let mut sim = GnbSim::new(&slice);

    let mut snapshots = Vec::new();
    let mut setups = Vec::new();
    for i in 0..count {
        let regs = sim.register_ues(&mut env, &slice, 1).expect("registration");
        setups.push(regs[0].report.setup_time);
        let _ = i;
        snapshots
            .push(PakaKind::all().map(|k| slice.module(k).unwrap().borrow().sgx_stats().unwrap()));
    }

    println!(
        "{count}/{count} registrations completed (AMF confirms {}).",
        slice.amf.borrow().registrations_completed()
    );
    println!("setup time: {}\n", Summary::of(&setups));

    println!("SGX metrics per module (cumulative, as in Table III):");
    println!(
        "{:8} {:>4} {:>8} {:>8} {:>8}",
        "module", "#UEs", "EENTER", "EEXIT", "AEX"
    );
    for (i, row) in snapshots.iter().enumerate().take(3.min(count)) {
        for (kind, c) in PakaKind::all().iter().zip(row.iter()) {
            println!(
                "{:8} {:>4} {:>8} {:>8} {:>8}",
                kind.name(),
                i + 1,
                c.eenter,
                c.eexit,
                c.aex
            );
        }
    }

    if count >= 2 {
        println!("\nPer-registration deltas (paper: ~91 EENTER/EEXIT per UE, AEX flat):");
        for (k_idx, kind) in PakaKind::all().iter().enumerate() {
            let deltas: Vec<u64> = snapshots
                .windows(2)
                .map(|w| w[1][k_idx].eenter - w[0][k_idx].eenter)
                .collect();
            let avg = deltas.iter().sum::<u64>() as f64 / deltas.len() as f64;
            println!("  {:6} mean ΔEENTER/UE = {avg:.1}", kind.name());
        }
    }
}
