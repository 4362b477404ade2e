//! gNBSIM: the mass-registration RAN entity of paper §V-A1 ("We utilized
//! gNBSIM to establish mass gNB-UE connections with core on a large
//! scale"). Registrations run back to back, matching the paper's
//! methodology ("We register UEs back to back and measure the number of
//! SGX-related operations", §V-A2).

use crate::gnb::Gnb;
use crate::ue::{CotsUe, RegistrationReport};
use crate::usim::Usim;
use crate::RanError;
use shield5g_core::slice::Slice;
use shield5g_crypto::ident::Plmn;
use shield5g_sim::Env;

/// The mass-registration driver.
pub struct GnbSim {
    gnb: Gnb,
}

impl std::fmt::Debug for GnbSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnbSim").finish()
    }
}

/// Outcome of one simulated UE registration.
#[derive(Clone, Debug)]
pub struct SimRegistration {
    /// The subscriber index used.
    pub subscriber_index: usize,
    /// The registration report.
    pub report: RegistrationReport,
}

impl GnbSim {
    /// Attaches a gNBSIM instance to a deployed slice.
    #[must_use]
    pub fn new(slice: &Slice) -> Self {
        GnbSim {
            gnb: Gnb::simulated(slice.engine.clone(), Plmn::test_network()),
        }
    }

    /// Builds a simulated UE for subscriber `index` of the slice.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range of the slice's subscribers.
    #[must_use]
    pub fn ue_for(&self, slice: &Slice, index: usize) -> CotsUe {
        let sub = &slice.subscribers[index];
        let usim = Usim::program(
            sub.supi.clone(),
            sub.k,
            sub.opc,
            slice.hn_key_id,
            slice.hn_public,
        );
        CotsUe::sim_ue(usim)
    }

    /// Registers subscribers `0..count` back to back.
    ///
    /// # Errors
    ///
    /// Returns the first registration failure.
    pub fn register_ues(
        &mut self,
        env: &mut Env,
        slice: &Slice,
        count: usize,
    ) -> Result<Vec<SimRegistration>, RanError> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let mut ue = self.ue_for(slice, i % slice.subscribers.len());
            let report = ue.register(env, &mut self.gnb)?;
            out.push(SimRegistration {
                subscriber_index: i % slice.subscribers.len(),
                report,
            });
        }
        Ok(out)
    }

    /// Registers one UE and also establishes its PDU session, returning
    /// the setup time for the full sequence (the §V-B4 "end-to-end UE
    /// session setup").
    ///
    /// # Errors
    ///
    /// Returns the first protocol failure.
    pub fn register_with_session(
        &mut self,
        env: &mut Env,
        slice: &Slice,
        index: usize,
    ) -> Result<(RegistrationReport, [u8; 4]), RanError> {
        let mut ue = self.ue_for(slice, index);
        let report = ue.register(env, &mut self.gnb)?;
        let ip = ue.establish_session(env, &mut self.gnb)?;
        Ok((report, ip))
    }

    /// Mutable access to the underlying gNB (tests).
    pub fn gnb_mut(&mut self) -> &mut Gnb {
        &mut self.gnb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_core::paka::{PakaKind, SgxConfig};
    use shield5g_core::slice::{build_slice, AkaDeployment, SliceConfig};

    fn world(deployment: AkaDeployment) -> (Env, Slice) {
        let mut env = Env::new(41);
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 5,
            },
        )
        .unwrap();
        (env, slice)
    }

    #[test]
    fn mass_registration_monolithic() {
        let (mut env, slice) = world(AkaDeployment::Monolithic);
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 5).unwrap();
        assert_eq!(regs.len(), 5);
        assert_eq!(slice.amf.borrow().registrations_completed(), 5);
        // Distinct GUTIs per registration.
        let mut tmsis: Vec<u32> = regs.iter().map(|r| r.report.guti.tmsi).collect();
        tmsis.dedup();
        assert_eq!(tmsis.len(), 5);
    }

    #[test]
    fn mass_registration_through_sgx_modules() {
        let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()));
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 3).unwrap();
        assert_eq!(regs.len(), 3);
        // Every registration used the enclave modules exactly once each.
        for kind in PakaKind::all() {
            let m = slice.module(kind).unwrap();
            assert_eq!(m.borrow().requests_served(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn per_registration_transition_delta_matches_table3() {
        let (mut env, slice) = world(AkaDeployment::Sgx(SgxConfig::default()));
        let mut sim = GnbSim::new(&slice);
        sim.register_ues(&mut env, &slice, 1).unwrap();
        let snapshots: Vec<_> = PakaKind::all()
            .iter()
            .map(|&k| slice.module(k).unwrap().borrow().sgx_stats().unwrap())
            .collect();
        sim.register_ues(&mut env, &slice, 1).unwrap();
        for (kind, before) in PakaKind::all().iter().zip(snapshots) {
            let after = slice.module(*kind).unwrap().borrow().sgx_stats().unwrap();
            let delta = after.delta_since(&before);
            assert!(
                (88..=96).contains(&delta.eenter),
                "{}: {} EENTERs per registration",
                kind.name(),
                delta.eenter
            );
        }
    }

    #[test]
    fn session_setup_with_data_path() {
        let (mut env, slice) = world(AkaDeployment::Container);
        let mut sim = GnbSim::new(&slice);
        let (report, ip) = sim.register_with_session(&mut env, &slice, 0).unwrap();
        assert_eq!(ip[0], 10);
        assert!(report.setup_time > shield5g_sim::time::SimDuration::ZERO);
    }

    #[test]
    fn resync_recovers_transparently() {
        // Register the same subscriber twice with a *fresh* USIM the
        // second time: its SQN window is behind the network's generator,
        // which is fine (higher SQN accepted); instead, simulate a stale
        // *network* by registering with a fresh slice but a USIM that
        // already consumed SQNs.
        let (mut env, slice) = world(AkaDeployment::Monolithic);
        let mut sim = GnbSim::new(&slice);
        // Drive the subscriber's USIM forward on a first registration.
        let mut ue = sim.ue_for(&slice, 0);
        ue.register(&mut env, sim.gnb_mut()).unwrap();
        // Now build a *new* slice world sharing the same subscriber keys
        // (network SQN generator reset to zero) but keep the old USIM —
        // its window is ahead, so the challenge triggers AUTS resync.
        let mut env2 = Env::new(43);
        let slice2 = build_slice(
            &mut env2,
            &SliceConfig {
                deployment: AkaDeployment::Monolithic,
                subscriber_count: 5,
            },
        )
        .unwrap();
        let mut sim2 = GnbSim::new(&slice2);
        let report = ue.register(&mut env2, sim2.gnb_mut());
        // Wait: `ue` was already registered; build a fresh UE that reuses
        // the *old* USIM state via a new registration attempt.
        match report {
            Ok(r) => assert!(
                r.resyncs >= 1,
                "expected at least one resync, got {}",
                r.resyncs
            ),
            Err(e) => panic!("resync registration failed: {e}"),
        }
    }
}
