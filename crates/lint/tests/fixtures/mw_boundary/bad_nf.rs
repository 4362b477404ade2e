//! Seeded violation fixture: an NF re-growing the concerns the
//! middleware extraction moved out — a hand-rolled retrier, a direct
//! fault-injector consult, and in-service admission management.

pub struct BadNf {
    retrier: Retrier,
    queue: Option<AdmissionPolicy>,
}

impl BadNf {
    pub fn install(&mut self, engine: &mut Engine) {
        engine.set_fault_injector(None);
        self.queue = Some(AdmissionPolicy {
            capacity: Some(8),
            deadline: None,
        });
    }

    pub fn consult(&mut self, injector: &mut dyn FaultInjector) {
        let _ = injector.on_request("bad.oai", "/x");
    }
}
