//! Per-replica admission parameters.
//!
//! Each replica endpoint's [`shield5g_mw::AdmissionLayer`] enforces
//! these in virtual time: an arrival is shed at the door when the
//! replica already holds `capacity` requests, and an admitted request is
//! shed when its queueing wait has outlived `deadline` by the time a
//! worker frees up — serving it anyway would return an authentication
//! response the AMF-side timer has long abandoned, while still burning
//! enclave transitions.

use shield5g_sim::time::SimDuration;

/// Admission-control parameters for one replica endpoint.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum requests in flight (serving + waiting).
    pub capacity: usize,
    /// Maximum queueing wait before a request is shed. Mirrors the NAS
    /// authentication supervision timer: a response slower than this is
    /// useless to the caller.
    pub deadline: SimDuration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            deadline: SimDuration::from_millis(250),
        }
    }
}
