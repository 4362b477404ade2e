//! Seeded SH004 fixture: raw key bytes written into the world's
//! transcript. `EventLog::record` takes its message as `format_args!`,
//! so the macro is the sink — whether or not the log is enabled when
//! the line runs.

pub fn log_installed_key(env: &mut Env, k: &SecretBytes<16>) {
    env.log.record(
        env.clock.now(),
        "aka",
        format_args!("installed key {:02x?}", k.expose()),
    );
}

/// Clean: only length metadata of the raw bytes reaches the transcript.
pub fn log_key_size(env: &mut Env, k: &SecretBytes<16>) {
    let raw = k.expose();
    env.log
        .record(env.clock.now(), "aka", format_args!("key length {}", raw.len()));
}
