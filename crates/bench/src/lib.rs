//! Benchmark harness support: shared table-printing helpers for the
//! per-figure/per-table bench targets in `benches/`.
//!
//! Each bench target is a plain `main` (no criterion harness) that runs
//! the corresponding experiment from `shield5g-core::harness` /
//! `shield5g-ran` and prints the rows the paper reports, side by side
//! with the published values where the paper gives absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod sweeps;

use shield5g_core::stats::Summary;
use shield5g_obs::export;
use shield5g_obs::hub::ObsHandle;

/// Default repetition count for bench runs. The paper uses 500; the
/// default here keeps `cargo bench` comfortably fast while remaining
/// statistically stable (the simulation is deterministic per seed).
/// Override with the `SHIELD5G_REPS` environment variable.
#[must_use]
pub fn reps() -> u32 {
    std::env::var("SHIELD5G_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// True when `SHIELD5G_BENCH_SMOKE` is set to anything but `0`: CI smoke
/// mode. Bench targets shrink their sweeps to one cheap configuration
/// and a single repetition so the whole binary runs in seconds — the
/// point is catching harness regressions (panics, API drift, degenerate
/// outputs), not producing paper-grade statistics.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("SHIELD5G_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Prints a banner for an experiment.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("    (reproduces {paper_ref})");
}

/// Formats a summary as `median [p25..p75]`.
#[must_use]
pub fn fmt_summary(s: &Summary) -> String {
    format!("{} [{}..{}]", s.median, s.p25, s.p75)
}

/// Prints a `measured vs paper` line.
pub fn compare(label: &str, measured: impl std::fmt::Display, paper: &str) {
    println!("    {label:44} measured {measured:>14}   paper {paper}");
}

/// Writes `contents` as `name` into the observability artifact directory
/// (`$SHIELD5G_OBS_DIR`, default `target/obs`). An empty artifact is an
/// exporter bug: the bench exits non-zero so CI fails the build instead
/// of archiving a hollow file.
pub fn write_obs_artifact(name: &str, contents: &str) {
    match export::write_artifact(&export::obs_dir(), name, contents) {
        Ok(path) => println!("    wrote {}", path.display()),
        Err(e) => {
            eprintln!("obs export failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Emits a `BENCH_<name>.json` document whose trailing `"runner"` line
/// carries the sweep runner's wall-time/threads/speedup block — the one
/// line excluded from thread-count byte-identity comparisons.
pub fn emit_bench_json_with_runner(name: &str, points: &[String], stats: &runner::RunnerStats) {
    write_obs_artifact(
        &format!("BENCH_{name}.json"),
        &export::bench_json_with_runner(name, points, &stats.to_json()),
    );
}

/// Dumps a recording hub's registry (Prometheus text + JSONL) and span
/// log (JSONL) under `<prefix>_…` in the artifact directory.
pub fn export_hub(prefix: &str, hub: &ObsHandle) {
    hub.with(|o| {
        write_obs_artifact(
            &format!("{prefix}_metrics.prom"),
            &export::prometheus(&o.registry),
        );
        write_obs_artifact(
            &format!("{prefix}_metrics.jsonl"),
            &export::metrics_jsonl(&o.registry),
        );
        write_obs_artifact(
            &format!("{prefix}_spans.jsonl"),
            &export::spans_jsonl(&o.spans),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::time::SimDuration;

    #[test]
    fn reps_default() {
        if std::env::var("SHIELD5G_REPS").is_err() {
            assert_eq!(reps(), 200);
        }
    }

    #[test]
    fn fmt_summary_contains_median() {
        let s = Summary::of(&[SimDuration::from_micros(47)]);
        assert!(fmt_summary(&s).contains("47"));
    }
}
