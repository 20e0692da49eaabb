//! Sweep determinism across thread counts: `--threads 1` (fully serial)
//! and `--threads 4` must produce **byte-identical** JSON artifacts,
//! modulo the volatile `host` timing block, for the `table1` and
//! `ablations` sweeps at a 20 K budget.
//!
//! The job pool hands results back in submission order regardless of
//! which worker ran what, and the simulator is a pure function of
//! (program, config, budget) — so the serialized artifact must not
//! depend on the worker count at all. These tests pin that property
//! through the same report builders the binaries use.

use popk_bench::{ablations_report_journaled, table1_report_journaled, Report};

const BUDGET: u64 = 20_000;

/// Serialize a report's artifact with any `host` block stripped (the
/// builders never attach one, but strip defensively so the comparison
/// stays honest if that changes).
fn artifact_bytes(rep: Report) -> String {
    let mut body = rep.artifact.json().clone();
    body.remove("host");
    body.to_pretty(2)
}

#[test]
fn table1_threads1_equals_threads4() {
    let serial = artifact_bytes(table1_report_journaled(BUDGET, 1, false, None));
    let pooled = artifact_bytes(table1_report_journaled(BUDGET, 4, false, None));
    assert!(
        serial == pooled,
        "table1 artifact differs between --threads 1 and --threads 4"
    );
    assert!(serial.contains("\"figure\": \"table1\""));
}

#[test]
fn ablations_threads1_equals_threads4() {
    let serial = ablations_report_journaled(BUDGET, 1, None);
    let pooled = ablations_report_journaled(BUDGET, 4, None);
    // The printed report must match too — it is assembled from the same
    // submission-ordered results.
    assert!(
        serial.text == pooled.text,
        "ablations printed report differs between --threads 1 and --threads 4"
    );
    let serial = artifact_bytes(serial);
    let pooled = artifact_bytes(pooled);
    assert!(
        serial == pooled,
        "ablations artifact differs between --threads 1 and --threads 4"
    );
    assert!(serial.contains("\"figure\": \"ablations\""));
}
