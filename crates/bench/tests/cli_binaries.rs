//! The characterization binaries (`fig2`, `fig4`, `fig6`) parse their
//! command line through the same `Cli` as the report binaries: budget,
//! workload names and flags in any order, unknown words ignored.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&stderr)
    );
    String::from_utf8(stdout).expect("utf-8 report")
}

#[test]
fn fig2_takes_workload_names_and_flags_in_any_order() {
    let exe = env!("CARGO_BIN_EXE_fig2");
    for args in [&["4000", "gcc", "--threads", "2"][..], &["gcc", "4_000"]] {
        let out = run(exe, args);
        assert!(out.contains("(4000 instructions"), "{args:?}: {out}");
        assert!(out.contains("== gcc =="), "{args:?}: {out}");
        assert!(!out.contains("== bzip =="), "{args:?}: {out}");
    }
    // With no names it reports the paper's pair.
    let out = run(exe, &["--threads=1", "3000"]);
    assert!(out.contains("== bzip ==") && out.contains("== gcc =="));
}

#[test]
fn fig4_and_fig6_accept_flags_around_the_budget() {
    let out = run(env!("CARGO_BIN_EXE_fig4"), &["3000", "--threads", "2"]);
    assert!(out.contains("Figure 4: partial tag matching (3000 instructions)"));
    let serial = run(env!("CARGO_BIN_EXE_fig6"), &["3000", "--threads", "1"]);
    assert!(serial.contains("(3000 instructions, 64K gshare)"));
    assert_eq!(
        serial,
        run(env!("CARGO_BIN_EXE_fig6"), &["--threads", "2", "3000"])
    );
}
