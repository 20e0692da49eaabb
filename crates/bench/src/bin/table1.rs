//! Reproduce **Table 1**: baseline characteristics of the benchmark
//! suite on the ideal (unpipelined-EX) Table 2 machine.
//!
//! Usage: `cargo run --release -p popk-bench --bin table1
//! [instr_budget] [--json] [--threads N] [--oracle] [--resume]`
//!
//! With `--oracle`, every simulation runs the functional machine in
//! commit-time lockstep with the timing pipeline and any divergence is
//! reported as a row failure; the process exits nonzero if any remain.
//!
//! The sweep is journaled under `.popk/`: with `--resume` a run killed
//! mid-sweep replays its completed rows from the journal and reruns the
//! interrupted row from instruction zero.

use popk_bench::{table1_report_journaled, Cli, HostMeter};

fn main() {
    let cli = Cli::parse();
    let journal = cli.journal("table1", &format!("oracle={}", cli.oracle));
    let meter = HostMeter::start(cli.threads);
    let rep = table1_report_journaled(cli.limit, cli.threads, cli.oracle, Some(&journal));
    rep.finish(&cli, &meter, Some(&journal));
}
