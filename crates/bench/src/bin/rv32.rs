//! RV32 suite sweep: per-workload IPC across the headline machine
//! configurations, through the same timing core as the PISA figures via
//! the ISA-neutral micro-op boundary.
//!
//! Usage: `cargo run --release -p popk-bench --bin rv32
//! [instr_budget] [--json] [--threads N] [--oracle]`
//!
//! With `--oracle`, every simulation replays the RV32 functional
//! machine in commit-time lockstep with the timing pipeline and any
//! divergence is reported as a row failure; the process exits nonzero
//! if any remain.

use popk_bench::{rv32_report_with, Cli, HostMeter};

fn main() {
    let cli = Cli::parse();
    let meter = HostMeter::start(cli.threads);
    let rep = rv32_report_with(cli.limit, cli.threads, cli.oracle);
    rep.finish(&cli, &meter, None);
}
