//! Reproduce **Figure 11**: IPC of the bit-sliced microarchitecture vs.
//! the ideal (unpipelined EX) machine and simple pipelining, for
//! slice-by-2 and slice-by-4, with the five techniques applied
//! cumulatively. Also prints the Fig. 10 pipeline configurations and the
//! §7.1 way-mispredict statistic.
//!
//! Usage: `cargo run --release -p popk-bench --bin fig11
//! [instr_budget] [--json] [--threads N] [--resume]`
//!
//! The sweep is journaled under `.popk/`: with `--resume` a run killed
//! mid-sweep replays its completed rows from the journal and reruns the
//! interrupted row from instruction zero.

use popk_bench::{fig11_report_journaled, Cli, HostMeter};

fn main() {
    let cli = Cli::parse();
    let journal = cli.journal("fig11", "");
    let meter = HostMeter::start(cli.threads);
    let rep = fig11_report_journaled(cli.limit, cli.threads, Some(&journal));
    rep.finish(&cli, &meter, Some(&journal));
}
