//! Compare any two machine configurations across the full workload suite.
//!
//! Usage:
//! `cargo run --release -p popk-bench --bin compare [cfgA] [cfgB]
//! [limit] [--json] [--threads N]`
//!
//! Configs: ideal | simple2 | simple4 | slice2-N (cumulative level N) |
//! slice4-N | slice2 | slice4 (= level 5) | ext2 | ext4.
//! Default: `slice2 ideal`.

use popk_bench::{compare_report, parse_config, Cli, HostMeter};

fn main() {
    let cli = Cli::parse();
    // Config names are the non-flag, non-numeric tokens ([`Cli`] already
    // consumed the budget and the `--threads` value).
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| parse_config(a).is_some())
        .collect();
    let a_name = names.first().map(String::as_str).unwrap_or("slice2");
    let b_name = names.get(1).map(String::as_str).unwrap_or("ideal");

    let meter = HostMeter::start(cli.threads);
    let Some(rep) = compare_report(a_name, b_name, cli.limit, cli.threads) else {
        eprintln!("unknown config (try: ideal simple2 simple4 slice2 slice4 slice2-3 ext2 …)");
        std::process::exit(1);
    };
    rep.finish(&cli, &meter, None);
}
