//! Reproduce **Figure 2**: early load-store disambiguation categories vs.
//! cumulative address bits compared (from bit 2), 32-entry unified LSQ,
//! for bzip and gcc by default, or for the workloads named on the
//! command line.
//!
//! Usage: `cargo run --release -p popk-bench --bin fig2
//! [instr_budget] [names…]`, in any order.

use popk_bench::fmt::render;
use popk_bench::{fig2, Cli};
use popk_characterize::DisambigCategory;
use popk_workloads::by_name;

fn main() {
    let limit = Cli::parse().limit;
    // Workload names are the arguments the registry recognises ([`Cli`]
    // already took the budget and ignores every other word).
    let named: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| by_name(a).is_some())
        .collect();
    let names: Vec<&str> = if named.is_empty() {
        vec!["bzip", "gcc"]
    } else {
        named.iter().map(String::as_str).collect()
    };

    println!("Figure 2: early load-store disambiguation ({limit} instructions, 32-entry LSQ)\n");
    for (name, report) in fig2(&names, limit) {
        println!("== {name} ==  ({} loads)\n", report.loads);
        let header: Vec<String> = std::iter::once("bit".to_string())
            .chain(DisambigCategory::ALL.iter().map(|c| c.label().to_string()))
            .collect();
        let mut rows = Vec::new();
        for bit in [2u32, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 31] {
            let pcts = report.percent_at_bit(bit);
            let mut r = vec![bit.to_string()];
            r.extend(pcts.iter().map(|p| format!("{p:.1}%")));
            rows.push(r);
        }
        println!("{}", render(&header, &rows));
        println!(
            "loads fully resolved after 9 compared bits (paper: all ruled out or a unique match): {:.1}%\n",
            report.resolved_after_bits(9)
        );
    }
}
