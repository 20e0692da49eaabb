//! Reproduce **Figure 4**: partial tag matching categories vs. tag bits
//! used — mcf on a 64 KB/64 B cache and twolf on an 8 KB/32 B cache, each
//! at 2/4/8-way associativity.
//!
//! Usage: `cargo run --release -p popk-bench --bin fig4 [instr_budget]`

use popk_bench::fmt::render;
use popk_bench::{fig4, Cli};
use popk_characterize::TagCategory;

fn main() {
    let limit = Cli::parse().limit;
    println!("Figure 4: partial tag matching ({limit} instructions)\n");
    for (name, big, label) in [
        ("mcf", true, "64KB, 64B lines"),
        ("twolf", false, "8KB, 32B lines"),
    ] {
        for report in fig4(name, big, limit) {
            println!(
                "== {name} — {label}, {}-way ==  ({} accesses, hit rate {:.1}%)\n",
                report.config.ways,
                report.accesses,
                100.0 * report.hits as f64 / report.accesses.max(1) as f64
            );
            let header: Vec<String> = ["addr bit", "tag bits"]
                .iter()
                .map(|s| s.to_string())
                .chain(TagCategory::ALL.iter().map(|c| c.label().to_string()))
                .chain(std::iter::once("spec acc".to_string()))
                .collect();
            let mut rows = Vec::new();
            let full = report.config.tag_bits();
            for t in 1..=full {
                // Print a sparse set of rows like the figure's x-axis.
                if t > 8 && t < full && t % 4 != 0 {
                    continue;
                }
                let pcts = report.percent_with_tag_bits(t);
                let mut r = vec![report.bit_position(t).to_string(), t.to_string()];
                r.extend(pcts.iter().map(|p| format!("{p:.1}%")));
                r.push(format!("{:.1}%", 100.0 * report.speculation_accuracy(t)));
                rows.push(r);
            }
            println!("{}", render(&header, &rows));
        }
    }
    println!(
        "Paper's reading: after 16 address bits both caches still show multiple\n\
         partial matches, but `single entry - miss` is already small, so MRU\n\
         way prediction among the matchers is highly accurate."
    );
}
