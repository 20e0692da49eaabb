//! Reproduce **Figure 6**: percent of branch mispredictions detectable
//! within k low-order bits of the comparison (cumulative from bit 0),
//! 64K-entry gshare, all benchmarks — plus the §5.3 aggregates (beq/bne
//! share of branches and of mispredictions).
//!
//! Usage: `cargo run --release -p popk-bench --bin fig6 [instr_budget]
//! [--threads N]`

use popk_bench::fmt::render;
use popk_bench::{fig6, Cli};

fn main() {
    let cli = Cli::parse();
    let limit = cli.limit;
    println!("Figure 6: early branch misprediction detection ({limit} instructions, 64K gshare)\n");
    let reports = fig6(limit, cli.threads);

    let bits = [1u32, 2, 4, 8, 16, 24, 31, 32];
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(bits.iter().map(|b| format!("≤{b}b")))
        .chain(["acc", "mispr"].iter().map(|s| s.to_string()))
        .collect();
    let mut rows = Vec::new();
    let (mut tot_br, mut tot_eqne, mut tot_mis, mut tot_eqne_mis) = (0u64, 0u64, 0u64, 0u64);
    let mut detect_sum = vec![0.0f64; bits.len()];
    for (name, r) in &reports {
        let mut row = vec![name.to_string()];
        for (i, &b) in bits.iter().enumerate() {
            let v = r.percent_detected_within(b);
            detect_sum[i] += v;
            row.push(format!("{v:.0}%"));
        }
        row.push(format!("{:.1}%", 100.0 * r.accuracy()));
        row.push(r.mispredicts.to_string());
        rows.push(row);
        tot_br += r.branches;
        tot_eqne += r.eq_ne_branches;
        tot_mis += r.mispredicts;
        tot_eqne_mis += r.eq_ne_mispredicts;
    }
    let mut avg = vec!["AVG".to_string()];
    for s in &detect_sum {
        avg.push(format!("{:.0}%", s / reports.len() as f64));
    }
    avg.push(String::new());
    avg.push(String::new());
    rows.push(avg);
    println!("{}", render(&header, &rows));

    println!(
        "beq/bne share of dynamic branches: {:.0}% (paper: 61%)",
        100.0 * tot_eqne as f64 / tot_br.max(1) as f64
    );
    println!(
        "beq/bne share of mispredictions:   {:.0}% (paper: 48%)",
        100.0 * tot_eqne_mis as f64 / tot_mis.max(1) as f64
    );
    println!(
        "avg mispredictions detectable within 8 bits: {:.0}% (paper: ~50%)",
        detect_sum[3] / reports.len() as f64
    );
    println!(
        "avg detectable from bit 0 alone:             {:.0}% (paper: 28%)",
        detect_sum[0] / reports.len() as f64
    );
}
