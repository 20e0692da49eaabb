//! Microbenchmarks of the substrates: emulator throughput, cache probes
//! (full vs. partial tag), branch predictors, and the bit-slice ALU — the
//! inner loops every experiment rests on.
//!
//! Run with `cargo bench -p popk-bench --bench substrates`.

use popk_bench::timing::bench;
use popk_bpred::{Bimodal, DirectionPredictor, Gshare};
use popk_cache::{Cache, CacheConfig};
use popk_emu::Machine;
use popk_slice::{AluSliceOp, SliceAlu, SliceWidth};
use popk_workloads::by_name;

fn bench_emulator() {
    for name in ["ijpeg", "mcf"] {
        let program = by_name(name).unwrap().program();
        let s = bench(&format!("emulator/trace_50k/{name}"), 5, || {
            let mut m = Machine::new(&program);
            let mut n = 0u64;
            for rec in m.trace(50_000) {
                std::hint::black_box(rec.unwrap());
                n += 1;
            }
            n
        });
        println!("  -> {:.1} M insns/s", s.elems_per_sec(50_000) / 1e6);
    }
}

fn bench_cache() {
    let cfg = CacheConfig::l1d_table2();
    let addrs: Vec<u32> = (0..4096u32).map(|i| 0x1000_0000 + i * 68 * 4).collect();
    let mut cache = Cache::new(cfg);
    let s = bench("cache/access_stream", 20, || {
        let mut hits = 0u32;
        for &a in &addrs {
            hits += cache.access(a).hit as u32;
        }
        hits
    });
    println!(
        "  -> {:.1} M accesses/s",
        s.elems_per_sec(addrs.len() as u64) / 1e6
    );

    let mut warm = Cache::new(cfg);
    for &a in &addrs {
        warm.access(a);
    }
    let s = bench("cache/partial_probe_2bits", 20, || {
        let mut n = 0u32;
        for &a in &addrs {
            n += matches!(
                warm.partial_probe(a, 2),
                popk_cache::PartialOutcome::ZeroMatch
            ) as u32;
        }
        n
    });
    println!(
        "  -> {:.1} M probes/s",
        s.elems_per_sec(addrs.len() as u64) / 1e6
    );
}

fn bench_predictors() {
    let pcs: Vec<u32> = (0..4096u32).map(|i| 0x0040_0000 + (i % 257) * 4).collect();
    let mut gshare = Gshare::new(16);
    bench("bpred/gshare_64k", 20, || {
        let mut taken = 0u32;
        for (i, &pc) in pcs.iter().enumerate() {
            taken += gshare.predict(pc) as u32;
            gshare.update(pc, i % 3 != 0);
        }
        taken
    });
    let mut bimodal = Bimodal::new(11);
    bench("bpred/bimodal_2k", 20, || {
        let mut taken = 0u32;
        for (i, &pc) in pcs.iter().enumerate() {
            taken += bimodal.predict(pc) as u32;
            bimodal.update(pc, i % 3 != 0);
        }
        taken
    });
}

fn bench_slice_alu() {
    for width in [SliceWidth::W32, SliceWidth::W16, SliceWidth::W8] {
        let alu = SliceAlu::new(width);
        bench(&format!("slice_alu/add_sliced/{width}"), 20, || {
            let mut acc = 0u32;
            for i in 0..4096u32 {
                acc ^= alu
                    .eval(AluSliceOp::Add, i.wrapping_mul(2654435761), acc)
                    .join();
            }
            acc
        });
    }
}

fn main() {
    bench_emulator();
    bench_cache();
    bench_predictors();
    bench_slice_alu();
}
