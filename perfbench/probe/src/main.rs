//! Layer probe for the popk benchmark.
//!
//! `popk-probe ledger <work_dir> <spans.json>` times calls into each
//! crate's public functions on a fixed input set (the same on every
//! workload, so a layer's number compares across workloads and commits)
//! and prints one JSON object of per-layer metrics as its last stdout
//! line. Spans (name, start, end, parent, row) are kept in memory and
//! written to `<spans.json>` when the ledger ends. Scratch files go
//! under `<work_dir>`.
//!
//! `popk-probe simcheck <workload> <config> <seed> <limit> ...` prints,
//! one compact JSON line per key, the job body an in-process
//! `try_simulate` gives — what `popk serve` must answer for that key.
//!
//! Differences such as "simulate minus frontend drain" are taken per
//! repetition and reported as the median over repetitions.

use popk_bench::{fig11_journaled, fig11_report_journaled, parse_config, pool};
use popk_bench::{ArtifactCache, JobKey, SweepJournal};
use popk_characterize::{drive, BranchStudy, DisambigStudy, TagMatchStudy, TraceSink};
use popk_core::{try_simulate, try_simulate_checkpointed, try_simulate_frontend};
use popk_core::{Checkpoint, CheckpointPlan, MachineConfig, Optimizations, SimStats};
use popk_core::{Json, StatsRegistry};
use popk_emu::PisaFrontend;
use popk_isa::Program;
use popk_rv32::{Rv32Frontend, Rv32Program};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Budget for frontend drains and characterization studies.
const TRACE_LIMIT: u64 = 200_000;
/// Budget per timing-core run (one run per program and config).
const CORE_LIMIT: u64 = 40_000;
/// Budget per RV32 run with and without the oracle.
const RV32_LIMIT: u64 = 50_000;
/// Budget per job of the pool sweep (the Fig. 11 rows).
const POOL_LIMIT: u64 = 20_000;
/// Repetitions of each timed layer; the median is reported.
const REPS: usize = 3;
/// Programs driven through the characterization studies.
const CHARZ_SET: [&str; 4] = ["bzip", "gcc", "mcf", "twolf"];
/// Fig. 11 row labels, in the runner's order.
const FIG11_LABELS: [&str; 13] = [
    "ideal", "slice2-0", "slice2-1", "slice2-2", "slice2-3", "slice2-4", "slice2-5", "slice4-0",
    "slice4-1", "slice4-2", "slice4-3", "slice4-4", "slice4-5",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ledger") if args.len() == 3 => ledger(Path::new(&args[1]), Path::new(&args[2])),
        Some("simcheck") if args.len() > 1 && (args.len() - 1).is_multiple_of(4) => {
            simcheck(&args[1..])
        }
        _ => {
            eprintln!(
                "usage: popk-probe ledger <work_dir> <spans.json>\n       \
                 popk-probe simcheck <workload> <config> <seed> <limit> ..."
            );
            std::process::exit(2);
        }
    }
}

// ---- spans -------------------------------------------------------------------

struct Span {
    name: String,
    row: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; times are seconds since the probe started.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    fn span<R>(&mut self, name: &str, row: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            row: row.to_string(),
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[id].end = end;
        (r, end - start)
    }

    /// Record an already-timed span under the current parent.
    fn record(&mut self, name: &str, row: &str, start: f64, end: f64) {
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            row: row.to_string(),
            parent,
            start,
            end,
        });
    }

    fn write(&self, path: &Path) {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"row\":\"{}\",\"parent\":{parent},\"start\":{},\"end\":{}}}{}\n",
                s.name,
                s.row,
                s.start,
                s.end,
                if id + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).expect("write spans file");
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ---- layer helpers -------------------------------------------------------------

fn drain_pisa(p: &Program, limit: u64) -> u64 {
    let mut n = 0;
    for rec in PisaFrontend::new(p, limit) {
        black_box(rec.expect("PISA emulation"));
        n += 1;
    }
    n
}

fn drain_rv32(p: &Rv32Program, limit: u64) -> u64 {
    let mut n = 0;
    for rec in Rv32Frontend::new(p, limit) {
        black_box(rec.expect("RV32 emulation"));
        n += 1;
    }
    n
}

fn sim(p: &Program, cfg: &MachineConfig, limit: u64) -> SimStats {
    try_simulate(p, cfg, limit).expect("simulation")
}

fn fig11_configs() -> Vec<MachineConfig> {
    let mut cfgs = vec![MachineConfig::ideal()];
    for level in 0..=5 {
        cfgs.push(MachineConfig::slice2(Optimizations::level(level)));
    }
    for level in 0..=5 {
        cfgs.push(MachineConfig::slice4(Optimizations::level(level)));
    }
    cfgs
}

/// A characterization study, freshly constructed per drive.
fn study(kind: &str) -> Box<dyn TraceSink> {
    match kind {
        "disambig" => Box::new(DisambigStudy::new(32)),
        "tagmatch" => Box::new(TagMatchStudy::new(popk_cache::CacheConfig::small_8k(4))),
        _ => Box::new(BranchStudy::table2()),
    }
}

// ---- the ledger ------------------------------------------------------------------

fn ledger(work: &Path, spans_path: &Path) {
    std::fs::create_dir_all(work).expect("create work dir");
    let threads = pool::default_threads();
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    };
    let mut m: Vec<(&str, f64)> = Vec::new();
    tr.span("ledger", "", |tr| {
        let suite = popk_workloads::all();

        // popk-workloads: program build.
        let mut build = Vec::new();
        let mut programs = Vec::new();
        for rep in 0..5 {
            let (ps, dt) = tr.span("workloads.build", &format!("rep{rep}"), |_| {
                suite.iter().map(|w| w.program()).collect::<Vec<Program>>()
            });
            build.push(dt * 1e3);
            programs = ps;
        }
        m.push(("workloads.build_ms", median(build)));

        // popk-emu: PISA frontend drain.
        let mut emu = Vec::new();
        for rep in 0..REPS {
            let (n, dt) = tr.span("emu.drain", &format!("rep{rep}"), |_| {
                programs
                    .iter()
                    .map(|p| drain_pisa(p, TRACE_LIMIT))
                    .sum::<u64>()
            });
            emu.push(dt * 1e9 / n as f64);
        }
        m.push(("emu.ns_per_inst", median(emu)));

        // popk-characterize: drive with one study minus drive with none.
        let charz: Vec<&Program> = CHARZ_SET
            .iter()
            .map(|n| &programs[suite.iter().position(|w| w.name == *n).expect("workload")])
            .collect();
        let mut deltas: Vec<(&str, &str, Vec<f64>)> = [
            ("characterize.ns_per_inst.disambig", "disambig"),
            ("characterize.ns_per_inst.tagmatch", "tagmatch"),
            ("characterize.ns_per_inst.branch", "branch"),
        ]
        .iter()
        .map(|&(name, kind)| (name, kind, Vec::new()))
        .collect();
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let (n, base) = tr.span("characterize.drive", &format!("none/{row}"), |_| {
                charz
                    .iter()
                    .map(|p| drive(p, TRACE_LIMIT, &mut []).expect("drive"))
                    .sum::<u64>()
            });
            for (_, kind, out) in &mut deltas {
                let (_, dt) = tr.span("characterize.drive", &format!("{kind}/{row}"), |_| {
                    for p in &charz {
                        let mut s = study(kind);
                        drive(p, TRACE_LIMIT, &mut [s.as_mut()]).expect("drive");
                        black_box(&s);
                    }
                });
                out.push((dt - base) * 1e9 / n as f64);
            }
        }
        for (name, _, v) in deltas {
            m.push((name, median(v)));
        }

        // popk-core: try_simulate minus a frontend drain, per config family.
        let families = [
            ("core.ns_per_inst.ideal", "ideal", MachineConfig::ideal()),
            (
                "core.ns_per_inst.slice2",
                "slice2",
                MachineConfig::slice2_full(),
            ),
            (
                "core.ns_per_inst.slice4",
                "slice4",
                MachineConfig::slice4_full(),
            ),
        ];
        let (mut cycles, mut committed) = (0u64, 0u64);
        let (mut sim_s, mut sim_cycles) = (Vec::new(), Vec::new());
        let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); families.len()];
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let (_, drain) = tr.span("emu.drain", &format!("core-budget/{row}"), |_| {
                programs
                    .iter()
                    .map(|p| drain_pisa(p, CORE_LIMIT))
                    .sum::<u64>()
            });
            let (mut t_rep, mut c_rep) = (0.0, 0u64);
            for (fi, (_, fam, cfg)) in families.iter().enumerate() {
                let (stats, dt) = tr.span("core.simulate", &format!("{fam}/{row}"), |_| {
                    programs
                        .iter()
                        .map(|p| sim(p, cfg, CORE_LIMIT))
                        .collect::<Vec<_>>()
                });
                let reg: Vec<StatsRegistry> = stats.iter().map(StatsRegistry::from_sim).collect();
                let fam_cycles: u64 = reg.iter().map(|r| r.get("cycles").expect("cycles")).sum();
                let fam_committed: u64 = reg
                    .iter()
                    .map(|r| r.get("committed").expect("committed"))
                    .sum();
                if rep == 0 {
                    cycles += fam_cycles;
                    committed += fam_committed;
                }
                per_family[fi].push((dt - drain) * 1e9 / fam_committed as f64);
                t_rep += dt;
                c_rep += fam_cycles;
            }
            sim_s.push(t_rep);
            sim_cycles.push(c_rep as f64);
        }
        for ((name, _, _), v) in families.iter().zip(per_family) {
            m.push((name, median(v)));
        }
        let per_cycle: Vec<f64> = sim_s
            .iter()
            .zip(&sim_cycles)
            .map(|(t, c)| t * 1e9 / c)
            .collect();
        m.push(("core.ns_per_cycle", median(per_cycle)));
        m.push(("core.cycles", cycles as f64));
        m.push(("core.committed", committed as f64));

        // Checkpoint layer: checkpointed runs at the runners' interval
        // (each checkpoint saved, as the journaled sweeps do) minus plain runs.
        let cfg = MachineConfig::slice2_full();
        let interval = (CORE_LIMIT / 4).max(1_000);
        let ckpt_dir = work.join("ckpt");
        let last: Arc<Mutex<Option<Checkpoint>>> = Arc::new(Mutex::new(None));
        let mut ckpt = Vec::new();
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let (n, plain) = tr.span("core.simulate", &format!("slice2-plain/{row}"), |_| {
                programs
                    .iter()
                    .map(|p| sim(p, &cfg, CORE_LIMIT).committed)
                    .sum::<u64>()
            });
            let (_, with) = tr.span("checkpoint.simulate", &row, |_| {
                for (w, p) in suite.iter().zip(&programs) {
                    let path = ckpt_dir.join(format!("{}.ckpt", w.name));
                    let keep = last.clone();
                    let plan = CheckpointPlan::periodic(
                        w.name,
                        cfg.fingerprint(),
                        CORE_LIMIT,
                        interval,
                        move |c: Checkpoint| {
                            let _ = c.save(&path);
                            *keep.lock().expect("checkpoint slot") = Some(c);
                        },
                    );
                    try_simulate_checkpointed(p, &cfg, CORE_LIMIT, plan).expect("checkpointed run");
                }
            });
            ckpt.push((with - plain) * 1e9 / n as f64);
        }
        m.push(("checkpoint.ns_per_inst", median(ckpt)));
        let c = last
            .lock()
            .expect("checkpoint slot")
            .take()
            .expect("a checkpoint was emitted");
        let save_path = ckpt_dir.join("save.ckpt");
        let mut saves = Vec::new();
        for i in 0..20 {
            let (r, dt) = tr.span("checkpoint.save", &format!("save{i}"), |_| {
                c.save(&save_path)
            });
            r.expect("checkpoint save");
            saves.push(dt * 1e3);
        }
        m.push(("checkpoint.save_ms", median(saves)));
        let bytes = std::fs::metadata(&save_path)
            .expect("checkpoint file")
            .len();
        m.push(("checkpoint.bytes", bytes as f64));

        // popk-rv32 and the commit-time oracle.
        let rv32: Vec<Rv32Program> = popk_rv32::workloads::all()
            .iter()
            .map(|w| w.program())
            .collect();
        let mut rv = Vec::new();
        for rep in 0..REPS {
            let (n, dt) = tr.span("rv32.drain", &format!("rep{rep}"), |_| {
                rv32.iter().map(|p| drain_rv32(p, TRACE_LIMIT)).sum::<u64>()
            });
            rv.push(dt * 1e9 / n as f64);
        }
        m.push(("rv32.ns_per_inst", median(rv)));
        let mut oracle = Vec::new();
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let mut t = [0.0; 2];
            let mut n = 0u64;
            for (i, on) in [false, true].into_iter().enumerate() {
                let mut cfg = MachineConfig::slice2_full();
                cfg.oracle = on;
                let name = if on {
                    "oracle.simulate"
                } else {
                    "core.simulate"
                };
                let (c, dt) = tr.span(name, &format!("rv32/{row}"), |_| {
                    rv32.iter()
                        .map(|p| {
                            try_simulate_frontend(&cfg, Rv32Frontend::new(p, RV32_LIMIT))
                                .expect("rv32 simulation")
                                .committed
                        })
                        .sum::<u64>()
                });
                t[i] = dt;
                n = c;
            }
            oracle.push((t[1] - t[0]) * 1e9 / n as f64);
        }
        m.push(("oracle.ns_per_inst", median(oracle)));

        // Journal, report rendering and the artifact write, on the 143
        // Fig. 11 rows. Payloads are real per-workload stats.
        let payloads: Vec<SimStats> = programs
            .iter()
            .map(|p| sim(p, &MachineConfig::slice2_full(), CORE_LIMIT))
            .collect();
        let rows: Vec<(String, usize)> = suite
            .iter()
            .enumerate()
            .flat_map(|(wi, w)| {
                FIG11_LABELS
                    .iter()
                    .map(move |l| (format!("fig11/{}/{l}", w.name), wi))
            })
            .collect();
        let jdir = work.join("journal");
        let (mut open, mut record, mut finish, mut render, mut write) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut jbytes = 0;
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let (j, dt) = tr.span("journal.open", &row, |_| {
                SweepJournal::open(&jdir, "fig11", CORE_LIMIT, "", false)
            });
            open.push(dt * 1e3);
            let (_, dt) = tr.span("journal.record", &row, |_| {
                for (id, wi) in &rows {
                    j.record_start(id);
                    j.record_done(id, payloads[*wi].to_json());
                }
            });
            record.push(dt * 1e6 / rows.len() as f64);
            jbytes = std::fs::metadata(jdir.join("fig11.journal"))
                .expect("journal file")
                .len();
            drop(j);
            let (j, _) = tr.span("journal.replay", &row, |_| {
                SweepJournal::open(&jdir, "fig11", CORE_LIMIT, "", true)
            });
            // Rendering is sub-millisecond: take it as the report over
            // replayed rows minus the bare replay, on one thread, as
            // the median of several interleaved pairs.
            let mut pairs = Vec::new();
            let mut report = None;
            for i in 0..9 {
                let (data, replay) = tr.span("reports.replay", &format!("{row}/{i}"), |_| {
                    fig11_journaled(CORE_LIMIT, 1, Some(&j))
                });
                assert!(data.failures.is_empty(), "replayed rows failed");
                let (rep, dt) = tr.span("reports.render", &format!("{row}/{i}"), |_| {
                    fig11_report_journaled(CORE_LIMIT, 1, Some(&j))
                });
                assert_eq!(rep.failures, 0, "replayed report has failures");
                pairs.push((dt - replay) * 1e3);
                report = Some(rep);
            }
            render.push(median(pairs));
            let rep = report.expect("a rendered report");
            let (r, dt) = tr.span("artifact.write", &row, |_| rep.artifact.write_in(&jdir));
            r.expect("artifact write");
            write.push(dt * 1e3);
            let (_, dt) = tr.span("journal.finish", &row, |_| j.finish());
            finish.push(dt * 1e3);
        }
        m.push(("journal.open_ms", median(open)));
        m.push(("journal.record_us", median(record)));
        m.push(("journal.finish_ms", median(finish)));
        m.push(("journal.bytes", jbytes as f64));
        m.push(("reports.render_ms", median(render)));
        m.push(("artifact.write_ms", median(write)));

        // pool: the Fig. 11 rows as one sweep, each job timed from outside.
        let cfgs = fig11_configs();
        let jobs: Vec<(usize, usize)> = (0..programs.len())
            .flat_map(|pi| (0..cfgs.len()).map(move |ci| (pi, ci)))
            .collect();
        let t0 = tr.t0;
        let (done, _) = tr.span("pool.sweep", "fig11-rows", |tr| {
            let start = tr.now();
            let done = pool::map_jobs(threads, &jobs, |&(pi, ci)| {
                let a = t0.elapsed().as_secs_f64();
                black_box(sim(&programs[pi], &cfgs[ci], POOL_LIMIT));
                let b = t0.elapsed().as_secs_f64();
                (format!("{:?}", std::thread::current().id()), a, b)
            });
            let end = tr.now();
            for ((pi, ci), (_, a, b)) in jobs.iter().zip(&done) {
                tr.record(
                    "pool.job",
                    &format!("{}/{}", suite[*pi].name, FIG11_LABELS[*ci]),
                    *a,
                    *b,
                );
            }
            (done, start, end)
        });
        let (done, start, end) = done;
        let busy: f64 = done.iter().map(|(_, a, b)| b - a).sum();
        let workers = threads.min(jobs.len()).max(1);
        m.push(("pool.busy_ratio", busy / (workers as f64 * (end - start))));
        let mut last_end: Vec<(String, f64)> = Vec::new();
        for (tid, _, b) in &done {
            match last_end.iter_mut().find(|(t, _)| t == tid) {
                Some((_, e)) => *e = e.max(*b),
                None => last_end.push((tid.clone(), *b)),
            }
        }
        let first_idle = last_end
            .iter()
            .map(|(_, e)| *e)
            .fold(f64::INFINITY, f64::min);
        m.push(("pool.tail_s", end - first_idle));

        // ArtifactCache: store, hit lookups and miss lookups of job bodies.
        let cache = ArtifactCache::new(work.join("cache"));
        let keys: Vec<(JobKey, String)> = suite
            .iter()
            .enumerate()
            .flat_map(|(wi, w)| {
                let cfg = MachineConfig::slice2_full();
                let stats = &payloads[wi];
                (0..6u64).map(move |seed| {
                    let key = JobKey::new(w.name, "slice2", &cfg, seed, CORE_LIMIT);
                    let body = ArtifactCache::job_body(&key, stats);
                    (key, body)
                })
            })
            .collect();
        let absent: Vec<JobKey> = keys
            .iter()
            .map(|(k, _)| {
                JobKey::new(
                    &k.workload,
                    "slice2",
                    &MachineConfig::slice2_full(),
                    k.seed + 1_000,
                    CORE_LIMIT,
                )
            })
            .collect();
        let (mut store, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..REPS {
            let row = format!("rep{rep}");
            let (_, dt) = tr.span("cache.store", &row, |_| {
                for (k, body) in &keys {
                    cache.store(k, body).expect("cache store");
                }
            });
            store.push(dt * 1e6 / keys.len() as f64);
            let (_, dt) = tr.span("cache.lookup", &format!("hit/{row}"), |_| {
                for (k, body) in &keys {
                    assert_eq!(
                        cache.lookup(k).as_deref(),
                        Some(body.as_str()),
                        "cache hit body"
                    );
                }
            });
            hit.push(dt * 1e6 / keys.len() as f64);
            let (_, dt) = tr.span("cache.lookup", &format!("miss/{row}"), |_| {
                for k in &absent {
                    assert!(cache.lookup(k).is_none(), "absent key must miss");
                }
            });
            miss.push(dt * 1e6 / absent.len() as f64);
        }
        m.push(("cache.lookup_us.hit", median(hit)));
        m.push(("cache.lookup_us.miss", median(miss)));
        m.push(("cache.store_us", median(store)));
    });
    tr.write(spans_path);
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", body.join(", "));
}

// ---- serve correctness reference --------------------------------------------------

fn simcheck(quads: &[String]) {
    for q in quads.chunks(4) {
        let (workload, config) = (&q[0], &q[1]);
        let seed: u64 = q[2].parse().expect("seed");
        let limit: u64 = q[3].parse().expect("limit");
        let cfg = parse_config(config).expect("known config");
        let w = popk_workloads::by_name(workload).expect("known workload");
        let stats = sim(&w.program(), &cfg, limit);
        let key = JobKey::new(workload, config, &cfg, seed, limit);
        let body = ArtifactCache::job_body(&key, &stats);
        println!("{}", Json::parse(&body).expect("job body parses"));
    }
}
