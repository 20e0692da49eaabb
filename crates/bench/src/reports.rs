//! Report builders: the printed table plus the JSON artifact for each
//! figure, shared by the report binaries and the threads-equivalence
//! tests.
//!
//! Each builder runs its sweep through the job [`crate::pool`] (one job
//! per workload × configuration) and builds the artifact's row objects
//! from the submission-ordered results; the printed tables and summary
//! lines are then rendered from those same objects (see
//! [`crate::fmt`]), so for a given (budget, workload set) the
//! text and artifact are byte-identical at any thread count and cannot
//! disagree. The volatile `host` timing block is *not* attached here —
//! [`Report::finish`] adds it from the binary's [`HostMeter`] just
//! before writing, and artifact diffing strips it with
//! `Json::remove("host")`.

use crate::artifact::counters_json;
use crate::fmt::{array, as_num, col, f3, field, num, num_at, pct, signed_pct, table, Column};
use crate::journal::SweepJournal;
use crate::runners::{self, drive_counted, geomean, sim, SweepFailure};
use crate::{pool, Artifact, Cli, Fig11Data, HostMeter};
use popk_bpred::{DirKind, FrontEndConfig};
use popk_characterize::{BranchStudy, DisambigStudy, DistanceStudy, WidthStudy};
use popk_core::{Json, MachineConfig, Optimizations};
use popk_isa::Program;
use popk_workloads::by_name;
use std::fmt::Write as _;

/// One figure's complete report: the human-readable text the binary
/// prints and the machine-readable artifact it writes under `--json`.
#[derive(Debug)]
pub struct Report {
    /// The printed report (tables and summary lines, trailing newline).
    pub text: String,
    /// The `BENCH_<figure>.json` artifact body, without the `host` block.
    pub artifact: Artifact,
    /// Sweep jobs that failed (panicked after retry, deadlocked, or
    /// diverged from the oracle). Binaries exit nonzero when this is
    /// positive; a healthy sweep reports zero and its artifact carries
    /// no `failures` key, keeping committed artifact bodies identical.
    pub failures: usize,
}

/// Append a line to the report text (infallible for `String`).
macro_rules! say {
    ($buf:expr, $($arg:tt)*) => { let _ = writeln!($buf, $($arg)*); };
}

/// A JSON object from `key => value` pairs, each value through
/// `Json::from`, in the order given.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {{
        let mut o = Json::object();
        $(o.set($key, Json::from($value));)*
        o
    }};
}

impl Report {
    /// Seal a report: when any job failed, append the `N job(s) FAILED`
    /// lines to the text and the `failures` array to the artifact.
    fn new(mut text: String, mut artifact: Artifact, failures: &[SweepFailure]) -> Report {
        if !failures.is_empty() {
            say!(text, "\n{} job(s) FAILED:", failures.len());
            let mut list = Vec::new();
            for f in failures {
                let (workload, config, message) = (f.workload, &f.config, &f.message);
                say!(
                    text,
                    "  {workload} [{config}]: {message} ({} attempt(s))",
                    f.attempts
                );
                list.push(obj! {
                    "workload" => workload,
                    "config" => config.as_str(),
                    "message" => message.as_str(),
                    "attempts" => u64::from(f.attempts),
                });
            }
            artifact.set("failures", Json::Array(list));
        }
        Report {
            text,
            artifact,
            failures: failures.len(),
        }
    }

    /// The tail every report binary shares: print the report and the
    /// sweep summary, write the artifact with its `host` block under
    /// `--json`, exit nonzero if any job failed, and only then retire
    /// the sweep's journal — so an unsuccessful run stays resumable.
    pub fn finish(mut self, cli: &Cli, meter: &HostMeter, journal: Option<&SweepJournal>) {
        print!("{}", self.text);
        println!("{}", meter.summary());
        if cli.json {
            self.artifact.set("host", meter.host_json());
            self.artifact.emit();
        }
        if self.failures > 0 {
            std::process::exit(1);
        }
        if let Some(j) = journal {
            j.finish();
        }
    }
}

/// Per-workload artifact rows from sweep outcomes, plus the failures: a
/// completed workload's row is `row(name, value)`, a failed one's
/// `{name, error}`.
fn outcome_rows<'a, T: 'a>(
    outcomes: impl IntoIterator<Item = (&'static str, &'a Result<T, SweepFailure>)>,
    row: impl Fn(&'static str, &T) -> Json,
) -> (Vec<Json>, Vec<SweepFailure>) {
    let mut failures = Vec::new();
    let rows = outcomes
        .into_iter()
        .map(|(name, outcome)| match outcome {
            Ok(v) => row(name, v),
            Err(f) => {
                failures.push(f.clone());
                obj! { "name" => name, "error" => f.message.as_str() }
            }
        })
        .collect();
    (rows, failures)
}

/// The rows of an artifact array that completed (carry no `error`).
fn completed(rows: &[Json]) -> impl Iterator<Item = &Json> {
    rows.iter().filter(|r| r.get("error").is_none())
}

/// The leading column of every table: the row's `name`.
fn name_col(header: &str) -> Column<'static> {
    col(header, |r| field(r, "name"))
}

/// Load the named workloads' programs through the pool.
fn programs_for(names: &[&str], threads: usize) -> Vec<Program> {
    pool::map_jobs(threads, names, |name| {
        by_name(name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
            .program()
    })
}

// ---- Table 1 ---------------------------------------------------------------

/// Build the Table 1 report (baseline characteristics, ideal machine).
///
/// With `oracle` set every run cross-checks the timing pipeline against
/// the functional machine at retirement, and any divergence becomes
/// that row's failure. With a `journal` (`--resume`), completed rows
/// replay from recorded counters and the rest run from instruction
/// zero; the report and artifact are byte-identical to an
/// uninterrupted run's.
pub fn table1_report_journaled(
    limit: u64,
    threads: usize,
    oracle: bool,
    journal: Option<&SweepJournal>,
) -> Report {
    let results = runners::table1_journaled(limit, threads, oracle, journal);
    let named = results.iter().map(|r| {
        let name = r.as_ref().map_or_else(|f| f.workload, |row| row.name);
        (name, r)
    });
    let (workloads, failures) = outcome_rows(named, |name, r| {
        obj! {
            "name" => name,
            "instructions" => r.instructions,
            "ipc" => r.ipc,
            "pct_loads" => r.pct_loads,
            "pct_stores" => r.pct_stores,
            "branch_accuracy" => r.branch_accuracy,
        }
    });
    let mean_ipc = geomean(completed(&workloads).map(|w| num(w, "ipc")));

    let mut text = String::new();
    say!(
        text,
        "Table 1: benchmark characteristics (ideal machine, {limit} instructions)\n"
    );
    let cols = [
        name_col("benchmark"),
        col("instrs", |w| field(w, "instructions")),
        col("IPC", |w| f3(num(w, "ipc"))),
        col("% loads", |w| pct(num(w, "pct_loads"))),
        col("% stores", |w| pct(num(w, "pct_stores"))),
        col("branch acc", |w| pct(num(w, "branch_accuracy"))),
    ];
    say!(text, "{}", table(completed(&workloads), &cols));

    let mut artifact = Artifact::new("table1", limit);
    artifact.set("workloads", Json::Array(workloads));
    artifact.set("geomean_ipc", Json::from(mean_ipc));
    say!(
        text,
        "geometric-mean IPC: {:.3}",
        num(artifact.json(), "geomean_ipc")
    );
    if oracle {
        artifact.set("oracle_lockstep", Json::from(true));
        say!(
            text,
            "oracle lockstep: every retirement cross-checked, {} divergence(s)",
            failures.len()
        );
    }
    Report::new(text, artifact, &failures)
}

// ---- Fig. 11 ---------------------------------------------------------------

/// One slicing factor's Fig. 11 results: per-workload IPC at every
/// cumulative level plus the ideal machine, the full-config counter
/// snapshot, and the geomean summary lines.
fn fig11_slice_json(data: &Fig11Data, by4: bool) -> Json {
    let cols = if by4 { &data.slice4 } else { &data.slice2 };
    let workloads = cols.iter().map(|c| {
        obj! {
            "name" => c.name,
            "ideal_ipc" => c.ideal_ipc,
            "level_ipc" => c.level_ipc.into_iter().collect::<Json>(),
            "way_mispredict_rate" => c.way_mispredict_rate,
            "counters" => counters_json(&c.full_stats),
        }
    });
    obj! {
        "workloads" => workloads.collect::<Json>(),
        "geomean_full_vs_ideal" => data.mean_full_vs_ideal(by4),
        "geomean_speedup" => data.mean_speedup(by4),
    }
}

/// The Fig. 10 pipeline configurations heading the Fig. 11 report.
const FIG10: &str = "Figure 10 pipeline configurations (frequency held constant):
  base      : Fetch1..RF2 (12) | EX          | Mem RE CT
  slice-by-2: Fetch1..RF2 (12) | EX1 EX2     | Mem RE CT
  slice-by-4: Fetch1..RF2 (12) | EX1..EX4    | Mem RE CT (L1D 2 cycles)

";

/// Build the Fig. 11 report (IPC stacks for both slicings) from an
/// already-run sweep.
fn fig11_report_from(data: &Fig11Data, limit: u64) -> Report {
    let mut artifact = Artifact::new("fig11", limit);
    artifact.set(
        "levels",
        (0..=5)
            .map(|l| Json::from(Optimizations::level_name(l)))
            .collect(),
    );
    artifact.set("slice2", fig11_slice_json(data, false));
    artifact.set("slice4", fig11_slice_json(data, true));

    let mut text = String::from(FIG10);
    say!(
        text,
        "Figure 11: IPC stacks ({limit} instructions per run)\n"
    );

    let mut cols = vec![name_col("benchmark")];
    cols.extend((0..=5).map(|l| {
        col(Optimizations::level_name(l), move |w| {
            f3(num_at(w, "level_ipc", l))
        })
    }));
    cols.push(col("ideal", |w| f3(num(w, "ideal_ipc"))));
    for (n, key, paper_vs_ideal, paper_way_miss) in [
        (2, "slice2", "paper: within ~1% of ideal", 2),
        (4, "slice4", "paper: 18% below ideal", 1),
    ] {
        let slice = artifact.json().get(key).unwrap_or(&Json::Null);
        let workloads = array(slice, "workloads");
        say!(text, "== {n} slices ==\n");
        say!(text, "{}", table(workloads, &cols));
        say!(
            text,
            "geomean: all-techniques IPC = {:.1}% of ideal ({paper_vs_ideal}); speedup over simple pipelining = {:+.1}%\n",
            100.0 * num(slice, "geomean_full_vs_ideal"),
            100.0 * (num(slice, "geomean_speedup") - 1.0),
        );
        let avg_way_miss = workloads
            .iter()
            .map(|w| num(w, "way_mispredict_rate"))
            .sum::<f64>()
            / workloads.len() as f64;
        say!(
            text,
            "avg partial-tag way-mispredict rate: {:.1}% (paper: ~{paper_way_miss}%)\n",
            100.0 * avg_way_miss,
        );
    }
    Report::new(text, artifact, &data.failures)
}

/// Build the Fig. 11 report, running the sweep on `threads` workers;
/// with a `journal` (`--resume`) each of the 143 sweep jobs is a
/// journaled row.
pub fn fig11_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    fig11_report_from(&runners::fig11_journaled(limit, threads, journal), limit)
}

// ---- Fig. 12 ---------------------------------------------------------------

const FIG12_TECHS: [&str; 5] = [
    "partial bypassing",
    "ooo slices",
    "early branch",
    "early l/s disambig",
    "partial tag",
];

/// Build the Fig. 12 report (per-technique speedup contributions),
/// running the Fig. 11 sweep it derives from on `threads` workers —
/// journaled when a `journal` (`--resume`) is given.
pub fn fig12_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    let mut text = String::new();
    say!(
        text,
        "Figure 12: speedup of bit-slice pipelining over simple pipelining"
    );
    say!(
        text,
        "({limit} instructions per run; columns are incremental contributions)\n"
    );

    let data = runners::fig11_journaled(limit, threads, journal);
    let mut artifact = Artifact::new("fig12", limit);
    artifact.set("techniques", FIG12_TECHS.iter().copied().collect());
    let mut cols = vec![name_col("benchmark")];
    cols.extend(
        FIG12_TECHS
            .iter()
            .enumerate()
            .map(|(k, &tech)| col(tech, move |w| signed_pct(num_at(w, "contributions", k)))),
    );
    cols.push(col("total", |w| signed_pct(num(w, "total_speedup"))));
    for (by4, key, paper_total, paper_new) in [
        (false, "slice2", "+16%", "+8%"),
        (true, "slice4", "+44%", "+13%"),
    ] {
        let workloads = runners::fig12_from(&data, by4).into_iter();
        let slice = obj! {
            "workloads" => workloads.map(|(name, contrib, total)| obj! {
                "name" => name,
                "contributions" => contrib.into_iter().collect::<Json>(),
                "total_speedup" => total,
            }).collect::<Json>(),
            "geomean_total_speedup" => data.mean_speedup(by4) - 1.0,
            "geomean_bypass_speedup" => data.mean_bypass_speedup(by4) - 1.0,
        };

        let workloads = array(&slice, "workloads");
        say!(text, "== {} slices ==\n", if by4 { 4 } else { 2 });
        say!(text, "{}", table(workloads, &cols));
        // The paper's "new techniques" are everything past bypassing.
        let new_tech_sum = workloads.iter().fold(0.0, |acc, w| {
            acc + array(w, "contributions")[1..]
                .iter()
                .map(|c| as_num(Some(c)))
                .sum::<f64>()
        });
        say!(
            text,
            "geomean total speedup {:+.1}% (paper: {paper_total}); bypassing alone {:+.1}%;\n\
             new techniques add ~{:+.1}% on average (paper: {paper_new}).\n",
            100.0 * num(&slice, "geomean_total_speedup"),
            100.0 * num(&slice, "geomean_bypass_speedup"),
            100.0 * new_tech_sum / workloads.len() as f64,
        );
        artifact.set(key, slice);
    }
    Report::new(text, artifact, &data.failures)
}

// ---- Ablations -------------------------------------------------------------

/// The ablations report under construction: each section is journaled as
/// one row whose payload is the section's artifact value alone.
struct Sections<'j> {
    journal: Option<&'j SweepJournal>,
    text: String,
    artifact: Artifact,
}

impl Sections<'_> {
    /// One ablation section: replay the journaled `value` of `row` when
    /// the journal has it, otherwise `run` the section and record
    /// `{value}`. Either way the section's text — `title`, the table of
    /// the value's row objects under `cols`, then `note` — is rendered
    /// from the value, so a replayed section prints exactly like a fresh
    /// one. (Journals that also stored a `text` copy replay the same.)
    fn section(
        &mut self,
        row: &str,
        key: &str,
        title: &str,
        cols: &[Column],
        note: &str,
        run: impl FnOnce() -> Vec<Json>,
    ) {
        let replayed = self
            .journal
            .and_then(|j| j.completed(row))
            .and_then(|done| done.get("value"))
            .cloned();
        let value = replayed.unwrap_or_else(|| {
            if let Some(j) = self.journal {
                j.record_start(row);
            }
            let value = Json::Array(run());
            if let Some(j) = self.journal {
                j.record_done(row, obj! { "value" => value.clone() });
            }
            value
        });
        say!(self.text, "{title}\n");
        say!(
            self.text,
            "{}",
            table(value.as_array().unwrap_or_default(), cols)
        );
        if !note.is_empty() {
            say!(self.text, "{note}");
        }
        self.artifact.set(key, value);
    }
}

/// A whole-percent cell of a fraction.
fn pct0(v: f64) -> String {
    format!("{:.0}%", 100.0 * v)
}

/// Build the ablations report (sweeps A–H beyond the paper's figures),
/// fanning each section's (workload × parameter) jobs across `threads`
/// workers.
///
/// With a `journal` (`--resume`) the report is journaled at section
/// granularity: each of the eight sections A–H is one journal row whose
/// payload carries the section's artifact value (its text is rendered
/// from that value), so a resumed run replays finished sections and
/// re-runs only the interrupted one.
pub fn ablations_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    let names = ["gcc", "li", "twolf"];
    let progs = programs_for(&names, threads);
    let named_progs: Vec<(&str, &Program)> = names.iter().copied().zip(progs.iter()).collect();
    let mut report = Sections {
        journal,
        text: String::new(),
        artifact: Artifact::new("ablations", limit),
    };

    // ---- A: gshare size sweep ----------------------------------------
    report.section(
        "ablations/A",
        "gshare_sweep",
        &format!("Ablation A: gshare size vs. accuracy and 8-bit detection ({limit} instrs)"),
        &[
            name_col("benchmark"),
            col("entries", |r| {
                format!("{}K", (1u32 << num(r, "table_bits") as u32) / 1024)
            }),
            col("accuracy", |r| pct(num(r, "accuracy"))),
            col("detect ≤8b", |r| {
                format!("{:.0}%", num(r, "pct_detected_within_8b"))
            }),
        ],
        "",
        || {
            let jobs: Vec<(&str, &Program, u32)> = named_progs
                .iter()
                .flat_map(|&(n, p)| [10u32, 12, 14, 16].map(|bits| (n, p, bits)))
                .collect();
            let reports = pool::map_jobs(threads, &jobs, |&(_, p, bits)| {
                let mut study = BranchStudy::new(bits);
                drive_counted(p, limit, &mut [&mut study]);
                study.report()
            });
            let rows = jobs.iter().zip(&reports);
            rows.map(|(&(name, _, bits), r)| {
                obj! {
                    "name" => name,
                    "table_bits" => u64::from(bits),
                    "accuracy" => r.accuracy(),
                    "pct_detected_within_8b" => r.percent_detected_within(8),
                }
            })
            .collect()
        },
    );

    // ---- B: LSQ size sweep --------------------------------------------
    report.section(
        "ablations/B",
        "lsq_sweep",
        "Ablation B: LSQ window vs. loads resolved after 9 bits",
        &[
            name_col("benchmark"),
            col("LSQ", |r| field(r, "lsq_entries")),
            col("resolved ≤9b", |r| {
                format!("{:.1}%", num(r, "pct_resolved_within_9b"))
            }),
        ],
        "",
        || {
            let jobs: Vec<(&str, &Program, usize)> = named_progs
                .iter()
                .flat_map(|&(n, p)| [8usize, 16, 32, 64].map(|lsq| (n, p, lsq)))
                .collect();
            let reports = pool::map_jobs(threads, &jobs, |&(_, p, lsq)| {
                let mut study = DisambigStudy::new(lsq);
                drive_counted(p, limit, &mut [&mut study]);
                study.report()
            });
            let rows = jobs.iter().zip(&reports);
            rows.map(|(&(name, _, lsq), r)| {
                obj! {
                    "name" => name,
                    "lsq_entries" => lsq,
                    "pct_resolved_within_9b" => r.resolved_after_bits(9),
                }
            })
            .collect()
        },
    );

    // ---- C: direction predictor organization ---------------------------
    let kinds = [
        ("gshare", DirKind::Gshare),
        ("bimodal", DirKind::Bimodal),
        ("local", DirKind::Local),
        ("tournament", DirKind::Tournament),
    ];
    let mut cols = vec![name_col("benchmark")];
    cols.extend(
        kinds
            .iter()
            .map(|&(kname, _)| col(kname, move |r| f3(num(r, kname)))),
    );
    report.section(
        "ablations/C",
        "direction_predictor",
        "Ablation C: direction predictor organization on slice-by-2 (all techniques)",
        &cols,
        "",
        || {
            let jobs: Vec<(&Program, DirKind)> = progs
                .iter()
                .flat_map(|p| kinds.map(|(_, kind)| (p, kind)))
                .collect();
            let ipcs = pool::map_jobs(threads, &jobs, |&(p, kind)| {
                let mut cfg = MachineConfig::slice2_full();
                cfg.frontend = FrontEndConfig {
                    dir_kind: kind,
                    ..FrontEndConfig::default()
                };
                sim(p, &cfg, limit).ipc()
            });
            let rows = names.iter().zip(ipcs.chunks_exact(kinds.len()));
            rows.map(|(&name, per_kind)| {
                let mut o = obj! { "name" => name };
                for (&(kname, _), &ipc) in kinds.iter().zip(per_kind) {
                    o.set(kname, Json::from(ipc));
                }
                o
            })
            .collect()
        },
    );

    // ---- D: single-technique isolation ---------------------------------
    let single = |f: fn(&mut Optimizations)| {
        let mut o = Optimizations::level(1);
        f(&mut o);
        o
    };
    let variants: [(&str, Optimizations); 5] = [
        ("bypass only", Optimizations::level(1)),
        ("+ooo slices", single(|o| o.ooo_slices = true)),
        ("+early branch", single(|o| o.early_branch = true)),
        ("+early disambig", single(|o| o.early_disambig = true)),
        ("+partial tag", single(|o| o.partial_tag = true)),
    ];
    let mut cols = vec![name_col("benchmark")];
    cols.extend(
        variants
            .iter()
            .map(|&(vname, _)| col(vname, move |r| f3(num(r, vname)))),
    );
    report.section(
        "ablations/D",
        "single_technique",
        "Ablation D: each technique alone on top of partial bypassing (slice-by-4)",
        &cols,
        "",
        || {
            let jobs: Vec<(&Program, Optimizations)> = progs
                .iter()
                .flat_map(|p| variants.map(|(_, opts)| (p, opts)))
                .collect();
            let ipcs = pool::map_jobs(threads, &jobs, |&(p, opts)| {
                sim(p, &MachineConfig::slice4(opts), limit).ipc()
            });
            let rows = names.iter().zip(ipcs.chunks_exact(variants.len()));
            rows.map(|(&name, per_variant)| {
                let mut o = obj! { "name" => name };
                for (&(vname, _), &ipc) in variants.iter().zip(per_variant) {
                    o.set(vname, Json::from(ipc));
                }
                o
            })
            .collect()
        },
    );

    // ---- E: paper-sketched extensions ----------------------------------
    report.section(
        "ablations/E",
        "extensions",
        "Ablation E: paper-sketched extensions on top of all techniques (slice-by-2)",
        &[
            name_col("benchmark"),
            col("all IPC", |r| f3(num(r, "all_ipc"))),
            col("ext IPC", |r| f3(num(r, "extended_ipc"))),
            col("ext gain", |r| {
                signed_pct(num(r, "extended_ipc") / num(r, "all_ipc") - 1.0)
            }),
            col("spec fwd", |r| field(r, "spec_forwards")),
            col("narrow", |r| field(r, "narrow_wakeups")),
            col("sam", |r| field(r, "sam_starts")),
            col("+memdep IPC", |r| f3(num(r, "memdep_ipc"))),
            col("specs/viol", |r| {
                format!(
                    "{}/{}",
                    field(r, "mem_dep_speculations"),
                    field(r, "mem_dep_violations")
                )
            }),
        ],
        "`extended()` = spec-forward + narrow + sum-addressed; the memory\n\
         dependence predictor is reported separately because its benefit is\n\
         workload-dependent (see EXPERIMENTS.md).",
        || {
            let ext_names = ["gcc", "li", "twolf", "bzip", "vortex"];
            let ext_progs = programs_for(&ext_names, threads);
            let memdep = {
                let mut o = Optimizations::all();
                o.mem_dep_predict = true;
                o
            };
            let jobs: Vec<(&Program, Optimizations)> = ext_progs
                .iter()
                .flat_map(|p| {
                    [Optimizations::all(), Optimizations::extended(), memdep].map(|opts| (p, opts))
                })
                .collect();
            let stats = pool::map_jobs(threads, &jobs, |&(p, opts)| {
                sim(p, &MachineConfig::slice2(opts), limit)
            });
            let rows = ext_names.iter().zip(stats.chunks_exact(3));
            rows.map(|(&name, runs)| {
                let (full, ext, md) = (&runs[0], &runs[1], &runs[2]);
                obj! {
                    "name" => name,
                    "all_ipc" => full.ipc(),
                    "extended_ipc" => ext.ipc(),
                    "spec_forwards" => ext.spec_forwards,
                    "narrow_wakeups" => ext.narrow_wakeups,
                    "sam_starts" => ext.sam_starts,
                    "memdep_ipc" => md.ipc(),
                    "mem_dep_speculations" => md.mem_dep_speculations,
                    "mem_dep_violations" => md.mem_dep_violations,
                }
            })
            .collect()
        },
    );

    // ---- F: wrong-path fetch modeling ----------------------------------
    report.section(
        "ablations/F",
        "wrong_path",
        "\nAblation F: wrong-path fetch modeling (phantoms vs. fetch stall)",
        &[
            name_col("benchmark"),
            col("stall-model IPC", |r| f3(num(r, "stall_model_ipc"))),
            col("phantom-model IPC", |r| f3(num(r, "phantom_model_ipc"))),
            col("delta", |r| {
                let ratio = num(r, "phantom_model_ipc") / num(r, "stall_model_ipc");
                format!("{:+.2}%", 100.0 * (ratio - 1.0))
            }),
        ],
        "Wrong-path pollution is second-order and non-monotone — the effect\n\
         the paper credits for bzip/gzip/li slightly exceeding the ideal\n\
         machine.",
        || {
            let wp_names = ["go", "gcc", "parser", "twolf"];
            let wp_progs = programs_for(&wp_names, threads);
            let jobs: Vec<(&Program, bool)> = wp_progs
                .iter()
                .flat_map(|p| [(p, false), (p, true)])
                .collect();
            let stats = pool::map_jobs(threads, &jobs, |&(p, wrong_path)| {
                let mut cfg = MachineConfig::slice2_full();
                cfg.model_wrong_path = wrong_path;
                sim(p, &cfg, limit)
            });
            let rows = wp_names.iter().zip(stats.chunks_exact(2));
            rows.map(|(&name, runs)| {
                obj! {
                    "name" => name,
                    "stall_model_ipc" => runs[0].ipc(),
                    "phantom_model_ipc" => runs[1].ipc(),
                }
            })
            .collect()
        },
    );

    // ---- G: operand width distribution ---------------------------------
    let workloads = popk_workloads::all();
    report.section(
        "ablations/G",
        "width_distribution",
        "\nAblation G: result significant-width distribution (the §6 premise)",
        &[
            name_col("benchmark"),
            col("≤8 bits", |r| pct0(num(r, "fraction_within_8b"))),
            col("≤16 bits", |r| pct0(num(r, "fraction_within_16b"))),
            col("≤24 bits", |r| pct0(num(r, "fraction_within_24b"))),
            col("mean width", |r| {
                format!("{:.1}", num(r, "mean_width_bits"))
            }),
        ],
        "Most results are sign/zero extensions of a narrow low slice — the\n\
         empirical basis for the narrow-operand extension (refs [3], [6]).",
        || {
            let width_reports = pool::map_jobs(threads, &workloads, |w| {
                let p = w.program();
                let mut study = WidthStudy::new();
                drive_counted(&p, limit, &mut [&mut study]);
                study.report()
            });
            let rows = workloads.iter().zip(&width_reports);
            rows.map(|(w, r)| {
                obj! {
                    "name" => w.name,
                    "fraction_within_8b" => r.fraction_within(8),
                    "fraction_within_16b" => r.fraction_within(16),
                    "fraction_within_24b" => r.fraction_within(24),
                    "mean_width_bits" => r.mean_width(),
                }
            })
            .collect()
        },
    );

    // ---- H: dependence distances ---------------------------------------
    report.section(
        "ablations/H",
        "dependence_distance",
        "\nAblation H: producer→consumer dependence distances (the §2 motivation)",
        &[
            name_col("benchmark"),
            col("d=1", |r| pct0(num(r, "fraction_within_1"))),
            col("≤2", |r| pct0(num(r, "fraction_within_2"))),
            col("≤4", |r| pct0(num(r, "fraction_within_4"))),
            col("≤8", |r| pct0(num(r, "fraction_within_8"))),
            col("mean", |r| format!("{:.1}", num(r, "mean_distance"))),
        ],
        "A third to half of all source operands come from the immediately\n\
         preceding instructions — exactly the population naive EX\n\
         pipelining penalizes and partial bypassing rescues (Fig. 1).",
        || {
            let distance_reports = pool::map_jobs(threads, &workloads, |w| {
                let p = w.program();
                let mut study = DistanceStudy::new();
                drive_counted(&p, limit, &mut [&mut study]);
                study.report()
            });
            let rows = workloads.iter().zip(&distance_reports);
            rows.map(|(w, r)| {
                obj! {
                    "name" => w.name,
                    "fraction_within_1" => r.fraction_within(1),
                    "fraction_within_2" => r.fraction_within(2),
                    "fraction_within_4" => r.fraction_within(4),
                    "fraction_within_8" => r.fraction_within(8),
                    "mean_distance" => r.mean_distance(),
                }
            })
            .collect()
        },
    );

    Report::new(report.text, report.artifact, &[])
}

// ---- compare ---------------------------------------------------------------

/// Build the compare report (two configurations across the suite), or
/// `None` if either configuration name is unknown.
pub fn compare_report(a_name: &str, b_name: &str, limit: u64, threads: usize) -> Option<Report> {
    let a_cfg = runners::parse_config(a_name)?;
    let b_cfg = runners::parse_config(b_name)?;
    let pairs = runners::compare(&a_cfg, &b_cfg, limit, threads);
    let (workloads, failures) = outcome_rows(
        pairs.iter().map(|(name, pair)| (*name, pair)),
        |name, (a, b)| {
            obj! {
                "name" => name,
                "ipc_a" => a.ipc(),
                "ipc_b" => b.ipc(),
                "cycles_a" => a.cycles,
                "cycles_b" => b.cycles,
                "ipc_ratio" => a.ipc() / b.ipc(),
            }
        },
    );

    let mut text = String::new();
    say!(
        text,
        "{a_name} vs {b_name} ({limit} instructions per run)\n"
    );
    let cols = [
        name_col("benchmark"),
        col(format!("{a_name} IPC"), |w| f3(num(w, "ipc_a"))),
        col(format!("{b_name} IPC"), |w| f3(num(w, "ipc_b"))),
        col("delta", |w| signed_pct(num(w, "ipc_ratio") - 1.0)),
        col(format!("{a_name} cyc"), |w| field(w, "cycles_a")),
        col(format!("{b_name} cyc"), |w| field(w, "cycles_b")),
    ];
    say!(text, "{}", table(completed(&workloads), &cols));
    let geo = geomean(completed(&workloads).map(|w| num(w, "ipc_ratio")));

    let mut artifact = Artifact::new("compare", limit);
    artifact.set("config_a", a_name.into());
    artifact.set("config_b", b_name.into());
    // Config identity as the rest of the bench layer derives it
    // (`MachineConfig::fingerprint`, shared with the artifact cache).
    artifact.set(
        "config_a_hash",
        format!("{:016x}", a_cfg.fingerprint()).into(),
    );
    artifact.set(
        "config_b_hash",
        format!("{:016x}", b_cfg.fingerprint()).into(),
    );
    artifact.set("workloads", Json::Array(workloads));
    artifact.set("geomean_ipc_ratio", Json::from(geo));
    let geo = num(artifact.json(), "geomean_ipc_ratio");
    say!(
        text,
        "geomean IPC ratio {a_name}/{b_name}: {geo:.3} ({:+.1}%)",
        100.0 * (geo - 1.0)
    );
    Some(Report::new(text, artifact, &failures))
}

// ---- RV32 ------------------------------------------------------------------

/// The IPC a pivoted RV32 workload row recorded under config `label`.
fn rv32_ipc(workload: &Json, label: &str) -> Option<f64> {
    array(workload, "configs")
        .iter()
        .find(|c| c.get("config").and_then(Json::as_str) == Some(label))
        .map(|c| num(c, "ipc"))
}

/// Build the RV32 sweep report: per-workload IPC across the
/// configuration ladder of [`runners::rv32_configs`], through the same
/// timing core as the PISA suite via the ISA-neutral frontend boundary.
/// With `oracle` set every run replays the RV32 functional machine
/// against the commit stream, and any divergence becomes that row's
/// failure.
pub fn rv32_report_with(limit: u64, threads: usize, oracle: bool) -> Report {
    let labels: Vec<&str> = runners::rv32_configs()
        .iter()
        .map(|&(label, _)| label)
        .collect();
    let results = runners::rv32_sweep(limit, threads, oracle);
    let failures: Vec<SweepFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .cloned()
        .collect();

    // One row per workload, pivoting its completed configs.
    let rows: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut names: Vec<&'static str> = rows.iter().map(|r| r.workload).collect();
    names.dedup();
    let workloads: Vec<Json> = names
        .iter()
        .map(|&name| {
            let configs = rows.iter().filter(|r| r.workload == name).map(|r| {
                obj! {
                    "config" => r.config,
                    "committed" => r.committed,
                    "cycles" => r.cycles,
                    "ipc" => r.ipc,
                }
            });
            obj! { "name" => name, "configs" => configs.collect::<Json>() }
        })
        .collect();
    // Geomean IPC per configuration over the workloads that completed.
    let mut geo = Json::object();
    for &label in &labels {
        let ipcs: Vec<f64> = workloads
            .iter()
            .filter_map(|w| rv32_ipc(w, label))
            .collect();
        if !ipcs.is_empty() {
            geo.set(label, Json::from(geomean(ipcs.into_iter())));
        }
    }

    let mut text = String::new();
    say!(
        text,
        "RV32 sweep: IPC by machine configuration ({limit} instructions)\n"
    );
    let mut cols = vec![col("workload", |w| field(w, "name"))];
    cols.extend(labels.iter().map(|&label| {
        col(label, move |w| {
            rv32_ipc(w, label).map_or_else(|| "-".into(), f3)
        })
    }));
    say!(text, "{}", table(&workloads, &cols));
    if let Json::Object(pairs) = &geo {
        for (label, g) in pairs {
            say!(text, "geomean IPC [{label}]: {:.3}", as_num(Some(g)));
        }
    }

    let mut artifact = Artifact::new("rv32", limit);
    artifact.set("isa", "rv32".into());
    artifact.set("workloads", Json::Array(workloads));
    artifact.set("geomean_ipc", geo);
    if oracle {
        artifact.set("oracle_lockstep", Json::from(true));
        say!(
            text,
            "oracle lockstep: every retirement cross-checked, {} divergence(s)",
            failures.len()
        );
    }
    Report::new(text, artifact, &failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_rejects_unknown_configs() {
        assert!(compare_report("bogus", "ideal", 1000, 1).is_none());
        assert!(compare_report("ideal", "bogus", 1000, 1).is_none());
    }

    #[test]
    fn table1_report_shape() {
        let rep = table1_report_journaled(5_000, 2, false, None);
        assert!(rep.text.contains("geometric-mean IPC"));
        assert_eq!(
            rep.artifact.json().get("figure"),
            Some(&Json::from("table1"))
        );
        let Some(Json::Array(ws)) = rep.artifact.json().get("workloads") else {
            panic!("workloads array missing");
        };
        assert_eq!(ws.len(), 11);
        // The host block is the binaries' job, not the builder's.
        assert!(rep.artifact.json().get("host").is_none());
    }

    #[test]
    fn ablation_section_replays_its_journaled_value() {
        const LIMIT: u64 = 3_000;
        let dir =
            std::env::temp_dir().join(format!("popk-ablations-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A legacy section-A payload: `{text, value}`, where the text is
        // garbage and the value carries a distinctive accuracy.
        let row = obj! {
            "name" => "gcc",
            "table_bits" => 12u64,
            "accuracy" => 0.4321,
            "pct_detected_within_8b" => 77.0,
        };
        let value = Json::Array(vec![row]);
        let payload = obj! { "text" => "GARBAGE-SECTION-TEXT\n", "value" => value.clone() };
        SweepJournal::open(&dir, "ablations", LIMIT, "", false).record_done("ablations/A", payload);

        let journal = SweepJournal::open(&dir, "ablations", LIMIT, "", true);
        let rep = ablations_report_journaled(LIMIT, 2, Some(&journal));
        let _ = std::fs::remove_dir_all(&dir);

        // Replayed, not re-run: the artifact carries the forged value.
        assert_eq!(rep.artifact.json().get("gshare_sweep"), Some(&value));
        // The printed section is rendered from that value.
        assert!(!rep.text.contains("GARBAGE"));
        let line = rep
            .text
            .lines()
            .find(|l| l.starts_with("gcc ") && l.contains("43.2%"))
            .expect("forged row printed from its value");
        assert!(line.contains("4K") && line.ends_with("77%"), "{line}");
    }
}
