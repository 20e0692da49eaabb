//! # popk-bench — experiment harness
//!
//! One runner per table/figure of the paper's evaluation, shared by the
//! report binaries (`table1`, `fig2`, `fig4`, `fig6`, `fig11`, `fig12`,
//! `ablations`) and the timing benches. Each binary prints the same
//! rows/series the paper reports; `EXPERIMENTS.md` records the measured
//! output next to the paper's numbers.
//!
//! All runners accept a dynamic-instruction budget; every binary parses
//! its command line through [`Cli`] (budget default [`DEFAULT_LIMIT`])
//! and the report binaries accept `--json` to additionally write a
//! machine-readable `BENCH_<figure>.json` artifact (see [`artifact`]).
//! Sweeps fan their (workload × config) simulation jobs across a scoped
//! job [`pool`] (`--threads N`, default all cores) and collect results
//! in submission order, so artifacts are byte-identical at any thread
//! count; each artifact carries a `host` block recording the sweep's
//! wall-clock throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod fmt;
pub mod journal;
pub mod pool;
pub mod reports;
pub mod runners;
pub mod serve;
pub mod timing;

pub use artifact::{Artifact, Cli, HostMeter};
pub use cache::{ArtifactCache, JobKey, CACHE_SCHEMA_VERSION};
pub use journal::{SweepJournal, JOURNAL_VERSION};
pub use pool::JobFailure;
pub use reports::{
    ablations_report_journaled, compare_report, fig11_report_journaled, fig12_report_journaled,
    rv32_report_with, table1_report_journaled, Report,
};
pub use runners::{
    compare, fig11_journaled, fig12_from, fig2, fig4, fig6, parse_config, rv32_configs, rv32_sweep,
    set_poisoned_workload, table1_journaled, Fig11Column, Fig11Data, Rv32Row, SweepFailure,
    Table1Row, DEFAULT_LIMIT,
};
pub use serve::{Client, ClientError, RetryPolicy, ServeConfig, Server, PROTOCOL_VERSION};
