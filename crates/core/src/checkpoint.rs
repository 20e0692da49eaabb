//! Crash-safe checkpoints: versioned, checksummed snapshots of the
//! *architectural* state at commit boundaries, and the commit-time
//! watch that captures and verifies them.
//!
//! # What a checkpoint is (and is not)
//!
//! The simulator is a pure function of (program, config, budget) — the
//! determinism suite pins this bit-for-bit. A checkpoint therefore does
//! not need to freeze the microarchitectural state (window columns,
//! calendar wheel, predictor tables, cache LRU …); it records the
//! *verified functional* state at instruction `k`: registers, PC,
//! resident memory pages, output channels, and the retirement count.
//! Resume re-runs the deterministic simulation from instruction 0 —
//! guaranteeing byte-identical stats and event digests by construction —
//! and cross-checks the live architectural state at commit `k` against
//! the stored snapshot, so a stale, corrupted, or mismatched checkpoint
//! is a typed error ([`CheckpointError`]), never silent bad data.
//!
//! The snapshot is captured by a [`CommitWatch`]: a second reference
//! machine (the frontend's [`CheckpointSource`]) advanced in lockstep
//! with the timing core's commit stream, exactly like the PR 5 oracle.
//! Every claim the pipeline retires is re-executed on it, so the state
//! a checkpoint stores is *verified* — a divergent pipeline can never
//! seal its corruption into a checkpoint file.
//!
//! # On-disk format
//!
//! One pretty-printed JSON body per file, sealed with the same FNV
//! integrity-checksum idiom as the bench artifact cache: the
//! `integrity` field is the FNV-1a hash of the body without it.
//! Writes go through a temp file + atomic rename, so a reader sees
//! either the old checkpoint or the complete new one. Page bytes and
//! the 64-bit config fingerprint are hex strings; everything else is
//! plain JSON integers.

use crate::hash::fnv1a_64;
use crate::json::Json;
use popk_trace::{ArchSnapshot, CheckpointSource, SnapshotPage, Uop, UopInsn};
use std::path::Path;

/// Version stamp of the checkpoint body shape. Bump on any incompatible
/// change: older files are rejected with
/// [`CheckpointError::StaleVersion`] and the run restarts from zero.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A typed checkpoint failure. Load-time defects (truncation,
/// corruption, stale version, wrong identity) and resume-time
/// divergence are distinct variants so callers can decide between
/// "restart from zero" and "refuse: state disagrees".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint file could not be read or written.
    Io(String),
    /// The body is not a well-formed checkpoint document (truncated
    /// file, invalid JSON, missing or mistyped field).
    Malformed(String),
    /// The body parses but its integrity checksum does not match
    /// (bit-rot, torn write).
    Corrupt,
    /// The body was written by a different checkpoint schema.
    StaleVersion {
        /// The version the file claims.
        found: u64,
    },
    /// The checkpoint belongs to a different run identity (other ISA,
    /// workload, configuration, or budget).
    Mismatch {
        /// Which identity field disagreed (`"isa"`, `"workload"`,
        /// `"config"`, or `"limit"`).
        field: &'static str,
    },
    /// The live replay's architectural state at the checkpoint's commit
    /// count disagrees with the stored snapshot, or the commit stream
    /// itself diverged from the watch's reference machine.
    Divergence {
        /// Retirement count at which the divergence was detected.
        committed: u64,
        /// Which snapshot or lockstep field disagreed.
        field: &'static str,
    },
    /// The frontend provides no [`CheckpointSource`], so checkpointed
    /// execution is unavailable for it.
    Unsupported,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::Corrupt => write!(f, "checkpoint integrity checksum mismatch"),
            CheckpointError::StaleVersion { found } => {
                write!(
                    f,
                    "checkpoint schema v{found} (this build reads v{CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Mismatch { field } => {
                write!(
                    f,
                    "checkpoint belongs to a different run: `{field}` differs"
                )
            }
            CheckpointError::Divergence { committed, field } => write!(
                f,
                "resume divergence at commit {committed}: field `{field}` disagrees \
                 with the checkpointed state"
            ),
            CheckpointError::Unsupported => {
                write!(f, "frontend does not support checkpointed execution")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One checkpoint: the run identity plus the verified architectural
/// snapshot at `committed` retired instructions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The frontend's ISA tag (`"pisa"`, `"rv32"`).
    pub isa: String,
    /// Workload name, as the bench layer knows it.
    pub workload: String,
    /// [`MachineConfig::fingerprint`](crate::MachineConfig::fingerprint)
    /// of the configuration the run executes under.
    pub config_hash: u64,
    /// The run's dynamic-instruction budget.
    pub limit: u64,
    /// Instructions committed when this snapshot was taken.
    pub committed: u64,
    /// The verified architectural state at that boundary.
    pub arch: ArchSnapshot,
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Serialize `j` with its FNV integrity checksum appended (the bench
/// cache idiom: the checksum covers the pretty body without the
/// `integrity` field).
fn seal(mut j: Json) -> String {
    j.remove("integrity");
    let unsealed = j.to_pretty(2);
    j.set(
        "integrity",
        format!("{:016x}", fnv1a_64(unsealed.as_bytes())).into(),
    );
    let mut body = j.to_pretty(2);
    body.push('\n');
    body
}

impl Checkpoint {
    /// The document body, sealed and ready to write.
    pub fn to_body(&self) -> String {
        let mut arch = Json::object();
        arch.set("icount", Json::from(self.arch.icount));
        arch.set("pc", Json::from(u64::from(self.arch.pc)));
        arch.set(
            "regs",
            Json::Array(
                self.arch
                    .regs
                    .iter()
                    .map(|&r| Json::from(u64::from(r)))
                    .collect(),
            ),
        );
        arch.set(
            "pages",
            Json::Array(
                self.arch
                    .pages
                    .iter()
                    .map(|p| {
                        let mut page = Json::object();
                        page.set("base", Json::from(u64::from(p.base)));
                        page.set("data", hex_encode(&p.data).into());
                        page
                    })
                    .collect(),
            ),
        );
        arch.set(
            "out_ints",
            Json::Array(
                self.arch
                    .out_ints
                    .iter()
                    .map(|&v| Json::Int(i64::from(v)))
                    .collect(),
            ),
        );
        arch.set("out_bytes", hex_encode(&self.arch.out_bytes).into());
        arch.set(
            "exited",
            match self.arch.exited {
                Some(code) => Json::from(u64::from(code)),
                None => Json::Null,
            },
        );

        let mut j = Json::object();
        j.set("checkpoint_version", Json::from(CHECKPOINT_VERSION));
        j.set("kind", "checkpoint".into());
        j.set("isa", self.isa.as_str().into());
        j.set("workload", self.workload.as_str().into());
        j.set("config_hash", format!("{:016x}", self.config_hash).into());
        j.set("instruction_limit", Json::from(self.limit));
        j.set("committed", Json::from(self.committed));
        j.set("arch", arch);
        seal(j)
    }

    /// Parse and fully validate a checkpoint body: integrity checksum
    /// first ([`CheckpointError::Corrupt`]), then schema version
    /// ([`CheckpointError::StaleVersion`]), then field extraction
    /// ([`CheckpointError::Malformed`]).
    pub fn parse(body: &str) -> Result<Checkpoint, CheckpointError> {
        let mut j = Json::parse(body)
            .map_err(|e| CheckpointError::Malformed(format!("invalid JSON: {e}")))?;
        let stated = j
            .remove("integrity")
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or_else(|| CheckpointError::Malformed("missing integrity field".into()))?;
        let actual = format!("{:016x}", fnv1a_64(j.to_pretty(2).as_bytes()));
        if stated != actual {
            return Err(CheckpointError::Corrupt);
        }
        let version = j
            .get("checkpoint_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| CheckpointError::Malformed("missing checkpoint_version".into()))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::StaleVersion { found: version });
        }

        let missing = |field: &str| CheckpointError::Malformed(format!("missing field {field}"));
        let str_field = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(k))
        };
        let u64_field =
            |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).ok_or_else(|| missing(k));

        let config_hash = u64::from_str_radix(&str_field("config_hash")?, 16)
            .map_err(|_| CheckpointError::Malformed("config_hash is not hex".into()))?;
        let arch = j.get("arch").ok_or_else(|| missing("arch"))?;
        let u32_field = |k: &str| {
            u64_field(arch, k).and_then(|v| {
                u32::try_from(v)
                    .map_err(|_| CheckpointError::Malformed(format!("{k} out of range")))
            })
        };
        let regs = arch
            .get("regs")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("arch.regs"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| CheckpointError::Malformed("bad register value".into()))
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let pages = arch
            .get("pages")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("arch.pages"))?
            .iter()
            .map(|p| {
                let base = p
                    .get("base")
                    .and_then(Json::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| CheckpointError::Malformed("bad page base".into()))?;
                let data = p
                    .get("data")
                    .and_then(Json::as_str)
                    .and_then(hex_decode)
                    .ok_or_else(|| CheckpointError::Malformed("bad page data".into()))?;
                Ok(SnapshotPage { base, data })
            })
            .collect::<Result<Vec<SnapshotPage>, CheckpointError>>()?;
        let out_ints = arch
            .get("out_ints")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("arch.out_ints"))?
            .iter()
            .map(|v| {
                v.as_i64()
                    .and_then(|v| i32::try_from(v).ok())
                    .ok_or_else(|| CheckpointError::Malformed("bad out_ints value".into()))
            })
            .collect::<Result<Vec<i32>, _>>()?;
        let out_bytes = arch
            .get("out_bytes")
            .and_then(Json::as_str)
            .and_then(hex_decode)
            .ok_or_else(|| missing("arch.out_bytes"))?;
        let exited = match arch.get("exited") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| CheckpointError::Malformed("bad exited value".into()))?,
            ),
        };

        Ok(Checkpoint {
            isa: str_field("isa")?,
            workload: str_field("workload")?,
            config_hash,
            limit: u64_field(&j, "instruction_limit")?,
            committed: u64_field(&j, "committed")?,
            arch: ArchSnapshot {
                icount: u64_field(arch, "icount")?,
                pc: u32_field("pc")?,
                regs,
                pages,
                out_ints,
                out_bytes,
                exited,
            },
        })
    }

    /// Write the sealed body to `path` atomically (temp file + rename in
    /// the destination directory, the cache idiom), so a crash mid-write
    /// leaves either the previous checkpoint or the complete new one.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .map(Path::to_path_buf)
            .unwrap_or_else(|| ".".into());
        std::fs::create_dir_all(&dir).map_err(io)?;
        let tmp = dir.join(format!(".ckpt.tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_body()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Load and validate the checkpoint at `path`. A missing file is
    /// [`CheckpointError::Io`]; every content defect is one of the
    /// typed parse errors.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let body = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Checkpoint::parse(&body)
    }

    /// Check that this checkpoint belongs to the run identified by
    /// (`isa`, `workload`, `config_hash`, `limit`). A checkpoint from a
    /// different identity is [`CheckpointError::Mismatch`] — resuming a
    /// run from another run's state would silently produce wrong
    /// artifacts, the exact failure this layer exists to prevent.
    pub fn validate_for(
        &self,
        isa: &str,
        workload: &str,
        config_hash: u64,
        limit: u64,
    ) -> Result<(), CheckpointError> {
        let mismatch = |field| Err(CheckpointError::Mismatch { field });
        if self.isa != isa {
            return mismatch("isa");
        }
        if self.workload != workload {
            return mismatch("workload");
        }
        if self.config_hash != config_hash {
            return mismatch("config");
        }
        if self.limit != limit {
            return mismatch("limit");
        }
        Ok(())
    }
}

/// How a run should produce (and, on resume, verify) checkpoints. Built
/// by the caller, attached through
/// [`Simulator::set_checkpoints`](crate::Simulator::set_checkpoints) or
/// the `*_checkpointed` entry points in [`crate::sim`].
pub struct CheckpointPlan {
    /// Workload name stamped into emitted checkpoints.
    pub workload: String,
    /// Configuration fingerprint stamped into emitted checkpoints.
    pub config_hash: u64,
    /// Instruction budget stamped into emitted checkpoints.
    pub limit: u64,
    /// Emit a checkpoint every `interval` committed instructions
    /// (0 = never; useful for verify-only resume runs).
    pub interval: u64,
    /// Receives each emitted checkpoint. The sink owns persistence —
    /// typically [`Checkpoint::save`] to a file.
    pub sink: Option<Box<dyn FnMut(Checkpoint) + Send>>,
    /// A previously saved checkpoint to resume from: the run replays
    /// deterministically from instruction 0 and, at this checkpoint's
    /// commit count, cross-verifies the live architectural state against
    /// it — any disagreement aborts with
    /// [`CheckpointError::Divergence`].
    pub resume_from: Option<Checkpoint>,
}

impl CheckpointPlan {
    /// A plan that emits a checkpoint every `interval` commits to `sink`.
    pub fn periodic(
        workload: &str,
        config_hash: u64,
        limit: u64,
        interval: u64,
        sink: impl FnMut(Checkpoint) + Send + 'static,
    ) -> CheckpointPlan {
        CheckpointPlan {
            workload: workload.to_string(),
            config_hash,
            limit,
            interval,
            sink: Some(Box::new(sink)),
            resume_from: None,
        }
    }

    /// A verify-only plan: resume from `checkpoint`, emit nothing.
    pub fn resume(
        workload: &str,
        config_hash: u64,
        limit: u64,
        checkpoint: Checkpoint,
    ) -> CheckpointPlan {
        CheckpointPlan {
            workload: workload.to_string(),
            config_hash,
            limit,
            interval: 0,
            sink: None,
            resume_from: Some(checkpoint),
        }
    }
}

/// The commit-time checkpoint machinery: a reference machine advanced
/// per retirement (verifying every claim, like the oracle), snapshotted
/// every `interval` commits, and optionally cross-checked against a
/// resumed checkpoint at its commit count.
pub struct CommitWatch<I> {
    source: Box<dyn CheckpointSource<I>>,
    isa: &'static str,
    workload: String,
    config_hash: u64,
    limit: u64,
    interval: u64,
    committed: u64,
    sink: Option<Box<dyn FnMut(Checkpoint) + Send>>,
    verify_at: Option<(u64, ArchSnapshot)>,
}

impl<I: UopInsn> CommitWatch<I> {
    /// Build the watch for `frontend`'s checkpoint source, or
    /// [`CheckpointError::Unsupported`] if it has none. Validates
    /// `plan.resume_from` against the run identity up front, so a
    /// mismatched checkpoint fails before any cycle is simulated.
    pub fn from_plan<F>(
        frontend: &F,
        plan: CheckpointPlan,
    ) -> Result<CommitWatch<I>, CheckpointError>
    where
        F: popk_trace::Frontend<I>,
    {
        let source = frontend
            .checkpoint_source()
            .ok_or(CheckpointError::Unsupported)?;
        let verify_at = match plan.resume_from {
            Some(c) => {
                c.validate_for(frontend.isa(), &plan.workload, plan.config_hash, plan.limit)?;
                Some((c.committed, c.arch))
            }
            None => None,
        };
        Ok(CommitWatch {
            source,
            isa: frontend.isa(),
            workload: plan.workload,
            config_hash: plan.config_hash,
            limit: plan.limit,
            interval: plan.interval,
            committed: 0,
            sink: plan.sink,
            verify_at,
        })
    }

    /// Observe one retirement: re-execute `claim` on the reference
    /// machine (lockstep verification), cross-check a resumed
    /// checkpoint's snapshot when its commit count is reached, and emit
    /// a periodic checkpoint when due.
    pub fn advance(&mut self, claim: &Uop<I>) -> Result<(), CheckpointError> {
        if let Err(m) = self.source.verify(claim) {
            return Err(CheckpointError::Divergence {
                committed: self.committed,
                field: m.field,
            });
        }
        self.committed += 1;
        if let Some((k, _)) = self.verify_at {
            if self.committed == k {
                let (_, expected) = self.verify_at.take().expect("checked above");
                if let Some(field) = self.source.snapshot().first_difference(&expected) {
                    return Err(CheckpointError::Divergence {
                        committed: self.committed,
                        field,
                    });
                }
            }
        }
        if self.interval > 0 && self.committed.is_multiple_of(self.interval) {
            if let Some(sink) = self.sink.as_mut() {
                sink(Checkpoint {
                    isa: self.isa.to_string(),
                    workload: self.workload.clone(),
                    config_hash: self.config_hash,
                    limit: self.limit,
                    committed: self.committed,
                    arch: self.source.snapshot(),
                });
            }
        }
        Ok(())
    }

    /// Whether a resumed checkpoint is still awaiting verification (its
    /// commit count has not been reached). The run loop surfaces this as
    /// a divergence if the run ends first — a checkpoint claiming more
    /// commits than the run produces is inconsistent state.
    pub fn pending_verification(&self) -> Option<u64> {
        self.verify_at.as_ref().map(|&(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            isa: "pisa".into(),
            workload: "gzip".into(),
            config_hash: 0xdead_beef_0123_4567,
            limit: 200_000,
            committed: 5_000,
            arch: ArchSnapshot {
                icount: 5_000,
                pc: 0x0040_0010,
                regs: (0..67).collect(),
                pages: vec![SnapshotPage {
                    base: 0x1000_0000,
                    data: (0..=255u8).cycle().take(4096).collect(),
                }],
                out_ints: vec![-3, 17],
                out_bytes: b"ok\n".to_vec(),
                exited: None,
            },
        }
    }

    #[test]
    fn body_roundtrips_exactly() {
        let c = sample();
        let body = c.to_body();
        let back = Checkpoint::parse(&body).expect("parses");
        assert_eq!(back, c);
        // Serialization is deterministic.
        assert_eq!(back.to_body(), body);
    }

    #[test]
    fn truncated_corrupted_and_stale_bodies_are_typed_errors() {
        let body = sample().to_body();

        // Truncation → malformed JSON.
        assert!(matches!(
            Checkpoint::parse(&body[..body.len() / 2]),
            Err(CheckpointError::Malformed(_))
        ));

        // Bit-rot that stays valid JSON → integrity mismatch.
        let flipped = body.replacen("\"committed\": 5000", "\"committed\": 5001", 1);
        assert_ne!(flipped, body);
        assert_eq!(Checkpoint::parse(&flipped), Err(CheckpointError::Corrupt));

        // A resealed body from another schema version → stale.
        let mut j = Json::parse(&body).unwrap();
        j.set("checkpoint_version", Json::from(CHECKPOINT_VERSION + 3));
        let stale = seal(j);
        assert_eq!(
            Checkpoint::parse(&stale),
            Err(CheckpointError::StaleVersion {
                found: CHECKPOINT_VERSION + 3
            })
        );

        // A resealed body missing a required field → malformed.
        let mut j = Json::parse(&body).unwrap();
        j.remove("workload");
        assert!(matches!(
            Checkpoint::parse(&seal(j)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn identity_validation_names_the_field() {
        let c = sample();
        c.validate_for("pisa", "gzip", c.config_hash, c.limit)
            .expect("matching identity");
        let field = |r: Result<(), CheckpointError>| match r {
            Err(CheckpointError::Mismatch { field }) => field,
            other => panic!("expected mismatch, got {other:?}"),
        };
        assert_eq!(
            field(c.validate_for("rv32", "gzip", c.config_hash, c.limit)),
            "isa"
        );
        assert_eq!(
            field(c.validate_for("pisa", "gcc", c.config_hash, c.limit)),
            "workload"
        );
        assert_eq!(field(c.validate_for("pisa", "gzip", 1, c.limit)), "config");
        assert_eq!(
            field(c.validate_for("pisa", "gzip", c.config_hash, 7)),
            "limit"
        );
    }

    #[test]
    fn save_load_roundtrips_atomically() {
        let dir = std::env::temp_dir().join(format!("popk-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("row.ckpt.json");
        let c = sample();
        c.save(&path).expect("save");
        assert_eq!(Checkpoint::load(&path).expect("load"), c);
        // No temp litter after a completed save.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".ckpt.tmp"))
            .collect();
        assert!(litter.is_empty());
        assert!(matches!(
            Checkpoint::load(&dir.join("absent.json")),
            Err(CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }
}
