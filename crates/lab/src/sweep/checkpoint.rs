//! Resume-safe campaign checkpoints.
//!
//! A [`Checkpoint`] holds every completed shard's trial results plus
//! per-cell graph metadata, keyed by the stable shard/cell keys of
//! [`crate::sweep::spec`]. It is saved after **every** shard (atomically:
//! write to a temp file, then rename), so a killed campaign loses at most
//! the shard in flight. Because shard results are bit-identical to the
//! corresponding slice of an uninterrupted run (per-trial seeds are
//! globally indexed) and serialization is canonical (keys sorted, one
//! deterministic number rendering), the checkpoint an interrupted-then-
//! resumed campaign ends with is *byte*-identical to the one a straight
//! run writes — the resume test asserts exactly that.

use super::json::Json;
use super::spec::SweepSpec;
use popele_engine::faults::Recovery;
use popele_engine::monte_carlo::TrialResult;
use popele_engine::stabilize::HoldingTime;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Loose-stabilization metrics of one arbitrarily-initialized trial,
/// as persisted (the election step itself lives in
/// [`TrialRecord::steps`], so only the holding phase is mirrored from
/// [`HoldingTime`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoldingRecord {
    /// Steps the unique-leader configuration held before its first
    /// violation; `None` when no violation was observed.
    pub hold: Option<u64>,
    /// The hold was still intact when the step budget ran out
    /// (right-censored).
    pub held_to_budget: bool,
}

impl From<HoldingTime> for HoldingRecord {
    fn from(h: HoldingTime) -> Self {
        Self {
            hold: h.hold_steps,
            held_to_budget: h.held_to_budget,
        }
    }
}

/// Result of one trial, as persisted.
///
/// The census is never enabled in sweeps, so only the stabilization
/// step (or timeout), the elected leader and — for faulted cells — the
/// recovery metrics are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Global trial index within the cell.
    pub trial: usize,
    /// Stabilization step; `None` records a budget timeout. For
    /// stabilizing cells this is the *election* step from the trial's
    /// arbitrary start configuration.
    pub steps: Option<u64>,
    /// Elected leader, when one was stable at the end.
    pub leader: Option<u32>,
    /// Recovery metrics, for trials run under a nonempty fault plan.
    /// Rendered (and parsed) only when present, so fault-free
    /// checkpoints keep their exact pre-fault-axis byte format.
    pub recovery: Option<Recovery>,
    /// Holding metrics, for self-stabilization trials (arbitrary
    /// starts). Rendered only when present, so pre-existing
    /// checkpoints keep their exact byte format and still resume.
    pub holding: Option<HoldingRecord>,
}

impl From<&TrialResult> for TrialRecord {
    fn from(r: &TrialResult) -> Self {
        Self {
            trial: r.trial,
            steps: r.stabilization_step,
            leader: r.leader,
            recovery: r.recovery,
            holding: r.holding.map(Into::into),
        }
    }
}

/// Graph metadata of a cell, recorded when its first shard runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellMeta {
    /// Actual node count (families may round the nominal size).
    pub n: u32,
    /// Edge count.
    pub m: u64,
}

/// Persistent state of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the producing [`SweepSpec`]; loading under a
    /// different fingerprint is refused.
    pub fingerprint: String,
    /// Completed shards: shard key → trial records (ascending trials).
    pub shards: BTreeMap<String, Vec<TrialRecord>>,
    /// Cell key → graph metadata.
    pub cells: BTreeMap<String, CellMeta>,
}

impl Checkpoint {
    /// Empty checkpoint for a spec.
    #[must_use]
    pub fn new(spec: &SweepSpec) -> Self {
        Self {
            fingerprint: spec.fingerprint(),
            shards: BTreeMap::new(),
            cells: BTreeMap::new(),
        }
    }

    /// Canonical JSON rendering (sorted keys; a pure function of the
    /// contents).
    #[must_use]
    pub fn render(&self) -> String {
        let shards = self
            .shards
            .iter()
            .map(|(key, records)| {
                let rows = records.iter().map(record_to_json).collect();
                (key.clone(), Json::Arr(rows))
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|(key, meta)| {
                (
                    key.clone(),
                    Json::Obj(vec![
                        ("n".into(), Json::from_u64(u64::from(meta.n))),
                        ("m".into(), Json::from_u64(meta.m)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
            ("cells".into(), Json::Obj(cells)),
            ("shards".into(), Json::Obj(shards)),
        ])
        .render()
    }

    /// Parses a rendered checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing/mistyped field.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let fingerprint = root
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("missing fingerprint")?
            .to_string();
        let mut cells = BTreeMap::new();
        if let Some(Json::Obj(members)) = root.get("cells") {
            for (key, meta) in members {
                let n = meta
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or("cell missing n")?;
                let m = meta
                    .get("m")
                    .and_then(Json::as_u64)
                    .ok_or("cell missing m")?;
                cells.insert(
                    key.clone(),
                    CellMeta {
                        n: u32::try_from(n).map_err(|e| e.to_string())?,
                        m,
                    },
                );
            }
        }
        let mut shards = BTreeMap::new();
        if let Some(Json::Obj(members)) = root.get("shards") {
            for (key, rows) in members {
                let rows = rows.as_arr().ok_or("shard records must be an array")?;
                let records = rows
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                shards.insert(key.clone(), records);
            }
        }
        Ok(Self {
            fingerprint,
            shards,
            cells,
        })
    }

    /// Loads a checkpoint from disk.
    ///
    /// # Errors
    ///
    /// I/O errors propagate; parse errors surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Atomically writes the checkpoint (temp file + rename), so a kill
    /// mid-save never corrupts the previous checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.render())?;
        std::fs::rename(&tmp, path)
    }

    /// Merges one journal entry into the checkpoint — the replay step
    /// of journaled checkpointing. Idempotent: re-applying an entry a
    /// compaction already folded in rewrites the same key with the same
    /// value, which is what makes a crash *between* compacting and
    /// clearing the journal harmless.
    pub fn apply_entry(&mut self, entry: &JournalEntry) {
        self.cells.insert(entry.cell_key.clone(), entry.meta);
        self.shards
            .insert(entry.shard_key.clone(), entry.records.clone());
    }

    /// All records of a cell, in ascending trial order, assembled from
    /// its shards.
    #[must_use]
    pub fn cell_records(&self, cell_key: &str) -> Vec<TrialRecord> {
        let prefix = format!("{cell_key}/s");
        let mut records: Vec<TrialRecord> = self
            .shards
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .flat_map(|(_, rs)| rs.iter().copied())
            .collect();
        records.sort_by_key(|r| r.trial);
        records
    }
}

/// One trial record as a JSON object — the row format shared by the
/// canonical checkpoint and the journal lines. The optional recovery
/// and holding objects are appended only when present, so fault-free
/// checkpoints keep their exact pre-fault-axis byte format.
fn record_to_json(r: &TrialRecord) -> Json {
    let mut members = vec![
        ("trial".into(), Json::from_u64(r.trial as u64)),
        ("steps".into(), Json::from_opt_u64(r.steps)),
        ("leader".into(), Json::from_opt_u64(r.leader.map(u64::from))),
    ];
    if let Some(rec) = &r.recovery {
        members.push((
            "recovery".into(),
            Json::Obj(vec![
                (
                    "last_fault_step".into(),
                    Json::from_u64(rec.last_fault_step),
                ),
                (
                    "faults_applied".into(),
                    Json::from_u64(u64::from(rec.faults_applied)),
                ),
                (
                    "reconvergence".into(),
                    Json::from_opt_u64(rec.reconvergence_steps),
                ),
                (
                    "peak_leaders".into(),
                    Json::from_u64(u64::from(rec.peak_leaders)),
                ),
                (
                    "final_leaders".into(),
                    Json::from_u64(u64::from(rec.final_leaders)),
                ),
                ("leader_lost".into(), Json::Bool(rec.leader_lost)),
            ]),
        ));
    }
    if let Some(h) = &r.holding {
        members.push((
            "holding".into(),
            Json::Obj(vec![
                ("hold".into(), Json::from_opt_u64(h.hold)),
                ("held_to_budget".into(), Json::Bool(h.held_to_budget)),
            ]),
        ));
    }
    Json::Obj(members)
}

/// Parses one trial-record row (the inverse of [`record_to_json`]).
fn record_from_json(row: &Json) -> Result<TrialRecord, String> {
    let trial = row
        .get("trial")
        .and_then(Json::as_u64)
        .ok_or("record missing trial")?;
    let steps = match row.get("steps") {
        Some(Json::Null) | None => None,
        Some(v) => Some(v.as_u64().ok_or("steps must be an integer")?),
    };
    let leader = match row.get("leader") {
        Some(Json::Null) | None => None,
        Some(v) => {
            let raw = v.as_u64().ok_or("leader must be an integer")?;
            Some(u32::try_from(raw).map_err(|e| e.to_string())?)
        }
    };
    let recovery = match row.get("recovery") {
        Some(Json::Null) | None => None,
        Some(rec) => {
            let u64_field = |name: &str| {
                rec.get(name)
                    .and_then(Json::as_u64)
                    .ok_or(format!("recovery missing {name}"))
            };
            let u32_field = |name: &str| -> Result<u32, String> {
                u32::try_from(u64_field(name)?).map_err(|e| e.to_string())
            };
            let reconvergence_steps = match rec.get("reconvergence") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("reconvergence must be an integer")?),
            };
            let leader_lost = match rec.get("leader_lost") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("recovery missing leader_lost".into()),
            };
            Some(Recovery {
                last_fault_step: u64_field("last_fault_step")?,
                faults_applied: u32_field("faults_applied")?,
                reconvergence_steps,
                peak_leaders: u32_field("peak_leaders")?,
                final_leaders: u32_field("final_leaders")?,
                leader_lost,
            })
        }
    };
    let holding = match row.get("holding") {
        Some(Json::Null) | None => None,
        Some(h) => {
            let hold = match h.get("hold") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("hold must be an integer")?),
            };
            let held_to_budget = match h.get("held_to_budget") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("holding missing held_to_budget".into()),
            };
            Some(HoldingRecord {
                hold,
                held_to_budget,
            })
        }
    };
    Ok(TrialRecord {
        trial: trial as usize,
        steps,
        leader,
        recovery,
        holding,
    })
}

/// One completed shard as journaled: everything [`Checkpoint::apply_entry`]
/// needs to reconstruct the checkpoint's view of that shard.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Stable shard key (`cell/sN`).
    pub shard_key: String,
    /// Stable key of the cell the shard belongs to.
    pub cell_key: String,
    /// Graph metadata of the cell (re-journaled with every shard; tiny,
    /// and it keeps each line self-contained).
    pub meta: CellMeta,
    /// Trial records of the shard (ascending trials).
    pub records: Vec<TrialRecord>,
}

impl JournalEntry {
    /// Renders the entry as one compact JSONL line (no trailing
    /// newline). Deterministic, like the checkpoint rendering.
    #[must_use]
    pub fn render_line(&self) -> String {
        Json::Obj(vec![
            ("shard".into(), Json::Str(self.shard_key.clone())),
            ("cell".into(), Json::Str(self.cell_key.clone())),
            ("n".into(), Json::from_u64(u64::from(self.meta.n))),
            ("m".into(), Json::from_u64(self.meta.m)),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(record_to_json).collect()),
            ),
        ])
        .render_compact()
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing/mistyped field.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let root = Json::parse(line)?;
        let shard_key = root
            .get("shard")
            .and_then(Json::as_str)
            .ok_or("journal entry missing shard")?
            .to_string();
        let cell_key = root
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("journal entry missing cell")?
            .to_string();
        let n = root
            .get("n")
            .and_then(Json::as_u64)
            .ok_or("journal entry missing n")?;
        let m = root
            .get("m")
            .and_then(Json::as_u64)
            .ok_or("journal entry missing m")?;
        let records = root
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("journal entry missing records")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            shard_key,
            cell_key,
            meta: CellMeta {
                n: u32::try_from(n).map_err(|e| e.to_string())?,
                m,
            },
            records,
        })
    }
}

/// Append-only shard journal (`checkpoint.log`), the O(shard) half of
/// journaled checkpointing.
///
/// The file is JSONL: a header line carrying the campaign fingerprint,
/// then one [`JournalEntry`] line per completed shard. Completing a
/// shard appends one line (and flushes) instead of rewriting the whole
/// `checkpoint.json`; a periodic *compaction* folds the journal into
/// the canonical checkpoint ([`Checkpoint::save`]) and [`Journal::clear`]s
/// the file. On load, surviving lines are replayed through
/// [`Checkpoint::apply_entry`], which keeps resume byte-exact.
///
/// Crash story: a kill mid-append can leave a truncated last line —
/// [`Journal::open`] drops exactly that line (the shard in flight, same
/// loss as the pre-journal design) and rewrites the file; a kill
/// between compaction's save and clear leaves already-folded entries in
/// the journal, which replay idempotently. A malformed line *before* a
/// valid one is real corruption and is refused.
#[derive(Debug)]
pub struct Journal {
    path: std::path::PathBuf,
    file: std::fs::File,
    entries: usize,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for a campaign with
    /// `fingerprint`, returning the journal and the entries that
    /// survive from a previous run, in file order.
    ///
    /// # Errors
    ///
    /// I/O errors other than a missing file propagate. A header
    /// fingerprint mismatch and mid-file corruption — a terminated line
    /// that is not UTF-8 or not a valid entry — surface as
    /// [`io::ErrorKind::InvalidData`] (mirroring the checkpoint's
    /// fingerprint policy) and leave the file untouched.
    pub fn open(path: &Path, fingerprint: &str) -> io::Result<(Self, Vec<JournalEntry>)> {
        let invalid = |e: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Only terminated lines count. An unterminated tail is the
        // append in flight when the previous run died, and is dropped;
        // a header without its newline is a kill during journal
        // creation, so nothing was journaled yet and the file starts
        // over.
        let mut lines = bytes
            .split_inclusive(|&b| b == b'\n')
            .map_while(|line| line.strip_suffix(b"\n"))
            .map(|line| {
                std::str::from_utf8(line).map_err(|e| invalid(format!("corrupt journal line: {e}")))
            });
        let mut entries = Vec::new();
        if let Some(header) = lines.next() {
            let header = Json::parse(header?).map_err(&invalid)?;
            let found = header.get("fingerprint").and_then(Json::as_str);
            if found != Some(fingerprint) {
                return Err(invalid(format!(
                    "journal fingerprint {found:?} does not match the campaign"
                )));
            }
            for line in lines {
                entries.push(
                    JournalEntry::from_line(line?)
                        .map_err(|e| invalid(format!("corrupt journal line: {e}")))?,
                );
            }
        }
        // Rewrite rather than append-after-truncation: this atomically
        // discards any dropped tail and recreates a missing or
        // headerless file.
        let mut journal = Self::create(path, fingerprint)?;
        for entry in &entries {
            journal.append(entry)?;
        }
        Ok((journal, entries))
    }

    /// Creates a fresh journal containing only the header line
    /// (atomically: temp file + rename, like [`Checkpoint::save`]).
    fn create(path: &Path, fingerprint: &str) -> io::Result<Self> {
        let tmp = path.with_extension("log.tmp");
        let header = Json::Obj(vec![(
            "fingerprint".into(),
            Json::Str(fingerprint.to_string()),
        )])
        .render_compact();
        std::fs::write(&tmp, format!("{header}\n"))?;
        std::fs::rename(&tmp, path)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            entries: 0,
        })
    }

    /// Appends one completed shard and flushes — the O(shard) save.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        use std::io::Write as _;
        let mut line = entry.render_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.entries += 1;
        Ok(())
    }

    /// Entries currently in the journal (i.e. appended since the last
    /// compaction, plus any replayed at open).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the journal holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Empties the journal back to its header line — called right after
    /// a compaction folded the entries into `checkpoint.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn clear(&mut self, fingerprint: &str) -> io::Result<()> {
        let fresh = Self::create(&self.path, fingerprint)?;
        *self = fresh;
        Ok(())
    }

    /// Removes the journal file entirely — called when a campaign
    /// completes and the canonical checkpoint is the whole story.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (a missing file is fine).
    pub fn remove(self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let spec = SweepSpec::default();
        let mut ck = Checkpoint::new(&spec);
        ck.cells
            .insert("token/cycle/2000".into(), CellMeta { n: 2000, m: 2000 });
        ck.shards.insert(
            "token/cycle/2000/s0".into(),
            vec![
                TrialRecord {
                    trial: 0,
                    steps: Some(123_456),
                    leader: Some(17),
                    recovery: None,
                    holding: Some(HoldingRecord {
                        hold: Some(9_999),
                        held_to_budget: false,
                    }),
                },
                TrialRecord {
                    trial: 1,
                    steps: None,
                    leader: None,
                    recovery: Some(Recovery {
                        last_fault_step: 9_000,
                        faults_applied: 3,
                        reconvergence_steps: None,
                        peak_leaders: 7,
                        final_leaders: 0,
                        leader_lost: true,
                    }),
                    holding: Some(HoldingRecord {
                        hold: None,
                        held_to_budget: true,
                    }),
                },
            ],
        );
        ck.shards.insert(
            "token/cycle/2000/s1".into(),
            vec![TrialRecord {
                trial: 2,
                steps: Some(99),
                leader: Some(0),
                recovery: Some(Recovery {
                    last_fault_step: 10,
                    faults_applied: 1,
                    reconvergence_steps: Some(89),
                    peak_leaders: 4,
                    final_leaders: 1,
                    leader_lost: false,
                }),
                holding: None,
            }],
        );
        ck
    }

    #[test]
    fn roundtrip_is_lossless_and_byte_stable() {
        let ck = sample();
        let text = ck.render();
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(ck, back);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn cell_records_merge_shards_in_trial_order() {
        let ck = sample();
        let records = ck.cell_records("token/cycle/2000");
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.trial).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // A prefix of another cell key must not leak in.
        assert!(ck.cell_records("token/cycle/200").is_empty());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("popele-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn entries() -> Vec<JournalEntry> {
        let ck = sample();
        ck.shards
            .iter()
            .map(|(key, records)| JournalEntry {
                shard_key: key.clone(),
                cell_key: "token/cycle/2000".into(),
                meta: ck.cells["token/cycle/2000"],
                records: records.clone(),
            })
            .collect()
    }

    #[test]
    fn journal_entry_line_roundtrip() {
        for entry in entries() {
            let line = entry.render_line();
            assert!(!line.contains('\n'));
            assert_eq!(JournalEntry::from_line(&line).unwrap(), entry);
        }
    }

    #[test]
    fn journal_replay_reconstructs_checkpoint() {
        let dir = std::env::temp_dir().join("popele-journal-replay");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.log");
        let reference = sample();

        let (mut journal, replayed) = Journal::open(&path, &reference.fingerprint).unwrap();
        assert!(replayed.is_empty());
        for entry in entries() {
            journal.append(&entry).unwrap();
        }
        assert_eq!(journal.len(), 2);
        drop(journal);

        // Reopen: every appended entry survives, and replaying them into
        // an empty checkpoint reconstructs the reference byte for byte.
        let (journal, replayed) = Journal::open(&path, &reference.fingerprint).unwrap();
        assert_eq!(journal.len(), 2);
        let mut rebuilt = Checkpoint {
            fingerprint: reference.fingerprint.clone(),
            shards: BTreeMap::new(),
            cells: BTreeMap::new(),
        };
        for entry in &replayed {
            rebuilt.apply_entry(entry);
        }
        assert_eq!(rebuilt.render(), reference.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_drops_truncated_tail_and_refuses_mid_file_corruption() {
        let dir = std::env::temp_dir().join("popele-journal-tail");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.log");
        let fp = sample().fingerprint;
        let all = entries();

        let (mut journal, _) = Journal::open(&path, &fp).unwrap();
        for entry in &all {
            journal.append(entry).unwrap();
        }
        drop(journal);

        // Simulate a kill mid-append: chop the file inside its last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let (journal, replayed) = Journal::open(&path, &fp).unwrap();
        assert_eq!(replayed.len(), all.len() - 1);
        assert_eq!(replayed, all[..all.len() - 1]);
        assert_eq!(journal.len(), all.len() - 1);
        drop(journal);
        // The rewrite discarded the partial tail on disk too.
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(rewritten.ends_with('\n'));
        assert_eq!(rewritten.lines().count(), all.len());

        // A malformed line *before* a valid one is corruption, not a
        // tail, and must be refused.
        let mut lines: Vec<&str> = rewritten.lines().collect();
        lines.insert(1, "{\"shard\": 12}");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = Journal::open(&path, &fp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // So is a byte that is not UTF-8 inside a terminated line: it
        // is refused, and the file is left as it was.
        let mut bytes = rewritten.clone().into_bytes();
        let first_entry = rewritten.find('\n').unwrap() + 1;
        bytes[first_entry + 5] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&path, &fp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // An unterminated tail is dropped even when it is not UTF-8.
        let mut bytes = rewritten.into_bytes();
        bytes.extend_from_slice(b"{\"shard\xFF");
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&path, &fp).unwrap();
        assert_eq!(replayed, all[..all.len() - 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Opens a journal at every prefix of a complete three-entry file,
    /// then with every byte of its entry lines set to 0xFF.
    #[test]
    fn journal_open_survives_every_truncation_and_refuses_every_flip() {
        let dir = std::env::temp_dir().join("popele-journal-every-byte");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.log");
        let fp = sample().fingerprint;
        let mut all = entries();
        all.push(JournalEntry {
            shard_key: "token/cycle/2000/s2".into(),
            ..all[1].clone()
        });
        let (mut journal, _) = Journal::open(&path, &fp).unwrap();
        for entry in &all {
            journal.append(entry).unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        // Byte offsets one past each line's newline: the header, then
        // one per entry.
        let ends: Vec<usize> = (0..full.len())
            .filter(|&i| full[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(ends.len(), all.len() + 1);

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (journal, replayed) = Journal::open(&path, &fp)
                .unwrap_or_else(|e| panic!("prefix of {cut} bytes refused: {e}"));
            let kept = ends[1..].iter().filter(|&&end| end <= cut).count();
            assert_eq!(replayed, all[..kept], "prefix of {cut} bytes");
            assert_eq!(journal.len(), kept);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                full[..ends[kept]],
                "prefix of {cut} bytes leaves the header and its entries"
            );
        }

        for i in ends[0]..full.len() {
            let mut flipped = full.clone();
            flipped[i] = 0xFF;
            std::fs::write(&path, &flipped).unwrap();
            if i == full.len() - 1 {
                // The file's final newline: the last entry becomes an
                // unterminated tail, which is dropped.
                let (_, replayed) = Journal::open(&path, &fp).unwrap();
                assert_eq!(replayed, all[..all.len() - 1]);
                assert_eq!(std::fs::read(&path).unwrap(), full[..ends[all.len() - 1]]);
                continue;
            }
            let err = Journal::open(&path, &fp).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
            assert_eq!(std::fs::read(&path).unwrap(), flipped, "byte {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_refuses_foreign_fingerprint_and_clears_to_header() {
        let dir = std::env::temp_dir().join("popele-journal-fp");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.log");

        let (mut journal, _) = Journal::open(&path, "v1;real").unwrap();
        for entry in entries() {
            journal.append(&entry).unwrap();
        }
        let err = Journal::open(&path, "v1;other").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        journal.clear("v1;real").unwrap();
        assert!(journal.is_empty());
        let (journal, replayed) = Journal::open(&path, "v1;real").unwrap();
        assert!(replayed.is_empty());
        journal.remove().unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_checkpoint_is_invalid_data() {
        let dir = std::env::temp_dir().join("popele-checkpoint-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        std::fs::write(&path, "{\"fingerprint\": 3}").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
