//! The campaign journal: an append-only, crash-tolerant record of what a
//! campaign planned, started, and durably committed.
//!
//! The run cache alone cannot answer "what was the campaign doing when it
//! died?": a missing entry might mean the run was never reached, or that
//! it was mid-simulation when the process was killed. The journal closes
//! that gap with three event kinds appended to
//! `<cache>/journal/campaign.journal`:
//!
//! - `Planned(fp)` — the deduplicated plan, written once up front;
//! - `Started(fp)` — a worker began simulating this fingerprint;
//! - `Committed(fp)` — the outcome was durably published to the cache
//!   (the atomic rename completed).
//!
//! On `--resume`, [`Journal::resume`] replays the log and classifies every
//! fingerprint as *never started*, *in flight at crash* (started, never
//! committed), or *committed* — planner telemetry reports the counts, so a
//! recovered campaign states exactly what the crash interrupted instead of
//! inferring it from cache misses.
//!
//! Multi-process campaigns add three worker-attributed kinds:
//!
//! - `Claimed(fp, pid)` — a worker process acquired the lease for `fp`;
//! - `Heartbeat(fp, pid)` — the worker refreshed its claim mid-run;
//! - `Released(fp, pid)` — the worker gave the claim back (after a
//!   commit, or after a locally-contained failure).
//!
//! Worker processes cannot share the supervisor's journal file handle, so
//! each appends to its own shard ([`Journal::shard`]):
//! `worker-<id>-<pid>.journal` next to `campaign.journal`. One rule
//! covers every file: each `*.journal` in the journal directory belongs
//! to the current campaign. Replay merges them all — classification only
//! needs set union, never cross-file ordering.
//!
//! ## Record format
//!
//! Each record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE] [checksum: u64 LE] [payload: len bytes]
//! payload = [kind: u8] [fingerprint: u64 LE] ([pid: u32 LE])
//! ```
//!
//! (the pid field is present only for the worker-attributed kinds 4-6.)
//!
//! where `checksum` is the stable [`Fingerprint`] hash of the payload
//! bytes. A `kill -9` can land mid-append, leaving a torn tail: replay
//! stops at the first record whose length is implausible or whose
//! checksum fails, truncates the file back to the last whole record, and
//! reports the dropped byte count (`journal_torn_bytes`). Everything
//! before the tear is still trusted — the protocol never needs the tail,
//! because a torn append can only lose the *most recent* events, and a
//! lost `Committed` merely downgrades a run to "in flight", which resume
//! treats conservatively.
//!
//! One journal directory serves one campaign: [`Journal::begin`] removes
//! every `*.journal` before it creates the campaign log, so concurrent
//! campaigns must use distinct cache directories (the same restriction
//! the cache's temp-file naming already lifts for plain stores).

use lf_stats::Fingerprint;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the journal inside the journal directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

/// Prefix of per-worker journal shards inside the journal directory.
pub const WORKER_SHARD_PREFIX: &str = "worker-";

/// Records longer than this are rejected as torn/corrupt during replay
/// (real payloads are 9 bytes; the bound only guards against reading a
/// garbage length and allocating gigabytes).
const MAX_PAYLOAD: u32 = 4096;

/// One journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// A fingerprint entered the deduplicated execution plan.
    Planned(u64),
    /// A worker began simulating the fingerprint.
    Started(u64),
    /// The fingerprint's outcome was durably published to the run cache.
    Committed(u64),
    /// A worker process (with the given pid) acquired the lease.
    Claimed(u64, u32),
    /// The worker refreshed its lease mid-run.
    Heartbeat(u64, u32),
    /// The worker released its lease.
    Released(u64, u32),
}

impl JournalEvent {
    fn kind(&self) -> u8 {
        match self {
            JournalEvent::Planned(_) => 1,
            JournalEvent::Started(_) => 2,
            JournalEvent::Committed(_) => 3,
            JournalEvent::Claimed(_, _) => 4,
            JournalEvent::Heartbeat(_, _) => 5,
            JournalEvent::Released(_, _) => 6,
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            JournalEvent::Planned(fp) | JournalEvent::Started(fp) | JournalEvent::Committed(fp) => {
                *fp
            }
            JournalEvent::Claimed(fp, _)
            | JournalEvent::Heartbeat(fp, _)
            | JournalEvent::Released(fp, _) => *fp,
        }
    }

    fn pid(&self) -> Option<u32> {
        match self {
            JournalEvent::Claimed(_, pid)
            | JournalEvent::Heartbeat(_, pid)
            | JournalEvent::Released(_, pid) => Some(*pid),
            _ => None,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(13);
        payload.push(self.kind());
        payload.extend_from_slice(&self.fingerprint().to_le_bytes());
        if let Some(pid) = self.pid() {
            payload.extend_from_slice(&pid.to_le_bytes());
        }
        let mut record = Vec::with_capacity(12 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&checksum(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        record
    }

    fn decode(payload: &[u8]) -> Option<JournalEvent> {
        if payload.len() < 9 {
            return None;
        }
        let fp = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        match (payload[0], payload.len()) {
            (1, 9) => Some(JournalEvent::Planned(fp)),
            (2, 9) => Some(JournalEvent::Started(fp)),
            (3, 9) => Some(JournalEvent::Committed(fp)),
            (kind @ 4..=6, 13) => {
                let pid = u32::from_le_bytes(payload[9..13].try_into().ok()?);
                Some(match kind {
                    4 => JournalEvent::Claimed(fp, pid),
                    5 => JournalEvent::Heartbeat(fp, pid),
                    _ => JournalEvent::Released(fp, pid),
                })
            }
            _ => None,
        }
    }
}

/// Stable payload checksum (the cross-process [`Fingerprint`] hash, not
/// `DefaultHasher`, so a journal written by one binary replays in
/// another).
fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(payload);
    fp.finish()
}

/// The classification of one fingerprint after replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Planned (or unknown) but never picked up by a worker.
    NeverStarted,
    /// A worker had started it and no commit record exists — the run was
    /// in flight when the campaign died (or its cache store failed).
    InFlight,
    /// Durably committed to the run cache.
    Committed,
}

/// The result of replaying a journal: per-state fingerprint sets plus
/// torn-tail accounting.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Whole records successfully replayed.
    pub records: usize,
    /// Every fingerprint with a `Planned` record.
    pub planned: HashSet<u64>,
    /// Every fingerprint with a `Started` record.
    pub started: HashSet<u64>,
    /// Every fingerprint with a `Committed` record.
    pub committed: HashSet<u64>,
    /// Every fingerprint a worker process `Claimed` (lease acquired).
    pub claimed: HashSet<u64>,
    /// Bytes truncated from a torn tail (0 = the log was whole), summed
    /// across the campaign log and all worker shards.
    pub torn_bytes: u64,
}

impl Replay {
    /// Classifies one fingerprint. A worker-side `Claimed` without a
    /// `Started` still counts as in flight: the lease was acquired, so
    /// the run may have been executing when the campaign died.
    pub fn classify(&self, fingerprint: u64) -> RunState {
        if self.committed.contains(&fingerprint) {
            RunState::Committed
        } else if self.started.contains(&fingerprint) || self.claimed.contains(&fingerprint) {
            RunState::InFlight
        } else {
            RunState::NeverStarted
        }
    }

    /// Merges another file's replay into this one.
    fn absorb(&mut self, other: Replay) {
        self.records += other.records;
        self.planned.extend(other.planned);
        self.started.extend(other.started);
        self.committed.extend(other.committed);
        self.claimed.extend(other.claimed);
        self.torn_bytes += other.torn_bytes;
    }
}

/// Handle on an open campaign journal. Appends are serialized through a
/// mutex (workers commit `Started` records concurrently) and each append
/// is flushed and fsynced before returning: an event the engine acted on
/// is on disk before the action becomes observable elsewhere.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Starts a fresh journal for a new campaign: removes every
    /// `*.journal` in `dir` (the previous campaign is either complete —
    /// its journal is history — or is being deliberately restarted from
    /// scratch), then creates an empty campaign log.
    pub fn begin(dir: &Path) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        for path in journal_files(dir)? {
            let _ = std::fs::remove_file(path);
        }
        let path = dir.join(JOURNAL_FILE);
        let file = File::create(&path)?;
        Ok(Journal { path, file: Mutex::new(file) })
    }

    /// Reopens the journal of a crashed (or completed) campaign: replays
    /// every whole record of every `*.journal` in `dir`, truncates torn
    /// tails in place, and returns the journal positioned to append. A missing journal resumes as empty — the campaign may
    /// have died before planning.
    pub fn resume(dir: &Path) -> io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let replay = replay_dir(dir)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((Journal { path, file: Mutex::new(file) }, replay))
    }

    /// Opens (creating if needed) a per-worker journal shard,
    /// `worker-<label>.journal`, in append mode. Worker processes cannot
    /// share the supervisor's file handle without interleaving torn
    /// records, so each gets its own shard; replay merges them.
    pub fn shard(dir: &Path, label: &str) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{WORKER_SHARD_PREFIX}{label}.journal"));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file: Mutex::new(file) })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event, fsyncing before returning.
    pub fn append(&self, event: JournalEvent) -> io::Result<()> {
        self.append_all(&[event])
    }

    /// Appends a batch of events with a single fsync (the planned-set
    /// prologue writes hundreds of records; one sync covers them all).
    pub fn append_all(&self, events: &[JournalEvent]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(events.len() * 21);
        for ev in events {
            buf.extend_from_slice(&ev.encode());
        }
        let mut file = self.file.lock().expect("journal mutex poisoned");
        file.write_all(&buf)?;
        file.sync_data()
    }
}

/// Every `*.journal` in `dir`, sorted (sets make merge order irrelevant
/// for classification, but torn-byte accounting reads better stable). A
/// missing directory holds none.
fn journal_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "journal"))
        .collect();
    files.sort();
    Ok(files)
}

/// Replays and merges every `*.journal` in `dir` — the campaign log and
/// all worker shards — truncating torn tails in each file.
pub fn replay_dir(dir: &Path) -> io::Result<Replay> {
    let mut replay = Replay::default();
    for file in journal_files(dir)? {
        replay.absorb(replay_and_truncate(&file)?);
    }
    Ok(replay)
}

/// Replays the journal at `path`, truncating any torn tail back to the
/// last whole record. A missing file replays as empty.
pub fn replay_and_truncate(path: &Path) -> io::Result<Replay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    }

    let mut replay = Replay::default();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            break;
        }
        let Some(record) = read_record(rest) else {
            // Torn tail: truncate back to the last whole record.
            replay.torn_bytes = rest.len() as u64;
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(offset as u64)?;
            f.sync_all()?;
            break;
        };
        let (event, consumed) = record;
        match event {
            JournalEvent::Planned(fp) => {
                replay.planned.insert(fp);
            }
            JournalEvent::Started(fp) => {
                replay.started.insert(fp);
            }
            JournalEvent::Committed(fp) => {
                replay.committed.insert(fp);
            }
            JournalEvent::Claimed(fp, _) => {
                replay.claimed.insert(fp);
            }
            // Heartbeats refresh liveness, not state; a release does not
            // un-claim for classification (the claim still says "a worker
            // may have been executing this").
            JournalEvent::Heartbeat(_, _) | JournalEvent::Released(_, _) => {}
        }
        replay.records += 1;
        offset += consumed;
    }
    Ok(replay)
}

/// Decodes one whole record from the head of `bytes`, or `None` if the
/// head is torn (short header, implausible length, short payload, bad
/// checksum, or unknown payload shape).
fn read_record(bytes: &[u8]) -> Option<(JournalEvent, usize)> {
    if bytes.len() < 12 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD {
        return None;
    }
    let end = 12 + len as usize;
    if bytes.len() < end {
        return None;
    }
    let stored = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    let payload = &bytes[12..end];
    if checksum(payload) != stored {
        return None;
    }
    Some((JournalEvent::decode(payload)?, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("lf-bench-journal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_classifies() {
        let dir = scratch_dir("round-trip");
        let j = Journal::begin(&dir).unwrap();
        j.append_all(&[
            JournalEvent::Planned(1),
            JournalEvent::Planned(2),
            JournalEvent::Planned(3),
        ])
        .unwrap();
        j.append(JournalEvent::Started(1)).unwrap();
        j.append(JournalEvent::Committed(1)).unwrap();
        j.append(JournalEvent::Started(2)).unwrap();
        drop(j);

        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.classify(1), RunState::Committed);
        assert_eq!(replay.classify(2), RunState::InFlight, "started but never committed");
        assert_eq!(replay.classify(3), RunState::NeverStarted);
        assert_eq!(replay.classify(999), RunState::NeverStarted, "unknown = never started");
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = scratch_dir("torn");
        let j = Journal::begin(&dir).unwrap();
        j.append(JournalEvent::Planned(7)).unwrap();
        j.append(JournalEvent::Started(7)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        // A kill mid-append leaves a prefix of the next record.
        let whole = std::fs::read(&path).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&JournalEvent::Committed(7).encode()[..10]);
        std::fs::write(&path, &torn).unwrap();

        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 2, "whole records replay");
        assert_eq!(replay.torn_bytes, 10, "the torn tail is measured");
        assert_eq!(replay.classify(7), RunState::InFlight, "the lost commit downgrades safely");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            whole,
            "the file is truncated back to the last whole record"
        );
        // A second replay sees a whole log.
        let (_, again) = Journal::resume(&dir).unwrap();
        assert_eq!(again.torn_bytes, 0);
        assert_eq!(again.records, 2);
    }

    #[test]
    fn corrupted_checksum_tears_the_log_at_the_bad_record() {
        let dir = scratch_dir("checksum");
        let j = Journal::begin(&dir).unwrap();
        j.append(JournalEvent::Planned(1)).unwrap();
        j.append(JournalEvent::Committed(1)).unwrap();
        j.append(JournalEvent::Planned(2)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        // Flip one payload byte of the middle record (bytes 21..42 are the
        // second record; payload starts at 21 + 12).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[21 + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 1, "replay stops at the corrupt record");
        assert_eq!(replay.classify(1), RunState::NeverStarted, "the lost commit is dropped");
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn missing_journal_resumes_empty() {
        let dir = scratch_dir("missing");
        let (j, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 0);
        assert_eq!(replay.torn_bytes, 0);
        // And the handle is usable.
        j.append(JournalEvent::Planned(5)).unwrap();
        let (_, again) = Journal::resume(&dir).unwrap();
        assert_eq!(again.records, 1);
    }

    #[test]
    fn begin_truncates_the_previous_campaign() {
        let dir = scratch_dir("fresh");
        let j = Journal::begin(&dir).unwrap();
        j.append(JournalEvent::Planned(1)).unwrap();
        drop(j);
        let j2 = Journal::begin(&dir).unwrap();
        drop(j2);
        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 0, "begin() starts a fresh log");
    }

    #[test]
    fn worker_shards_merge_into_the_replay() {
        let dir = scratch_dir("shards");
        let j = Journal::begin(&dir).unwrap();
        j.append_all(&[JournalEvent::Planned(1), JournalEvent::Planned(2)]).unwrap();
        drop(j);

        let w0 = Journal::shard(&dir, "0-100").unwrap();
        w0.append(JournalEvent::Claimed(1, 100)).unwrap();
        w0.append(JournalEvent::Started(1)).unwrap();
        w0.append(JournalEvent::Committed(1)).unwrap();
        w0.append(JournalEvent::Released(1, 100)).unwrap();
        drop(w0);
        let w1 = Journal::shard(&dir, "1-101").unwrap();
        w1.append(JournalEvent::Claimed(2, 101)).unwrap();
        w1.append(JournalEvent::Heartbeat(2, 101)).unwrap();
        drop(w1);

        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 2 + 4 + 2);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.classify(1), RunState::Committed);
        assert_eq!(
            replay.classify(2),
            RunState::InFlight,
            "claimed-but-never-committed counts as in flight"
        );

        // A stray non-worker journal is the campaign's too until a fresh
        // campaign starts: a fresh campaign clears it along with the log
        // and the shards.
        let stray = dir.join("stray.journal");
        std::fs::write(&stray, JournalEvent::Committed(9).encode()).unwrap();
        assert_eq!(replay_dir(&dir).unwrap().classify(9), RunState::Committed);
        drop(Journal::begin(&dir).unwrap());
        assert!(!stray.exists(), "begin() removes every *.journal");
        let (_, again) = Journal::resume(&dir).unwrap();
        assert_eq!(again.records, 0, "begin() removes worker shards and stray journals");
        assert_eq!(again.classify(9), RunState::NeverStarted);
    }

    #[test]
    fn worker_event_payloads_round_trip() {
        let dir = scratch_dir("worker-events");
        let j = Journal::begin(&dir).unwrap();
        let events = [
            JournalEvent::Claimed(0xdead_beef, 4242),
            JournalEvent::Heartbeat(0xdead_beef, 4242),
            JournalEvent::Released(0xdead_beef, 4242),
        ];
        j.append_all(&events).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        let replay = replay_and_truncate(&path).unwrap();
        assert_eq!(replay.records, 3);
        assert!(replay.claimed.contains(&0xdead_beef));
        // And the raw decode matches what was appended.
        for ev in &events {
            let encoded = ev.encode();
            let (decoded, consumed) = read_record(&encoded).unwrap();
            assert_eq!(&decoded, ev);
            assert_eq!(consumed, encoded.len());
        }
    }

    #[test]
    fn concurrent_appends_interleave_whole_records() {
        let dir = scratch_dir("concurrent");
        let j = std::sync::Arc::new(Journal::begin(&dir).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = j.clone();
                scope.spawn(move || {
                    for i in 0..25u64 {
                        j.append(JournalEvent::Started(t * 1000 + i)).unwrap();
                    }
                });
            }
        });
        let (_, replay) = Journal::resume(&dir).unwrap();
        assert_eq!(replay.records, 100, "all records are whole despite concurrent appenders");
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.started.len(), 100);
    }
}
