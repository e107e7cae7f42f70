//! Snapshot + append-only replay-log persistence for the serving index.
//!
//! The pre-scale serving layer persisted the whole index as one JSON
//! document per save — O(catalog) bytes rewritten for every record change.
//! [`IndexStore`] replaces that with the classic snapshot + WAL split:
//!
//! * **`snapshot.json`** — a full [`IncrementalIndex::to_json`] document,
//!   written atomically (temp file + rename).
//! * **`wal.log`** — an append-only log of upsert/remove operations applied
//!   since the snapshot. Each record is framed as
//!
//!   ```text
//!   llllllll cccccccc <payload>\n
//!   ```
//!
//!   where `llllllll` is the payload byte length and `cccccccc` the
//!   payload's CRC-32 (IEEE), both lowercase hex; the payload is a one-line
//!   JSON object (`{"op":"upsert","row":N,"value":...}` or
//!   `{"op":"remove","row":N}`).
//!
//! Recovery ([`IndexStore::open`]) loads the snapshot, replays the log, and
//! verifies the index's postings invariants. The frame format makes torn
//! writes detectable and recoverable: a crash mid-append leaves a final
//! record that is a strict prefix of a valid frame, which recovery drops
//! (truncating the log back to the last complete record) — the index state
//! is then exactly the pre-crash state minus the interrupted write. Any
//! *interior* damage — a header that is not hex-and-spaces, a length field
//! that runs past a later frame, a payload whose CRC does not match, a
//! missing `\n` terminator — is a hard error, never a silently wrong index.
//! `scan_frames` is the one scanner both this log and the catalog
//! store's record file recover with.
//!
//! Replaying an operation is idempotent (an upsert carries the record's
//! absolute value, not a delta), so [`IndexStore::snapshot`] can rename the
//! new snapshot into place *before* truncating the log: a crash between
//! the two steps merely replays ops the snapshot already contains.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::IncrementalIndex;
use em_ml::jsonio;
use em_rt::Json;

/// WAL records appended.
static APPENDS: em_obs::Counter = em_obs::Counter::new("serve.store_appends");
/// Snapshots written.
static SNAPSHOTS: em_obs::Counter = em_obs::Counter::new("serve.store_snapshots");
/// WAL records replayed during recovery.
static REPLAYED: em_obs::Counter = em_obs::Counter::new("serve.store_replayed");
/// Torn final records dropped during recovery.
static TORN_TAILS: em_obs::Counter = em_obs::Counter::new("serve.store_torn_tails");
/// Operations in the log since the last snapshot (live-telemetry runs only).
static G_WAL_RECORDS: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.wal_records");
/// Bytes of complete frames in the log (live-telemetry runs only).
static G_WAL_BYTES: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.wal_bytes");

/// Frame header: 8 hex length digits, space, 8 hex CRC digits, space.
pub(crate) const HEADER_LEN: usize = 18;

/// CRC-32 (IEEE 802.3, reflected polynomial) lookup table, built at
/// compile time so the crate stays dependency-free.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// One replayable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Upsert { row: usize, value: Option<String> },
    Remove { row: usize },
}

impl Op {
    fn to_payload(&self) -> String {
        match self {
            Op::Upsert { row, value } => Json::obj([
                ("op", Json::from("upsert")),
                ("row", Json::from(*row)),
                (
                    "value",
                    match value {
                        Some(s) => Json::from(s.as_str()),
                        None => Json::Null,
                    },
                ),
            ])
            .render(),
            Op::Remove { row } => {
                Json::obj([("op", Json::from("remove")), ("row", Json::from(*row))]).render()
            }
        }
    }

    fn from_payload(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("wal payload: {e}"))?;
        let j = Json::parse(text).map_err(|e| format!("wal payload: {e}"))?;
        let op = jsonio::as_str(jsonio::field(&j, "op")?)?;
        let row = jsonio::as_usize(jsonio::field(&j, "row")?)?;
        match op {
            "upsert" => {
                let value = match jsonio::field(&j, "value")? {
                    Json::Null => None,
                    other => Some(jsonio::as_str(other)?.to_string()),
                };
                Ok(Op::Upsert { row, value })
            }
            "remove" => Ok(Op::Remove { row }),
            other => Err(format!("wal payload: unknown op {other:?}")),
        }
    }

    fn apply(&self, index: &mut IncrementalIndex) {
        match self {
            Op::Upsert { row, value } => index.upsert(*row, value.as_deref()),
            Op::Remove { row } => index.remove(*row),
        }
    }
}

/// Frame `payload` for the log: hex length + hex CRC + payload + newline.
pub(crate) fn frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + bytes.len() + 1);
    out.extend_from_slice(format!("{:08x} {:08x} ", bytes.len(), crc32(bytes)).as_bytes());
    out.extend_from_slice(bytes);
    out.push(b'\n');
    out
}

/// True when `bytes` could be the prefix of a well-formed frame header
/// (hex digits with spaces at offsets 8 and 17) — i.e. a torn write, not
/// interior corruption.
fn is_header_prefix(bytes: &[u8]) -> bool {
    bytes.iter().enumerate().all(|(i, &b)| match i {
        8 | 17 => b == b' ',
        _ => b.is_ascii_hexdigit() && !b.is_ascii_uppercase(),
    })
}

/// Parse 8 lowercase hex digits.
pub(crate) fn parse_hex8(bytes: &[u8]) -> Option<u32> {
    let s = std::str::from_utf8(bytes).ok()?;
    u32::from_str_radix(s, 16).ok()
}

/// Parse a complete frame header into `(payload_len, crc)`; `None` when it
/// is not hex-and-spaces.
pub(crate) fn parse_header(header: &[u8]) -> Option<(usize, u32)> {
    if header.len() != HEADER_LEN || !is_header_prefix(header) {
        return None;
    }
    Some((
        parse_hex8(&header[0..8])? as usize,
        parse_hex8(&header[9..17])?,
    ))
}

/// Check a frame body (payload plus terminator) against its header CRC and
/// return the payload, or what is wrong with it.
pub(crate) fn check_body(body: &[u8], crc: u32) -> Result<&[u8], &'static str> {
    match body.split_last() {
        Some((b'\n', payload)) if crc32(payload) == crc => Ok(payload),
        Some((b'\n', _)) => Err("crc mismatch"),
        _ => Err("missing frame terminator"),
    }
}

/// Scan `bytes` as a log of frames, handing each complete payload and its
/// frame's byte offset to `visit`, and return the byte length of the
/// complete-frame prefix.
///
/// The prefix is shorter than `bytes` only when the log ends in a torn
/// write: a strict prefix of a frame. Payloads never contain a raw `\n`
/// (JSON escapes it), so a frame whose length field runs past the end of
/// the log is torn only when no `\n` follows its header; otherwise a later
/// frame exists and the length field itself is damaged. That, and every
/// other interior fault (malformed header, CRC mismatch, missing
/// terminator), is an error prefixed with `what`.
pub(crate) fn scan_frames(
    bytes: &[u8],
    what: &str,
    mut visit: impl FnMut(usize, &[u8]) -> Result<(), String>,
) -> Result<usize, String> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN && is_header_prefix(rest) {
            return Ok(pos); // torn header
        }
        let (len, crc) = rest
            .get(..HEADER_LEN)
            .and_then(parse_header)
            .ok_or_else(|| format!("{what}: corrupt frame header at byte {pos}"))?;
        let Some(body) = rest.get(HEADER_LEN..HEADER_LEN + len + 1) else {
            if rest[HEADER_LEN..].contains(&b'\n') {
                return Err(format!(
                    "{what}: frame length {len} at byte {pos} runs past the next frame"
                ));
            }
            return Ok(pos); // torn payload
        };
        let payload =
            check_body(body, crc).map_err(|fault| format!("{what}: {fault} at byte {pos}"))?;
        visit(pos, payload)?;
        pos += HEADER_LEN + len + 1;
    }
    Ok(pos)
}

/// Replay `bytes` into `index`. Returns `(valid_len, n_replayed)`:
/// `valid_len` is the byte length of the complete-frame prefix (shorter
/// than `bytes.len()` only when a torn final record was dropped).
fn replay(bytes: &[u8], index: &mut IncrementalIndex) -> Result<(u64, u64), String> {
    let mut replayed = 0u64;
    let valid = scan_frames(bytes, "wal", |_, payload| {
        Op::from_payload(payload)?.apply(index);
        replayed += 1;
        REPLAYED.incr();
        Ok(())
    })?;
    if valid < bytes.len() {
        TORN_TAILS.incr();
    }
    Ok((valid as u64, replayed))
}

pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// On-disk home of one serving index: `snapshot.json` + `wal.log` in a
/// directory. See the module docs for the format and recovery rules.
pub struct IndexStore {
    dir: PathBuf,
    log: File,
    log_bytes: u64,
    log_records: u64,
}

impl IndexStore {
    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.json")
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Initialize `dir` with a snapshot of `index` and an empty log,
    /// creating the directory if needed.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn create(dir: impl Into<PathBuf>, index: &IncrementalIndex) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let mut store = IndexStore {
            log: OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::wal_path(&dir))
                .map_err(|e| io_err("open", &Self::wal_path(&dir), e))?,
            dir,
            log_bytes: 0,
            log_records: 0,
        };
        store.write_snapshot(index)?;
        Ok(store)
    }

    /// Recover the index persisted in `dir`: load the snapshot, replay the
    /// log (dropping a torn final record and truncating the file back to
    /// the last complete frame), and verify the index invariants.
    ///
    /// # Errors
    /// Fails on a missing/corrupt snapshot, interior log corruption, or an
    /// invariant violation in the recovered index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, IncrementalIndex), String> {
        let dir = dir.into();
        let snap_path = Self::snapshot_path(&dir);
        let text = fs::read_to_string(&snap_path).map_err(|e| io_err("read", &snap_path, e))?;
        let doc = Json::parse(&text).map_err(|e| format!("snapshot: {e}"))?;
        let mut index = IncrementalIndex::from_json(&doc)?;
        let wal_path = Self::wal_path(&dir);
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err("open", &wal_path, e))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &wal_path, e))?;
        let (valid_len, log_records) = replay(&bytes, &mut index)?;
        if valid_len < bytes.len() as u64 {
            log.set_len(valid_len)
                .map_err(|e| io_err("truncate", &wal_path, e))?;
        }
        log.seek(SeekFrom::Start(valid_len))
            .map_err(|e| io_err("seek", &wal_path, e))?;
        index
            .verify_invariants()
            .map_err(|e| format!("recovered index failed invariants: {e}"))?;
        Ok((
            IndexStore {
                dir,
                log,
                log_bytes: valid_len,
                log_records,
            },
            index,
        ))
    }

    /// Append one upsert to the log (call before applying it to the index).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn log_upsert(&mut self, row: usize, value: Option<&str>) -> Result<(), String> {
        self.append(&Op::Upsert {
            row,
            value: value.map(str::to_string),
        })
    }

    /// Append one remove to the log (call before applying it to the index).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn log_remove(&mut self, row: usize) -> Result<(), String> {
        self.append(&Op::Remove { row })
    }

    fn append(&mut self, op: &Op) -> Result<(), String> {
        let framed = frame(&op.to_payload());
        let wal_path = Self::wal_path(&self.dir);
        self.log.write_all(&framed).map_err(|e| {
            let msg = io_err("append", &wal_path, e);
            // A failed append means the on-disk log no longer tracks the
            // index; surface it on `/healthz` until a snapshot recovers.
            em_obs::live::set_health("wal", Err(msg.clone()));
            msg
        })?;
        self.log_bytes += framed.len() as u64;
        self.log_records += 1;
        APPENDS.incr();
        self.publish_gauges();
        Ok(())
    }

    /// Write a fresh snapshot of `index` and reset the log. The snapshot
    /// lands atomically (temp + rename) *before* the log is truncated;
    /// replay idempotence makes a crash between the two steps harmless.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn snapshot(&mut self, index: &IncrementalIndex) -> Result<(), String> {
        self.write_snapshot(index)?;
        let wal_path = Self::wal_path(&self.dir);
        self.log
            .set_len(0)
            .map_err(|e| io_err("truncate", &wal_path, e))?;
        self.log
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", &wal_path, e))?;
        self.log_bytes = 0;
        self.log_records = 0;
        self.publish_gauges();
        Ok(())
    }

    /// Publish WAL size gauges to the live-metrics registry.
    fn publish_gauges(&self) {
        if !em_obs::live::enabled() {
            return;
        }
        G_WAL_RECORDS.set(self.log_records);
        G_WAL_BYTES.set(self.log_bytes);
    }

    fn write_snapshot(&mut self, index: &IncrementalIndex) -> Result<(), String> {
        let path = Self::snapshot_path(&self.dir);
        let tmp = self.dir.join("snapshot.json.tmp");
        fs::write(&tmp, index.to_json().render()).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        SNAPSHOTS.incr();
        Ok(())
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of complete frames currently in the log.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Operations currently in the log (since the last snapshot).
    pub fn log_records(&self) -> u64 {
        self.log_records
    }
}

/// An [`IncrementalIndex`] bound to an [`IndexStore`]: every mutation is
/// WAL-logged before it is applied, so the on-disk state never lags the
/// in-memory index by more than the operation in flight.
pub struct PersistentIndex {
    index: IncrementalIndex,
    store: IndexStore,
}

impl PersistentIndex {
    /// Persist `index` into `dir` (snapshot + empty log) and wrap it.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn create(dir: impl Into<PathBuf>, index: IncrementalIndex) -> Result<Self, String> {
        let store = IndexStore::create(dir, &index)?;
        Ok(PersistentIndex { index, store })
    }

    /// Recover the index persisted in `dir`.
    ///
    /// # Errors
    /// Fails on a missing/corrupt snapshot, interior log corruption, or an
    /// invariant violation in the recovered index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let (store, index) = IndexStore::open(dir)?;
        Ok(PersistentIndex { index, store })
    }

    /// Log then apply an upsert. See [`IncrementalIndex::upsert`].
    ///
    /// # Errors
    /// Propagates filesystem failures; the index is untouched on error.
    pub fn upsert(&mut self, row: usize, value: Option<&str>) -> Result<(), String> {
        self.store.log_upsert(row, value)?;
        self.index.upsert(row, value);
        Ok(())
    }

    /// Log then apply a remove. See [`IncrementalIndex::remove`].
    ///
    /// # Errors
    /// Propagates filesystem failures; the index is untouched on error.
    pub fn remove(&mut self, row: usize) -> Result<(), String> {
        self.store.log_remove(row)?;
        self.index.remove(row);
        Ok(())
    }

    /// Probe for candidates. See [`IncrementalIndex::candidates`].
    pub fn candidates(&self, queries: &em_table::Table, jobs: usize) -> Vec<em_table::RecordPair> {
        self.index.candidates(queries, jobs)
    }

    /// Fold the log into a fresh snapshot. See [`IndexStore::snapshot`].
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn snapshot(&mut self) -> Result<(), String> {
        self.store.snapshot(&self.index)
    }

    /// The in-memory index.
    pub fn index(&self) -> &IncrementalIndex {
        &self.index
    }

    /// Mutable access for non-replayed tuning (probe limits); mutations
    /// that change catalog state must go through [`Self::upsert`] /
    /// [`Self::remove`] or they will not survive recovery.
    pub fn index_mut(&mut self) -> &mut IncrementalIndex {
        &mut self.index
    }

    /// The backing store.
    pub fn store(&self) -> &IndexStore {
        &self.store
    }

    /// Run the full index invariant check and publish index + WAL status to
    /// the live health registry (components `index` and `wal`, served by
    /// `/healthz`). Returns the verification result so harnesses can also
    /// fail fast locally.
    ///
    /// # Errors
    /// Returns the first invariant violation, exactly as
    /// [`IncrementalIndex::verify_invariants`] reports it.
    pub fn verify_and_report(&self) -> Result<(), String> {
        let res = self.index.verify_invariants();
        em_obs::live::set_health(
            "index",
            res.clone().map(|()| {
                format!(
                    "{} live records, stale debt {}",
                    self.index.len(),
                    self.index.stale_debt()
                )
            }),
        );
        em_obs::live::set_health(
            "wal",
            Ok(format!(
                "{} records / {} bytes since last snapshot",
                self.store.log_records(),
                self.store.log_bytes()
            )),
        );
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_through_replay() {
        let ops = [
            Op::Upsert {
                row: 3,
                value: Some("fenix at the argyle".into()),
            },
            Op::Upsert {
                row: 5,
                value: None,
            },
            Op::Remove { row: 3 },
        ];
        let mut bytes = Vec::new();
        for op in &ops {
            bytes.extend_from_slice(&frame(&op.to_payload()));
        }
        let mut index = IncrementalIndex::new("name", 1);
        let (valid, n) = replay(&bytes, &mut index).unwrap();
        assert_eq!(valid, bytes.len() as u64);
        assert_eq!(n, 3);
        assert_eq!(index.len(), 0); // row 3 upserted then removed; row 5 null
        index.verify_invariants().unwrap();
    }

    #[test]
    fn payload_parse_rejects_unknown_ops() {
        assert!(Op::from_payload(br#"{"op":"merge","row":1}"#).is_err());
    }
}
