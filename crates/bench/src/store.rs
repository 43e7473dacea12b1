//! The segmented result store under [`crate::simcache::SimCache`].
//!
//! Persistence lives in *segments* — append-only files under
//! `<dir>/segments/`, each owned by exactly one writer — holding entries
//! in the v4 layout (magic, version, key, checksum, payload; see
//! [`crate::simcache`]). Nothing else in `<dir>` is read, counted or
//! pruned: flat `<key>.bin` files from the pre-segment layout are
//! ignored, so a store that still holds them re-simulates and heals.
//!
//! Concurrency model, designed for many processes sharing one
//! directory:
//!
//! * **Single-writer segments.** A process appends only to segments it
//!   created itself (names embed the process id and a sequence number,
//!   claimed with `create_new` so a recycled pid can never collide with
//!   a dead writer's file). Each record is written with one `write_all`
//!   call, so concurrent readers observe either the whole record or a
//!   short file.
//! * **Lock-free readers.** Readers take no file lock ever: they stat
//!   and scan segments, remember how far each segment validated, and
//!   pick up new records appended by other processes on the next
//!   refresh. A torn or truncated tail simply stops the scan at the
//!   last valid record — it is retried on the next refresh and degrades
//!   to a miss until the record completes.
//! * **Pruning degrades to miss.** When `ITPX_SIMCACHE_MAX_MB` caps the
//!   store, whole segments are unlinked oldest-first (never the active
//!   one). A reader holding an index entry into a pruned segment gets a
//!   failed open, drops the entry, and reports a miss — never an error
//!   and never a wrong result.

use crate::simcache::entry_key;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic prefix of every segment file.
const SEG_MAGIC: &[u8; 8] = b"ITPXSEG1";
/// Segment container version (the *entries* carry their own version).
const SEG_VERSION: u32 = 1;
/// Size of the segment header: magic + container version.
const SEG_HEADER: u64 = 12;
/// A record larger than this is treated as corruption, not data.
const MAX_RECORD: u32 = 64 << 20;
/// Give up claiming a writer segment after this many name collisions.
const MAX_SEQ_PROBES: u32 = 10_000;

/// Size/rollover configuration for a [`SegmentStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Total on-disk budget of the segments; `None` is unbounded.
    /// Enforced after each append by pruning whole segments oldest-first.
    pub max_bytes: Option<u64>,
    /// Roll the active segment once it grows past this size, so old data
    /// ages into prunable (inactive) segments.
    pub segment_target: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            max_bytes: None,
            segment_target: 4 << 20,
        }
    }
}

impl StoreConfig {
    /// A config capped at `max_bytes`, rolling segments early enough
    /// that pruning can always get under the cap (quarter-cap segments,
    /// floored so tests with tiny caps still roll).
    pub fn capped(max_bytes: u64) -> Self {
        Self {
            max_bytes: Some(max_bytes),
            segment_target: (max_bytes / 4).clamp(4 << 10, 4 << 20),
        }
    }
}

/// Where one entry lives inside a segment.
#[derive(Debug, Clone)]
struct EntryLoc {
    segment: PathBuf,
    offset: u64,
    len: u32,
}

/// The active appender: this process's own segment.
#[derive(Debug)]
struct Writer {
    path: PathBuf,
    file: File,
    written: u64,
    seq: u32,
}

/// Per-segment scan cursor: bytes validated so far (header included).
type ScanMap = BTreeMap<PathBuf, u64>;

#[derive(Debug, Default)]
struct State {
    index: BTreeMap<u64, EntryLoc>,
    scanned: ScanMap,
    writer: Option<Writer>,
    /// Running total of segment bytes on disk: the last prune listing
    /// plus this process's appends since. `None` until the first
    /// listing, and again once a refresh finds a segment it did not
    /// list.
    disk_bytes: Option<u64>,
    /// Whether a segment other than the active one may exist: one was
    /// listed, or this process rolled past its own since.
    inactive: bool,
}

/// Whether an append to a store capped at `cap` must list the segments
/// to prune: always while the byte total is unknown, otherwise only
/// when it exceeds the cap and an inactive segment exists to unlink.
/// The active segment is never pruned, so a store holding only it
/// cannot get under the cap by listing again.
fn prune_due(cap: u64, disk_bytes: Option<u64>, inactive: bool) -> bool {
    disk_bytes.is_none_or(|total| total > cap && inactive)
}

/// A multi-process-safe segmented entry store. See the module docs for
/// the concurrency model.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    config: StoreConfig,
    state: Mutex<State>,
}

impl SegmentStore {
    /// A store rooted at `dir` (created lazily on first append).
    pub fn new(dir: PathBuf, config: StoreConfig) -> Self {
        Self {
            dir,
            config,
            state: Mutex::new(State::default()),
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segments_dir(&self) -> PathBuf {
        self.dir.join("segments")
    }

    /// Looks `key` up: index first, then a directory refresh (picking up
    /// appends from other processes). Every failure mode — pruned
    /// segment, torn record, corrupt bytes — degrades to `None`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("segment store poisoned");
        if let Some(bytes) = self.read_indexed(&mut state, key) {
            return Some(bytes);
        }
        self.refresh(&mut state);
        self.read_indexed(&mut state, key)
    }

    /// Reads and re-validates the indexed record for `key`, dropping the
    /// index entry when the segment vanished (pruned by another process)
    /// or no longer validates.
    fn read_indexed(&self, state: &mut State, key: u64) -> Option<Vec<u8>> {
        let loc = state.index.get(&key)?.clone();
        match read_record(&loc) {
            Some(bytes) if entry_key(&bytes) == Some(key) => Some(bytes),
            _ => {
                state.index.remove(&key);
                None
            }
        }
    }

    /// Appends `entry` (a fully-encoded v4 entry for `key`) to this
    /// process's segment. Best-effort: IO failures only cost a future
    /// re-simulation, so they are deliberately swallowed.
    pub fn insert(&self, key: u64, entry: &[u8]) {
        let mut state = self.state.lock().expect("segment store poisoned");
        if self.append(&mut state, key, entry).is_none() {
            // The next append opens a new segment; list again to learn
            // what the failed one left on disk.
            state.writer = None;
            state.disk_bytes = None;
        }
        if let Some(cap) = self.config.max_bytes {
            if prune_due(cap, state.disk_bytes, state.inactive) {
                self.prune(&mut state, cap);
            }
        }
    }

    fn append(&self, state: &mut State, key: u64, entry: &[u8]) -> Option<()> {
        self.ensure_writer(state)?;
        let writer = state.writer.as_mut()?;
        let offset = SEG_HEADER + writer.written;
        let mut record = Vec::with_capacity(entry.len() + 4);
        record.extend_from_slice(&(entry.len() as u32).to_le_bytes());
        record.extend_from_slice(entry);
        writer.file.write_all(&record).ok()?;
        writer.file.flush().ok()?;
        writer.written += record.len() as u64;
        state.disk_bytes = state.disk_bytes.map(|b| b + record.len() as u64);
        let loc = EntryLoc {
            segment: writer.path.clone(),
            offset,
            len: entry.len() as u32,
        };
        let end = SEG_HEADER + writer.written;
        state.scanned.insert(loc.segment.clone(), end);
        state.index.insert(key, loc);
        Some(())
    }

    /// Creates (or rolls) the single-writer segment for this process.
    fn ensure_writer(&self, state: &mut State) -> Option<()> {
        let roll = state
            .writer
            .as_ref()
            .is_some_and(|w| SEG_HEADER + w.written >= self.config.segment_target);
        if state.writer.is_some() && !roll {
            return Some(());
        }
        let dir = self.segments_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let pid = std::process::id();
        let mut seq = state.writer.as_ref().map_or(0, |w| w.seq + 1);
        for _ in 0..MAX_SEQ_PROBES {
            let path = dir.join(format!("seg-{pid:08x}-{seq:05}.seg"));
            // `create_new` is the cross-process arbiter: whoever creates
            // the file owns it, even across pid reuse.
            match OpenOptions::new().append(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let mut header = Vec::with_capacity(SEG_HEADER as usize);
                    header.extend_from_slice(SEG_MAGIC);
                    header.extend_from_slice(&SEG_VERSION.to_le_bytes());
                    file.write_all(&header).ok()?;
                    file.flush().ok()?;
                    state.scanned.insert(path.clone(), SEG_HEADER);
                    state.disk_bytes = state.disk_bytes.map(|b| b + SEG_HEADER);
                    // The segment rolled past, if any, is now inactive.
                    state.inactive |= state.writer.is_some();
                    state.writer = Some(Writer {
                        path,
                        file,
                        written: 0,
                        seq,
                    });
                    return Some(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => seq += 1,
                Err(_) => return None,
            }
        }
        None
    }

    /// Rescans the segments directory: new segments and new bytes in
    /// known segments are validated record by record and indexed. The
    /// scan cursor only advances past fully-valid records, so a torn
    /// concurrent append is retried on the next refresh instead of being
    /// skipped or served.
    fn refresh(&self, state: &mut State) {
        let dir = self.segments_dir();
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        paths.sort();
        for path in paths {
            let start = match state.scanned.get(&path) {
                Some(&start) => start,
                None => {
                    // A segment the running byte total does not hold.
                    state.disk_bytes = None;
                    0
                }
            };
            let Some((found, end)) = scan_segment(&path, start) else {
                continue;
            };
            for (key, offset, len) in found {
                state.index.insert(
                    key,
                    EntryLoc {
                        segment: path.clone(),
                        offset,
                        len,
                    },
                );
            }
            state.scanned.insert(path, end);
        }
    }

    /// Total bytes of the segments on disk.
    pub fn disk_bytes(&self) -> u64 {
        segments_oldest_first(&self.segments_dir())
            .iter()
            .map(|(_, len, _)| len)
            .sum()
    }

    /// Unlinks inactive segments oldest-first (by modification time; the
    /// active writer segment is never pruned) until the store fits
    /// `cap`, and resets the running byte total from the listing.
    /// Unlinking is safe under concurrency — a reader mid-record keeps
    /// its open fd; a reader arriving later gets a failed open and
    /// reports a miss. All IO errors are swallowed: pruning must never
    /// break a lookup. Segments other processes create after the listing
    /// count toward the cap once a refresh finds them.
    fn prune(&self, state: &mut State, cap: u64) {
        let segments = segments_oldest_first(&self.segments_dir());
        let mut total: u64 = segments.iter().map(|(_, len, _)| len).sum();
        let active = state.writer.as_ref().map(|w| w.path.clone());
        let mut inactive = false;
        for (path, len, _) in segments {
            if Some(&path) == active.as_ref() {
                continue;
            }
            if total > cap && std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                state.scanned.remove(&path);
                state.index.retain(|_, loc| loc.segment != path);
            } else {
                inactive = true;
            }
        }
        state.disk_bytes = Some(total);
        state.inactive = inactive;
    }
}

/// Segment files under `dir`, oldest first (modification time, then name
/// for a stable order on coarse clocks). The mtime is prune *ordering*
/// only — it never feeds a cache key or a payload.
// itpx-allow: std-time prune-age ordering only, never feeds cache keys or persisted results
type Victim = (PathBuf, u64, std::time::SystemTime);

fn segments_oldest_first(dir: &Path) -> Vec<Victim> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<Victim> = entries
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            if path.extension().is_none_or(|x| x != "seg") {
                return None;
            }
            let meta = e.metadata().ok()?;
            let mtime = meta.modified().ok()?;
            Some((path, meta.len(), mtime))
        })
        .collect();
    out.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
    out
}

/// Reads one length-prefixed record body at a known location.
fn read_record(loc: &EntryLoc) -> Option<Vec<u8>> {
    let mut file = File::open(&loc.segment).ok()?;
    file.seek(SeekFrom::Start(loc.offset + 4)).ok()?;
    let mut bytes = vec![0u8; loc.len as usize];
    file.read_exact(&mut bytes).ok()?;
    Some(bytes)
}

/// Validates records in `path` starting at byte `start`; returns the
/// `(key, record offset, entry len)` triples found and the new cursor.
/// Stops (without advancing) at the first incomplete or invalid record.
#[allow(clippy::type_complexity)]
fn scan_segment(path: &Path, start: u64) -> Option<(Vec<(u64, u64, u32)>, u64)> {
    let mut file = File::open(path).ok()?;
    let end = file.metadata().ok()?.len();
    let mut at = start;
    if at == 0 {
        // New segment: validate the container header once.
        if end < SEG_HEADER {
            return Some((Vec::new(), 0));
        }
        let mut header = [0u8; SEG_HEADER as usize];
        file.read_exact(&mut header).ok()?;
        if &header[..8] != SEG_MAGIC
            || u32::from_le_bytes(header[8..12].try_into().ok()?) != SEG_VERSION
        {
            // Foreign container: mark fully scanned so it is never
            // rescanned, and index nothing from it.
            return Some((Vec::new(), end));
        }
        at = SEG_HEADER;
    } else {
        file.seek(SeekFrom::Start(at)).ok()?;
    }
    let mut found = Vec::new();
    while at + 4 <= end {
        let mut len_bytes = [0u8; 4];
        if file.read_exact(&mut len_bytes).is_err() {
            break;
        }
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 || len > MAX_RECORD || at + 4 + len as u64 > end {
            break; // incomplete or implausible: retry from `at` next time
        }
        let mut bytes = vec![0u8; len as usize];
        if file.read_exact(&mut bytes).is_err() {
            break;
        }
        let Some(key) = entry_key(&bytes) else {
            break; // torn or corrupt: never advance past it
        };
        found.push((key, at, len));
        at += 4 + len as u64;
    }
    Some((found, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcache::entry_bytes;
    use itpx_core::Preset;
    use itpx_cpu::{Simulation, SystemConfig};
    use itpx_trace::WorkloadSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itpx-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry(key: u64) -> Vec<u8> {
        let w = WorkloadSpec::spec_like(2).instructions(2_000).warmup(500);
        let out = Simulation::single_thread(&SystemConfig::asplos25(), Preset::Lru, &w).run();
        entry_bytes(key, &out)
    }

    #[test]
    fn prune_lists_only_when_it_can_unlink_something() {
        // Unknown total: list.
        assert!(prune_due(100, None, false));
        assert!(prune_due(100, None, true));
        // Under (or at) the cap: nothing to do.
        assert!(!prune_due(100, Some(100), true));
        // Over the cap with only the active segment: listing cannot help.
        assert!(!prune_due(100, Some(101), false));
        // Over the cap with an inactive segment to unlink.
        assert!(prune_due(100, Some(101), true));
    }

    #[test]
    fn a_store_capped_at_one_byte_serves_every_insert() {
        let dir = temp_dir("cap1");
        let store = SegmentStore::new(dir.clone(), StoreConfig::capped(1));
        let entry = sample_entry(0);
        for key in 0..24u64 {
            let bytes = entry_bytes_for(&entry, key);
            store.insert(key, &bytes);
            assert_eq!(store.get(key), Some(bytes), "insert {key} not served");
            // Every rolled segment is pruned: only the active one stays.
            let state = store.state.lock().expect("store lock");
            assert!(!state.inactive, "insert {key} left an inactive segment");
            assert_eq!(state.disk_bytes, Some(store.disk_bytes()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `entry` re-keyed to `key`; the checksum covers only the payload.
    fn entry_bytes_for(entry: &[u8], key: u64) -> Vec<u8> {
        let mut bytes = entry.to_vec();
        bytes[12..20].copy_from_slice(&key.to_le_bytes());
        bytes
    }

    #[test]
    fn a_flipped_payload_byte_is_rejected_by_the_store() {
        let entry = sample_entry(5);
        assert_eq!(entry_key(&entry), Some(5));
        for offset in [28, entry.len() / 2, entry.len() - 1] {
            let mut bad = entry.clone();
            bad[offset] ^= 0x01;
            assert_eq!(entry_key(&bad), None, "flip at {offset} passed");
            let dir = temp_dir(&format!("flip{offset}"));
            let store = SegmentStore::new(dir.clone(), StoreConfig::default());
            store.insert(5, &bad);
            assert_eq!(store.get(5), None, "flip at {offset} served");
            // A fresh instance scans the segment from disk.
            let fresh = SegmentStore::new(dir.clone(), StoreConfig::default());
            assert_eq!(fresh.get(5), None, "flip at {offset} indexed");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
