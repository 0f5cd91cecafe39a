//! The key/value store behind the run directory.
//!
//! The lab's durable state — every trial record, plus the summary rows
//! derived from them — lives in one append-only file, [`AofDb`]
//! (`trials.db` in a run directory), read and written through the small
//! [`Db`] trait (get/put/iterate over keyed batches). Every [`Db::put`]
//! appends one length-framed entry and reaches the OS immediately, so a
//! killed run loses at most the entry being written; reopening recovers
//! the valid prefix and reports whether a torn tail was dropped.
//! [`AofDb::compact`] rewrites the log sorted by key (last put wins) via
//! temp-file + rename, which is what makes a finished store
//! byte-identical across run/resume/merge paths.
//!
//! [`AofDb`] is the only backend. The trait is the interface the store,
//! `merge` and the benchmark harness read a journal through, and the
//! unit tests check [`AofDb`] against a sorted in-memory map behind the
//! same trait. `serve` keeps a journal's bytes instead of an index and
//! walks them with the same frame parser, `Frames`.
//!
//! Keys are ordered bytes; [`Db::iter_prefix`] returns entries sorted by
//! key, so fixed-width encodings (see `store::TrialKey`) make
//! lexicographic order equal numeric order.
//!
//! ## Entry framing
//!
//! ```text
//! entry := '#' <key-len> ' ' <value-len> '\n' <key-bytes> <value-bytes> '\n'
//! ```
//!
//! Lengths are ASCII decimals, so the file stays greppable for the JSON
//! values it carries while still supporting arbitrary bytes. A reader
//! stops at the first entry that is malformed or runs past end-of-file:
//! everything before it is the recovered prefix, everything after is the
//! torn tail a crash left behind.
//!
//! ## Concurrent readers (the tail contract)
//!
//! `ale-lab serve` tails in-progress runs, so one process may append to
//! `trials.db` while others read it. The contract that makes this safe
//! without locks:
//!
//! 1. **Appends are atomic per entry.** [`Db::put`] on [`AofDb`] issues
//!    exactly one `write` call carrying one fully framed entry, so a
//!    concurrent reader observes either none or all of an entry's
//!    bytes — except possibly the *last* entry, which may be mid-write.
//! 2. **Bytes below the journal's length are immutable while the run's
//!    manifest says `"complete": false`.** The writer only ever appends;
//!    it never rewrites or truncates published bytes (crash recovery in
//!    [`AofDb::open`] truncates only a torn tail that no reader can have
//!    parsed as valid).
//! 3. **Readers parse the valid prefix.** [`scan_entries`] (and
//!    [`AofDb::open_read`], which uses the same parser) stop at the
//!    first incomplete entry. The returned valid-prefix length is
//!    therefore always an entry boundary, and — by (1) and (2) — remains
//!    a stable cursor: a later read from that offset yields only whole,
//!    newer entries.
//! 4. **Compaction happens only at completion.** [`AofDb::compact`]
//!    (called when a run finishes or resumes to completion) rewrites the
//!    log via temp-file + rename, so a concurrent reader sees either the
//!    old inode or the complete new file, never a partial rewrite. After
//!    compaction old byte offsets are meaningless; readers detect this
//!    by the manifest flipping to `"complete": true` (or by their cursor
//!    no longer landing on an entry boundary) and must rescan from 0.
//! 5. **A whole parse stays valid while both files keep their identity.**
//!    Writers change `trials.db` only by appending (same inode, longer)
//!    or by temp-file + rename (new inode), and replace `manifest.json`
//!    only by temp-file + rename. So while both files still show the
//!    (inode, length, mtime) a reader stat'ed *before* reading them, and
//!    the reader parsed the whole journal, what it parsed is still the
//!    run's state, and `ale-lab serve` reuses it. A journal with a torn
//!    tail is re-read every time: that tail is the one region a writer
//!    truncates and rewrites in place ([`AofDb::open`]'s recovery), so
//!    it could come back at the same length.

use crate::scenario::LabError;
use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// A keyed batch store: the persistence seam between the engine and its
/// backends. Implementations keep keys sorted so prefix scans stream in
/// key order.
pub trait Db {
    /// The value last [`Db::put`] under `key`, if any.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Inserts or overwrites `key` (last put wins).
    ///
    /// # Errors
    ///
    /// Backend write failures as [`LabError::Io`].
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), LabError>;

    /// Every `(key, value)` whose key starts with `prefix`, sorted by key.
    fn iter_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of distinct keys.
    fn len(&self) -> usize;

    /// True when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes buffered writes to the backend.
    ///
    /// # Errors
    ///
    /// Backend sync failures as [`LabError::Io`].
    fn flush(&mut self) -> Result<(), LabError>;
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> LabError {
    LabError::Io(format!("{}: {e}", path.display()))
}

/// Renders one length-framed entry.
fn frame(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + value.len() + 24);
    out.extend_from_slice(format!("#{} {}\n", key.len(), value.len()).as_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    out.push(b'\n');
    out
}

/// Parses entries from `data`; returns the recovered index and the byte
/// offset of the first malformed/torn entry (== `data.len()` when the
/// whole file parsed).
fn replay(data: &[u8]) -> (BTreeMap<Vec<u8>, Vec<u8>>, usize) {
    let mut index = BTreeMap::new();
    let mut frames = Frames::new(data);
    for f in frames.by_ref() {
        index.insert(data[f.key].to_vec(), data[f.value].to_vec());
    }
    (index, frames.valid_len())
}

/// Where one framed entry lies in a journal's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    /// Byte offset of the entry's `#` header.
    pub offset: usize,
    /// The key's byte range.
    pub key: std::ops::Range<usize>,
    /// The value's byte range.
    pub value: std::ops::Range<usize>,
}

/// The framed entries of a journal's bytes in **file order**, stopping
/// at the first entry that is malformed or runs past the end. Every
/// journal reader walks the file through this one parser.
pub(crate) struct Frames<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Frames<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Frames<'a> {
        Frames { data, offset: 0 }
    }

    /// The end of the last entry yielded so far; once the walk is done,
    /// the length of the valid prefix (== `data.len()` when the whole
    /// journal parsed).
    pub(crate) fn valid_len(&self) -> usize {
        self.offset
    }
}

impl Iterator for Frames<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let at = self.offset;
        let rest = self.data.get(at..).filter(|r| r.first() == Some(&b'#'))?;
        // Header: "#<klen> <vlen>\n" — lengths are short, so cap the scan.
        let header_end = rest.iter().take(40).position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&rest[1..header_end]).ok()?;
        let (klen, vlen) = header.split_once(' ')?;
        let klen: usize = klen.parse().ok()?;
        let vlen: usize = vlen.parse().ok()?;
        let body = header_end + 1;
        let total = body.checked_add(klen)?.checked_add(vlen)?.checked_add(1)?;
        if rest.len() < total || rest[total - 1] != b'\n' {
            return None;
        }
        self.offset = at + total;
        let key_start = at + body;
        Some(Frame {
            offset: at,
            key: key_start..key_start + klen,
            value: key_start + klen..key_start + klen + vlen,
        })
    }
}

/// One journal entry recovered in file order by [`scan_entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedEntry {
    /// Byte offset of the entry's `#` header within the journal.
    pub offset: u64,
    /// The entry's key bytes.
    pub key: Vec<u8>,
    /// The entry's value bytes.
    pub value: Vec<u8>,
}

/// Scans raw journal bytes in **file order** (append order, duplicates
/// preserved), returning every complete entry with its byte offset plus
/// the length of the valid prefix. This is the tail-cursor read path:
/// per the concurrency contract above, the returned prefix length is a
/// stable entry boundary in any journal whose run is still incomplete,
/// so a later scan can resume from it.
pub fn scan_entries(data: &[u8]) -> (Vec<ScannedEntry>, usize) {
    let mut frames = Frames::new(data);
    let entries = frames
        .by_ref()
        .map(|f| ScannedEntry {
            offset: f.offset as u64,
            key: data[f.key].to_vec(),
            value: data[f.value].to_vec(),
        })
        .collect();
    (entries, frames.valid_len())
}

/// Append-only-file [`Db`] backend.
pub struct AofDb {
    path: PathBuf,
    /// `None` in read-only snapshots; puts then fail.
    file: Option<std::fs::File>,
    index: BTreeMap<Vec<u8>, Vec<u8>>,
    truncated: bool,
}

impl AofDb {
    /// Creates (or truncates) the log at `path`, writable.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`LabError::Io`].
    pub fn create(path: &Path) -> Result<AofDb, LabError> {
        let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
        Ok(AofDb {
            path: path.to_path_buf(),
            file: Some(file),
            index: BTreeMap::new(),
            truncated: false,
        })
    }

    /// Opens an existing log for appending, recovering the valid prefix.
    /// A torn tail (a crash mid-[`Db::put`]) is dropped — the file is
    /// truncated back to the last complete entry — and
    /// [`AofDb::truncated`] reports that it happened. A missing file
    /// starts empty.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`LabError::Io`].
    pub fn open(path: &Path) -> Result<AofDb, LabError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data).map_err(|e| io_err(path, e))?;
        let (index, good_len) = replay(&data);
        let truncated = good_len < data.len();
        if truncated {
            file.set_len(good_len as u64).map_err(|e| io_err(path, e))?;
        }
        file.seek(std::io::SeekFrom::Start(good_len as u64))
            .map_err(|e| io_err(path, e))?;
        Ok(AofDb {
            path: path.to_path_buf(),
            file: Some(file),
            index,
            truncated,
        })
    }

    /// Opens a read-only snapshot: the valid prefix is indexed, the file
    /// is left untouched (a torn tail stays on disk), and [`Db::put`]
    /// fails. This is the `check`/`merge` read path.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`LabError::Io`].
    pub fn open_read(path: &Path) -> Result<AofDb, LabError> {
        let data = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let (index, good_len) = replay(&data);
        Ok(AofDb {
            path: path.to_path_buf(),
            file: None,
            index,
            truncated: good_len < data.len(),
        })
    }

    /// True when opening dropped (or, read-only, skipped) a torn tail.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Rewrites the log as one entry per key, sorted — the canonical
    /// byte-deterministic form a finished run stores. Written to a temp
    /// file and renamed into place, so a crash mid-compaction leaves the
    /// old log intact.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`LabError::Io`].
    pub fn compact(&mut self) -> Result<(), LabError> {
        let file_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_else(|| "db".to_string());
        let tmp = self.path.with_file_name(format!("{file_name}.tmp"));
        {
            let mut out =
                std::io::BufWriter::new(std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?);
            for (k, v) in &self.index {
                out.write_all(&frame(k, v)).map_err(|e| io_err(&tmp, e))?;
            }
            out.flush().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, e))?;
        if self.file.is_some() {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err(&self.path, e))?;
            file.seek(std::io::SeekFrom::End(0))
                .map_err(|e| io_err(&self.path, e))?;
            self.file = Some(file);
        }
        self.truncated = false;
        Ok(())
    }
}

impl Db for AofDb {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.get(key).cloned()
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), LabError> {
        let Some(file) = self.file.as_mut() else {
            return Err(LabError::Io(format!(
                "{}: store opened read-only",
                self.path.display()
            )));
        };
        // One write call per entry: a kill between puts never tears an
        // already-written entry, and a kill mid-write tears only this one
        // (recovered and dropped by the next open).
        file.write_all(&frame(key, value))
            .map_err(|e| io_err(&self.path, e))?;
        self.index.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn iter_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.index
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn flush(&mut self) -> Result<(), LabError> {
        if let Some(file) = self.file.as_mut() {
            file.flush().map_err(|e| io_err(&self.path, e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ale-lab-db-{}-{name}", std::process::id()))
    }

    /// The shared put script the equivalence tests replay: inserts,
    /// overwrites, and two key prefixes.
    fn script(db: &mut dyn Db) {
        db.put(b"t/a/01", b"one").unwrap();
        db.put(b"t/a/00", b"zero").unwrap();
        db.put(b"s/a/rounds", b"{\"mean\":1.0}").unwrap();
        db.put(b"t/a/01", b"one-rewritten").unwrap();
        db.put(b"t/b/00", b"other").unwrap();
        db.flush().unwrap();
    }

    fn snapshot(db: &dyn Db) -> Vec<(Vec<u8>, Vec<u8>)> {
        db.iter_prefix(b"")
    }

    /// In-memory [`Db`] backend (a sorted map): the reference [`AofDb`] is
    /// checked against.
    #[derive(Default)]
    struct MemDb(BTreeMap<Vec<u8>, Vec<u8>>);

    impl Db for MemDb {
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.0.get(key).cloned()
        }

        fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), LabError> {
            self.0.insert(key.to_vec(), value.to_vec());
            Ok(())
        }

        fn iter_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
            self.0
                .range(prefix.to_vec()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn flush(&mut self) -> Result<(), LabError> {
            Ok(())
        }
    }

    #[test]
    fn mem_and_aof_backends_are_equivalent() {
        let path = tmp("equiv.db");
        std::fs::remove_file(&path).ok();
        let mut mem = MemDb::default();
        let mut aof = AofDb::create(&path).unwrap();
        script(&mut mem);
        script(&mut aof);
        assert_eq!(snapshot(&mem), snapshot(&aof));
        assert_eq!(mem.len(), 4);
        assert_eq!(mem.get(b"t/a/01"), Some(b"one-rewritten".to_vec()));
        assert_eq!(aof.get(b"t/a/01"), Some(b"one-rewritten".to_vec()));
        assert_eq!(mem.get(b"t/nope"), None);
        // Prefix scans agree and are sorted.
        let t_mem = mem.iter_prefix(b"t/");
        let t_aof = aof.iter_prefix(b"t/");
        assert_eq!(t_mem, t_aof);
        assert_eq!(t_mem.len(), 3);
        assert!(t_mem.windows(2).all(|w| w[0].0 < w[1].0));
        // Reopening the file replays to the same state.
        drop(aof);
        let reopened = AofDb::open(&path).unwrap();
        assert!(!reopened.truncated());
        assert_eq!(snapshot(&reopened), snapshot(&mem));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_recovered_and_dropped() {
        let path = tmp("torn.db");
        std::fs::remove_file(&path).ok();
        {
            let mut db = AofDb::create(&path).unwrap();
            script(&mut db);
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final entry.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        // Read-only open reports the tear without touching the file.
        let ro = AofDb::open_read(&path).unwrap();
        assert!(ro.truncated());
        assert_eq!(ro.len(), 3);
        assert_eq!(std::fs::read(&path).unwrap().len(), full.len() - 3);
        // Writable open drops the tail; appends land cleanly after it.
        let mut db = AofDb::open(&path).unwrap();
        assert!(db.truncated());
        assert_eq!(db.get(b"t/b/00"), None, "torn entry dropped");
        db.put(b"t/b/00", b"other").unwrap();
        drop(db);
        let back = AofDb::open(&path).unwrap();
        assert!(!back.truncated());
        assert_eq!(back.get(b"t/b/00"), Some(b"other".to_vec()));
        assert_eq!(back.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_prefix_recovers_nothing() {
        let path = tmp("garbage.db");
        std::fs::write(&path, b"not an aof\n").unwrap();
        let db = AofDb::open_read(&path).unwrap();
        assert!(db.truncated());
        assert_eq!(db.len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_sorted_deduplicated_and_deterministic() {
        let a = tmp("compact-a.db");
        let b = tmp("compact-b.db");
        for p in [&a, &b] {
            std::fs::remove_file(p).ok();
        }
        // Same final state via different put orders.
        let mut da = AofDb::create(&a).unwrap();
        script(&mut da);
        let mut db_b = AofDb::create(&b).unwrap();
        db_b.put(b"t/b/00", b"other").unwrap();
        db_b.put(b"s/a/rounds", b"{\"mean\":1.0}").unwrap();
        db_b.put(b"t/a/00", b"zero").unwrap();
        db_b.put(b"t/a/01", b"one-rewritten").unwrap();
        da.compact().unwrap();
        db_b.compact().unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        // Compacted logs replay to the same index, and stay appendable.
        da.put(b"z/tail", b"post-compact").unwrap();
        drop(da);
        let back = AofDb::open(&a).unwrap();
        assert!(!back.truncated());
        assert_eq!(back.get(b"z/tail"), Some(b"post-compact".to_vec()));
        assert_eq!(back.len(), 5);
        for p in [&a, &b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn values_with_newlines_and_tabs_survive_framing() {
        let path = tmp("binary.db");
        std::fs::remove_file(&path).ok();
        let mut db = AofDb::create(&path).unwrap();
        let value = b"line1\nline2\tcol\n#fake 0 0\n";
        db.put(b"k\n1", value).unwrap();
        drop(db);
        let back = AofDb::open(&path).unwrap();
        assert!(!back.truncated());
        assert_eq!(back.get(b"k\n1"), Some(value.to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_entries_preserves_file_order_offsets_and_duplicates() {
        let path = tmp("scan.db");
        std::fs::remove_file(&path).ok();
        {
            let mut db = AofDb::create(&path).unwrap();
            script(&mut db);
        }
        let data = std::fs::read(&path).unwrap();
        let (entries, valid_len) = scan_entries(&data);
        assert_eq!(valid_len, data.len());
        // File order, not key order; the overwrite appears twice.
        let keys: Vec<&[u8]> = entries.iter().map(|e| e.key.as_slice()).collect();
        assert_eq!(
            keys,
            vec![
                b"t/a/01".as_slice(),
                b"t/a/00",
                b"s/a/rounds",
                b"t/a/01",
                b"t/b/00"
            ]
        );
        assert_eq!(entries[0].offset, 0);
        assert_eq!(entries[3].value, b"one-rewritten");
        // Every offset is a parse boundary: rescanning from it yields
        // exactly the remaining suffix.
        for (i, e) in entries.iter().enumerate() {
            let (rest, len) = scan_entries(&data[e.offset as usize..]);
            assert_eq!(rest.len(), entries.len() - i);
            assert_eq!(e.offset as usize + len, data.len());
        }
        std::fs::remove_file(&path).ok();
    }

    /// The serve/tail concurrency contract: a reader opened with
    /// [`AofDb::open_read`] (or scanning raw bytes) while a writer
    /// appends only ever sees the valid framed prefix, and any valid
    /// prefix length it observes stays an entry boundary as the journal
    /// grows — including across a torn (partially written) tail.
    #[test]
    fn concurrent_reader_sees_only_the_valid_framed_prefix() {
        let path = tmp("tail.db");
        std::fs::remove_file(&path).ok();
        let mut writer = AofDb::create(&path).unwrap();
        let mut cursors = vec![0u64];
        for i in 0..5u32 {
            writer
                .put(format!("t/x/{i:02}").as_bytes(), b"{\"rounds\":1}")
                .unwrap();
            writer.flush().unwrap();
            // A second handle tails the same file mid-run.
            let reader = AofDb::open_read(&path).unwrap();
            assert!(!reader.truncated());
            assert_eq!(reader.len(), i as usize + 1);
            let data = std::fs::read(&path).unwrap();
            let (entries, valid_len) = scan_entries(&data);
            assert_eq!(entries.len(), i as usize + 1);
            assert_eq!(valid_len, data.len());
            cursors.push(valid_len as u64);
        }
        // Simulate a torn tail mid-write: append only the first half of
        // a framed entry, as a kill mid-`write` would leave behind.
        let full_entry = frame(b"t/x/05", b"{\"rounds\":2}");
        let torn = &full_entry[..full_entry.len() / 2];
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(torn).unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        let (entries, valid_len) = scan_entries(&data);
        assert_eq!(entries.len(), 5, "torn tail is not an entry");
        assert_eq!(valid_len, data.len() - torn.len());
        let reader = AofDb::open_read(&path).unwrap();
        assert!(reader.truncated());
        assert_eq!(reader.len(), 5);
        // The write completes; the reader's old cursor is still a valid
        // boundary and yields exactly the new entry.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&full_entry[torn.len()..]).unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        let (entries, full_len) = scan_entries(&data);
        assert_eq!(entries.len(), 6);
        assert_eq!(full_len, data.len());
        for cursor in cursors {
            let (suffix, _) = scan_entries(&data[cursor as usize..]);
            assert!(
                suffix.is_empty() || suffix[0].key.starts_with(b"t/x/"),
                "cursor {cursor} no longer on an entry boundary"
            );
            let expect = entries.iter().filter(|e| e.offset >= cursor).count();
            assert_eq!(suffix.len(), expect);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_only_snapshots_refuse_puts() {
        let path = tmp("ro.db");
        std::fs::remove_file(&path).ok();
        {
            let mut db = AofDb::create(&path).unwrap();
            db.put(b"a", b"1").unwrap();
        }
        let mut ro = AofDb::open_read(&path).unwrap();
        assert!(matches!(ro.put(b"b", b"2"), Err(LabError::Io(_))));
        std::fs::remove_file(&path).ok();
    }
}
