//! Durable content-addressed result store: the disk tier under the
//! in-memory [`crate::LruMap`].
//!
//! The same determinism argument that makes the LRU sound makes the disk
//! tier sound: equal [`dresar_types::RunSpec`] digests produce
//! byte-identical bodies, so a stored result never needs invalidation —
//! only *verification*. Each result lives in its own file named by the
//! spec digest and framed so that every way a file can be wrong on disk is
//! detected on read:
//!
//! ```text
//! <digest:016x>.result :=
//!     magic   "DRSR\x01"            (5 bytes — wrong/old format detected)
//!     digest  u64 LE                (must match the filename's digest)
//!     len     u64 LE                (body length — truncation detected)
//!     body    len bytes             (the serialized response document)
//!     check   u64 LE                (FNV-1a over body — bit flips detected)
//! ```
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so a crash mid-write leaves either the previous state or
//! a stray `.tmp` file (swept at boot) — never a half-written `.result`
//! that a later boot would have to trust. A corrupt entry is *quarantined*
//! (renamed to `<name>.corrupt`, counted) rather than deleted or served:
//! the request falls through to a fresh execution, and the evidence stays
//! on disk for inspection.
//!
//! The store holds bodies only. In-flight coalescing state is deliberately
//! not durable — a flight is a promise between live connections, and a
//! crash voids it honestly (clients retry; see DESIGN §13).

use dresar_types::{fnv1a, FNV_OFFSET};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 5] = b"DRSR\x01";

/// Serialized results larger than this are refused by [`ResultStore::save`]
/// (and treated as corrupt on load): a framing `len` beyond it means a
/// damaged header, not a real body, so the reader never allocates from a
/// lie.
const MAX_BODY_BYTES: u64 = 256 * 1024 * 1024;

/// FNV-1a over the stored body — the integrity check, independent of the
/// spec digest in the filename (which addresses the *request*, not the
/// bytes).
fn body_check(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Why a stored entry could not be used. Everything here degrades to a
/// re-execution; nothing is fatal to the server.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error reading, writing, or renaming.
    Io(std::io::Error),
    /// The entry failed verification and was quarantined (renamed to
    /// `.corrupt`). The string says which check failed.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Corrupt(why) => write!(f, "store entry corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One directory of digest-named result files plus its health counters.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Distinct `.result` files believed present (boot scan + saves).
    entries: u64,
    /// Loads served from disk.
    hits: u64,
    /// Entries quarantined after failing verification.
    corrupt: u64,
    /// Monotone counter making temp names unique within this process.
    tmp_seq: u64,
}

impl ResultStore {
    /// Opens (creating if needed) the store directory, sweeps stray `.tmp`
    /// files from interrupted writes, and counts the existing entries —
    /// the warm-start scan that lets a restarted server answer previously
    /// computed digests without re-simulating.
    pub fn open(dir: &Path) -> Result<ResultStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut entries = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // A crash between temp write and rename: the previous state
                // (absence) is the truth; the partial file is noise.
                let _ = std::fs::remove_file(entry.path());
            } else if name.ends_with(".result") {
                entries += 1;
            }
        }
        Ok(ResultStore { dir: dir.to_path_buf(), entries, hits: 0, corrupt: 0, tmp_seq: 0 })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `.result` files present (from the boot scan plus saves since).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// `(hits, corrupt)` — loads served from disk and entries quarantined.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.corrupt)
    }

    fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.result"))
    }

    /// The on-disk path an entry for `digest` lives at (whether or not it
    /// exists). Exposed for the chaos harness and for operators inspecting
    /// quarantined files.
    pub fn path_of(&self, digest: u64) -> PathBuf {
        self.entry_path(digest)
    }

    /// Persists one result body under its digest: temp file in the same
    /// directory, fsync, atomic rename. Overwriting an existing entry is
    /// fine (determinism: the bytes are identical) and does not double
    /// count.
    pub fn save(&mut self, digest: u64, body: &str) -> Result<(), StoreError> {
        if body.len() as u64 > MAX_BODY_BYTES {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "result body of {} bytes exceeds the {MAX_BODY_BYTES}-byte store cap",
                body.len()
            ))));
        }
        self.tmp_seq += 1;
        let tmp =
            self.dir.join(format!("{digest:016x}.{}.{}.tmp", std::process::id(), self.tmp_seq));
        let final_path = self.entry_path(digest);
        let existed = final_path.exists();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&digest.to_le_bytes())?;
            f.write_all(&(body.len() as u64).to_le_bytes())?;
            f.write_all(body.as_bytes())?;
            f.write_all(&body_check(body.as_bytes()).to_le_bytes())?;
            f.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, &final_path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        if !existed {
            self.entries += 1;
        }
        Ok(())
    }

    /// Loads and verifies the body stored for `digest`.
    ///
    /// `Ok(Some(body))` is a verified disk hit; `Ok(None)` means no entry;
    /// `Err(Corrupt)` means the entry failed a check and was quarantined
    /// (renamed to `.corrupt`, counted) — the caller re-executes.
    pub fn load(&mut self, digest: u64) -> Result<Option<String>, StoreError> {
        let path = self.entry_path(digest);
        let mut f = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut raw = Vec::new();
        f.read_to_end(&mut raw)?;
        drop(f);
        match verify(digest, &raw) {
            Ok(body) => {
                self.hits += 1;
                Ok(Some(body))
            }
            Err(why) => {
                self.quarantine(&path);
                Err(StoreError::Corrupt(why))
            }
        }
    }

    /// Whether an entry file exists for `digest` (no verification).
    pub fn contains(&self, digest: u64) -> bool {
        self.entry_path(digest).exists()
    }

    /// Moves a failed entry aside as `<name>.corrupt` so it cannot be
    /// served again but stays available for inspection. The count is
    /// exported as `serve.store_corrupt`.
    fn quarantine(&mut self, path: &Path) {
        let mut aside = path.as_os_str().to_owned();
        aside.push(".corrupt");
        if std::fs::rename(path, &aside).is_err() {
            // Rename failed (e.g. read-only dir): removing is the next-best
            // way to stop re-serving it; if even that fails the verify step
            // still rejects it on every future read.
            let _ = std::fs::remove_file(path);
        }
        self.entries = self.entries.saturating_sub(1);
        self.corrupt += 1;
    }
}

/// Checks every frame of a raw entry file against `digest`, returning the
/// body. Each failure mode names itself: the message lands in logs and in
/// the quarantine accounting.
fn verify(digest: u64, raw: &[u8]) -> Result<String, String> {
    let header = MAGIC.len() + 8 + 8;
    if raw.len() < header + 8 {
        return Err(format!("file too short ({} bytes) for framing", raw.len()));
    }
    if &raw[..MAGIC.len()] != MAGIC {
        return Err("bad magic (not a dresar result file, or an old format)".into());
    }
    let stored_digest = u64::from_le_bytes(raw[5..13].try_into().expect("8 bytes"));
    if stored_digest != digest {
        return Err(format!(
            "digest mismatch: file claims {stored_digest:016x}, name says {digest:016x}"
        ));
    }
    let len = u64::from_le_bytes(raw[13..21].try_into().expect("8 bytes"));
    if len > MAX_BODY_BYTES {
        return Err(format!("framed length {len} exceeds the {MAX_BODY_BYTES}-byte cap"));
    }
    let len = len as usize;
    let expected_total = header + len + 8;
    if raw.len() != expected_total {
        return Err(format!(
            "length mismatch: framing promises {expected_total} bytes, file has {}",
            raw.len()
        ));
    }
    let body = &raw[header..header + len];
    let check = u64::from_le_bytes(raw[header + len..].try_into().expect("8 bytes"));
    if body_check(body) != check {
        return Err("body checksum mismatch (bit flip or partial overwrite)".into());
    }
    String::from_utf8(body.to_vec()).map_err(|_| "body is not valid UTF-8".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("dresar-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_then_load_round_trips_byte_identically() {
        let dir = tmp_dir("roundtrip");
        let mut store = ResultStore::open(&dir).unwrap();
        let body = "{\"metrics\":{\"sim.cycles\":12345}}\n";
        store.save(0xdead_beef, body).unwrap();
        assert_eq!(store.entries(), 1);
        assert_eq!(store.load(0xdead_beef).unwrap().as_deref(), Some(body));
        assert_eq!(store.stats(), (1, 0));
        assert_eq!(store.load(0x1234).unwrap(), None, "absent digest is a clean miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_scans_existing_entries_and_serves_them() {
        let dir = tmp_dir("reopen");
        let body = "warm body";
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.save(7, body).unwrap();
            store.save(8, "other").unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.entries(), 2, "boot scan counts surviving entries");
        assert_eq!(store.load(7).unwrap().as_deref(), Some(body));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined_not_served() {
        let dir = tmp_dir("truncate");
        let mut store = ResultStore::open(&dir).unwrap();
        store.save(42, "a body long enough to truncate meaningfully").unwrap();
        let path = dir.join(format!("{:016x}.result", 42));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        match store.load(42) {
            Err(StoreError::Corrupt(why)) => assert!(why.contains("length mismatch"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry renamed aside");
        assert!(
            path.with_extension("result.corrupt").exists(),
            "quarantined file kept for inspection"
        );
        assert_eq!(store.stats(), (0, 1));
        assert_eq!(store.load(42).unwrap(), None, "after quarantine the digest is a clean miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_the_body_is_quarantined() {
        let dir = tmp_dir("bitflip");
        let mut store = ResultStore::open(&dir).unwrap();
        store.save(9, "pristine result body").unwrap();
        let path = dir.join(format!("{:016x}.result", 9));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = MAGIC.len() + 16 + 3; // inside the body
        raw[mid] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        match store.load(9) {
            Err(StoreError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert_eq!(store.stats().1, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_mismatch_between_name_and_frame_is_quarantined() {
        let dir = tmp_dir("wrongname");
        let mut store = ResultStore::open(&dir).unwrap();
        store.save(1, "body of digest one").unwrap();
        // Rename digest 1's file to claim digest 2: the framed digest
        // catches a misfiled or maliciously renamed entry.
        std::fs::rename(
            dir.join(format!("{:016x}.result", 1)),
            dir.join(format!("{:016x}.result", 2)),
        )
        .unwrap();
        match store.load(2) {
            Err(StoreError::Corrupt(why)) => assert!(why.contains("digest mismatch"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_swept_at_boot() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("00000000000000aa.1.1.tmp");
        std::fs::write(&stray, b"half a write").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(!stray.exists(), "interrupted write swept");
        assert_eq!(store.entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_does_not_double_count_entries() {
        let dir = tmp_dir("overwrite");
        let mut store = ResultStore::open(&dir).unwrap();
        store.save(5, "same bytes").unwrap();
        store.save(5, "same bytes").unwrap();
        assert_eq!(store.entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
