//! The content-addressed artifact store: one directory per campaign,
//! keyed on `(spec_hash, seed)`.
//!
//! ```text
//! <root>/<id>/spec.json   the spec as first POSTed (resume + audit)
//! <root>/<id>/rows.jsonl  the streamed row artifact (append-only)
//! <root>/<id>/meta.json   written last — its presence marks completion
//! <root>/<id>/  with no meta.json = an interrupted campaign; the next
//!               POST of the same spec keeps its whole grid units and
//!               appends the rows of the rest
//! <root>/quarantine/<id>[-N]/  artifacts whose completion marker lied
//!               (torn meta, checksum mismatch) — kept for autopsy, never
//!               served; the campaign re-runs from scratch
//! ```
//!
//! The id is `{spec_hash}-{seed:016x}` where `spec_hash` is the first 16
//! hex digits of the SHA-256 of the **canonical** spec JSON
//! ([`canonical_spec_json`]): presentation fields (`name`, `title`,
//! `sink`) are normalized away and the seed is zeroed, so two submissions
//! that would produce identical rows share one artifact, and the seed —
//! the one knob that changes rows without changing shape — stays legible
//! in the id instead of hiding in the digest.
//!
//! # Crash safety
//!
//! The completion marker is the store's only trust anchor, so it is
//! written to survive `kill -9` and torn disk writes: the rows file is
//! fsynced first, its SHA-256 goes *into* the marker, and the marker
//! itself lands via temp-file + atomic rename with the file and its
//! parent directory both fsynced. On preload, [`Store::verify`] replays
//! that contract — a marker that does not parse, names a row count the
//! artifact doesn't have, or checksums bytes that are not on disk sends
//! the whole campaign directory to `quarantine/` instead of serving bad
//! bytes; the deterministic engine simply re-runs the spec.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use dream_sim::scenario::json::{u64_json, Json};
use dream_sim::scenario::{Scenario, SinkSpec};

use crate::hash::sha256_hex;

/// Name of the sub-directory corrupt artifacts are moved to.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Canonicalizes `sc` for hashing: presentation fields cleared, seed
/// zeroed (it is keyed separately), everything else verbatim.
pub fn canonical_spec_json(sc: &Scenario) -> String {
    let mut canonical = sc.clone();
    canonical.name = "campaign".to_string();
    canonical.title = String::new();
    canonical.sink = SinkSpec::default();
    canonical.seed = 0;
    canonical.to_json()
}

/// The first 16 hex digits of the SHA-256 of [`canonical_spec_json`].
pub fn spec_hash(sc: &Scenario) -> String {
    sha256_hex(canonical_spec_json(sc).as_bytes())[..16].to_string()
}

/// The store key of `sc`: `{spec_hash}-{seed:016x}`.
pub fn campaign_id(sc: &Scenario) -> String {
    format!("{}-{:016x}", spec_hash(sc), sc.seed)
}

/// The parsed completion marker of one campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Rows the artifact held when the campaign completed.
    pub rows: usize,
    /// SHA-256 (hex) of the complete `rows.jsonl` bytes.
    pub rows_sha256: String,
}

/// The integrity verdict of one on-disk campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Integrity {
    /// Marker present, checksum and row count match the artifact.
    Verified,
    /// No completion marker — an interrupted campaign (resumable, not
    /// corrupt).
    Incomplete,
    /// The marker and the artifact disagree; the reason says how.
    Corrupt(String),
}

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, fsync, atomic rename over the destination, fsync of the
/// parent directory so the rename itself is durable.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_else(|| "atomic".to_string())
    ));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename needs the directory entry flushed too.
    fs::File::open(parent)?.sync_all()
}

/// A directory of campaign artifacts addressed by [`campaign_id`].
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> io::Result<Store> {
        fs::create_dir_all(root)?;
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of campaign `id`.
    pub fn dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// The row artifact of campaign `id`.
    pub fn rows_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("rows.jsonl")
    }

    /// The stored spec of campaign `id`.
    pub fn spec_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("spec.json")
    }

    /// The completion marker of campaign `id`.
    pub fn meta_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("meta.json")
    }

    /// The quarantine root (`<store>/quarantine`).
    pub fn quarantine_root(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Prepares the directory of campaign `id` and records its spec
    /// (atomically — a crash mid-write must not leave a torn spec where a
    /// resumable one stood). Idempotent: re-beginning an interrupted
    /// campaign keeps its rows.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn begin(&self, id: &str, sc: &Scenario) -> io::Result<()> {
        fs::create_dir_all(self.dir(id))?;
        write_atomic(&self.spec_path(id), sc.to_json().as_bytes())
    }

    /// True when campaign `id` finished (its meta marker exists).
    pub fn is_complete(&self, id: &str) -> bool {
        self.meta_path(id).exists()
    }

    /// The number of complete (newline-terminated) rows currently in the
    /// artifact of campaign `id`; 0 when it has none. A ragged final line
    /// (a write cut mid-row by a crash) is not counted.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than the file not existing.
    pub fn existing_row_count(&self, id: &str) -> io::Result<usize> {
        match fs::read(self.rows_path(id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
            Ok(bytes) => Ok(bytes.iter().filter(|&&b| b == b'\n').count()),
        }
    }

    /// Prepares the artifact of campaign `id` for appending: truncates it
    /// to its first `rows` complete rows, or to every complete row when it
    /// holds fewer. A ragged final line (a write cut mid-row by a crash)
    /// is always cut, so the next append starts on a row boundary.
    /// Returns the rows kept.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn truncate_rows(&self, id: &str, rows: usize) -> io::Result<usize> {
        let path = self.rows_path(id);
        let mut file = match fs::OpenOptions::new().read(true).write(true).open(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            other => other?,
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (kept, len) = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .take(rows)
            .fold((0, 0), |(n, _), (i, _)| (n + 1, i + 1));
        if len < bytes.len() {
            file.set_len(len as u64)?;
        }
        Ok(kept)
    }

    /// Marks campaign `id` complete with its final row count. Written
    /// last, after every row is on disk — the marker's existence is the
    /// completion contract, so the rows file is fsynced first, its
    /// checksum is recorded in the marker, and the marker lands via
    /// `write_atomic`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn mark_complete(&self, id: &str, sc: &Scenario, rows: usize) -> io::Result<()> {
        let rows_bytes = match fs::read(self.rows_path(id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            other => other?,
        };
        if self.rows_path(id).exists() {
            // The marker attests to these bytes: they must hit the platter
            // before it does.
            fs::File::open(self.rows_path(id))?.sync_all()?;
        }
        let meta = Json::Obj(vec![
            ("id".into(), Json::Str(id.into())),
            ("spec_hash".into(), Json::Str(spec_hash(sc))),
            ("seed".into(), u64_json(sc.seed)),
            ("rows".into(), u64_json(rows as u64)),
            ("rows_sha256".into(), Json::Str(sha256_hex(&rows_bytes))),
        ]);
        write_atomic(&self.meta_path(id), meta.pretty().as_bytes())
    }

    /// Reads and parses the completion marker of campaign `id`.
    /// `Ok(None)` when the marker does not exist.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the marker exists but does not parse (torn
    /// write) — callers treat that as corruption, not absence.
    pub fn read_meta(&self, id: &str) -> io::Result<Option<Meta>> {
        let text = match fs::read_to_string(self.meta_path(id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            other => other?,
        };
        let parse = || -> Option<Meta> {
            let doc = Json::parse(&text).ok()?;
            let rows = doc.get("rows")?.as_usize()?;
            let rows_sha256 = doc.get("rows_sha256")?.as_str()?.to_string();
            if rows_sha256.len() != 64 || !rows_sha256.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            Some(Meta { rows, rows_sha256 })
        };
        parse().map(Some).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("meta.json of {id} is torn or from an older format"),
            )
        })
    }

    /// Checks the completion marker of campaign `id` against the bytes
    /// actually on disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (other than not-found, which is a
    /// verdict, not an error).
    pub fn verify(&self, id: &str) -> io::Result<Integrity> {
        let meta = match self.read_meta(id) {
            Ok(None) => return Ok(Integrity::Incomplete),
            Ok(Some(meta)) => meta,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Ok(Integrity::Corrupt(e.to_string()))
            }
            Err(e) => return Err(e),
        };
        let rows_bytes = match fs::read(self.rows_path(id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(Integrity::Corrupt(
                    "meta.json present but rows.jsonl missing".to_string(),
                ))
            }
            other => other?,
        };
        let digest = sha256_hex(&rows_bytes);
        if digest != meta.rows_sha256 {
            return Ok(Integrity::Corrupt(format!(
                "rows.jsonl checksum mismatch (meta {}, disk {})",
                &meta.rows_sha256[..16.min(meta.rows_sha256.len())],
                &digest[..16]
            )));
        }
        let rows = rows_bytes.iter().filter(|&&b| b == b'\n').count();
        if rows != meta.rows {
            return Ok(Integrity::Corrupt(format!(
                "row count mismatch (meta {}, disk {rows})",
                meta.rows
            )));
        }
        Ok(Integrity::Verified)
    }

    /// Moves the whole directory of campaign `id` into the quarantine,
    /// recording `reason` alongside, and returns the destination. The
    /// campaign then looks unknown to the store and re-runs from scratch.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn quarantine(&self, id: &str, reason: &str) -> io::Result<PathBuf> {
        let qroot = self.quarantine_root();
        fs::create_dir_all(&qroot)?;
        let mut dest = qroot.join(id);
        let mut n = 1;
        while dest.exists() {
            dest = qroot.join(format!("{id}-{n}"));
            n += 1;
        }
        fs::rename(self.dir(id), &dest)?;
        fs::write(dest.join("quarantine_reason.txt"), format!("{reason}\n"))?;
        Ok(dest)
    }

    /// Every campaign on disk: `(id, spec, complete)`. The quarantine
    /// sub-directory is skipped, as are directories whose spec no longer
    /// parses (a newer spec vocabulary may have obsoleted them) — the
    /// store never fails to open over them.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn scan(&self) -> io::Result<Vec<(String, Scenario, bool)>> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let id = entry.file_name().to_string_lossy().to_string();
            if id == QUARANTINE_DIR {
                continue;
            }
            let Ok(text) = fs::read_to_string(self.spec_path(&id)) else {
                continue;
            };
            let Ok(sc) = Scenario::from_json(&text) else {
                continue;
            };
            let complete = self.is_complete(&id);
            found.push((id, sc, complete));
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_sim::scenario::registry;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("dream_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    #[test]
    fn presentation_fields_do_not_change_the_address() {
        let base = registry::get("fig2", true).unwrap();
        let mut renamed = base.clone();
        renamed.name = "my-campaign".into();
        renamed.title = "same physics, different label".into();
        renamed.sink = SinkSpec::parse("jsonl:elsewhere").unwrap();
        assert_eq!(campaign_id(&base), campaign_id(&renamed));

        let mut reseeded = base.clone();
        reseeded.seed += 1;
        assert_eq!(spec_hash(&base), spec_hash(&reseeded));
        assert_ne!(campaign_id(&base), campaign_id(&reseeded));

        let mut retrialed = base;
        retrialed.trials += 1;
        assert_ne!(
            spec_hash(&registry::get("fig2", true).unwrap()),
            spec_hash(&retrialed)
        );
    }

    #[test]
    fn ids_are_filesystem_safe_and_seed_legible() {
        let sc = registry::get("fig4", true).unwrap();
        let id = campaign_id(&sc);
        assert_eq!(id.len(), 16 + 1 + 16);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit() || c == '-'));
        assert!(id.ends_with(&format!("{:016x}", sc.seed)));
    }

    #[test]
    fn lifecycle_begin_append_complete() {
        let store = temp_store("lifecycle");
        let sc = registry::get("fig2", true).unwrap();
        let id = campaign_id(&sc);
        store.begin(&id, &sc).unwrap();
        assert!(!store.is_complete(&id));
        assert_eq!(store.existing_row_count(&id).unwrap(), 0);
        assert_eq!(store.verify(&id).unwrap(), Integrity::Incomplete);

        fs::write(store.rows_path(&id), "{\"a\": 1}\n{\"a\": 2}\n").unwrap();
        assert_eq!(store.existing_row_count(&id).unwrap(), 2);

        store.mark_complete(&id, &sc, 2).unwrap();
        assert!(store.is_complete(&id));
        assert_eq!(store.verify(&id).unwrap(), Integrity::Verified);
        // The atomic write leaves no temp file behind.
        assert!(!store.dir(&id).join("meta.json.tmp").exists());
        let meta = store.read_meta(&id).unwrap().unwrap();
        assert_eq!(meta.rows, 2);
        assert_eq!(
            meta.rows_sha256,
            sha256_hex(b"{\"a\": 1}\n{\"a\": 2}\n"),
            "marker must checksum the artifact bytes"
        );
        let scan = store.scan().unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan[0].0, id);
        assert_eq!(scan[0].1, sc);
        assert!(scan[0].2);
    }

    #[test]
    fn truncate_rows_edge_cases() {
        let store = temp_store("ragged_edges");
        let sc = registry::get("fig2", true).unwrap();
        let id = campaign_id(&sc);
        store.begin(&id, &sc).unwrap();

        // Missing file: nothing to repair, zero rows.
        assert_eq!(store.truncate_rows(&id, usize::MAX).unwrap(), 0);

        // Empty file: stays empty, zero rows.
        fs::write(store.rows_path(&id), "").unwrap();
        assert_eq!(store.truncate_rows(&id, usize::MAX).unwrap(), 0);
        assert_eq!(fs::read(store.rows_path(&id)).unwrap(), b"");

        // A single partial line (crash inside the very first row): the
        // whole file is the ragged tail.
        fs::write(store.rows_path(&id), "{\"a\": ").unwrap();
        assert_eq!(store.truncate_rows(&id, usize::MAX).unwrap(), 0);
        assert_eq!(fs::read(store.rows_path(&id)).unwrap(), b"");

        // A trailing newline-only tail is already on a row boundary —
        // nothing is cut, nothing is counted twice.
        fs::write(store.rows_path(&id), "{\"a\": 1}\n\n").unwrap();
        assert_eq!(store.truncate_rows(&id, usize::MAX).unwrap(), 2);
        assert_eq!(fs::read(store.rows_path(&id)).unwrap(), b"{\"a\": 1}\n\n");

        // CRLF endings: the CR belongs to the row, the LF terminates it;
        // a complete CRLF row survives, a ragged tail after it is cut.
        fs::write(store.rows_path(&id), "{\"a\": 1}\r\n{\"b\"").unwrap();
        assert_eq!(store.truncate_rows(&id, usize::MAX).unwrap(), 1);
        assert_eq!(fs::read(store.rows_path(&id)).unwrap(), b"{\"a\": 1}\r\n");
        assert_eq!(store.existing_row_count(&id).unwrap(), 1);

        // Read-only counting ignores a ragged tail; a row count below what
        // is present keeps exactly that prefix and cuts the tail too.
        let rows = "{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n{\"a\"";
        fs::write(store.rows_path(&id), rows).unwrap();
        assert_eq!(store.existing_row_count(&id).unwrap(), 3);
        assert_eq!(store.truncate_rows(&id, 2).unwrap(), 2);
        assert_eq!(
            fs::read_to_string(store.rows_path(&id)).unwrap(),
            "{\"a\": 1}\n{\"a\": 2}\n"
        );
        assert_eq!(store.truncate_rows(&id, 0).unwrap(), 0);
        assert_eq!(fs::read(store.rows_path(&id)).unwrap(), b"");
    }

    #[test]
    fn tampered_rows_fail_verification_and_quarantine_moves_them() {
        let store = temp_store("tamper");
        let sc = registry::get("fig2", true).unwrap();
        let id = campaign_id(&sc);
        store.begin(&id, &sc).unwrap();
        fs::write(store.rows_path(&id), "{\"a\": 1}\n").unwrap();
        store.mark_complete(&id, &sc, 1).unwrap();
        assert_eq!(store.verify(&id).unwrap(), Integrity::Verified);

        // Bit-rot: one byte flips after completion.
        fs::write(store.rows_path(&id), "{\"a\": 9}\n").unwrap();
        let verdict = store.verify(&id).unwrap();
        assert!(
            matches!(&verdict, Integrity::Corrupt(r) if r.contains("checksum")),
            "{verdict:?}"
        );

        let dest = store.quarantine(&id, "checksum mismatch in test").unwrap();
        assert!(dest.starts_with(store.quarantine_root()));
        assert!(!store.dir(&id).exists(), "campaign dir must be gone");
        assert!(dest.join("rows.jsonl").exists(), "evidence preserved");
        assert!(fs::read_to_string(dest.join("quarantine_reason.txt"))
            .unwrap()
            .contains("checksum"));
        // The store no longer knows the campaign (scan skips quarantine).
        assert!(store.scan().unwrap().is_empty());

        // Quarantining a fresh incarnation of the same id does not clobber
        // the first autopsy.
        store.begin(&id, &sc).unwrap();
        let dest2 = store.quarantine(&id, "second failure").unwrap();
        assert_ne!(dest, dest2);
    }

    #[test]
    fn torn_meta_and_row_count_lies_are_corrupt() {
        let store = temp_store("torn_meta");
        let sc = registry::get("fig2", true).unwrap();
        let id = campaign_id(&sc);
        store.begin(&id, &sc).unwrap();
        fs::write(store.rows_path(&id), "{\"a\": 1}\n").unwrap();

        // A torn marker (crash mid-write of a pre-atomic store, or cosmic
        // rays) parses as corruption, not completion.
        fs::write(store.meta_path(&id), "{\"id\": \"abc\", \"row").unwrap();
        assert!(matches!(store.verify(&id).unwrap(), Integrity::Corrupt(_)));

        // A marker whose row count disagrees with the artifact is corrupt
        // even when its checksum field matches the bytes.
        let digest = sha256_hex(b"{\"a\": 1}\n");
        fs::write(
            store.meta_path(&id),
            format!("{{\"rows\": 7, \"rows_sha256\": \"{digest}\"}}\n"),
        )
        .unwrap();
        let verdict = store.verify(&id).unwrap();
        assert!(
            matches!(&verdict, Integrity::Corrupt(r) if r.contains("row count")),
            "{verdict:?}"
        );

        // A true marker in the one-line layout older stores wrote verifies.
        let old = format!(
            "{{\"id\": \"{id}\", \"spec_hash\": \"{}\", \"seed\": 0, \"rows\": 1, \"rows_sha256\": \"{digest}\"}}\n",
            spec_hash(&sc)
        );
        fs::write(store.meta_path(&id), old).unwrap();
        assert_eq!(store.verify(&id).unwrap(), Integrity::Verified);

        // A marker over a missing artifact is corrupt too.
        fs::remove_file(store.rows_path(&id)).unwrap();
        fs::write(
            store.meta_path(&id),
            format!("{{\"rows\": 1, \"rows_sha256\": \"{digest}\"}}\n"),
        )
        .unwrap();
        assert!(matches!(store.verify(&id).unwrap(), Integrity::Corrupt(_)));
    }

    /// A store with one campaign directory, `prop`, for the marker and
    /// row properties; files are overwritten case by case.
    fn prop_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("dream_store_prop_{tag}_{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        fs::create_dir_all(store.dir("prop")).unwrap();
        store
    }

    /// `rows` values of a near-miss marker, as JSON text, and whether
    /// `read_meta` must accept them.
    const MARKER_ROWS: [(&str, bool); 8] = [
        ("0", true),
        ("3", true),
        ("9007199254740992", true),
        ("-1", false),
        ("1.5", false),
        ("1e300", false),
        ("\"3\"", false),
        ("null", false),
    ];

    /// `rows_sha256` values of a near-miss marker and whether they are
    /// accepted: 64 hex digits of either case, nothing else.
    fn marker_sha(pick: usize) -> (String, bool) {
        let hex = sha256_hex(b"rows");
        match pick % 6 {
            0 => (format!("\"{hex}\""), true),
            1 => (format!("\"{}\"", hex.to_uppercase()), true),
            2 => (format!("\"{}\"", &hex[1..]), false),
            3 => (format!("\"{hex}0\""), false),
            4 => (format!("\"g{}\"", &hex[1..]), false),
            _ => ("7".to_string(), false),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_markers_are_typed_corruption(
            marker in proptest::prop::collection::vec(proptest::any::<u8>(), 0..160),
            rows in proptest::prop::collection::vec(proptest::any::<u8>(), 0..64),
        ) {
            // Arbitrary bytes as meta.json: a parsed marker is always a
            // well-formed one, anything else is `InvalidData`, and
            // `verify` returns a verdict.
            let store = prop_store("bytes");
            fs::write(store.meta_path("prop"), &marker).unwrap();
            fs::write(store.rows_path("prop"), &rows).unwrap();
            match store.read_meta("prop") {
                Ok(Some(meta)) => {
                    proptest::prop_assert_eq!(meta.rows_sha256.len(), 64);
                    proptest::prop_assert!(Json::parse(std::str::from_utf8(&marker).unwrap()).is_ok());
                }
                Ok(None) => proptest::prop_assert!(false, "an existing marker read as absent"),
                Err(e) => proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            }
            proptest::prop_assert!(store.verify("prop").is_ok());
        }

        #[test]
        fn near_miss_markers_parse_only_when_well_formed(
            rows_pick in 0usize..8,
            sha_pick in 0usize..6,
            layout in 0u8..6,
            cut in 0usize..256,
        ) {
            // A marker is well-formed exactly when it is a whole JSON
            // object with an integral `rows` and a 64-hex `rows_sha256`;
            // extra fields are ignored.
            let (rows_text, rows_ok) = MARKER_ROWS[rows_pick];
            let (sha_text, sha_ok) = marker_sha(sha_pick);
            let (text, layout_ok) = match layout {
                0 => (format!("{{\"rows\": {rows_text}, \"rows_sha256\": {sha_text}}}"), true),
                1 => (
                    format!(
                        "{{\"id\": \"prop\", \"seed\": 0, \"rows_sha256\": {sha_text}, \"rows\": {rows_text}}}\n"
                    ),
                    true,
                ),
                2 => (format!("{{\"rows_sha256\": {sha_text}}}"), false),
                3 => (format!("{{\"rows\": {rows_text}}}"), false),
                4 => (format!("[{{\"rows\": {rows_text}, \"rows_sha256\": {sha_text}}}]"), false),
                _ => {
                    // Torn: the write stopped before the closing brace.
                    let whole = format!("{{\"rows\": {rows_text}, \"rows_sha256\": {sha_text}}}");
                    (whole[..cut % (whole.len() - 1)].to_string(), false)
                }
            };
            let store = prop_store("near_miss");
            fs::write(store.meta_path("prop"), &text).unwrap();
            fs::write(store.rows_path("prop"), "rows").unwrap();
            match store.read_meta("prop") {
                Ok(Some(meta)) => {
                    proptest::prop_assert!(rows_ok && sha_ok && layout_ok, "accepted {:?}", text);
                    proptest::prop_assert_eq!(meta.rows.to_string(), rows_text);
                    proptest::prop_assert_eq!(format!("\"{}\"", meta.rows_sha256), sha_text);
                }
                Ok(None) => proptest::prop_assert!(false, "an existing marker read as absent"),
                Err(e) => {
                    proptest::prop_assert!(!(rows_ok && sha_ok && layout_ok), "rejected {:?}", text);
                    proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
            }
            let verdict = store.verify("prop").unwrap();
            // The rows file holds no newline, so no marker can verify.
            proptest::prop_assert!(matches!(verdict, Integrity::Corrupt(_)), "{:?}", verdict);
        }

        #[test]
        fn truncate_rows_keeps_whole_rows(
            bytes in proptest::prop::collection::vec(
                proptest::prop::sample::select(vec![b'\n', b'\n', b'\r', b'{', b'a', 0xFF]),
                0..48,
            ),
            keep in 0usize..12,
        ) {
            // `truncate_rows(k)` keeps min(k, complete lines) rows and
            // leaves a prefix of the file that is empty or ends in `\n`.
            let store = prop_store("truncate");
            fs::write(store.rows_path("prop"), &bytes).unwrap();
            let lines = bytes.iter().filter(|&&b| b == b'\n').count();
            let keep = if keep == 11 { usize::MAX } else { keep };
            let kept = store.truncate_rows("prop", keep).unwrap();
            proptest::prop_assert_eq!(kept, keep.min(lines));
            let left = fs::read(store.rows_path("prop")).unwrap();
            proptest::prop_assert!(bytes.starts_with(&left));
            proptest::prop_assert!(left.last().is_none_or(|&b| b == b'\n'), "{:?}", left);
            proptest::prop_assert_eq!(left.iter().filter(|&&b| b == b'\n').count(), kept);
            proptest::prop_assert_eq!(store.existing_row_count("prop").unwrap(), kept);
        }
    }
}
