//! SIT catalog persistence.
//!
//! Real optimizers persist their statistics in the system catalog; this
//! module serializes a [`SitCatalog`] (with every histogram, expression,
//! and stored `diff`) to JSON and back, so pools built by an expensive
//! offline pass can be reused across sessions. The attribute index is
//! rebuilt on load, so files stay a plain list of SITs.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sit::SitCatalog;

/// Saves a catalog as pretty-printed JSON.
///
/// The write is atomic with respect to readers: the JSON is written to a
/// uniquely named temporary file in the target's directory (same
/// filesystem, so the final step is a true rename) and renamed over `path`
/// only once complete. A crash mid-save leaves any previous catalog at
/// `path` untouched, and a concurrent [`load_catalog`] never observes a
/// half-written file.
pub fn save_catalog(catalog: &SitCatalog, path: impl AsRef<Path>) -> io::Result<()> {
    let tmp = write_temp(catalog, path.as_ref())?;
    // Crash-window failpoint: an injected error here aborts the save
    // between the temp-file write and the rename — the widest window a
    // real crash can hit — deliberately leaving the temporary behind, just
    // like a crash would (the cleanup below only guards rename failures).
    crate::failpoint::fire_err("persist::save")?;
    fs::rename(&tmp, path.as_ref()).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Serializes `catalog` into a fresh uniquely-named temporary file next to
/// `path` and returns the temporary's location — the first half of
/// [`save_catalog`], ahead of the `persist::save` failpoint the
/// crash-safety tests arm to stop a save exactly between the write and the
/// rename.
fn write_temp(catalog: &SitCatalog, path: &Path) -> io::Result<std::path::PathBuf> {
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let json = serde_json::to_string_pretty(catalog)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // Unique per process + call, so concurrent saves to the same target
    // never clobber each other's temporaries.
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    fs::write(&tmp, json)?;
    Ok(tmp)
}

/// Temporary files that a crashed [`save_catalog`] targeting `path` may
/// have left behind: `.{name}.tmp.{pid}.{seq}` siblings of `path`. A
/// healthy save leaves none (the temp is renamed away or removed), so
/// anything matching is garbage from an interrupted process and is safe to
/// delete — the rename-last protocol guarantees `path` itself is either
/// the old complete catalog or the new complete catalog, never a partial.
pub fn stale_temp_files(path: impl AsRef<Path>) -> io::Result<Vec<std::path::PathBuf>> {
    let path = path.as_ref();
    let dir = match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(d) => d.to_path_buf(),
        None => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let prefix = format!(".{}.tmp.", file_name.to_string_lossy());
    let mut found = Vec::new();
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

/// Deletes every stale temporary detected by [`stale_temp_files`] and
/// returns how many were removed. Call on startup before the first
/// [`load_catalog`] to reclaim space after a crash.
pub fn clean_stale_temps(path: impl AsRef<Path>) -> io::Result<usize> {
    let stale = stale_temp_files(&path)?;
    let n = stale.len();
    for tmp in stale {
        fs::remove_file(tmp)?;
    }
    Ok(n)
}

/// Loads a catalog saved by [`save_catalog`], rebuilding its indexes.
pub fn load_catalog(path: impl AsRef<Path>) -> io::Result<SitCatalog> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sit::Sit;
    use sqe_engine::table::TableBuilder;
    use sqe_engine::{ColRef, Database, Predicate, TableId};

    fn sample_catalog() -> (Database, SitCatalog) {
        let mut db = Database::new();
        db.add_table(
            TableBuilder::new("r")
                .column("a", vec![1, 1, 2, 3])
                .column("x", vec![10, 10, 20, 30])
                .build()
                .unwrap(),
        );
        db.add_table(
            TableBuilder::new("s")
                .column("y", vec![10, 20, 20])
                .build()
                .unwrap(),
        );
        let join = Predicate::join(ColRef::new(TableId(0), 1), ColRef::new(TableId(1), 0));
        let mut cat = SitCatalog::new();
        cat.add(Sit::build_base(&db, ColRef::new(TableId(0), 0)).unwrap());
        cat.add(Sit::build(&db, ColRef::new(TableId(0), 0), vec![join]).unwrap());
        (db, cat)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (_, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        save_catalog(&cat, &path).unwrap();
        let loaded = load_catalog(&path).unwrap();
        assert_eq!(loaded.len(), cat.len());
        for ((_, a), (_, b)) in cat.iter().zip(loaded.iter()) {
            assert_eq!(a.attr, b.attr);
            assert_eq!(a.cond, b.cond);
            assert_eq!(a.diff, b.diff);
            assert_eq!(a.histogram, b.histogram);
        }
        // The rebuilt index answers lookups identically.
        let attr = ColRef::new(TableId(0), 0);
        assert_eq!(loaded.for_attr(attr).len(), cat.for_attr(attr).len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loaded_catalog_estimates_identically() {
        let (db, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        save_catalog(&cat, &path).unwrap();
        let loaded = load_catalog(&path).unwrap();

        let q = sqe_engine::SpjQuery::from_predicates(vec![
            Predicate::join(ColRef::new(TableId(0), 1), ColRef::new(TableId(1), 0)),
            Predicate::filter(ColRef::new(TableId(0), 0), sqe_engine::CmpOp::Eq, 1),
        ])
        .unwrap();
        let mut a = crate::SelectivityEstimator::new(&db, &q, &cat, crate::ErrorMode::Diff);
        let mut b = crate::SelectivityEstimator::new(&db, &q, &loaded, crate::ErrorMode::Diff);
        assert_eq!(a.selectivity(), b.selectivity());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_leaves_no_temporaries_and_overwrites_atomically() {
        let (_, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        save_catalog(&cat, &path).unwrap();
        // Overwrite in place: the second save must go through a rename,
        // not truncate-then-write.
        save_catalog(&cat, &path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert!(load_catalog(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_into_current_directory_relative_path_works() {
        let (_, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test_rel");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rel_catalog.json");
        // Bare-file-name path (no parent component).
        save_catalog(&cat, &path).unwrap();
        assert!(load_catalog(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_write_and_rename_leaves_original_intact() {
        let (db, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test_crash");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");

        // A complete catalog is on disk; a later save crashes between the
        // temp-file write and the rename (simulated by arming the shared
        // `persist::save` failpoint, which errors the save out exactly in
        // that window).
        save_catalog(&cat, &path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        let mut bigger = SitCatalog::new();
        for (_, s) in cat.iter() {
            bigger.add(s.clone());
        }
        bigger.add(Sit::build_base(&db, ColRef::new(TableId(1), 0)).unwrap());
        crate::failpoint::arm("persist::save", crate::failpoint::Action::Error);
        let err = save_catalog(&bigger, &path).unwrap_err();
        assert!(err.to_string().contains("persist::save"), "{err}");
        let stale_after_crash = stale_temp_files(&path).unwrap();
        let [tmp] = stale_after_crash.as_slice() else {
            panic!("crash leaves exactly one temporary behind: {stale_after_crash:?}");
        };
        let tmp = tmp.clone();
        assert!(tmp.exists(), "crash leaves the temporary behind");

        // The original catalog is byte-for-byte untouched and still loads.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let loaded = load_catalog(&path).unwrap();
        assert_eq!(loaded.len(), cat.len());

        // The orphan is detectable and cleanable; the catalog survives the
        // cleanup.
        let stale = stale_temp_files(&path).unwrap();
        assert_eq!(stale, vec![tmp.clone()]);
        assert_eq!(clean_stale_temps(&path).unwrap(), 1);
        assert!(!tmp.exists());
        assert!(stale_temp_files(&path).unwrap().is_empty());
        assert!(load_catalog(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_any_catalog_exists_is_recoverable() {
        // First-ever save crashes: no catalog at `path`, one orphan temp.
        let (_, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test_crash_first");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        crate::failpoint::arm("persist::save", crate::failpoint::Action::Error);
        assert!(save_catalog(&cat, &path).is_err());
        crate::failpoint::disarm("persist::save");
        assert!(!path.exists(), "no partial catalog ever appears at `path`");
        assert_eq!(stale_temp_files(&path).unwrap().len(), 1);
        assert_eq!(clean_stale_temps(&path).unwrap(), 1);
        // A retried save (failpoint disarmed) then succeeds normally.
        save_catalog(&cat, &path).unwrap();
        assert!(load_catalog(&path).is_ok());
        assert!(stale_temp_files(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_detection_ignores_unrelated_files() {
        let (_, cat) = sample_catalog();
        let dir = std::env::temp_dir().join("sqe_persist_test_stale_scope");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        save_catalog(&cat, &path).unwrap();
        // Unrelated siblings: another catalog's temp, a plain file, and a
        // name that merely contains ".tmp.".
        std::fs::write(dir.join(".other.json.tmp.1.0"), "x").unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("catalog.json.tmp.backup"), "x").unwrap();
        assert!(stale_temp_files(&path).unwrap().is_empty());
        assert_eq!(clean_stale_temps(&path).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = load_catalog("/nonexistent/sqe/catalog.json").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn corrupt_file_reports_data_error() {
        let dir = std::env::temp_dir().join("sqe_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = load_catalog(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
    }
}
