// SPDX-License-Identifier: MIT OR Apache-2.0
//! Output-artifact naming and crash-safe writes.
//!
//! Artifacts (`results_full.json`, metrics snapshots) are written twice
//! per ledgered run: once under a run-id-suffixed name that no later
//! run will touch, and once under the plain "latest" name scripts rely
//! on. Both writes go through a temp-file + rename so a crash mid-write
//! can never leave a torn JSON file at either name — rename within a
//! directory is atomic on POSIX. The versioned copy is the durable
//! record: a failure writing it panics, while a failure refreshing the
//! latest copy only warns (the data is already safe under the versioned
//! name).

use std::io::Write;
use std::path::Path;

/// `results_full.json` + `run000007` → `results_full-run000007.json`:
/// the per-run artifact name that stops successive runs clobbering each
/// other (the plain name stays as the "latest" copy for scripts).
pub fn with_run_id(path: &str, run_id: &str) -> String {
    let p = Path::new(path);
    match (
        p.file_stem().and_then(|s| s.to_str()),
        p.extension().and_then(|e| e.to_str()),
    ) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}-{run_id}.{ext}"))
            .display()
            .to_string(),
        _ => format!("{path}-{run_id}"),
    }
}

/// Writes `contents` to `path` via a temp file in the same directory
/// followed by a rename, so readers (and crash recovery) only ever see
/// the old bytes or the new bytes — never a torn prefix.
///
/// # Errors
///
/// Temp-file creation/write/sync or rename failures; the temp file is
/// removed on failure.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let write_result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_data()?;
        Ok(())
    })();
    if let Err(e) = write_result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes an output artifact under its run-id name (when the run was
/// ledgered) plus the plain "latest" name scripts rely on, and returns
/// the status line naming what was written (the caller decides where it
/// goes; harness stdout stays machine-parseable). The versioned write
/// must succeed (panic otherwise); a failure refreshing the latest copy
/// degrades to a warning in the status line, because the versioned copy
/// is already durable.
///
/// # Panics
///
/// When the primary (versioned, or plain if unledgered) write fails.
pub fn write_artifact(what: &str, path: &str, run_id: Option<&str>, contents: &str) -> String {
    if let Some(id) = run_id {
        let versioned = with_run_id(path, id);
        write_atomic(&versioned, contents).unwrap_or_else(|e| panic!("writing {versioned}: {e}"));
        match write_atomic(path, contents) {
            Ok(()) => format!("{what} written to {versioned} (latest copy: {path})"),
            Err(e) => format!(
                "{what} written to {versioned}; warning: refreshing latest copy {path} failed: {e}"
            ),
        }
    } else {
        write_atomic(path, contents).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        format!("{what} written to {path}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_lands_before_the_extension() {
        assert_eq!(
            with_run_id("results_full.json", "run000007"),
            "results_full-run000007.json"
        );
        assert_eq!(
            with_run_id("out/deep/results.json", "run000001"),
            "out/deep/results-run000001.json"
        );
    }

    #[test]
    fn extensionless_paths_get_a_plain_suffix() {
        assert_eq!(with_run_id("results", "run000002"), "results-run000002");
        assert_eq!(
            with_run_id("out/results", "run000002"),
            "out/results-run000002"
        );
    }

    #[test]
    fn dotfile_names_are_not_mistaken_for_extensions() {
        // `.gitignore`-style names have no stem/extension split; the id
        // is appended whole rather than producing `-run....gitignore`.
        assert_eq!(with_run_id(".spoolrc", "run000003"), ".spoolrc-run000003");
        // A dotted directory plus a real extension still splits right.
        assert_eq!(
            with_run_id(".poat/ledger.poatlgr", "run000004"),
            ".poat/ledger-run000004.poatlgr"
        );
    }

    #[test]
    fn atomic_write_replaces_contents_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("poat_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path_s = path.to_str().unwrap();
        write_atomic(path_s, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(path_s, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_into_missing_directory_fails_cleanly() {
        let path = std::env::temp_dir()
            .join(format!("poat_artifact_missing_{}", std::process::id()))
            .join("nope")
            .join("artifact.json");
        assert!(write_atomic(path.to_str().unwrap(), "x").is_err());
    }

    #[test]
    fn write_artifact_survives_an_unwritable_latest_copy() {
        let dir = std::env::temp_dir().join(format!("poat_artifact_lat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The "latest" path is a directory: rename over it fails, but the
        // versioned write already happened, so this must not panic.
        let latest = dir.join("results.json");
        std::fs::create_dir_all(&latest).unwrap();
        let status = write_artifact("results", latest.to_str().unwrap(), Some("run000009"), "{}");
        assert!(
            status.contains("warning: refreshing latest copy"),
            "{status}"
        );
        let versioned = dir.join("results-run000009.json");
        assert_eq!(std::fs::read_to_string(&versioned).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
