//! The daemon's persistent, content-addressed result cache: one
//! journal file per context.
//!
//! Every run request resolves to a context string (code version,
//! fidelity, fault effects, backend and, for analytic sections, the
//! model digest — see [`crate::journal::run_context`])
//! and is cached in `ctx-<fnv64(context)>.journal` inside the cache
//! directory. Each file is a [`Journal`]: points computed while the
//! daemon runs are appended as `piton-journal/v1` write-ahead records,
//! and a clean shutdown compacts every file that gained records into a
//! `piton-snapshot/v1` snapshot ([`ResultCache::compact`]), which the
//! next daemon indexes without parsing a payload. Either way a file
//! inherits the journal's guarantees wholesale: longest-valid-prefix
//! recovery after a crash, point by point inside a snapshot, torn tails
//! truncated and counted, and a refusal to open a file recorded under a
//! different context (which is also what turns an astronomically-unlikely
//! file-name hash collision into a loud error instead of silent
//! cross-context serving).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use piton_arch::error::PitonError;
use piton_obs::manifest::JournalStats;

use crate::journal::{fnv64, Journal};

/// The cache file name of a context: a stable content hash, so the
/// same context always lands in the same file across daemon restarts.
#[must_use]
pub fn context_file_name(context: &str) -> String {
    format!("ctx-{:016x}.journal", fnv64(context.as_bytes()))
}

/// An on-disk result cache over a directory of per-context journals.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    journals: Mutex<HashMap<String, Arc<Mutex<Journal>>>>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory. Journal files
    /// are opened lazily, on the first request for their context.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, PitonError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| PitonError::codec(format!("cache dir {}: create: {e}", dir.display())))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            journals: Mutex::new(HashMap::new()),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared journal for `context`, opening — and crash-recovering
    /// — its file on first use. Returns `Some(stats)` exactly when this
    /// call opened the file, so the caller can account the recovery
    /// (recovered records, torn bytes) once.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] from [`Journal::open`]: I/O failures, or a
    /// context mismatch against the existing file.
    pub fn journal(
        &self,
        context: &str,
    ) -> Result<(Arc<Mutex<Journal>>, Option<JournalStats>), PitonError> {
        let mut map = self.journals.lock().expect("cache journal map lock");
        if let Some(j) = map.get(context) {
            return Ok((Arc::clone(j), None));
        }
        let path = self.dir.join(context_file_name(context));
        let journal = Journal::open(&path, context)?;
        let stats = journal.stats();
        let shared = Arc::new(Mutex::new(journal));
        map.insert(context.to_owned(), Arc::clone(&shared));
        Ok((shared, Some(stats)))
    }

    /// Compacts the file of every context opened so far
    /// ([`Journal::compact`]): the clean-shutdown step, once no
    /// connection can append any more.
    ///
    /// # Errors
    ///
    /// The first [`PitonError::Codec`] a compaction returned; every
    /// file is still tried, and each one that failed stays as it was.
    pub fn compact(&self) -> Result<(), PitonError> {
        let map = self.journals.lock().expect("cache journal map lock");
        let mut first_error = None;
        for journal in map.values() {
            if let Err(e) = journal.lock().expect("cache journal lock").compact() {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Every context opened so far as `(context, file name, stats)`,
    /// sorted by file name — the manifest's context listing.
    #[must_use]
    pub fn contexts(&self) -> Vec<(String, String, JournalStats)> {
        let map = self.journals.lock().expect("cache journal map lock");
        let mut out: Vec<(String, String, JournalStats)> = map
            .iter()
            .map(|(ctx, j)| {
                (
                    ctx.clone(),
                    context_file_name(ctx),
                    j.lock().expect("cache journal lock").stats(),
                )
            })
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalPayload;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "piton-serve-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        p
    }

    #[test]
    fn contexts_get_distinct_files_and_persist_across_reopen() {
        let dir = temp_dir("persist");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::open(&dir).unwrap();
            let (a, first) = cache.journal("ctx-a").unwrap();
            assert!(first.is_some(), "first open reports recovery stats");
            let (_a2, again) = cache.journal("ctx-a").unwrap();
            assert!(again.is_none(), "reuse reports no recovery");
            let (b, _) = cache.journal("ctx-b").unwrap();
            a.lock()
                .unwrap()
                .record("noc", 0, &1.5f64.to_value())
                .unwrap();
            a.lock().unwrap().sync().unwrap();
            b.lock()
                .unwrap()
                .record("noc", 0, &2.5f64.to_value())
                .unwrap();
            b.lock().unwrap().sync().unwrap();
            assert_eq!(cache.contexts().len(), 2);
        }
        // A fresh cache (daemon restart) recovers each context from its
        // own file — values never bleed across contexts.
        let cache = ResultCache::open(&dir).unwrap();
        let (a, stats) = cache.journal("ctx-a").unwrap();
        assert_eq!(stats.unwrap().recovered, 1);
        assert_eq!(a.lock().unwrap().serve("noc", 0), Some("1.5"));
        let (b, _) = cache.journal("ctx-b").unwrap();
        assert_eq!(b.lock().unwrap().serve("noc", 0), Some("2.5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_stable_content_hashes() {
        assert_eq!(context_file_name("ctx"), context_file_name("ctx"));
        assert_ne!(context_file_name("ctx"), context_file_name("ctx2"));
        assert!(context_file_name("a|b").starts_with("ctx-"));
        assert!(context_file_name("a|b").ends_with(".journal"));
    }
}
