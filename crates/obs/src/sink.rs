//! The run archive's writer: the one export of a run.
//!
//! It sees a run once, at the end, with the fully assembled
//! [`ObsReport`]: the most useful views (distributions, knowledge
//! deltas, worker imbalance) only exist once the run is complete.

use crate::recorder::ObsReport;
use std::io;
use std::path::{Path, PathBuf};

/// Writes the JSONL run archive (one file per run, one record per
/// line — see `crate::archive` for the schema).
pub struct JsonlArchiveSink {
    path: PathBuf,
}

impl JsonlArchiveSink {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlArchiveSink { path: path.into() }
    }

    /// Renders `report` and writes it to the archive's path.
    pub(crate) fn write(&self, report: &ObsReport) -> io::Result<()> {
        write_atomic(&self.path, &crate::archive::render(report))
    }
}

/// Writes via a temp file + rename so a crashing run never leaves a
/// half-written artifact where a complete one is expected.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}
