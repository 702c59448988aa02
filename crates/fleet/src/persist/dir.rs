//! The state directory: the files a durable fleet keeps, and the only
//! module under `persist/` that touches the filesystem.
//!
//! * **`snapshot.bin`** — one [`super::snapshot`] image, replaced
//!   atomically: `snapshot.tmp` + fsync + rename. A reader never
//!   observes a half-written snapshot.
//! * **`wal-<epoch>.log`** — the [`super::wal`] entries since that
//!   snapshot. The **epoch** pairs the two: a snapshot stores the epoch
//!   of the log that follows it, so the surviving snapshot always names
//!   exactly one log, and every other `wal-*.log` — the next epoch's,
//!   filling beside the live one while the snapshot that will name it
//!   is being written; one left by an interrupted rotation; one of a
//!   previous life whose snapshot is gone — is a file that nothing
//!   names and recovery never reads.
//!
//! A log is opened in one of two ways. [`StateDir::begin_log`] starts a
//! new epoch's log **empty**, whatever a file of that name held;
//! [`StateDir::resume_log`] continues the log the snapshot names and is
//! the only append-mode open. Nothing here is followed by a directory
//! fsync yet: a rename or a removal survives a process kill, not a
//! machine crash (see the fault-model table in `docs/FLEET_SERVICE.md`).

use crate::transport::RECV_BUF;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch}.log")
}

/// An open log behind its write buffer — what [`super::wal::Wal`]
/// appends to and flushes.
pub(crate) type LogWriter = BufWriter<File>;

/// A log's write buffer holds what one receive burst logs — a receive
/// buffer's worth of frames, each a few bytes longer in the log, and the
/// frame a previous receive left half-read — so a burst reaches the
/// file in the one `write(2)` of its commit, not whenever 8 KiB fill.
const LOG_BUF: usize = 2 * RECV_BUF;

/// `file` behind a log's write buffer.
pub(crate) fn log_writer(file: File) -> LogWriter {
    BufWriter::with_capacity(LOG_BUF, file)
}

/// One fleet's state directory. A clone names the same directory: the
/// snapshot writer thread takes one to [`StateDir::write_snapshot`]
/// with.
#[derive(Debug, Clone)]
pub(crate) struct StateDir {
    path: PathBuf,
}

impl StateDir {
    /// The state directory at `path` (which need not exist yet).
    pub(crate) fn at(path: &Path) -> StateDir {
        StateDir {
            path: path.to_path_buf(),
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Create the directory, and its parents, if it is not there.
    pub(crate) fn create(&self) -> io::Result<()> {
        fs::create_dir_all(&self.path)
    }

    pub(crate) fn has_snapshot(&self) -> bool {
        self.path.join(SNAPSHOT_FILE).exists()
    }

    pub(crate) fn read_snapshot(&self) -> io::Result<Vec<u8>> {
        fs::read(self.path.join(SNAPSHOT_FILE))
    }

    /// Replace `snapshot.bin` with `image`: written beside it, fsynced,
    /// then renamed over it.
    pub(crate) fn write_snapshot(&self, image: &[u8]) -> io::Result<()> {
        let tmp = self.path.join(SNAPSHOT_TMP);
        let mut f = File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
        fs::rename(&tmp, self.path.join(SNAPSHOT_FILE))
    }

    /// Start `epoch`'s log: created, or truncated if a previous life
    /// left a file of that name.
    pub(crate) fn begin_log(&self, epoch: u64) -> io::Result<LogWriter> {
        File::create(self.path.join(wal_name(epoch))).map(log_writer)
    }

    /// Continue `epoch`'s log — the one the snapshot names — where it
    /// ends: the bytes it holds, and a writer that appends to them.
    pub(crate) fn resume_log(&self, epoch: u64) -> io::Result<(Vec<u8>, LogWriter)> {
        let path = self.path.join(wal_name(epoch));
        let log = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((fs::read(&path)?, log_writer(log)))
    }

    /// Cut `epoch`'s log down to its first `len` bytes (a torn or
    /// corrupt tail goes), fsynced. A writer from
    /// [`StateDir::resume_log`] carries on at the new end.
    pub(crate) fn truncate_log(&self, epoch: u64, len: u64) -> io::Result<()> {
        let f = OpenOptions::new()
            .write(true)
            .open(self.path.join(wal_name(epoch)))?;
        f.set_len(len)?;
        f.sync_all()
    }

    /// Best-effort removal of `epoch`'s log, which the snapshot just
    /// renamed into place has superseded.
    pub(crate) fn remove_log(&self, epoch: u64) {
        let _ = fs::remove_file(self.path.join(wal_name(epoch)));
    }

    /// Best-effort removal of what no snapshot names: the tmp snapshot
    /// and every log but `epoch`'s. For an open — a running fleet knows
    /// the one log it supersedes ([`StateDir::remove_log`]).
    pub(crate) fn remove_strays(&self, epoch: u64) {
        let _ = fs::remove_file(self.path.join(SNAPSHOT_TMP));
        if let Ok(entries) = fs::read_dir(&self.path) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("wal-") && name != wal_name(epoch) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}
