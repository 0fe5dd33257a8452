//! Test support shared by the root integration tests.

use std::path::{Path, PathBuf};

/// A test's scratch directory, removed with its contents when the guard
/// drops, whether the test passed or panicked.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates an empty `<system temp>/<name>-<process id>`; a stale
    /// directory from an earlier run would leak old files into the
    /// assertions.
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a panic here would abort an unwinding test.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
