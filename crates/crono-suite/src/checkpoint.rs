//! Resumable sweeps: a tiny on-disk checkpoint of completed sweep
//! points, and [`cell`], the one place a sweep replays or computes one.
//!
//! Long experiment sweeps (`crono faults`, `crono ablation`, `crono
//! scale`) run many independent points; a crash or Ctrl-C halfway
//! through used to throw everything away. A [`Checkpoint`] persists each
//! finished point as one `key\tvalue` line, written atomically (temp
//! file + `rename`) after every point, so a re-run with `--resume` skips
//! the points that already completed, computes the rest, and writes the
//! same table as an uninterrupted run (see [`cell`]).
//!
//! The format is deliberately dumb — a TSV of opaque strings — so the
//! file survives version skew: unknown keys are carried along, and a
//! stale or corrupt file can simply be deleted.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crono_runtime::{alloc_region, AddressSpace};

/// A sweep point's result as checkpoint text.
pub trait CellValue: Sized {
    /// The value as text without tabs or newlines.
    fn encode(&self) -> String;

    /// Parses what [`encode`](CellValue::encode) wrote; `None` if
    /// malformed.
    fn decode(text: &str) -> Option<Self>;
}

/// Space-separated numbers (the ablation cells).
impl<const N: usize> CellValue for [u64; N] {
    fn encode(&self) -> String {
        self.map(|x| x.to_string()).join(" ")
    }

    fn decode(text: &str) -> Option<Self> {
        let nums: Option<Vec<u64>> = text.split(' ').map(|x| x.parse().ok()).collect();
        nums?.try_into().ok()
    }
}

/// One resumable sweep point: replays `key`'s value from `ckpt`, or
/// runs `compute` and records its value (a failed write only warns).
/// With `progress`, prints that label, then ` (resumed)` on a replay.
///
/// A simulated point's numbers depend on everything its thread
/// allocated before it, so the value is stored as `@<cursor> <value>`,
/// with the thread's address-space cursor after the point, and a replay
/// reserves the addresses up to that cursor (it never moves back).
/// Cursors are whole lines, so every point a resumed sweep still
/// computes starts at the address an uninterrupted sweep gives it. A
/// value without a cursor (from an older build) is recomputed.
///
/// # Errors
///
/// Propagates `compute`'s error; nothing is recorded then.
pub fn cell<T: CellValue, E>(
    ckpt: Option<&mut Checkpoint>,
    key: &str,
    progress: Option<&str>,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    let replay = ckpt.as_deref().and_then(|c| c.get(key)).and_then(|v| {
        let (after, value) = v.strip_prefix('@')?.split_once(' ')?;
        Some((after.parse::<u64>().ok()?, T::decode(value)?))
    });
    if let Some(label) = progress {
        let resumed = if replay.is_some() { " (resumed)" } else { "" };
        eprintln!("{label}{resumed}");
    }
    if let Some((after, value)) = replay {
        let now = AddressSpace::current().cursor();
        if after > now {
            alloc_region(after - now);
        }
        return Ok(value);
    }
    let value = compute()?;
    if let Some(c) = ckpt {
        let after = AddressSpace::current().cursor();
        if let Err(e) = c.record(key, &format!("@{after} {}", value.encode())) {
            eprintln!(
                "warning: could not checkpoint {key} to {}: {e}",
                c.path().display()
            );
        }
    }
    Ok(value)
}

/// An on-disk map of completed sweep points (see the module docs).
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    entries: BTreeMap<String, String>,
}

impl Checkpoint {
    /// Opens (or starts) the checkpoint at `path`. A missing file is an
    /// empty checkpoint; a present one is parsed as `key\tvalue` lines
    /// (lines without a tab are ignored).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut entries = BTreeMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some((k, v)) = line.split_once('\t') {
                        entries.insert(k.to_string(), v.to_string());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Checkpoint { path, entries })
    }

    /// The recorded value for `key`, if that point already completed.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Records a completed point and persists the whole checkpoint
    /// atomically (temp file, then `rename` — a crash mid-write never
    /// corrupts the previous state).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` contains a tab or newline (they would
    /// corrupt the line format).
    pub(crate) fn record(&mut self, key: &str, value: &str) -> io::Result<()> {
        assert!(
            !key.contains(['\t', '\n']) && !value.contains(['\t', '\n']),
            "checkpoint keys/values must not contain tabs or newlines"
        );
        self.entries.insert(key.to_string(), value.to_string());
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for (k, v) in &self.entries {
                writeln!(f, "{k}\t{v}")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    /// Deletes the checkpoint file (a sweep that ran to completion does
    /// not need resuming). Missing file is fine.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn clear(&mut self) -> io::Result<()> {
        self.entries.clear();
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no points are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The file backing this checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("crono-checkpoint-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn record_then_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path).unwrap();
        assert!(ck.is_empty());
        ck.record("bfs|16|0.001", "12345 3 1 0 0").unwrap();
        ck.record("bfs|16|0.01", "23456 30 9 2 4000").unwrap();
        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("bfs|16|0.001"), Some("12345 3 1 0 0"));
        assert_eq!(reopened.get("bfs|16|0.01"), Some("23456 30 9 2 4000"));
        assert_eq!(reopened.get("missing"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_overwrites_and_clear_removes_file() {
        let path = tmp_path("clear");
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path).unwrap();
        ck.record("k", "v1").unwrap();
        ck.record("k", "v2").unwrap();
        assert_eq!(ck.get("k"), Some("v2"));
        assert_eq!(ck.len(), 1);
        ck.clear().unwrap();
        assert!(!path.exists());
        // Clearing twice is fine.
        ck.clear().unwrap();
        let reopened = Checkpoint::open(&path).unwrap();
        assert!(reopened.is_empty());
    }

    #[test]
    fn missing_file_is_empty_checkpoint() {
        let ck = Checkpoint::open(tmp_path("nonexistent")).unwrap();
        assert!(ck.is_empty());
    }

    #[test]
    fn replay_reserves_the_range_the_point_allocated() {
        let path = tmp_path("cursor");
        let _ = std::fs::remove_file(&path);
        // Each run starts on a fresh thread, so in a fresh address space.
        let run = |path: PathBuf, computed: u64| {
            std::thread::spawn(move || {
                let mut ck = Checkpoint::open(path).unwrap();
                let Ok(v) = cell(Some(&mut ck), "k", None, || {
                    alloc_region(3 * 64);
                    Ok::<_, Infallible>([computed])
                });
                (v, alloc_region(1).base())
            })
            .join()
            .expect("cell thread")
        };
        let first = run(path.clone(), 7);
        let reopened = Checkpoint::open(&path).unwrap();
        assert!(reopened.get("k").is_some_and(|v| v.starts_with('@')));
        // The second run replays the point (7, not 8), and its next
        // region lands where it did after the computed point.
        assert_eq!(run(path.clone(), 8), first);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn value_without_a_cursor_is_recomputed() {
        let path = tmp_path("no-cursor");
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path).unwrap();
        ck.record("k", "1 2").unwrap();
        let Ok(v) = cell(Some(&mut ck), "k", None, || Ok::<_, Infallible>([3u64, 4]));
        assert_eq!(v, [3, 4]);
        assert!(ck.get("k").unwrap().ends_with(" 3 4"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "tabs or newlines")]
    fn tabs_in_keys_rejected() {
        let path = tmp_path("tabs");
        let mut ck = Checkpoint::open(&path).unwrap();
        let _ = ck.record("bad\tkey", "v");
    }
}
