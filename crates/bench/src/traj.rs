//! Trajectory files: the `BENCH_*.json` lists of measured rows at the
//! repository root, read and grown through this one module.
//!
//! A trajectory file is a JSON list of objects, one row per
//! measurement, and it only grows: [`append`] adds one row at the end
//! and never rewrites what is there. A file that exists but is not a
//! row list is refused with [`Error::NotRows`] and left byte for byte
//! as it was, so no flag is needed to protect it.
//!
//! Every row names its `harness`, the `pr` or `commit` it measured and
//! the `host` it ran on: the [`host`] stamp for a measured row, or
//! `"unrecorded"` for a median back-filled from where it was published,
//! which `"source"` names (`EXPERIMENTS`, `CHANGES` or `driver`, the
//! benchmark driver's parent → change verdict).
//!
//! The files are kept in [`json::write`]'s layout, so an append changes
//! only the end of the file.

use std::fmt;
use std::path::Path;

use mo_core::certify::json::{self, Json};
use mo_core::rt::HwHierarchy;

/// Why a trajectory file could not be read or grown.
#[derive(Debug)]
pub enum Error {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file, or the row to append, is not what a trajectory holds:
    /// the text says what was found instead.
    NotRows(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "{e}"),
            Error::NotRows(what) => write!(f, "not a trajectory row list: {what}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// The rows of the trajectory file at `path`.
pub fn load(path: &Path) -> Result<Vec<Json>, Error> {
    rows_of(&std::fs::read_to_string(path)?)
}

/// Parse trajectory text: a JSON list whose every element is an object.
fn rows_of(text: &str) -> Result<Vec<Json>, Error> {
    let rows = match json::parse(text).map_err(Error::NotRows)? {
        Json::Arr(rows) => rows,
        _ => return Err(Error::NotRows("the top level is not a list".into())),
    };
    match rows.iter().position(|r| !matches!(r, Json::Obj(_))) {
        Some(i) => Err(Error::NotRows(format!("row {i} is not an object"))),
        None => Ok(rows),
    }
}

/// Append `row` to the trajectory file at `path`, creating the file as
/// a one-row list if it does not exist. The new text is written beside
/// the file and renamed over it, so a failed write leaves the old list
/// whole; a file that is not a row list is not touched at all.
pub fn append(path: &Path, row: Json) -> Result<(), Error> {
    if !matches!(row, Json::Obj(_)) {
        return Err(Error::NotRows("the new row is not an object".into()));
    }
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => rows_of(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    rows.push(row);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, render(&rows))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// The text of a trajectory file holding `rows`.
pub fn render(rows: &[Json]) -> String {
    let mut out = String::new();
    json::write(&Json::Arr(rows.to_vec()), &mut out, 0);
    out.push('\n');
    out
}

/// The host stamp of a measured row: the CPU model (`"unknown"` where
/// `/proc/cpuinfo` does not name it), the cores the pool may use, and
/// every cache level of `hier`.
pub fn host(hier: &HwHierarchy) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let levels = hier.levels().iter().map(|l| {
        Json::obj([
            ("capacity_words", Json::Num(l.capacity as f64)),
            ("fanout", Json::Num(l.fanout as f64)),
        ])
    });
    Json::obj([
        ("cpu", Json::Str(cpu)),
        ("cores", Json::Num(hier.cores() as f64)),
        ("levels", Json::Arr(levels.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pr: u64) -> Json {
        Json::obj([
            ("harness", Json::Str("test".into())),
            ("pr", Json::Num(pr as f64)),
            ("host", Json::Str("unrecorded".into())),
        ])
    }

    /// A fresh path under the system temp directory, unique to this
    /// process and `name`; any leftover from an earlier run is removed.
    fn scratch(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("traj_{}_{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn appends_load_back_the_old_rows_then_the_new_in_order() {
        let path = scratch("grow");
        append(&path, row(1)).unwrap();
        append(&path, row(2)).unwrap();
        assert_eq!(load(&path).unwrap(), vec![row(1), row(2)]);
        let before = std::fs::read_to_string(&path).unwrap();
        append(&path, row(3)).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(load(&path).unwrap(), vec![row(1), row(2), row(3)]);
        // The old rows' text is kept: the append changed only the end.
        let kept = before.trim_end().trim_end_matches(']').trim_end();
        assert!(after.starts_with(kept), "{after}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_append_to_a_file_that_is_not_a_row_list_fails_and_changes_nothing() {
        let schema3 =
            "{\n  \"schema\": 3,\n  \"cores\": 2,\n  \"kernels\": [],\n  \"regressions\": []\n}\n";
        let cases = [
            ("object", "{\"harness\": \"bench_rt\"}"),
            ("truncated", "[\n  {\n    \"harness\": \"bench_rt\"\n  },\n"),
            ("schema3", schema3),
            ("scalars", "[1, 2]"),
            ("empty", ""),
        ];
        for (name, text) in cases {
            let path = scratch(name);
            std::fs::write(&path, text).unwrap();
            let err = append(&path, row(9)).unwrap_err();
            assert!(matches!(err, Error::NotRows(_)), "{name}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), text.as_bytes(), "{name}");
            assert!(load(&path).is_err(), "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_row_that_is_not_an_object_is_refused_before_the_file_is_touched() {
        let path = scratch("scalar_row");
        assert!(matches!(
            append(&path, Json::Num(1.0)),
            Err(Error::NotRows(_))
        ));
        assert!(!path.exists());
    }

    #[test]
    fn an_empty_list_is_a_trajectory_with_no_rows() {
        assert_eq!(rows_of("[]").unwrap(), Vec::<Json>::new());
        assert_eq!(render(&[]), "[]\n");
    }
}
