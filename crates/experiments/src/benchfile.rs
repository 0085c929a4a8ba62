//! Read–modify–write access to the shared `BENCH_*.json` baselines.
//!
//! `BENCH_batch.json` is written by two binaries: `batch` owns the
//! `disciplines`/`policies`/`topologies` sections, `fleet` owns the
//! `fleet` section. Each must update its own keys without clobbering the
//! other's, so both go through [`upsert`], which reads the file into a
//! [`Json`] tree, replaces only its own top-level keys, and writes the
//! tree back; numbers keep their text, so the other sections come back
//! byte for byte. A file that is present but does not parse is an error,
//! never a fresh start that would drop the other binary's sections.

use std::fmt;
use std::io::ErrorKind;

use crate::json::{Json, JsonError};

/// Why a baseline could not be read or rewritten.
#[derive(Debug)]
pub enum BenchFileError {
    Io { path: String, err: std::io::Error },
    /// The file is present but is not a JSON object.
    Malformed { path: String, err: JsonError },
}

impl fmt::Display for BenchFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchFileError::Io { path, err } => write!(f, "{path}: {err}"),
            BenchFileError::Malformed { path, err } => write!(f, "{path} is malformed: {err}"),
        }
    }
}

impl std::error::Error for BenchFileError {}

/// The top-level object of `path`.
fn load(path: &str) -> Result<Vec<(String, Json)>, BenchFileError> {
    let bytes = std::fs::read(path).map_err(|err| BenchFileError::Io { path: path.into(), err })?;
    let malformed = |err| BenchFileError::Malformed { path: path.into(), err };
    match Json::parse(&bytes).map_err(malformed)? {
        Json::Obj(fields) => Ok(fields),
        _ => Err(malformed(JsonError { offset: 0, reason: "top level is not an object" })),
    }
}

/// Set each `(key, section)` in the object at `path` (a missing file
/// starts an empty one) and write the object back pretty-printed with a
/// trailing newline. Existing keys keep their place; new keys append.
pub fn upsert(path: &str, sections: Vec<(&str, Json)>) -> Result<(), BenchFileError> {
    let mut fields = match load(path) {
        Err(BenchFileError::Io { err, .. }) if err.kind() == ErrorKind::NotFound => Vec::new(),
        loaded => loaded?,
    };
    for (key, section) in sections {
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = section,
            None => fields.push((key.to_string(), section)),
        }
    }
    std::fs::write(path, Json::Obj(fields).to_pretty() + "\n")
        .map_err(|err| BenchFileError::Io { path: path.into(), err })
}

/// One top-level section of `path`: `Ok(None)` when the file parses but
/// has no such key; an error when it is missing, unreadable or malformed.
pub fn read_section(path: &str, key: &str) -> Result<Option<Json>, BenchFileError> {
    Ok(load(path)?.into_iter().find(|(k, _)| k == key).map(|(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u64) -> Json {
        Json::Arr(vec![Json::obj([("n", n.into())])])
    }

    /// A fresh, missing `bench.json` in a directory of its own.
    fn scratch(name: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("benchfile-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json").to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        (dir, path)
    }

    #[test]
    fn upsert_preserves_other_sections_and_round_trips() {
        let (dir, path) = scratch("upsert");
        match read_section(&path, "alpha") {
            Err(BenchFileError::Io { err, .. }) => assert_eq!(err.kind(), ErrorKind::NotFound),
            other => panic!("a missing file reads as {other:?}"),
        }
        upsert(&path, vec![("alpha", row(1))]).unwrap(); // a missing file starts fresh
        upsert(&path, vec![("beta", row(2))]).unwrap();
        upsert(&path, vec![("alpha", row(3)), ("gamma", Json::Null)]).unwrap();
        assert_eq!(read_section(&path, "alpha").unwrap(), Some(row(3)));
        assert_eq!(read_section(&path, "beta").unwrap(), Some(row(2)));
        assert_eq!(read_section(&path, "delta").unwrap(), None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"alpha\"") && text.ends_with("\"gamma\": null\n}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_malformed_baseline_is_an_error_and_is_left_alone() {
        let (dir, path) = scratch("malformed");
        for (text, why) in [
            ("{\"fleet\": [1,, 2]}", "unexpected character at byte 13"),
            ("[1, 2]", "top level is not an object at byte 0"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = upsert(&path, vec![("alpha", row(1))]).unwrap_err();
            assert!(matches!(err, BenchFileError::Malformed { .. }), "{text}: {err}");
            let err = read_section(&path, "fleet").unwrap_err().to_string();
            assert!(err.ends_with(&format!("is malformed: {why}")), "{text}: {err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "not rewritten");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
