//! `experiments::json` against the committed BENCH files and garbage.
//!
//! Each committed baseline reads into a tree that writes back byte for
//! byte, in the layout its binary writes (`benchfile::upsert` ends
//! `BENCH_batch.json` with a newline; `verify` writes `BENCH_faults.json`
//! without one). The fuzz feeds the reader arbitrary bytes, the BENCH
//! files with one byte swapped, dropped or duplicated, and nesting far
//! past the depth bound: every input must give either a typed error or a
//! tree that survives its own writing, `parse(write(v)) == v` in both
//! layouts. A panic or a stack overflow fails the test.

use experiments::json::{Json, MAX_DEPTH};
use simcore::SimRng;

/// Bytes the grammar gives meaning to, so random strings reach past the
/// first check.
const ALPHABET: &[u8] = b"{}[],:\"\\/0123456789.-+eEtrufalsnb \n";

const CASES: usize = 4_000;

/// Parses `input` and, when it is accepted, checks the round trips.
fn accepted(input: &[u8]) -> bool {
    let Ok(value) = Json::parse(input) else { return false };
    for text in [value.to_compact(), value.to_pretty()] {
        assert_eq!(Json::parse(text.as_bytes()).as_ref(), Ok(&value), "{text}");
    }
    true
}

fn pick(rng: &mut SimRng, n: usize) -> usize {
    rng.range_u64(0, n as u64) as usize
}

fn committed(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_bench_files_round_trip_byte_for_byte() {
    let batch = committed("BENCH_batch.json");
    let tree = Json::parse(&batch).expect("BENCH_batch.json parses");
    assert_eq!((tree.to_pretty() + "\n").as_bytes(), batch);
    for key in ["disciplines", "policies", "fleet", "topologies"] {
        assert!(tree.get(key).and_then(Json::as_arr).is_some_and(|r| !r.is_empty()), "{key}");
    }
    let faults = committed("BENCH_faults.json");
    let tree = Json::parse(&faults).expect("BENCH_faults.json parses");
    assert_eq!(tree.to_pretty().as_bytes(), faults);
    assert_eq!(tree.as_arr().map(<[Json]>::len), Some(5), "one row per fault class");
}

#[test]
fn arbitrary_bytes_parse_or_fail_typed() {
    let mut rng = SimRng::seed_from_u64(2008);
    let mut hits = 0;
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..pick(&mut rng, 48))
            .map(|_| match rng.chance(0.9) {
                true => ALPHABET[pick(&mut rng, ALPHABET.len())],
                false => rng.range_u64(0, 256) as u8,
            })
            .collect();
        hits += usize::from(accepted(&bytes));
    }
    assert!(hits > 0, "no random input parsed; the fuzz never reached the writer");
}

#[test]
fn mutated_bench_files_parse_or_fail_typed() {
    let files = [committed("BENCH_batch.json"), committed("BENCH_faults.json")];
    let mut rng = SimRng::seed_from_u64(7);
    let (mut hits, mut misses) = (0usize, 0usize);
    for _ in 0..CASES {
        let mut bytes = files[pick(&mut rng, files.len())].clone();
        let (i, j) = (pick(&mut rng, bytes.len()), pick(&mut rng, bytes.len()));
        match pick(&mut rng, 3) {
            0 => bytes.swap(i, j),
            1 => drop(bytes.remove(i)),
            _ => bytes.insert(i, bytes[i]),
        }
        let ok = accepted(&bytes);
        (hits, misses) = (hits + usize::from(ok), misses + usize::from(!ok));
    }
    assert!(hits > 0 && misses > 0, "{hits} accepted, {misses} rejected");
}

#[test]
fn deep_nesting_is_a_typed_error() {
    const DEEP: usize = 100_000;
    for (open, close) in [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")] {
        for text in [open.repeat(DEEP), open.repeat(DEEP) + "0" + &close.repeat(DEEP)] {
            let err = Json::parse(text.as_bytes()).unwrap_err();
            assert_eq!(err.reason, "nesting too deep", "{open}");
            assert!(err.offset <= MAX_DEPTH * open.len(), "{open}: {err}");
        }
    }
}
