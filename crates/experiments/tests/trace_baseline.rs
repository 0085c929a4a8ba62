//! `TRACE_baseline.txt` as a tier-1 gate: the nine `trace-hash` lines
//! `verify` checks (six MetBench cells and the 200-job batch study under
//! each discipline) are computed here and diffed against the committed
//! file, so any change to one of those traces fails `cargo test`.

use experiments::baseline::{check_trace_baseline, trace_hash_lines};

#[test]
fn trace_hashes_match_the_committed_baseline() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../TRACE_baseline.txt");
    let got = trace_hash_lines();
    assert_eq!(got.len(), 9, "six MetBench cells and three batch disciplines");
    if let Err(e) = check_trace_baseline(&path, &got) {
        panic!("{e}");
    }
}
