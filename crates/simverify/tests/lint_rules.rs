//! Fixture tests: one passing and one violating snippet per lint rule,
//! plus the scanner's escape hatches (test-module skip, comment skip,
//! `INVARIANT:` comments, the allowlist).

use simverify::lint::{lint_source, Allowlist, RULES};

fn violations(path: &str, src: &str) -> Vec<String> {
    let mut allow = Allowlist::empty();
    lint_source(path, src, RULES, &mut allow).iter().map(|v| v.rule.to_string()).collect()
}

// ---------------------------------------------------------------- SV001

#[test]
fn sv001_flags_wall_clock_in_sim_crate() {
    let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
    assert_eq!(violations("crates/simcore/src/event.rs", src), vec!["SV001"]);
    let src = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    assert!(violations("crates/power5/src/chip.rs", src).contains(&"SV001".to_string()));
}

#[test]
fn sv001_passes_sim_time_and_other_crates() {
    let src = "fn f(now: SimTime) -> SimTime { now + SimDuration::from_nanos(1) }\n";
    assert!(violations("crates/schedsim/src/kernel.rs", src).is_empty());
    // Wall clock outside the deterministic zone is fine (e.g. a CLI timer).
    let src = "fn f() { let _ = std::time::Instant::now(); }\n";
    assert!(violations("crates/experiments/src/runner.rs", src).is_empty());
}

// ---------------------------------------------------------------- SV002

#[test]
fn sv002_flags_hash_collections_in_decision_paths() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(violations("crates/schedsim/src/policies/detector.rs", src), vec!["SV002"]);
    let src = "struct S { seen: std::collections::HashSet<u64> }\n";
    assert_eq!(violations("crates/schedsim/src/program.rs", src), vec!["SV002"]);
}

#[test]
fn sv002_passes_btree_and_out_of_zone_files() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\n";
    assert!(violations("crates/schedsim/src/policies/detector.rs", src).is_empty());
    // Membership-only HashSets outside decision paths are allowed.
    let src = "use std::collections::HashSet;\n";
    assert!(violations("crates/simcore/src/event.rs", src).is_empty());
}

// ---------------------------------------------------------------- SV003

#[test]
fn sv003_flags_panics_in_hot_paths() {
    for snippet in
        ["fn f() { panic!(\"boom\"); }\n", "fn f(x: Option<u8>) { x.unwrap(); }\n", "fn f(x: Option<u8>) { x.expect(\"set\"); }\n"]
    {
        assert_eq!(
            violations("crates/schedsim/src/kernel.rs", snippet),
            vec!["SV003"],
            "snippet: {snippet}"
        );
    }
}

#[test]
fn sv003_invariant_comment_is_honoured() {
    let src = "fn f(x: Option<u8>) {\n    // INVARIANT: callers checked x.\n    x.unwrap();\n}\n";
    assert!(violations("crates/schedsim/src/classes/rt.rs", src).is_empty());
    // ...but only within the lookback window.
    let pad = "    let _ = 1;\n".repeat(8);
    let src = format!("fn f(x: Option<u8>) {{\n    // INVARIANT: far away.\n{pad}    x.unwrap();\n}}\n");
    assert_eq!(violations("crates/schedsim/src/classes/rt.rs", &src), vec!["SV003"]);
}

#[test]
fn sv003_passes_error_propagation() {
    let src = "fn f(x: Option<u8>) -> Result<u8, SchedError> {\n    x.ok_or(SchedError::InvalidTopology)\n}\n";
    assert!(violations("crates/schedsim/src/policies/mechanism.rs", src).is_empty());
}

// ---------------------------------------------------------------- SV004

#[test]
fn sv004_flags_deprecated_shims_anywhere_in_crates() {
    let src = "fn f(k: &mut Kernel) { k.set_trace(Box::new(NullSink)); }\n";
    assert_eq!(violations("crates/workloads/src/metbench.rs", src), vec!["SV004"]);
    let src = "fn f(k: &mut Kernel) { let _ = k.take_trace(); }\n";
    assert_eq!(violations("crates/tracefmt/src/lib.rs", src), vec!["SV004"]);
}

#[test]
fn sv004_flags_the_deprecated_builder_outside_the_facade() {
    let src = "fn f() { let k = HpcKernelBuilder::new().build(); }\n";
    assert_eq!(violations("crates/workloads/src/metbench.rs", src), vec!["SV004"]);
    // The hpcsched facade that defined the shim is gone, and so is its
    // carve-out: a resurrected builder at the old paths is flagged too.
    assert_eq!(violations("crates/core/src/runtime.rs", src), vec!["SV004"]);
    assert_eq!(violations("crates/core/src/lib.rs", src), vec!["SV004"]);
}

#[test]
fn sv004_flags_even_the_former_shim_home_and_passes_observe() {
    // The shims are gone from kernel.rs, so its carve-out is gone too:
    // a resurrected caller there is flagged like anywhere else.
    let src = "fn f(k: &mut Kernel) { k.set_trace(Box::new(NullSink)); }\n";
    assert_eq!(violations("crates/schedsim/src/kernel.rs", src), vec!["SV004"]);
    let src = "fn f(k: &mut Kernel) { k.observe(Box::new(SharedSink::new())); }\n";
    assert!(violations("crates/workloads/src/metbench.rs", src).is_empty());
}

// ---------------------------------------------------------------- SV005

#[test]
fn sv005_flags_undocumented_tunable_field() {
    let src = "pub struct HpcTunables {\n    /// Documented.\n    pub low_util: f64,\n    pub high_util: f64,\n}\n";
    let v = violations("crates/schedsim/src/policies/tunables.rs", src);
    assert_eq!(v, vec!["SV005"]);
}

#[test]
fn sv005_passes_documented_fields_and_attributes() {
    let src = "pub struct HpcTunables {\n    /// Documented.\n    #[serde(default)]\n    pub low_util: f64,\n}\n";
    assert!(violations("crates/schedsim/src/policies/tunables.rs", src).is_empty());
    // Methods and consts are not fields.
    let src = "impl T {\n    pub fn get(&self) -> u8 { 0 }\n    pub const X: u8 = 1;\n}\n";
    assert!(violations("crates/schedsim/src/policies/tunables.rs", src).is_empty());
}

// ------------------------------------------------------- scanner mechanics

#[test]
fn test_modules_and_comments_are_skipped() {
    let src = "fn ok() {}\n// a comment mentioning Instant::now is fine\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); panic!(); }\n}\n";
    assert!(violations("crates/schedsim/src/kernel.rs", src).is_empty());
}

#[test]
fn violation_renders_file_line_rule() {
    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    let mut allow = Allowlist::empty();
    let v = lint_source("crates/simcore/src/event.rs", src, RULES, &mut allow);
    assert_eq!(v.len(), 1);
    let rendered = v[0].to_string();
    assert!(
        rendered.starts_with("crates/simcore/src/event.rs:2: SV001: "),
        "got: {rendered}"
    );
}

#[test]
fn allowlist_suppresses_and_tracks_usage() {
    let mut allow = Allowlist::parse(
        "# comment\n\
         SV001 path=crates/simcore/src/event.rs frag=Instant::now expires=2030-01-01 reason=test entry\n\
         SV003 path=crates/never/matched.rs frag=panic! expires=2030-01-01 reason=stale on purpose\n",
    )
    .expect("valid allowlist");
    let src = "fn f() { let t = Instant::now(); }\n";
    let v = lint_source("crates/simcore/src/event.rs", src, RULES, &mut allow);
    assert!(v.is_empty(), "allowlisted line still flagged: {v:?}");
    let today = simverify::lint::Date(0);
    let unused: Vec<_> = allow.unused(today).iter().map(|e| e.rule.clone()).collect();
    assert_eq!(unused, vec!["SV003"], "only the unmatched entry is stale");
}

#[test]
fn allowlist_rejects_malformed_lines() {
    // The pre-§13 three-column format is rejected outright.
    assert!(Allowlist::parse("SV001 crates/x.rs Instant::now\n").is_err());
    assert!(Allowlist::parse("SV001 onlytwo\n").is_err());
    // Justified entries need every field.
    assert!(Allowlist::parse("SV001 path=x frag=y expires=2030-01-01\n").is_err());
    assert!(Allowlist::parse("").expect("empty ok").entries.is_empty());
}
