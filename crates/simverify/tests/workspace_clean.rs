//! Self-check: the real workspace is clean under all twelve rules, the
//! declared purity roots are present, and the JSON report is byte-stable.

use simverify::lint::{lint_workspace_at, Date};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Pinned date so this test cannot start failing purely by calendar; the
/// verify bin and CI run with the real date and catch expiry first.
fn pinned() -> Date {
    Date::parse("2026-08-09").unwrap()
}

#[test]
fn workspace_is_clean_under_all_rules() {
    let r = lint_workspace_at(&repo_root(), pinned()).expect("workspace scan");
    assert!(r.violations.is_empty(), "violations:\n{}", {
        r.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    });
    assert!(r.unused_allow.is_empty(), "stale allowlist entries: {:?}", r.unused_allow);
    assert!(r.expired_allow.is_empty(), "expired allowlist entries: {:?}", r.expired_allow);
    assert!(r.is_passing());
}

#[test]
fn declared_purity_roots_are_present() {
    let r = lint_workspace_at(&repo_root(), pinned()).expect("workspace scan");
    let root_names: Vec<&str> = r.roots.iter().map(|ri| ri.name.as_str()).collect();
    for expected in ["run_node", "run_batch", "run_until_exited"] {
        assert!(root_names.contains(&expected), "missing purity root {expected}: {root_names:?}");
    }
    // The policy zoo contributes Balancer-impl roots without markers.
    assert!(
        r.roots.iter().any(|ri| ri.file.contains("policies/")),
        "no Balancer impl roots found: {:?}",
        r.roots
    );
    assert!(r.reachable_fns > 0 && r.reachable_fns <= r.total_fns);
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let a = lint_workspace_at(&repo_root(), pinned()).expect("first run").to_json();
    let b = lint_workspace_at(&repo_root(), pinned()).expect("second run").to_json();
    assert_eq!(a, b, "JSON report must be byte-identical across runs");
    assert!(a.starts_with("{\n  \"schema\": \"simverify-lint/1\","));
    assert!(a.ends_with("}\n"));
    // Spot-check schema fields the CI baseline diff depends on.
    for key in ["\"files_scanned\"", "\"functions\"", "\"rules\"", "\"roots\"", "\"findings\"", "\"allow\""]
    {
        assert!(a.contains(key), "missing key {key}");
    }
}
