//! The rule catalog (SV001–SV014) and the token-level evaluation engine.
//!
//! Two rule scopes exist:
//!
//! * [`Scope::Zones`] — the rule applies to every file whose repo-relative
//!   path contains one of its zone substrings (the pre-§13 behaviour,
//!   now matched on *code tokens* instead of raw lines, so comments,
//!   strings and `#[cfg(test)]` items can no longer false-positive).
//! * [`Scope::Reachable`] — the rule applies only to token ranges inside
//!   the bodies of functions reachable from the declared purity roots
//!   (see [`crate::graph`]): the parallel-executor contract's pure zone.
//!
//! Escape hatches, in increasing order of ceremony: an `INVARIANT:`
//! comment (rules with `invariant_escape` only), and a justified
//! `simverify.allow` entry with a reason and an expiry date.

pub mod allow;
pub mod report;

use crate::graph::Graph;
use crate::lex::PreparedFile;
use allow::{Allowlist, Date};
use std::fmt;

/// How far above a flagged line an `INVARIANT` comment is honoured.
pub const INVARIANT_WINDOW: u32 = 5;

/// One forbidden token sequence: matched against consecutive *code*
/// tokens (whitespace-, comment- and string-insensitive). `show` is the
/// human rendering used in messages and the JSON report.
pub struct Pattern {
    pub toks: &'static [&'static str],
    pub show: &'static str,
}

/// What a rule forbids.
pub enum RuleKind {
    /// Any of these token sequences violates the rule.
    Tokens { patterns: &'static [Pattern] },
    /// Every `pub` struct field must carry a `///` doc comment.
    FieldsDocumented,
}

/// Where a rule applies.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Whole files selected by zone path substrings.
    Zones,
    /// Bodies of functions reachable from the purity roots, within files
    /// selected by the zone substrings.
    Reachable,
}

/// One architectural rule.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub kind: RuleKind,
    pub scope: Scope,
    /// Path substrings (forward-slash, repo-relative) the rule applies to.
    pub zones: &'static [&'static str],
    /// Path substrings excluded even when a zone matches (documented
    /// quarantines live here; line-level exceptions go to the allowlist).
    pub exempt: &'static [&'static str],
    /// Whether an `INVARIANT:` comment on or within [`INVARIANT_WINDOW`]
    /// lines above the flagged line silences the rule.
    pub invariant_escape: bool,
}

/// The rule table. SV001–SV005 are the zone rules from DESIGN.md §8,
/// re-homed onto the token stream; SV006–SV012 are the §13 purity rules
/// evaluated on the reachable set; SV013 guards checkpoint decoding, and
/// SV014 enforces the fleet-scale O(1)-memory statistics contract (§15).
pub const RULES: &[Rule] = &[
    Rule {
        id: "SV001",
        summary: "wall-clock read in a deterministic simulation crate",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["Instant", "::", "now"], show: "Instant::now" },
                Pattern { toks: &["SystemTime"], show: "SystemTime" },
            ],
        },
        scope: Scope::Zones,
        zones: &[
            "crates/simcore/src/",
            "crates/schedsim/src/",
            "crates/power5/src/",
            "crates/mpisim/src/",
            "crates/faultsim/src/",
            "crates/batchsim/src/",
        ],
        exempt: &[],
        invariant_escape: false,
    },
    Rule {
        id: "SV002",
        summary: "iteration-order-sensitive collection in a scheduler-decision or \
                  trace-emitting path; use BTreeMap/BTreeSet",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["HashMap"], show: "HashMap" },
                Pattern { toks: &["HashSet"], show: "HashSet" },
            ],
        },
        scope: Scope::Zones,
        zones: &[
            "crates/schedsim/src/kernel.rs",
            "crates/schedsim/src/classes/",
            "crates/schedsim/src/program.rs",
            "crates/schedsim/src/balance.rs",
            "crates/schedsim/src/balancer.rs",
            "crates/schedsim/src/policies/",
            "crates/mpisim/src/collective.rs",
            "crates/faultsim/src/",
            "crates/batchsim/src/",
        ],
        exempt: &[],
        invariant_escape: false,
    },
    Rule {
        id: "SV003",
        summary: "panic in a kernel hot path; propagate SchedError or document the \
                  invariant with an INVARIANT: comment",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["panic", "!"], show: "panic!" },
                Pattern { toks: &[".", "unwrap", "("], show: ".unwrap()" },
                Pattern { toks: &[".", "expect", "("], show: ".expect(" },
            ],
        },
        scope: Scope::Zones,
        zones: &[
            "crates/schedsim/src/kernel.rs",
            "crates/schedsim/src/classes/",
            "crates/schedsim/src/balance.rs",
            "crates/schedsim/src/balancer.rs",
            "crates/schedsim/src/builder.rs",
            "crates/schedsim/src/policies/",
            "crates/mpisim/src/",
            "crates/faultsim/src/",
            "crates/batchsim/src/",
        ],
        exempt: &[],
        invariant_escape: true,
    },
    Rule {
        id: "SV004",
        summary: "deprecated shim; build with schedsim::KernelBuilder and attach \
                  sinks with Kernel::observe",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &[".", "set_trace", "("], show: ".set_trace(" },
                Pattern { toks: &[".", "take_trace", "("], show: ".take_trace(" },
                Pattern { toks: &["HpcKernelBuilder"], show: "HpcKernelBuilder" },
            ],
        },
        scope: Scope::Zones,
        // The analyzer's own rule table is string literals, invisible to
        // token matching, so no file needs an exemption.
        zones: &["crates/"],
        exempt: &[],
        invariant_escape: false,
    },
    Rule {
        id: "SV005",
        summary: "tunable field without a doc comment",
        kind: RuleKind::FieldsDocumented,
        scope: Scope::Zones,
        zones: &["crates/schedsim/src/policies/tunables.rs"],
        exempt: &[],
        invariant_escape: false,
    },
    Rule {
        id: "SV006",
        summary: "nondeterministic time source reachable from a purity root; \
                  simulation state must be a function of (seed, inputs), not the host clock",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["Instant", "::", "now"], show: "Instant::now" },
                Pattern { toks: &["SystemTime"], show: "SystemTime" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &[
            "crates/simverify/",
            "crates/experiments/",
            "crates/bench/",
            // Pool worker busy-time quarantine: lands in the dedicated
            // pool_metrics registry, excluded from determinism comparisons
            // (DESIGN.md §11).
            "crates/simcore/src/exec.rs",
        ],
        invariant_escape: false,
    },
    Rule {
        id: "SV007",
        summary: "ambient randomness reachable from a purity root; all randomness \
                  must flow from the seeded SplitMix64 plumbing",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["thread_rng"], show: "thread_rng" },
                Pattern { toks: &["from_entropy"], show: "from_entropy" },
                Pattern { toks: &["OsRng"], show: "OsRng" },
                Pattern { toks: &["getrandom"], show: "getrandom" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &["crates/simverify/", "crates/experiments/", "crates/bench/"],
        invariant_escape: false,
    },
    Rule {
        id: "SV008",
        summary: "hash-ordered collection reachable from a purity root (extends \
                  SV002 beyond declared zones); use BTreeMap/BTreeSet",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["HashMap"], show: "HashMap" },
                Pattern { toks: &["HashSet"], show: "HashSet" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &["crates/simverify/", "crates/experiments/", "crates/bench/"],
        invariant_escape: false,
    },
    Rule {
        id: "SV009",
        summary: "shared mutable state reachable from a purity root; node runs must \
                  share nothing (quarantines: executor pool, mpisim world(), telemetry)",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["static", "mut"], show: "static mut" },
                Pattern { toks: &["Mutex"], show: "Mutex" },
                Pattern { toks: &[".", "lock", "("], show: ".lock(" },
                Pattern { toks: &["RwLock"], show: "RwLock" },
                Pattern { toks: &["OnceLock"], show: "OnceLock" },
                Pattern { toks: &["AtomicUsize"], show: "AtomicUsize" },
                Pattern { toks: &["AtomicU64"], show: "AtomicU64" },
                Pattern { toks: &["AtomicU32"], show: "AtomicU32" },
                Pattern { toks: &["AtomicI64"], show: "AtomicI64" },
                Pattern { toks: &["AtomicBool"], show: "AtomicBool" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &[
            "crates/simverify/",
            "crates/experiments/",
            "crates/bench/",
            // The executor pool's atomic work cursor and slot mutexes ARE
            // the ordered-merge machinery (DESIGN.md §11).
            "crates/simcore/src/exec.rs",
            // All mutex-guarded MPI state funnels through the documented
            // world() helper (DESIGN.md §9).
            "crates/mpisim/src/world.rs",
            // Monotone counters/gauges/histograms; snapshots render through
            // a BTreeMap and never feed back into decisions.
            "crates/telemetry/",
        ],
        invariant_escape: false,
    },
    Rule {
        id: "SV010",
        summary: "environment or filesystem read reachable from a purity root; \
                  config flows in through arguments, results flow out through returns",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["std", "::", "env"], show: "std::env" },
                Pattern { toks: &["std", "::", "fs"], show: "std::fs" },
                Pattern { toks: &["env", "::", "var"], show: "env::var" },
                Pattern { toks: &["fs", "::", "read"], show: "fs::read" },
                Pattern { toks: &["fs", "::", "write"], show: "fs::write" },
                Pattern { toks: &["File", "::", "open"], show: "File::open" },
                Pattern { toks: &["File", "::", "create"], show: "File::create" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &[
            "crates/simverify/",
            "crates/experiments/",
            "crates/bench/",
            // Checkpoint durability quarantine: atomic save/rotate/load is
            // filesystem code by design and never reachable from a purity
            // root — the engine hands CheckpointStore plain bytes
            // (DESIGN.md §14).
            "crates/batchsim/src/checkpoint.rs",
        ],
        invariant_escape: false,
    },
    Rule {
        id: "SV011",
        summary: "float ordering in scheduling arithmetic reachable from a purity \
                  root; compare exact integer SimTime/SimDuration instead",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &[".", "partial_cmp", "("], show: ".partial_cmp(" },
                Pattern { toks: &["EPS"], show: "EPS" },
                Pattern { toks: &["as_secs_f64", "(", ")", "<"], show: "as_secs_f64() <" },
                Pattern { toks: &["as_secs_f64", "(", ")", "<="], show: "as_secs_f64() <=" },
                Pattern { toks: &["as_secs_f64", "(", ")", ">"], show: "as_secs_f64() >" },
                Pattern { toks: &["as_secs_f64", "(", ")", ">="], show: "as_secs_f64() >=" },
                Pattern { toks: &["as_secs_f64", "(", ")", "=="], show: "as_secs_f64() ==" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &["crates/simverify/", "crates/experiments/", "crates/bench/"],
        invariant_escape: false,
    },
    Rule {
        id: "SV012",
        summary: "unordered parallel reduction reachable from a purity root; \
                  results must merge in submission order through simcore::Pool",
        kind: RuleKind::Tokens {
            patterns: &[
                Pattern { toks: &["mpsc"], show: "mpsc" },
                Pattern { toks: &["sync_channel"], show: "sync_channel" },
                Pattern { toks: &["Receiver"], show: "Receiver" },
                Pattern { toks: &["crossbeam"], show: "crossbeam" },
                Pattern { toks: &["rayon"], show: "rayon" },
                Pattern { toks: &["par_iter"], show: "par_iter" },
                Pattern { toks: &["into_par_iter"], show: "into_par_iter" },
            ],
        },
        scope: Scope::Reachable,
        zones: &["crates/"],
        exempt: &[
            "crates/simverify/",
            "crates/experiments/",
            "crates/bench/",
            // The pool implements the ordered merge itself.
            "crates/simcore/src/exec.rs",
        ],
        invariant_escape: false,
    },
    Rule {
        id: "SV013",
        summary: "checksum-bypassing snapshot read; decode checkpoints through \
                  SnapshotReader::new so corruption is detected, not replayed",
        kind: RuleKind::Tokens {
            patterns: &[Pattern { toks: &["::", "new_unchecked"], show: "::new_unchecked" }],
        },
        scope: Scope::Zones,
        zones: &["crates/"],
        // The analyzer spells the pattern in its own table; the forensic
        // constructor's definition site lives in simcore::snapshot and is
        // `fn new_unchecked(`, which the `::`-prefixed pattern skips.
        exempt: &["crates/simverify/"],
        invariant_escape: false,
    },
    Rule {
        id: "SV014",
        summary: "unbounded per-job accumulation in streaming-stats code; fold \
                  into scalar sums/maxima/histograms, never a growable container",
        kind: RuleKind::Tokens {
            patterns: &[Pattern { toks: &[".", "push", "("], show: ".push(" }],
        },
        scope: Scope::Reachable,
        zones: &[
            "crates/batchsim/src/stats.rs",
            "crates/batchsim/src/fleet.rs",
        ],
        exempt: &[],
        invariant_escape: true,
    },
];

/// One reported violation, rendered as `file:line: rule-id: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative, forward-slash path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    /// The pattern rendering that matched (empty for structural rules).
    pub pattern: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

fn in_zone(rule: &Rule, file: &str) -> bool {
    rule.zones.iter().any(|z| file.contains(z)) && !rule.exempt.iter().any(|z| file.contains(z))
}

/// Evaluate every rule over prepared files. `graph`/`reachable` drive the
/// [`Scope::Reachable`] rules; pass an empty graph to run zone rules only.
pub fn evaluate(
    files: &[PreparedFile<'_>],
    rules: &[Rule],
    graph: &Graph,
    reachable: &[bool],
    allow: &mut Allowlist,
    today: Date,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let code = file.code_indices();
        // Reachable body ranges (raw token indices) in this file.
        let ranges: Vec<(usize, usize)> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(i, f)| f.file == fi && reachable.get(*i).copied().unwrap_or(false))
            .map(|(_, f)| f.body)
            .collect();
        for rule in rules.iter().filter(|r| in_zone(r, &file.path)) {
            match &rule.kind {
                RuleKind::Tokens { patterns } => {
                    for pat in *patterns {
                        scan_pattern(file, &code, rule, pat, &ranges, allow, today, &mut violations);
                    }
                }
                RuleKind::FieldsDocumented => {
                    fields_documented(file, rule, allow, today, &mut violations);
                }
            }
        }
    }
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.pattern).cmp(&(&b.file, b.line, b.rule, &b.pattern))
    });
    violations
}

#[allow(clippy::too_many_arguments)]
fn scan_pattern(
    file: &PreparedFile<'_>,
    code: &[usize],
    rule: &Rule,
    pat: &Pattern,
    reachable_ranges: &[(usize, usize)],
    allow: &mut Allowlist,
    today: Date,
    out: &mut Vec<Violation>,
) {
    let plen = pat.toks.len();
    if code.len() < plen {
        return;
    }
    for p in 0..=code.len() - plen {
        if (0..plen).any(|k| file.toks[code[p + k]].text != pat.toks[k]) {
            continue;
        }
        let raw = code[p];
        if rule.scope == Scope::Reachable
            && !reachable_ranges.iter().any(|&(s, e)| (s..=e).contains(&raw))
        {
            continue;
        }
        let line = file.toks[raw].line;
        if rule.invariant_escape && file.comment_near(line, INVARIANT_WINDOW, "INVARIANT") {
            continue;
        }
        let line_text = file.lines.get(line as usize - 1).copied().unwrap_or("");
        if allow.permits(rule.id, &file.path, line_text, today) {
            continue;
        }
        out.push(Violation {
            file: file.path.clone(),
            line: line as usize,
            rule: rule.id,
            pattern: pat.show.to_string(),
            message: format!("`{}`: {}", pat.show, rule.summary),
        });
    }
}

/// A `pub` struct-field line (the only thing SV005 inspects): not a
/// function, constant or tuple-struct declaration.
fn is_pub_field(trimmed: &str) -> bool {
    trimmed.starts_with("pub ")
        && trimmed.contains(':')
        && trimmed.ends_with(',')
        && !trimmed.contains("fn ")
        && !trimmed.contains("const ")
        && !trimmed.contains('(')
}

/// Whether the field line at `idx` has a `///` doc comment above it,
/// looking through any `#[...]` attribute lines.
fn field_is_documented(lines: &[&str], idx: usize) -> bool {
    for j in (0..idx).rev() {
        let p = lines[j].trim_start();
        if p.starts_with("#[") {
            continue;
        }
        return p.starts_with("///");
    }
    false
}

fn fields_documented(
    file: &PreparedFile<'_>,
    rule: &Rule,
    allow: &mut Allowlist,
    today: Date,
    out: &mut Vec<Violation>,
) {
    let mut in_tests = false;
    for (i, raw) in file.lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests || trimmed.starts_with("//") {
            continue;
        }
        if is_pub_field(trimmed)
            && !field_is_documented(&file.lines, i)
            && !allow.permits(rule.id, &file.path, raw, today)
        {
            out.push(Violation {
                file: file.path.clone(),
                line: i + 1,
                rule: rule.id,
                pattern: String::new(),
                message: format!("`{}`: {}", trimmed.trim_end_matches(','), rule.summary),
            });
        }
    }
}
