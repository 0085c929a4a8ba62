//! Shared command-line handling for the experiment binaries.
//!
//! Every binary supports the same three flags; parsing lives here once
//! instead of per-bin:
//!
//! * `--telemetry` — append each run's kernel metrics to the report;
//! * `--verify` — print each run's conformance report and exit nonzero on
//!   any invariant violation;
//! * `--faults <spec>` — inject a [`faultsim::FaultPlan`] (see the spec
//!   grammar in `faultsim::plan`); a malformed spec is a usage error;
//! * `--threads <n>` — worker threads for per-node kernel runs (default 1
//!   = serial). Output is byte-identical at any value; only wall-clock
//!   time changes;
//! * `--policy <name>` — run a named balancing policy from
//!   [`schedsim::policies::registry`] instead of the paper's standard mode
//!   set (`--policy help` lists the zoo). Unknown names are usage errors;
//! * `--topology <spec>` — run every cell on an explicit scheduling-domain
//!   tree instead of the default OpenPower 710. Accepts a preset name
//!   (`openpower-710`, `2-socket`, `numa`, `wide-smt`, ...) or the spec
//!   grammar (`2x2x2c2t`, `2n4c2t`, ...; see `power5::Topology::parse`).
//!   A malformed spec is a usage error.

use crate::report::{fault_report, telemetry_report, verify_report};
use crate::runner::{ExperimentMode, RunResult};

/// The standard experiment flags, parsed once at startup.
#[derive(Debug)]
pub struct CliFlags {
    pub telemetry: bool,
    pub verify: bool,
    pub faults: Option<faultsim::FaultPlan>,
    /// Worker threads for per-node kernel runs; 1 means serial.
    pub threads: usize,
    /// Balancing policy selected with `--policy`, canonicalized against
    /// [`schedsim::policies::registry`]; `None` runs the standard modes.
    pub policy: Option<&'static str>,
    /// Scheduling-domain tree selected with `--topology`; `None` runs on
    /// the default OpenPower 710 tree (byte-identical to omitting the
    /// flag).
    pub topology: Option<power5::Topology>,
}

impl Default for CliFlags {
    fn default() -> Self {
        CliFlags {
            telemetry: false,
            verify: false,
            faults: None,
            threads: 1,
            policy: None,
            topology: None,
        }
    }
}

impl CliFlags {
    /// Parse the process arguments. A malformed or missing `--faults` spec
    /// is a usage error: exit 2 rather than running un-faulted experiments
    /// the caller did not ask for.
    pub fn from_env() -> CliFlags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match CliFlags::parse(&args) {
            Ok(flags) => flags,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`CliFlags::from_env`].
    pub fn parse(args: &[String]) -> Result<CliFlags, String> {
        let mut flags = CliFlags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--telemetry" => flags.telemetry = true,
                "--verify" => flags.verify = true,
                "--faults" => {
                    let spec =
                        it.next().ok_or_else(|| "--faults requires a spec argument".to_string())?;
                    flags.faults =
                        Some(faultsim::FaultPlan::parse(spec).map_err(|e| e.to_string())?);
                }
                "--threads" => {
                    let n = it
                        .next()
                        .ok_or_else(|| "--threads requires a count argument".to_string())?;
                    flags.threads = n
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--threads: expected a count >= 1, got {n:?}"))?;
                }
                "--policy" => {
                    let name = it
                        .next()
                        .ok_or_else(|| "--policy requires a policy name argument".to_string())?;
                    flags.policy =
                        Some(schedsim::policies::canonical(name).ok_or_else(|| {
                            format!(
                                "--policy: unknown policy {name:?}; registered policies:\n{}",
                                schedsim::policies::render_table()
                            )
                        })?);
                }
                "--topology" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| "--topology requires a spec argument".to_string())?;
                    flags.topology = Some(power5::Topology::parse(spec).map_err(|e| {
                        format!(
                            "--topology: {e}; expected a preset (openpower-710, 2-socket, \
                             numa, wide-smt, single-core-st) or a spec such as 2x2x2c2t or \
                             2n4c2t"
                        )
                    })?);
                }
                _ => {}
            }
        }
        Ok(flags)
    }

    /// The experiment modes this invocation asks for: `modes` (the bin's
    /// standard cells) as-is without `--policy`, or the baseline plus the
    /// selected policy with it — so every bin gets the policy axis without
    /// a per-bin match on names.
    pub fn modes(&self, modes: &[ExperimentMode]) -> Vec<ExperimentMode> {
        match self.policy {
            None => modes.to_vec(),
            Some(p) => vec![ExperimentMode::Baseline, ExperimentMode::Policy(p)],
        }
    }

    /// The standard end-of-report epilogue: fault summaries (when any run
    /// carries one), telemetry (under `--telemetry`), and conformance
    /// verdicts (under `--verify`, exiting 1 on violations).
    pub fn epilogue(&self, results: &[RunResult]) {
        if results.iter().any(|r| r.fault.is_some()) {
            print!("{}", fault_report(results));
        }
        if self.telemetry {
            print!("{}", telemetry_report(results));
        }
        if self.verify {
            print!("{}", verify_report(results));
            if results.iter().any(|r| !r.conformance.is_clean()) {
                eprintln!("verify: invariant violations detected");
                std::process::exit(1);
            }
        }
    }

    /// Output-file prefix for machine-readable results: the bin's base
    /// name, suffixed with the canonical topology spec when a non-default
    /// tree is selected so `--topology` runs never clobber the canonical
    /// OpenPower 710 outputs under `experiments_output/`.
    pub fn output_slug(&self, base: &str) -> String {
        match &self.topology {
            // A dash, not a dot: `save_outputs` derives filenames with
            // `Path::with_extension`, which would swallow a dotted suffix.
            Some(t) if *t != power5::Topology::openpower_710() => {
                format!("{base}-{}", t.render_spec())
            }
            _ => base.to_string(),
        }
    }

    /// Note for binaries that run no scheduler kernel: acknowledge the
    /// flag instead of silently ignoring it.
    pub fn note_no_kernel(&self) {
        if self.telemetry {
            println!("\n(--telemetry: this binary runs no scheduler kernel; nothing to report)");
        }
    }
}

/// Generic `--name value` lookup for bin-specific options.
pub fn value_of(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Integer `--name <n>` lookup for bin-specific options: `None` when the
/// flag is absent. A missing or non-integer value is a usage error (exit
/// 2), as a malformed `--threads` is, rather than a silent default.
pub fn int_value_of<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_int(&args, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The testable core of [`int_value_of`].
fn parse_int<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args.get(at + 1).ok_or_else(|| format!("{name} requires an integer argument"))?;
    raw.parse().map(Some).map_err(|_| format!("{name} wants an integer, got `{raw}`"))
}

/// Generic boolean flag lookup for bin-specific options.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_three_standard_flags() {
        let f = CliFlags::parse(&strs(&["--telemetry", "--verify"])).unwrap();
        assert!(f.telemetry && f.verify && f.faults.is_none());
        let f = CliFlags::parse(&strs(&[])).unwrap();
        assert!(!f.telemetry && !f.verify);
    }

    #[test]
    fn parses_a_fault_spec() {
        let f = CliFlags::parse(&strs(&["--faults", "seed=7; slow:rank=1,at=100ms,factor=0.5"]))
            .unwrap();
        assert!(f.faults.is_some());
    }

    #[test]
    fn malformed_faults_is_a_usage_error() {
        assert!(CliFlags::parse(&strs(&["--faults"])).is_err());
        assert!(CliFlags::parse(&strs(&["--faults", "nonsense:"])).is_err());
    }

    #[test]
    fn unknown_arguments_are_ignored() {
        let f = CliFlags::parse(&strs(&["--jobs", "200", "--verify"])).unwrap();
        assert!(f.verify);
    }

    #[test]
    fn parses_and_canonicalizes_policy() {
        let f = CliFlags::parse(&strs(&["--policy", "gss"])).unwrap();
        assert_eq!(f.policy, Some("gss"));
        assert_eq!(
            f.modes(&[ExperimentMode::Baseline, ExperimentMode::Uniform]),
            vec![ExperimentMode::Baseline, ExperimentMode::Policy("gss")]
        );
        let f = CliFlags::parse(&strs(&[])).unwrap();
        assert_eq!(f.policy, None);
        let std_modes = [ExperimentMode::Baseline, ExperimentMode::Uniform];
        assert_eq!(f.modes(&std_modes), std_modes.to_vec());
    }

    #[test]
    fn unknown_policy_is_a_usage_error_listing_the_zoo() {
        let err = CliFlags::parse(&strs(&["--policy", "lottery"])).unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        assert!(err.contains("worksteal"), "error lists the registry: {err}");
        assert!(CliFlags::parse(&strs(&["--policy"])).is_err());
    }

    #[test]
    fn parses_topology_presets_and_specs() {
        let f = CliFlags::parse(&strs(&[])).unwrap();
        assert!(f.topology.is_none());
        let f = CliFlags::parse(&strs(&["--topology", "openpower-710"])).unwrap();
        assert_eq!(f.topology, Some(power5::Topology::openpower_710()));
        let f = CliFlags::parse(&strs(&["--topology", "2n2c2t"])).unwrap();
        assert_eq!(f.topology.unwrap().num_cpus(), 8);
    }

    #[test]
    fn output_slug_namespaces_non_default_topologies() {
        let f = CliFlags::parse(&strs(&[])).unwrap();
        assert_eq!(f.output_slug("metbench"), "metbench");
        let f = CliFlags::parse(&strs(&["--topology", "openpower-710"])).unwrap();
        assert_eq!(f.output_slug("metbench"), "metbench");
        let f = CliFlags::parse(&strs(&["--topology", "2n2c2t"])).unwrap();
        assert_eq!(f.output_slug("metbench"), "metbench-2n2c2t");
    }

    #[test]
    fn malformed_topology_is_a_usage_error() {
        assert!(CliFlags::parse(&strs(&["--topology"])).is_err());
        let err = CliFlags::parse(&strs(&["--topology", "nonsense"])).unwrap_err();
        assert!(err.contains("openpower-710"), "error lists presets: {err}");
    }

    #[test]
    fn parses_threads_and_defaults_to_serial() {
        assert_eq!(CliFlags::parse(&strs(&[])).unwrap().threads, 1);
        assert_eq!(CliFlags::parse(&strs(&["--threads", "4"])).unwrap().threads, 4);
    }

    #[test]
    fn integer_flags_parse_or_stay_absent() {
        assert_eq!(parse_int::<u64>(&strs(&["--seed", "7"]), "--seed"), Ok(Some(7)));
        assert_eq!(parse_int::<u64>(&strs(&["--jobs", "200"]), "--seed"), Ok(None));
        let nodes = parse_int::<usize>(&strs(&["--smoke", "--nodes", "64"]), "--nodes");
        assert_eq!(nodes, Ok(Some(64)));
    }

    #[test]
    fn integer_flag_garbage_is_a_usage_error() {
        assert!(parse_int::<u64>(&strs(&["--seed", "abc"]), "--seed").is_err());
        assert!(parse_int::<u64>(&strs(&["--seed", "-1"]), "--seed").is_err());
        assert!(parse_int::<u64>(&strs(&["--seed", "1.5"]), "--seed").is_err());
        let err = parse_int::<u64>(&strs(&["--jobs"]), "--jobs").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn bad_threads_is_a_usage_error() {
        assert!(CliFlags::parse(&strs(&["--threads"])).is_err());
        assert!(CliFlags::parse(&strs(&["--threads", "0"])).is_err());
        assert!(CliFlags::parse(&strs(&["--threads", "many"])).is_err());
    }
}
