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
//! * `--policy <name>` — run a named balancing policy from
//!   [`schedsim::policies::registry`] instead of the paper's standard mode
//!   set (`--policy help` lists the zoo). Unknown names are usage errors;
//! * `--topology <spec>` — run every cell on an explicit scheduling-domain
//!   tree instead of the default OpenPower 710. Accepts a preset name
//!   (`openpower-710`, `2-socket`, `numa`, `wide-smt`, ...) or the spec
//!   grammar (`2x2x2c2t`, `2n4c2t`, ...; see `power5::Topology::parse`).
//!   A malformed spec is a usage error.
//!
//! A binary with flags of its own declares them as [`BinFlag`]s and parses
//! with [`CliFlags::from_env_with`]; it then reads them from the parsed
//! flags with [`CliFlags::switch`], [`CliFlags::value`] and
//! [`CliFlags::int`]. The arguments are scanned once, so a declared flag's
//! value is never mistaken for a flag. Any argument that is neither a
//! standard flag nor a declared one is a usage error (exit 2), so a
//! misspelt flag never runs the defaults.

use crate::report::{fault_report, telemetry_report, verify_report};
use crate::runner::{ExperimentMode, RunResult};

/// A flag one binary adds to the standard set: its name, and whether a
/// value follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinFlag {
    /// `--name` on its own, read with [`CliFlags::switch`].
    Switch(&'static str),
    /// `--name <value>`, read with [`CliFlags::value`] or [`CliFlags::int`].
    Value(&'static str),
}

impl BinFlag {
    fn name(self) -> &'static str {
        match self {
            BinFlag::Switch(name) | BinFlag::Value(name) => name,
        }
    }
}

/// The standard flags, as the usage message lists them.
const STANDARD_USAGE: &str =
    "--telemetry, --verify, --faults <spec>, --policy <name>, --topology <spec>";

/// The standard experiment flags, parsed once at startup.
#[derive(Debug, Default)]
pub struct CliFlags {
    pub telemetry: bool,
    pub verify: bool,
    pub faults: Option<faultsim::FaultPlan>,
    /// Balancing policy selected with `--policy`, canonicalized against
    /// [`schedsim::policies::registry`]; `None` runs the standard modes.
    pub policy: Option<&'static str>,
    /// Scheduling-domain tree selected with `--topology`; `None` runs on
    /// the default OpenPower 710 tree (byte-identical to omitting the
    /// flag).
    pub topology: Option<power5::Topology>,
    /// The binary's own flags that were given, in order, each with its
    /// value (`None` for a switch).
    own: Vec<(&'static str, Option<String>)>,
}

impl CliFlags {
    /// Parse the process arguments of a binary with only the standard
    /// flags. A malformed or missing `--faults` spec is a usage error: exit
    /// 2 rather than running un-faulted experiments the caller did not ask
    /// for, and so is any other argument.
    pub fn from_env() -> CliFlags {
        CliFlags::from_env_with(&[])
    }

    /// [`CliFlags::from_env`] for a binary that also takes the flags in
    /// `own`.
    pub fn from_env_with(own: &[BinFlag]) -> CliFlags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match CliFlags::parse_with(&args, own) {
            Ok(flags) => flags,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`CliFlags::from_env`].
    pub fn parse(args: &[String]) -> Result<CliFlags, String> {
        CliFlags::parse_with(args, &[])
    }

    /// The testable core of [`CliFlags::from_env_with`]: the standard
    /// flags, plus the binary's own in `own`, whose values are kept for
    /// [`CliFlags::value`] and [`CliFlags::int`].
    pub fn parse_with(args: &[String], own: &[BinFlag]) -> Result<CliFlags, String> {
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
                other => match own.iter().find(|f| f.name() == other) {
                    Some(BinFlag::Switch(name)) => flags.own.push((name, None)),
                    Some(BinFlag::Value(name)) => {
                        let value = it.next().ok_or_else(|| format!("{name} requires a value"))?;
                        flags.own.push((name, Some(value.clone())));
                    }
                    None => return Err(usage(other, own)),
                },
            }
        }
        Ok(flags)
    }

    /// Whether the binary's own switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.own.iter().any(|(n, _)| *n == name)
    }

    /// The value of the binary's own flag `name`; `None` when absent. The
    /// first occurrence wins.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.own.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The integer value of the binary's own flag `name`; `None` when
    /// absent. A non-integer value is a usage error (exit 2), as a
    /// malformed `--faults` spec is, rather than a silent default.
    pub fn int<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_int(name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// The testable core of [`CliFlags::int`].
    fn try_int<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
        raw.parse().map(Some).map_err(|_| format!("{name} wants an integer, got `{raw}`"))
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

/// The usage error for the unknown argument `arg`.
fn usage(arg: &str, own: &[BinFlag]) -> String {
    let mut msg = format!("unknown argument {arg:?}\nusage: flags {STANDARD_USAGE}");
    for f in own {
        match f {
            BinFlag::Switch(name) => msg.push_str(&format!(", {name}")),
            BinFlag::Value(name) => msg.push_str(&format!(", {name} <value>")),
        }
    }
    msg
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
    fn unknown_arguments_are_usage_errors() {
        let err = CliFlags::parse(&strs(&["--jobs", "200", "--verify"])).unwrap_err();
        assert!(err.contains("unknown argument \"--jobs\""), "{err}");
        assert!(err.contains("--topology <spec>"), "error lists the flags: {err}");
        assert!(CliFlags::parse(&strs(&["stray"])).is_err(), "positional arguments too");
        // A misspelt flag of the binary's own is as unknown as any other.
        let own = [BinFlag::Value("--seed"), BinFlag::Value("--jobs")];
        let err = CliFlags::parse_with(&strs(&["--sed", "7", "--jobs", "500"]), &own).unwrap_err();
        assert!(err.contains("\"--sed\"") && err.contains("--seed <value>"), "{err}");
    }

    #[test]
    fn bad_threads_is_a_usage_error() {
        // Node runs are serial: the old worker-count flag is gone, so every
        // spelling of it is an unknown argument.
        for args in [&["--threads"][..], &["--threads", "0"], &["--threads", "many"]] {
            assert!(CliFlags::parse(&strs(args)).is_err(), "{args:?}");
        }
        let err = CliFlags::parse(&strs(&["--threads", "4"])).unwrap_err();
        assert!(err.contains("unknown argument \"--threads\""), "{err}");
        assert!(!err.contains("--threads <"), "usage no longer lists it: {err}");
    }

    #[test]
    fn declared_flags_parse_beside_the_standard_ones() {
        let own = [BinFlag::Value("--seed"), BinFlag::Switch("--smoke")];
        let f = CliFlags::parse_with(&strs(&["--seed", "7", "--smoke", "--verify"]), &own).unwrap();
        assert!(f.verify);
        // A declared value is skipped whatever it looks like, and a switch
        // takes none.
        assert!(CliFlags::parse_with(&strs(&["--seed", "--verify"]), &own).is_ok());
        assert!(CliFlags::parse_with(&strs(&["--smoke", "7"]), &own).is_err());
        assert!(CliFlags::parse_with(&strs(&["--seed"]), &own).is_err(), "missing value");
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

    /// Flags declared the way `fleet` declares its own.
    const FLEET: [BinFlag; 4] = [
        BinFlag::Value("--seed"),
        BinFlag::Value("--jobs"),
        BinFlag::Value("--nodes"),
        BinFlag::Switch("--smoke"),
    ];

    fn int_of<T: std::str::FromStr>(args: &[&str], name: &str) -> Result<Option<T>, String> {
        CliFlags::parse_with(&strs(args), &FLEET)?.try_int(name)
    }

    #[test]
    fn integer_flags_parse_or_stay_absent() {
        assert_eq!(int_of::<u64>(&["--seed", "7"], "--seed"), Ok(Some(7)));
        assert_eq!(int_of::<u64>(&["--jobs", "200"], "--seed"), Ok(None));
        assert_eq!(int_of::<usize>(&["--smoke", "--nodes", "64"], "--nodes"), Ok(Some(64)));
    }

    #[test]
    fn integer_flag_garbage_is_a_usage_error() {
        assert!(int_of::<u64>(&["--seed", "abc"], "--seed").is_err());
        assert!(int_of::<u64>(&["--seed", "-1"], "--seed").is_err());
        assert!(int_of::<u64>(&["--seed", "1.5"], "--seed").is_err());
        let err = int_of::<u64>(&["--jobs"], "--jobs").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn a_value_that_spells_a_declared_switch_stays_a_value() {
        // `batch --checkpoint --smoke` checkpoints into a directory named
        // `--smoke`; it does not run the smoke matrix.
        let own = [BinFlag::Value("--checkpoint"), BinFlag::Switch("--smoke")];
        let f = CliFlags::parse_with(&strs(&["--checkpoint", "--smoke"]), &own).unwrap();
        assert_eq!(f.value("--checkpoint"), Some("--smoke"));
        assert!(!f.switch("--smoke"));
        let f = CliFlags::parse_with(&strs(&["--smoke", "--checkpoint", "ckpts"]), &own).unwrap();
        assert!(f.switch("--smoke"));
        assert_eq!(f.value("--checkpoint"), Some("ckpts"));
    }
}
