//! A node kernel's metrics snapshot (names, order and values) is pinned
//! for every node-local scheduler and every topology preset.
//!
//! The kernel, its event queue and its balancing policy each register
//! their metrics as one block; the snapshot must be the one registering
//! each metric on its own gave. Each fingerprint below is the FNV-1a hash
//! of [`telemetry::export::snapshot_to_json`] of a traced node run's
//! snapshot, recorded when every metric was registered one at a time.

use batchsim::{run_node, LocalSched, TopoPreset};
use simcore::snapshot::fnv1a;

const LOADS: [f64; 8] = [0.031, 0.012, 0.027, 0.018, 0.009, 0.024, 0.015, 0.021];

/// Every node-local scheduler: the three regimes, then each registry policy.
fn scheds() -> Vec<LocalSched> {
    let policies = schedsim::policies::registry().iter().map(|p| LocalSched::Policy(p.name));
    LocalSched::ALL.into_iter().chain(policies).collect()
}

fn fingerprint(sched: LocalSched, preset: TopoPreset) -> u64 {
    let shape = preset.shape(1.0);
    let loads = &LOADS[..shape.topology.num_cpus()];
    let run = run_node(loads, 3, sched, &shape, true).expect("a valid node");
    let trace = run.trace.expect("a traced run keeps its metrics");
    fnv1a(telemetry::export::snapshot_to_json(&trace.metrics).as_bytes())
}

#[test]
fn node_kernel_snapshots_match_per_metric_registration() {
    let mut seen = Vec::new();
    for sched in scheds() {
        for preset in TopoPreset::ALL {
            let hash = fingerprint(sched, preset);
            seen.push(format!("{} {} {hash:#018x}", sched.label(), preset.label()));
        }
    }
    assert_eq!(seen.join("\n"), EXPECTED.trim());
}

const EXPECTED: &str = "
cfs openpower-710 0x2d881cacb3a27af9
cfs 2-socket 0xc2920b8cbc12b5d4
cfs numa 0xc2920b8cbc12b5d4
cfs wide-smt 0xcaa54924a541bbe3
static openpower-710 0x91a9efbba5b557b2
static 2-socket 0xed375f3cb9593d26
static numa 0xed375f3cb9593d26
static wide-smt 0x6140a9dc749d947f
hpc openpower-710 0x5f635efab3b9077c
hpc 2-socket 0xeb3f19c3a1cf33f2
hpc numa 0xeb3f19c3a1cf33f2
hpc wide-smt 0x20b639ecf91e26ae
hpc openpower-710 0x5f635efab3b9077c
hpc 2-socket 0xeb3f19c3a1cf33f2
hpc numa 0xeb3f19c3a1cf33f2
hpc wide-smt 0x20b639ecf91e26ae
hpc-adaptive openpower-710 0xbbb465013aa86bfe
hpc-adaptive 2-socket 0xebf83913bfdd67b2
hpc-adaptive numa 0xebf83913bfdd67b2
hpc-adaptive wide-smt 0x41b51e2c4a138c32
hpc-hybrid openpower-710 0x973e814bbc70508e
hpc-hybrid 2-socket 0xa1978cacb4329842
hpc-hybrid numa 0xa1978cacb4329842
hpc-hybrid wide-smt 0xccb3e8c436241196
static openpower-710 0xccdffa5e3537e59c
static 2-socket 0x4b0a91a6229b5885
static numa 0x4b0a91a6229b5885
static wide-smt 0x3160657e1f2584ea
ss openpower-710 0xe8870210ce7f00c1
ss 2-socket 0x1a4d01a775ee5ca1
ss numa 0x1a4d01a775ee5ca1
ss wide-smt 0x886955b0eb6962c2
gss openpower-710 0x8f163985c1f4618d
gss 2-socket 0x95dc1601155c512f
gss numa 0x95dc1601155c512f
gss wide-smt 0xa8816ebba912d506
tss openpower-710 0xb620b15b322b7f17
tss 2-socket 0x7750265504fad0a1
tss numa 0x7750265504fad0a1
tss wide-smt 0x19807b5c9658f53a
fac openpower-710 0x7a28237b766e0da8
fac 2-socket 0x18df76cda315d761
fac numa 0x18df76cda315d761
fac wide-smt 0x14c17ea7ea6a6856
awf openpower-710 0x2be85173d9b482b9
awf 2-socket 0x09e06b7a5465871d
awf numa 0x09e06b7a5465871d
awf wide-smt 0x95863b14ebcd67a8
worksteal openpower-710 0xc21378da30be5c94
worksteal 2-socket 0x3e5a39971982e59d
worksteal numa 0x3e5a39971982e59d
worksteal wide-smt 0xa16ab27a6c963af2
";
