//! Property tests for the scheduling-domain tree (DESIGN.md §16): the
//! structural invariants every consumer leans on — contiguous partitions
//! that refine outward, migration costs monotone toward the root, and a
//! spec grammar whose canonical rendering round-trips. The grammar is
//! also fuzzed: arbitrary byte strings and mutated valid specs must parse
//! to a typed error or to a tree that survives its own rendering.

use power5::{CpuId, Topology};
use proptest::prelude::*;

/// Random spec strings covering the grammar: untagged tokens, tagged
/// hierarchy positions, and the `x` separator. Every generated spec is
/// valid by construction (counts >= 1, tags strictly ascend outward).
fn arb_spec() -> impl Strategy<Value = String> {
    let untagged = proptest::collection::vec(1usize..=4, 1..=5).prop_map(|widths| {
        widths.iter().map(|w| w.to_string()).collect::<Vec<_>>().join("x")
    });
    let tagged = (1usize..=4, 1usize..=4, 1usize..=3, 1usize..=3, 0u8..16).prop_map(
        |(t, c, s, n, mask)| {
            // Each bit drops one tagged token; keep at least one.
            let mut parts = Vec::new();
            if mask & 1 == 0 {
                parts.push(format!("{n}n"));
            }
            if mask & 2 == 0 {
                parts.push(format!("{s}s"));
            }
            if mask & 4 == 0 {
                parts.push(format!("{c}c"));
            }
            if mask & 8 == 0 {
                parts.push(format!("{t}t"));
            }
            if parts.is_empty() {
                parts.push(format!("{c}c"));
            }
            parts.concat()
        },
    );
    prop_oneof![untagged, tagged]
}

/// Characters the spec grammar gives meaning to, plus a few it rejects.
const ALPHABET: &[u8] = b"0123456789xXtTcCsSnN -z";

/// Parses `input` and, when it is accepted, checks the round trip:
/// `parse(render_spec(t)) == t`. A panic in the parser fails the test.
fn check(input: &str) {
    if let Ok(topo) = Topology::parse(input) {
        let spec = topo.render_spec();
        assert_eq!(Topology::parse(&spec).as_ref(), Ok(&topo), "`{input}` renders as `{spec}`");
    }
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    arb_spec().prop_map(|spec| {
        Topology::parse(&spec).unwrap_or_else(|e| panic!("generated spec `{spec}`: {e}"))
    })
}

proptest! {
    /// Every level partitions the CPU set: each CPU lies in exactly one
    /// contiguous group, and the groups tile `0..num_cpus` exactly.
    #[test]
    fn levels_partition_the_cpus(topo in arb_topology()) {
        let n = topo.num_cpus();
        for l in 0..topo.num_levels() {
            let span = topo.span(l);
            prop_assert_eq!(n % span, 0, "level {} span {} divides {}", l, span, n);
            let mut covered = 0usize;
            for g in 0..topo.num_groups(l) {
                let r = topo.group_range(CpuId(g * span), l);
                prop_assert_eq!(r.start, g * span);
                prop_assert_eq!(r.len(), span);
                covered += r.len();
                for cpu in r.clone() {
                    prop_assert_eq!(topo.group_range(CpuId(cpu), l), r.clone());
                }
            }
            prop_assert_eq!(covered, n, "level {} tiles the machine", l);
        }
    }

    /// Domains refine outward: a CPU's group at level `l` is contained in
    /// its group at level `l + 1`, and the machine root spans everything.
    #[test]
    fn domains_refine_outward(topo in arb_topology()) {
        let n = topo.num_cpus();
        for cpu in (0..n).map(CpuId) {
            for l in 0..topo.num_levels() - 1 {
                let inner = topo.group_range(cpu, l);
                let outer = topo.group_range(cpu, l + 1);
                prop_assert!(
                    outer.start <= inner.start && inner.end <= outer.end,
                    "cpu {cpu}: level {l} {inner:?} not inside level {} {outer:?}",
                    l + 1
                );
            }
            let root = topo.group_range(cpu, topo.num_levels() - 1);
            prop_assert_eq!(root, 0..n);
        }
    }

    /// Migration cost is the innermost containing level's cost: zero on
    /// the diagonal, symmetric, and monotone — CPUs sharing an inner
    /// domain are never more expensive to migrate between than CPUs that
    /// only meet further out.
    #[test]
    fn migration_cost_is_monotone_toward_the_root(topo in arb_topology()) {
        let n = topo.num_cpus();
        for a in (0..n).map(CpuId) {
            prop_assert_eq!(topo.migration_cost(a, a), 0);
            for b in (0..n).map(CpuId) {
                let cost = topo.migration_cost(a, b);
                prop_assert_eq!(cost, topo.migration_cost(b, a), "symmetric");
                if a == b {
                    continue;
                }
                // The cost equals the cost of the innermost shared level.
                let l = (0..topo.num_levels())
                    .find(|&l| topo.group_range(a, l).contains(&b.0))
                    .expect("the machine root contains every CPU");
                prop_assert_eq!(cost, topo.level(l).cost);
                // Any pair sharing a strictly inner level costs no more.
                for (inner_l, level) in topo.levels().iter().enumerate() {
                    if inner_l <= l {
                        prop_assert!(level.cost <= cost, "costs monotone toward the root");
                    }
                }
            }
        }
    }

    /// The canonical rendering reproduces the tree exactly:
    /// `parse(render_spec()) == topo`, and rendering is a fixed point.
    #[test]
    fn spec_grammar_round_trips(topo in arb_topology()) {
        let spec = topo.render_spec();
        let reparsed = Topology::parse(&spec)
            .unwrap_or_else(|e| panic!("render_spec `{spec}` does not parse: {e}"));
        prop_assert_eq!(&reparsed, &topo, "parse(render_spec()) reproduces the tree");
        prop_assert_eq!(reparsed.render_spec(), spec, "rendering is a fixed point");
    }

    /// The NUMA view is consistent with the tree: nodes tile the machine,
    /// every CPU maps into range, and distances keep the SLIT contract
    /// (symmetric, local minimal).
    #[test]
    fn numa_view_is_consistent(topo in arb_topology()) {
        let n = topo.num_cpus();
        prop_assert_eq!(topo.numa_count() * topo.numa_span(), n);
        for cpu in (0..n).map(CpuId) {
            prop_assert!(topo.numa_node_of(cpu) < topo.numa_count());
        }
        for i in 0..topo.numa_count() {
            for j in 0..topo.numa_count() {
                prop_assert_eq!(topo.numa_distance(i, j), topo.numa_distance(j, i));
                prop_assert!(topo.numa_distance(i, i) <= topo.numa_distance(i, j));
            }
        }
    }

    /// Arbitrary bytes (read as UTF-8 with replacement characters), and
    /// strings over the grammar's own characters, which get past the
    /// lexer far more often, parse to a typed error or a tree that
    /// round-trips.
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..16),
    ) {
        check(&String::from_utf8_lossy(&bytes));
        check(&picks.iter().map(|&i| char::from(ALPHABET[i])).collect::<String>());
    }

    /// Valid specs with tokens (`2n`, `4x`) or characters swapped, dropped
    /// or duplicated parse to a typed error or a tree that round-trips.
    #[test]
    fn mutated_specs_parse_or_fail_typed(
        spec in arb_spec(),
        by_token in any::<bool>(),
        muts in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut toks: Vec<String> = match by_token {
            true => spec.split_inclusive(|c: char| c.is_ascii_alphabetic()).map(String::from).collect(),
            false => spec.chars().map(String::from).collect(),
        };
        for (op, i, j) in muts {
            let (i, j) = (i % toks.len().max(1), j % toks.len().max(1));
            match op {
                _ if toks.is_empty() => {}
                0 => toks.swap(i, j),
                1 => drop(toks.remove(i)),
                _ => toks.insert(i, toks[i].clone()),
            }
        }
        check(&toks.concat());
    }
}
