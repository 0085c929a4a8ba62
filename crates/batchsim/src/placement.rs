//! Gang placement strategies.
//!
//! A placement assigns each rank of a job to a node slot; within a node,
//! slot order is CPU order (slots 0,1 share core 0; slots 2,3 share
//! core 1 on the POWER5 node). The interesting strategy is the SMT-aware
//! one: it models what the *local* HPCSched can recover, so it deliberately
//! co-locates a heavy rank with a light one on the same core — the
//! combination the hardware-priority boost exploits best.
//!
//! [`place_on`] is the one entry point; a uniform fleet is a catalog of
//! equal shapes.

use crate::job::JobSpec;
use crate::shape::NodeShape;
use power5::CpuId;
use std::fmt;

/// Ranks per reference node (one per logical CPU of the paper's POWER5
/// node): the granularity at which the batch layer sizes gangs.
pub const NODE_SLOTS: usize = 4;

/// Why a placement could not be computed. Cluster-level callers hit this
/// at runtime (a job queued against a shrunken, partially-failed cluster),
/// so it is an error value, not a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// No nodes to place on (zero configured, or every node failed).
    NoNodes,
    /// The job needs more slots than the available nodes offer.
    DoesNotFit { ranks: usize, slots: usize },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PlacementError::NoNodes => write!(f, "no nodes available"),
            PlacementError::DoesNotFit { ranks, slots } => {
                write!(f, "job does not fit: {ranks} ranks on {slots} slots")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// How to spread a job's ranks over the nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementStrategy {
    /// Rank i on node i mod n — what `mpirun` does by default.
    RoundRobin,
    /// Greedy longest-processing-time bin packing on total node load
    /// (classic makespan heuristic, SMT-oblivious).
    GreedyLpt,
    /// Greedy placement minimizing *estimated node completion time under
    /// the local HPCSched*, with heavy/light core pairing inside the node.
    SmtAware,
    /// [`PlacementStrategy::SmtAware`] plus a NUMA-distance penalty: a
    /// candidate node whose occupied slots would span NUMA nodes has its
    /// estimated time scaled by the worst pairwise distance (relative to
    /// local), so gangs pack inside one NUMA node when the catalog allows.
    NumaAware,
}

/// A computed placement: `nodes[n]` lists rank indices in CPU-slot order.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    pub strategy: PlacementStrategy,
    pub nodes: Vec<Vec<usize>>,
}

impl simcore::snapshot::Snapshot for PlacementStrategy {
    fn snapshot(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        w.put_u8(match self {
            PlacementStrategy::RoundRobin => 0,
            PlacementStrategy::GreedyLpt => 1,
            PlacementStrategy::SmtAware => 2,
            PlacementStrategy::NumaAware => 3,
        });
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        match r.get_u8()? {
            0 => Ok(PlacementStrategy::RoundRobin),
            1 => Ok(PlacementStrategy::GreedyLpt),
            2 => Ok(PlacementStrategy::SmtAware),
            3 => Ok(PlacementStrategy::NumaAware),
            _ => Err(simcore::snapshot::SnapshotError::Malformed("bad PlacementStrategy tag")),
        }
    }
}

impl simcore::snapshot::Snapshot for Placement {
    fn snapshot(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        w.put(&self.strategy);
        w.put(&self.nodes);
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        Ok(Placement { strategy: r.get()?, nodes: r.get()? })
    }
}

impl Placement {
    /// Every rank appears exactly once, and no node holds more ranks than
    /// its shape in `shapes` has slots (validity check).
    pub fn is_valid(&self, job: &JobSpec, shapes: &[NodeShape]) -> bool {
        let mut seen = vec![false; job.ranks()];
        for (node, shape) in self.nodes.iter().zip(shapes) {
            if node.len() > shape.slots() {
                return false;
            }
            for &r in node {
                if r >= seen.len() || seen[r] {
                    return false;
                }
                seen[r] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Estimated per-iteration completion time of one core running loads
/// `a` and `b` (either may be absent) under the local scheduler.
///
/// Speeds mirror the chip calibration for compute-bound code: equal
/// priority 0.8 each; boosted pair (diff 2) 0.92 / 0.248. The local
/// scheduler converges to whichever configuration is faster.
pub fn core_time(a: Option<f64>, b: Option<f64>, hpc: bool) -> f64 {
    match (a, b) {
        (None, None) => 0.0,
        (Some(x), None) | (None, Some(x)) => x / 0.8, // sibling idle-spins
        (Some(x), Some(y)) => {
            let (hi, lo) = if x >= y { (x, y) } else { (y, x) };
            let balanced = hi / 0.8;
            if !hpc {
                return balanced;
            }
            let boosted = (hi / 0.92).max(lo / 0.248);
            balanced.min(boosted)
        }
    }
}

/// Equal-share analytic estimate for a core wider than 2-way: `n` busy
/// contexts each get the k=3 decode-sharing throughput `3/(n+2)` (the
/// Table-I curve at share `1/n`), so the core finishes with its heaviest
/// load at that speed. Idle contexts snooze (no decode pressure).
pub fn wide_core_time(loads: impl IntoIterator<Item = f64>) -> f64 {
    let (busy, heaviest) =
        loads.into_iter().fold((0usize, 0.0_f64), |(n, max), l| (n + 1, max.max(l)));
    if busy == 0 {
        return 0.0;
    }
    heaviest * (busy as f64 + 2.0) / 3.0
}

/// Estimated per-iteration completion of a node of `shape` given its slot
/// assignment (slot `i` is CPU `i`): the slowest core's [`core_time`].
/// Cores come from the shape's scheduling-domain tree (pairwise decode
/// calibration for ≤2-way cores, the equal-share analytic curve for wider
/// SMT), and the result is divided by the node's relative speed.
pub fn node_time_on(job: &JobSpec, slots: &[usize], hpc: bool, shape: &NodeShape) -> f64 {
    let topo = &shape.topology;
    let load = |i: usize| slots.get(i).map(|&r| job.rank_loads[r]);
    let width = topo.max_smt_width().max(1);
    let mut worst = 0.0_f64;
    let mut base = 0;
    while base < topo.num_cpus() {
        let t = match width {
            1 => core_time(load(base), None, hpc),
            2 => core_time(load(base), load(base + 1), hpc),
            _ => wide_core_time((0..width).filter_map(|i| load(base + i))),
        };
        worst = worst.max(t);
        base += width;
    }
    worst / shape.speed
}

/// Compute a placement of `job` over the node catalog `shapes`, or say
/// why it cannot be done. Each node offers `shapes[n].slots()` CPU slots,
/// effective loads are scaled by the node's speed, and the SMT/NUMA-aware
/// strategies estimate completion on each node's actual scheduling-domain
/// tree.
pub fn place_on(
    job: &JobSpec,
    shapes: &[NodeShape],
    strategy: PlacementStrategy,
) -> Result<Placement, PlacementError> {
    place_with(job, shapes, strategy, &mut PlaceScratch::default())
}

/// The working vectors of a placement search, kept by a caller that
/// places many jobs so that only the [`Placement`] itself is allocated.
#[derive(Default)]
pub(crate) struct PlaceScratch {
    slots_of: Vec<usize>,
    order: Vec<usize>,
    loads: Vec<f64>,
    sorted: Vec<usize>,
    paired: Vec<usize>,
}

/// [`place_on`] with the search's working vectors in `scratch`.
pub(crate) fn place_with(
    job: &JobSpec,
    shapes: &[NodeShape],
    strategy: PlacementStrategy,
    scratch: &mut PlaceScratch,
) -> Result<Placement, PlacementError> {
    if shapes.is_empty() {
        return Err(PlacementError::NoNodes);
    }
    let PlaceScratch { slots_of, order, loads, sorted, paired } = scratch;
    slots_of.clear();
    slots_of.extend(shapes.iter().map(NodeShape::slots));
    let total: usize = slots_of.iter().sum();
    let does_not_fit = PlacementError::DoesNotFit { ranks: job.ranks(), slots: total };
    if job.ranks() > total {
        return Err(does_not_fit);
    }
    let num_nodes = shapes.len();
    let nodes = match strategy {
        PlacementStrategy::RoundRobin => {
            let mut nodes = vec![Vec::new(); num_nodes];
            for r in 0..job.ranks() {
                // Rank r goes to node r mod n, skipping nodes already full
                // (narrow nodes in a heterogeneous catalog fill early).
                // INVARIANT: the fit check above guarantees a free slot
                // exists, so the cyclic scan terminates.
                let mut n = r % num_nodes;
                while nodes[n].len() >= slots_of[n] {
                    n = (n + 1) % num_nodes;
                }
                nodes[n].push(r);
            }
            nodes
        }
        PlacementStrategy::GreedyLpt => {
            heaviest_first(job, order);
            let mut nodes = vec![Vec::new(); num_nodes];
            loads.clear();
            loads.resize(num_nodes, 0.0);
            for &r in order.iter() {
                // Least *effective* load (total / speed) with a free slot;
                // ties to lowest index. The fit check above guarantees a
                // free slot, so the error is unreachable.
                let n = (0..num_nodes)
                    .filter(|&n| nodes[n].len() < slots_of[n])
                    .min_by(|&a, &b| {
                        (loads[a] / shapes[a].speed)
                            .total_cmp(&(loads[b] / shapes[b].speed))
                            .then(a.cmp(&b))
                    })
                    .ok_or(does_not_fit)?;
                nodes[n].push(r);
                loads[n] += job.rank_loads[r];
            }
            nodes
        }
        PlacementStrategy::SmtAware | PlacementStrategy::NumaAware => {
            let numa = strategy == PlacementStrategy::NumaAware;
            heaviest_first(job, order);
            // Ranks are placed heaviest first, so every node's ranks stay
            // sorted heaviest first (ties by rank) as they are pushed.
            let mut nodes: Vec<Vec<usize>> =
                slots_of.iter().map(|&slots| Vec::with_capacity(slots)).collect();
            // Every candidate reuses `sorted` and `paired`: a node's ranks
            // plus the candidate rank, which is still heaviest first, and
            // the same ranks in slot order.
            for &r in order.iter() {
                // Try the rank in every free slot of every node; keep the
                // assignment with the smallest resulting node time
                // (estimated under the local HPCSched), breaking ties
                // toward the emptier node to keep slots available.
                let mut best: Option<(f64, usize, usize)> = None; // (time, node, len)
                for (n, slots) in nodes.iter().enumerate() {
                    if slots.len() >= slots_of[n] {
                        continue;
                    }
                    sorted.clear();
                    sorted.extend_from_slice(slots);
                    sorted.push(r);
                    slot_order(sorted, &shapes[n], paired);
                    let mut t = node_time_on(job, paired, true, &shapes[n]);
                    if numa {
                        t *= numa_spread_penalty(paired.len(), &shapes[n]);
                    }
                    let key = (t, slots.len());
                    if best.map(|(bt, _, bl)| key < (bt, bl)).unwrap_or(true) {
                        best = Some((t, n, slots.len()));
                    }
                }
                // The fit check above guarantees ranks ≤ total slots, so
                // some node still had a free slot: the error is unreachable.
                let (_, n, _) = best.ok_or(does_not_fit)?;
                nodes[n].push(r);
            }
            for (n, slots) in nodes.iter_mut().enumerate() {
                slot_order(slots, &shapes[n], paired);
                slots.copy_from_slice(paired);
            }
            nodes
        }
    };
    Ok(Placement { strategy, nodes })
}

/// Fill `order` with `job`'s ranks, heaviest first, ties by rank. The
/// order is total, so the unstable sort, which never allocates, gives the
/// stable sort's result.
fn heaviest_first(job: &JobSpec, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..job.ranks());
    order.sort_unstable_by(|&a, &b| {
        job.rank_loads[b].total_cmp(&job.rank_loads[a]).then(a.cmp(&b))
    });
}

/// Intra-node slot ordering for ranks sorted heaviest-first, written to
/// `out`: heavy/light pairing on 2-way cores (where decode arbitration
/// rewards the mix); heaviest-first otherwise (the equal-share wide-core
/// model and 1-way cores are order-insensitive).
fn slot_order(sorted: &[usize], shape: &NodeShape, out: &mut Vec<usize>) {
    out.clear();
    if shape.topology.max_smt_width() == 2 {
        pair_heavy_light(sorted, out);
    } else {
        out.extend_from_slice(sorted);
    }
}

/// Worst pairwise NUMA distance among a node's first `occupied` CPU slots,
/// relative to the local distance — 1.0 while a gang fits inside one NUMA
/// node, larger once it spans the boundary.
fn numa_spread_penalty(occupied: usize, shape: &NodeShape) -> f64 {
    let topo = &shape.topology;
    if occupied == 0 {
        return 1.0;
    }
    let node_of = |slot: usize| topo.numa_node_of(CpuId(slot));
    let local = topo.numa_distance(node_of(0), node_of(0));
    let mut worst = local;
    for a in 0..occupied {
        for b in (a + 1)..occupied {
            worst = worst.max(topo.numa_distance(node_of(a), node_of(b)));
        }
    }
    worst as f64 / local as f64
}

/// Given ranks sorted heaviest-first, append them to `out` in CPU-slot
/// order so each core gets (heaviest remaining, lightest remaining):
/// `[h0, l0, h1, l1]` — core 0 gets h0+l0, core 1 gets h1+l1.
fn pair_heavy_light(sorted: &[usize], out: &mut Vec<usize>) {
    let mut lo = 0usize;
    let mut hi = sorted.len();
    while lo < hi {
        out.push(sorted[lo]);
        lo += 1;
        if lo < hi {
            hi -= 1;
            out.push(sorted[hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::TopoPreset;
    use crate::sim::FleetShape;
    use power5::Topology;
    use proptest::prelude::*;

    fn job4x2() -> JobSpec {
        // Two heavy, six light ranks over two nodes.
        JobSpec::new("j", vec![0.4, 0.1, 0.4, 0.1, 0.1, 0.1, 0.1, 0.1], 10)
    }

    /// A uniform catalog of `n` reference nodes.
    fn reference(n: usize) -> Vec<NodeShape> {
        vec![NodeShape::default(); n]
    }

    #[test]
    fn all_strategies_produce_valid_placements() {
        let job = job4x2();
        for s in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::GreedyLpt,
            PlacementStrategy::SmtAware,
            PlacementStrategy::NumaAware,
        ] {
            let p = place_on(&job, &reference(2), s).expect("fits");
            assert!(p.is_valid(&job, &reference(2)), "{s:?}: {p:?}");
        }
    }

    #[test]
    fn round_robin_skips_full_narrow_nodes() {
        let job = JobSpec::new("j", vec![0.1; 5], 1);
        let shapes =
            vec![NodeShape::default(), NodeShape::new(Topology::single_core_st(), 1.0)];
        let p = place_on(&job, &shapes, PlacementStrategy::RoundRobin).expect("fits");
        assert!(p.is_valid(&job, &shapes));
        assert_eq!(p.nodes[0], vec![0, 2, 3, 4], "single-slot node fills after one rank");
        assert_eq!(p.nodes[1], vec![1]);
    }

    #[test]
    fn lpt_prefers_the_faster_node() {
        // Equal total loads: the 2× node has half the effective load, so
        // LPT keeps feeding it until effective loads even out.
        let job = JobSpec::new("j", vec![0.2; 6], 1);
        let shapes = vec![
            NodeShape::default(),
            NodeShape::new(TopoPreset::TwoSocket.topology(), 2.0),
        ];
        let p = place_on(&job, &shapes, PlacementStrategy::GreedyLpt).expect("fits");
        assert!(p.is_valid(&job, &shapes));
        assert!(
            p.nodes[1].len() == 2 * p.nodes[0].len(),
            "fast node carries twice the ranks: {:?}",
            p.nodes
        );
    }

    #[test]
    fn numa_aware_avoids_spanning_the_numa_boundary() {
        // One 2-NUMA 8-slot node plus one half-speed reference node, five
        // equal ranks. SmtAware packs all five into the big node (its
        // per-core estimate never moves); NumaAware spills the fifth to
        // the slow node rather than cross the NUMA boundary.
        let job = JobSpec::new("j", vec![0.1; 5], 10);
        let shapes = vec![TopoPreset::Numa.shape(1.0), TopoPreset::Openpower710.shape(0.5)];
        let smt = place_on(&job, &shapes, PlacementStrategy::SmtAware).expect("fits");
        assert!(smt.is_valid(&job, &shapes), "5 ranks fit the 8-slot node: {:?}", smt.nodes);
        assert!(smt.nodes[1].is_empty(), "{:?}", smt.nodes);
        let numa = place_on(&job, &shapes, PlacementStrategy::NumaAware).expect("fits");
        assert!(numa.is_valid(&job, &shapes));
        assert_eq!(numa.nodes[0].len(), 4, "{:?}", numa.nodes);
        assert_eq!(numa.nodes[1].len(), 1, "{:?}", numa.nodes);
    }

    #[test]
    fn wide_core_equal_share_model() {
        assert_eq!(wide_core_time([]), 0.0);
        // Solo context on a snoozing wide core runs at full speed.
        assert!((wide_core_time([0.3]) - 0.3).abs() < 1e-12);
        // 4 busy contexts at 3/(4+2) = 0.5 each: heaviest 0.4 takes 0.8.
        assert!((wide_core_time([0.4, 0.1, 0.1, 0.1]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn round_robin_interleaves() {
        let job = job4x2();
        let p = place_on(&job, &reference(2), PlacementStrategy::RoundRobin).expect("fits");
        assert_eq!(p.nodes[0], vec![0, 2, 4, 6]);
        assert_eq!(p.nodes[1], vec![1, 3, 5, 7]);
    }

    #[test]
    fn lpt_balances_total_load() {
        let job = job4x2();
        let p = place_on(&job, &reference(2), PlacementStrategy::GreedyLpt).expect("fits");
        let [l0, l1]: [f64; 2] =
            [0, 1].map(|n| p.nodes[n].iter().map(|&r| job.rank_loads[r]).sum());
        assert!((l0 - l1).abs() < 0.11, "node loads {l0} vs {l1}");
    }

    #[test]
    fn smt_aware_pairs_heavy_with_light() {
        let job = job4x2();
        let p = place_on(&job, &reference(2), PlacementStrategy::SmtAware).expect("fits");
        for slots in &p.nodes {
            // Slot 0 (heavy) and slot 1 (its core sibling) must differ in
            // load when the node holds both classes.
            if slots.len() == 4 {
                let c0 = (job.rank_loads[slots[0]], job.rank_loads[slots[1]]);
                assert!(c0.0 >= c0.1, "heavy first on core 0: {c0:?}");
            }
        }
        // The two heavy ranks must not share a core.
        for slots in &p.nodes {
            for pair in [[0usize, 1], [2, 3]] {
                if let (Some(&a), Some(&b)) = (slots.get(pair[0]), slots.get(pair[1])) {
                    assert!(
                        !(job.rank_loads[a] > 0.3 && job.rank_loads[b] > 0.3),
                        "two heavy ranks on one core: {slots:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn core_time_model() {
        // Sibling idle.
        assert!((core_time(Some(0.4), None, true) - 0.5).abs() < 1e-12);
        // Balanced pair is better when loads are equal.
        let equal = core_time(Some(0.4), Some(0.4), true);
        assert!((equal - 0.5).abs() < 1e-12);
        // Boost wins for a 4:1 pair.
        let imb = core_time(Some(0.4), Some(0.1), true);
        assert!(imb < 0.5, "boosted {imb}");
        // Without HPCSched there is no boost option.
        assert!((core_time(Some(0.4), Some(0.1), false) - 0.5).abs() < 1e-12);
        // A node's time is its slowest core's, divided by its speed: both
        // 4:1 pairs boost to 0.4 / 0.92, and a 1.25× node takes 1/1.25 of it.
        let fast = NodeShape::new(Topology::openpower_710(), 1.25);
        let t = node_time_on(&job4x2(), &[0, 1, 2, 3], true, &fast);
        assert!((t - 0.4 / 0.92 / 1.25).abs() < 1e-12, "{t}");
    }

    #[test]
    fn overfull_job_is_a_typed_error_not_a_panic() {
        let job = JobSpec::new("big", vec![0.1; 9], 1);
        for s in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::GreedyLpt,
            PlacementStrategy::SmtAware,
        ] {
            assert_eq!(
                place_on(&job, &reference(2), s),
                Err(PlacementError::DoesNotFit { ranks: 9, slots: 8 }),
                "{s:?}"
            );
        }
        assert_eq!(place_on(&job, &[], PlacementStrategy::GreedyLpt), Err(PlacementError::NoNodes));
        let msg = PlacementError::DoesNotFit { ranks: 9, slots: 8 }.to_string();
        assert!(msg.contains("9 ranks on 8 slots"), "{msg}");
    }

    #[test]
    fn pair_heavy_light_orders() {
        let paired = |sorted: &[usize]| {
            let mut out = Vec::new();
            pair_heavy_light(sorted, &mut out);
            out
        };
        assert_eq!(paired(&[10, 20, 30, 40]), vec![10, 40, 20, 30]);
        assert_eq!(paired(&[1, 2, 3]), vec![1, 3, 2]);
        assert_eq!(paired(&[7]), vec![7]);
    }

    /// `place_on` as it was before its search reused scratch buffers (a
    /// fresh `Vec` per rank × node candidate), kept as the reference the
    /// property test below holds the current one to.
    mod reference {
        use super::super::{core_time, numa_spread_penalty, wide_core_time};
        use super::super::{Placement, PlacementError, PlacementStrategy};
        use crate::job::JobSpec;
        use crate::shape::NodeShape;

        fn node_time_on(job: &JobSpec, slots: &[usize], hpc: bool, shape: &NodeShape) -> f64 {
            let topo = &shape.topology;
            let load = |i: usize| slots.get(i).map(|&r| job.rank_loads[r]);
            let width = topo.max_smt_width().max(1);
            let mut worst = 0.0_f64;
            let mut base = 0;
            while base < topo.num_cpus() {
                let t = match width {
                    1 => core_time(load(base), None, hpc),
                    2 => core_time(load(base), load(base + 1), hpc),
                    _ => {
                        let busy: Vec<f64> = (0..width).filter_map(|i| load(base + i)).collect();
                        wide_core_time(busy.iter().copied())
                    }
                };
                worst = worst.max(t);
                base += width;
            }
            worst / shape.speed
        }

        pub(super) fn place_on(
            job: &JobSpec,
            shapes: &[NodeShape],
            strategy: PlacementStrategy,
        ) -> Result<Placement, PlacementError> {
            if shapes.is_empty() {
                return Err(PlacementError::NoNodes);
            }
            let slots_of: Vec<usize> = shapes.iter().map(NodeShape::slots).collect();
            let total: usize = slots_of.iter().sum();
            let does_not_fit = PlacementError::DoesNotFit { ranks: job.ranks(), slots: total };
            if job.ranks() > total {
                return Err(does_not_fit);
            }
            let num_nodes = shapes.len();
            let nodes = match strategy {
                PlacementStrategy::RoundRobin => {
                    let mut nodes = vec![Vec::new(); num_nodes];
                    for r in 0..job.ranks() {
                        // Rank r goes to node r mod n, skipping nodes already full
                        // (narrow nodes in a heterogeneous catalog fill early).
                        // INVARIANT: the fit check above guarantees a free slot
                        // exists, so the cyclic scan terminates.
                        let mut n = r % num_nodes;
                        while nodes[n].len() >= slots_of[n] {
                            n = (n + 1) % num_nodes;
                        }
                        nodes[n].push(r);
                    }
                    nodes
                }
                PlacementStrategy::GreedyLpt => {
                    let mut order: Vec<usize> = (0..job.ranks()).collect();
                    order.sort_by(|&a, &b| {
                        job.rank_loads[b].total_cmp(&job.rank_loads[a]).then(a.cmp(&b))
                    });
                    let mut nodes = vec![Vec::new(); num_nodes];
                    let mut loads = vec![0.0f64; num_nodes];
                    for r in order {
                        // Least *effective* load (total / speed) with a free slot;
                        // ties to lowest index. The fit check above guarantees a
                        // free slot, so the error is unreachable.
                        let n = (0..num_nodes)
                            .filter(|&n| nodes[n].len() < slots_of[n])
                            .min_by(|&a, &b| {
                                (loads[a] / shapes[a].speed)
                                    .total_cmp(&(loads[b] / shapes[b].speed))
                                    .then(a.cmp(&b))
                            })
                            .ok_or(does_not_fit)?;
                        nodes[n].push(r);
                        loads[n] += job.rank_loads[r];
                    }
                    nodes
                }
                PlacementStrategy::SmtAware | PlacementStrategy::NumaAware => {
                    let numa = strategy == PlacementStrategy::NumaAware;
                    let mut order: Vec<usize> = (0..job.ranks()).collect();
                    order.sort_by(|&a, &b| {
                        job.rank_loads[b].total_cmp(&job.rank_loads[a]).then(a.cmp(&b))
                    });
                    let mut nodes: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
                    for r in order {
                        // Try the rank in every free slot of every node; keep the
                        // assignment with the smallest resulting node time
                        // (estimated under the local HPCSched), breaking ties
                        // toward the emptier node to keep slots available.
                        let mut best: Option<(f64, usize, usize)> = None; // (time, node, len)
                        for (n, slots) in nodes.iter().enumerate() {
                            if slots.len() >= slots_of[n] {
                                continue;
                            }
                            let mut candidate = slots.clone();
                            candidate.push(r);
                            candidate.sort_by(|&a, &b| {
                                job.rank_loads[b].total_cmp(&job.rank_loads[a])
                            });
                            let paired = slot_order(&candidate, &shapes[n]);
                            let mut t = node_time_on(job, &paired, true, &shapes[n]);
                            if numa {
                                t *= numa_spread_penalty(paired.len(), &shapes[n]);
                            }
                            let key = (t, slots.len());
                            if best.map(|(bt, _, bl)| key < (bt, bl)).unwrap_or(true) {
                                best = Some((t, n, slots.len()));
                            }
                        }
                        // The fit check above guarantees ranks ≤ total slots, so
                        // some node still had a free slot: the error is unreachable.
                        let (_, n, _) = best.ok_or(does_not_fit)?;
                        nodes[n].push(r);
                    }
                    for (n, slots) in nodes.iter_mut().enumerate() {
                        slots.sort_by(|&a, &b| job.rank_loads[b].total_cmp(&job.rank_loads[a]));
                        *slots = slot_order(slots, &shapes[n]);
                    }
                    nodes
                }
            };
            Ok(Placement { strategy, nodes })
        }

        fn slot_order(sorted: &[usize], shape: &NodeShape) -> Vec<usize> {
            if shape.topology.max_smt_width() == 2 {
                pair_heavy_light(sorted)
            } else {
                sorted.to_vec()
            }
        }

        fn pair_heavy_light(sorted: &[usize]) -> Vec<usize> {
            let mut out = Vec::with_capacity(sorted.len());
            let mut lo = 0usize;
            let mut hi = sorted.len();
            while lo < hi {
                out.push(sorted[lo]);
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    out.push(sorted[hi]);
                }
            }
            out
        }
    }

    fn arb_load() -> impl Strategy<Value = f64> {
        // A few fixed values make tied loads common.
        prop_oneof![Just(0.1), Just(0.4), Just(0.25), 0.01f64..1.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// The scratch-buffer search places every job exactly as the
        /// reference does, for every strategy on uniform, preset and
        /// mixed catalogs, with room for one extra node.
        #[test]
        fn place_on_equals_the_reference(
            loads in proptest::collection::vec(arb_load(), 1..=40),
            extra in 0usize..2,
        ) {
            let job = JobSpec::new("p", loads, 3);
            let nodes = job.ranks().div_ceil(NODE_SLOTS) + extra;
            let shapes = [FleetShape::Uniform, FleetShape::Mixed]
                .into_iter()
                .chain(TopoPreset::ALL.into_iter().map(FleetShape::Preset));
            for shape in shapes {
                let catalog = shape.catalog(nodes);
                for strategy in [
                    PlacementStrategy::RoundRobin,
                    PlacementStrategy::GreedyLpt,
                    PlacementStrategy::SmtAware,
                    PlacementStrategy::NumaAware,
                ] {
                    prop_assert_eq!(
                        place_on(&job, &catalog, strategy),
                        reference::place_on(&job, &catalog, strategy),
                        "{:?} on {}", strategy, shape.label()
                    );
                }
            }
        }
    }
}
