//! Heterogeneous node catalogs: the hardware shape of each cluster node.
//!
//! The paper's cluster-level future work assumes identical POWER5 nodes;
//! real fleets mix generations. A [`NodeShape`] pairs a node's
//! scheduling-domain tree ([`power5::Topology`]) with a relative speed
//! factor, and [`TopoPreset`] names the shapes the experiments mix
//! (reference OpenPower 710, a 2-socket box, a 2-NUMA-node box, and a
//! wide-SMT single core).

use std::sync::Arc;

use power5::Topology;
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// The hardware shape of one cluster node: its scheduling-domain tree plus
/// a relative speed factor (1.0 = the paper's reference OpenPower 710;
/// loads are divided by the speed before they reach the node kernel).
/// The tree is shared: cloning a shape, and building a node kernel on it
/// ([`crate::run_node`]), copies no part of it.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeShape {
    pub topology: Arc<Topology>,
    pub speed: f64,
}

impl Default for NodeShape {
    fn default() -> Self {
        NodeShape::new(Topology::openpower_710(), 1.0)
    }
}

impl NodeShape {
    pub fn new(topology: impl Into<Arc<Topology>>, speed: f64) -> Self {
        NodeShape { topology: topology.into(), speed }
    }

    /// CPU slots this node offers (one rank per logical CPU).
    pub fn slots(&self) -> usize {
        self.topology.num_cpus()
    }
}

impl Snapshot for NodeShape {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&*self.topology);
        w.put_f64(self.speed);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeShape::new(r.get::<Topology>()?, r.get_f64()?))
    }
}

/// Named node shapes for heterogeneous catalogs — the topology presets the
/// experiment binaries mix into fleets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoPreset {
    /// The paper's reference node: 1 chip × 2 cores × 2 threads.
    Openpower710,
    /// A 2-socket box: 2 sockets × 2 dual-thread cores (8 CPUs).
    TwoSocket,
    /// A 2-NUMA-node box: 2 NUMA nodes × 2 dual-thread cores (8 CPUs).
    Numa,
    /// A single 4-way SMT core (the n-way analytic decode model).
    WideSmt,
}

impl TopoPreset {
    pub const ALL: [TopoPreset; 4] =
        [TopoPreset::Openpower710, TopoPreset::TwoSocket, TopoPreset::Numa, TopoPreset::WideSmt];

    pub fn label(self) -> &'static str {
        match self {
            TopoPreset::Openpower710 => "openpower-710",
            TopoPreset::TwoSocket => "2-socket",
            TopoPreset::Numa => "numa",
            TopoPreset::WideSmt => "wide-smt",
        }
    }

    pub fn parse(s: &str) -> Option<TopoPreset> {
        TopoPreset::ALL.into_iter().find(|p| p.label() == s)
    }

    /// The preset's scheduling-domain tree.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: every label above is registered in `Topology::preset`; the \
                  round-trip is covered by `presets_resolve` below."
    )]
    pub fn topology(self) -> Topology {
        Topology::preset(self.label()).expect("preset names are registered")
    }

    /// A [`NodeShape`] of this preset at the given relative speed.
    pub fn shape(self, speed: f64) -> NodeShape {
        NodeShape::new(self.topology(), speed)
    }
}

impl Snapshot for TopoPreset {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            TopoPreset::Openpower710 => 0,
            TopoPreset::TwoSocket => 1,
            TopoPreset::Numa => 2,
            TopoPreset::WideSmt => 3,
        });
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(TopoPreset::Openpower710),
            1 => Ok(TopoPreset::TwoSocket),
            2 => Ok(TopoPreset::Numa),
            3 => Ok(TopoPreset::WideSmt),
            _ => Err(SnapshotError::Malformed("bad TopoPreset tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_is_the_reference_node() {
        let s = NodeShape::default();
        assert_eq!(*s.topology, Topology::openpower_710());
        assert_eq!(s.speed, 1.0);
        assert_eq!(s.slots(), 4);
    }

    #[test]
    fn presets_resolve() {
        for p in TopoPreset::ALL {
            let t = p.topology();
            assert!(t.num_cpus() > 0, "{}", p.label());
            assert_eq!(TopoPreset::parse(p.label()), Some(p));
        }
        assert_eq!(TopoPreset::TwoSocket.topology().num_cpus(), 8);
        assert_eq!(TopoPreset::Numa.topology().numa_count(), 2);
        assert_eq!(TopoPreset::WideSmt.topology().max_smt_width(), 4);
        assert_eq!(TopoPreset::parse("power6"), None);
    }

    #[test]
    fn shapes_snapshot_round_trip() {
        for p in TopoPreset::ALL {
            let shape = p.shape(1.25);
            let mut w = SnapshotWriter::new();
            w.put(&shape);
            w.put(&p);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes).unwrap();
            assert_eq!(NodeShape::restore(&mut r).unwrap(), shape);
            assert_eq!(TopoPreset::restore(&mut r).unwrap(), p);
        }
    }
}
