//! Processor topology: an explicit scheduling-domain tree.
//!
//! Linux sees each hardware context (SMT thread) as one CPU. The paper's
//! evaluation machine is an IBM OpenPower 710 with a single POWER5: one chip,
//! two cores, two contexts per core — four logical CPUs, balanced over a
//! three-level domain hierarchy (paper §IV-A). The fleet the ROADMAP aims at
//! is bigger than that triple: nodes are *trees* (SMT ⊂ core ⊂ socket ⊂
//! NUMA node ⊂ machine) of arbitrary depth, in the spirit of Thibault's
//! bubble scheduler, and each level has its own migration cost.
//!
//! A [`Topology`] is a *regular* tree described innermost-first by its
//! [`Level`]s: `levels[0]` groups hardware contexts into its
//! [`LevelKind`] unit (usually a core), each further level groups the
//! units below it, and the last level is always the machine root. Because
//! the tree is regular, every domain is a contiguous CPU range and all
//! domain arithmetic is O(1) index math — no per-call linear filters.
//!
//! Shapes are written in a compact spec grammar, outermost container
//! first: `2s2c2t` is two sockets of two cores of two SMT threads;
//! `2x2x2c2t` adds untagged outer levels that are assigned the next
//! hierarchy positions (socket, NUMA, ...) automatically. Named presets
//! (`openpower-710`, `2-socket`, `numa`, `wide-smt`, ...) parse through
//! the same entry point, and [`Topology::render_spec`] is the canonical
//! inverse of [`Topology::parse`].

use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;
use std::ops::Range;

/// Index of a chip in the machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChipId(pub usize);

/// Global index of a core (across all chips).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub usize);

/// Index of a context *within its core* (0 or 1 on POWER5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContextId(pub usize);

/// A logical CPU: what the OS schedules on. One per hardware context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub usize);

impl fmt::Debug for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// What kind of unit a tree level groups the level below into.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LevelKind {
    /// A core grouping its SMT hardware contexts.
    Core,
    /// A socket (physical chip) grouping cores.
    Socket,
    /// A NUMA node grouping sockets (or cores directly).
    Numa,
    /// The machine root — always, and only, the outermost level.
    Machine,
    /// An extra grouping level beyond the named ones (board, rack, ...),
    /// numbered from the innermost custom level outwards.
    Custom(u8),
}

impl LevelKind {
    /// Human-readable label (`core`, `socket`, `numa`, `machine`, `x0`...).
    pub fn label(&self) -> String {
        match self {
            LevelKind::Core => "core".into(),
            LevelKind::Socket => "socket".into(),
            LevelKind::Numa => "numa".into(),
            LevelKind::Machine => "machine".into(),
            LevelKind::Custom(j) => format!("x{j}"),
        }
    }
}

/// One level of the scheduling-domain tree: `width` units of the level
/// below form one unit of this level's `kind`, and migrating a task
/// between two CPUs whose lowest common domain is this level costs
/// `cost` (abstract units, monotone non-decreasing toward the root).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Level {
    pub kind: LevelKind,
    pub width: usize,
    pub cost: u32,
}

/// Why a topology could not be built. The old constructor's
/// `threads_per_core <= 2` panic is gone: wide SMT is a valid shape (the
/// analytic performance model covers it); only genuinely malformed trees
/// are errors, and they are typed, not panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A level has width 0 — the tree would contain no CPUs.
    ZeroWidth,
    /// The tree describes more CPUs than the simulator will model.
    TooManyCpus { cpus: usize, max: usize },
    /// The tree describes more NUMA nodes than the simulator will model
    /// (its distance matrix is `nodes × nodes`).
    TooManyNumaNodes { nodes: usize, max: usize },
    /// Migration costs must not decrease toward the root.
    NonMonotoneCost { level: usize },
    /// The spec string does not parse.
    Spec(String),
    /// The NUMA distance matrix is malformed.
    BadDistances(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroWidth => write!(f, "empty topology (a level has width 0)"),
            TopologyError::TooManyCpus { cpus, max } => {
                write!(f, "topology has {cpus} CPUs; the simulator caps at {max}")
            }
            TopologyError::TooManyNumaNodes { nodes, max } => {
                write!(f, "topology has {nodes} NUMA nodes; the simulator caps at {max}")
            }
            TopologyError::NonMonotoneCost { level } => {
                write!(f, "migration cost decreases at level {level}; costs must be monotone toward the root")
            }
            TopologyError::Spec(msg) => write!(f, "bad topology spec: {msg}"),
            TopologyError::BadDistances(msg) => write!(f, "bad NUMA distance matrix: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Hard cap on modelled CPUs, so a typo'd spec fails typed instead of
/// allocating the world.
pub const MAX_CPUS: usize = 1 << 16;
/// Hard cap on NUMA nodes: the default distance matrix has one entry per
/// pair of nodes, so the CPU cap alone would let a spec such as `65536n`
/// ask for 2^32 of them.
pub const MAX_NUMA_NODES: usize = 256;
/// Hard cap on tree depth.
pub const MAX_LEVELS: usize = 12;

/// Default NUMA distances in the ACPI SLIT convention: local 10,
/// remote 20.
const NUMA_LOCAL: u32 = 10;
const NUMA_REMOTE: u32 = 20;

/// Static machine topology: a regular scheduling-domain tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Innermost-first; the last entry is always the machine root.
    levels: Vec<Level>,
    /// `spans[l]` = CPUs per one level-`l` unit (cumulative width product).
    spans: Vec<usize>,
    /// `numa_count x numa_count` distance matrix (SLIT convention).
    numa_distances: Vec<Vec<u32>>,
}

fn default_cost(kind: LevelKind) -> u32 {
    match kind {
        LevelKind::Core => 3,
        LevelKind::Socket => 10,
        LevelKind::Numa => 30,
        LevelKind::Custom(j) => 40 + 10 * u32::from(j),
        LevelKind::Machine => 50,
    }
}

impl Topology {
    /// Build a tree from explicit levels (innermost-first; the last must
    /// be the `Machine` root). Validates widths, depth, the CPU and NUMA
    /// node caps, and cost monotonicity, then derives spans and default
    /// NUMA distances.
    pub fn try_from_levels(levels: Vec<Level>) -> Result<Topology, TopologyError> {
        if levels.is_empty() || levels.len() > MAX_LEVELS {
            return Err(TopologyError::Spec(format!(
                "tree depth must be 1..={MAX_LEVELS}, got {}",
                levels.len()
            )));
        }
        if levels.last().map(|l| l.kind) != Some(LevelKind::Machine) {
            return Err(TopologyError::Spec("the outermost level must be the machine root".into()));
        }
        let mut spans = Vec::with_capacity(levels.len());
        let mut span = 1usize;
        for (i, level) in levels.iter().enumerate() {
            if level.width == 0 {
                return Err(TopologyError::ZeroWidth);
            }
            span = span.checked_mul(level.width).filter(|&s| s <= MAX_CPUS).ok_or(
                TopologyError::TooManyCpus { cpus: usize::MAX, max: MAX_CPUS },
            )?;
            spans.push(span);
            if i > 0 && level.cost < levels[i - 1].cost {
                return Err(TopologyError::NonMonotoneCost { level: i });
            }
        }
        let mut t = Topology { levels, spans, numa_distances: Vec::new() };
        let nodes = t.numa_count();
        if nodes > MAX_NUMA_NODES {
            return Err(TopologyError::TooManyNumaNodes { nodes, max: MAX_NUMA_NODES });
        }
        t.numa_distances = t.default_numa_distances();
        Ok(t)
    }

    fn default_numa_distances(&self) -> Vec<Vec<u32>> {
        let n = self.numa_count();
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { NUMA_LOCAL } else { NUMA_REMOTE }).collect())
            .collect()
    }

    /// Replace the NUMA distance matrix. Must be `numa_count x
    /// numa_count`, symmetric, with the diagonal no larger than any
    /// off-diagonal entry in its row.
    // Index pairs (i,j)/(j,i) are the subject of the symmetry check;
    // iterator adapters would obscure that.
    #[allow(clippy::needless_range_loop)]
    pub fn with_numa_distances(mut self, m: Vec<Vec<u32>>) -> Result<Topology, TopologyError> {
        let n = self.numa_count();
        if m.len() != n || m.iter().any(|row| row.len() != n) {
            return Err(TopologyError::BadDistances(format!("expected a {n}x{n} matrix")));
        }
        for i in 0..n {
            for j in 0..n {
                if m[i][j] != m[j][i] {
                    return Err(TopologyError::BadDistances(format!(
                        "not symmetric at ({i},{j})"
                    )));
                }
                if m[i][j] < m[i][i] {
                    return Err(TopologyError::BadDistances(format!(
                        "remote distance ({i},{j}) below local ({i},{i})"
                    )));
                }
            }
        }
        self.numa_distances = m;
        Ok(self)
    }

    /// Override per-level migration costs (innermost-first, one per
    /// level); re-validates monotonicity.
    pub fn with_level_costs(mut self, costs: &[u32]) -> Result<Topology, TopologyError> {
        if costs.len() != self.levels.len() {
            return Err(TopologyError::Spec(format!(
                "expected {} costs, got {}",
                self.levels.len(),
                costs.len()
            )));
        }
        for (level, &c) in self.levels.iter_mut().zip(costs) {
            level.cost = c;
        }
        let distances = std::mem::take(&mut self.numa_distances);
        Topology::try_from_levels(self.levels).map(|mut t| {
            t.numa_distances = distances;
            t
        })
    }

    /// A classic SMP/SMT triple: `chips` sockets of `cores_per_chip`
    /// cores of `threads_per_core` contexts.
    ///
    /// # Panics
    /// If any dimension is zero. Wide SMT (`threads_per_core > 2`) is a
    /// valid shape now: the decode-arbitration table model stays 2-way,
    /// wider cores are covered by the analytic performance model.
    pub fn new(chips: usize, cores_per_chip: usize, threads_per_core: usize) -> Self {
        Topology::try_new(chips, cores_per_chip, threads_per_core).expect("empty topology")
    }

    /// Fallible form of [`Topology::new`].
    pub fn try_new(
        chips: usize,
        cores_per_chip: usize,
        threads_per_core: usize,
    ) -> Result<Topology, TopologyError> {
        if chips == 0 || cores_per_chip == 0 || threads_per_core == 0 {
            return Err(TopologyError::ZeroWidth);
        }
        Topology::try_from_levels(vec![
            Level { kind: LevelKind::Core, width: threads_per_core, cost: default_cost(LevelKind::Core) },
            Level { kind: LevelKind::Socket, width: cores_per_chip, cost: default_cost(LevelKind::Socket) },
            Level { kind: LevelKind::Machine, width: chips, cost: default_cost(LevelKind::Machine) },
        ])
    }

    /// The paper's evaluation machine: one POWER5 chip, 2 cores × 2 SMT.
    pub fn openpower_710() -> Self {
        Topology::new(1, 2, 2)
    }

    /// A single core in single-thread mode (useful in unit tests).
    pub fn single_core_st() -> Self {
        Topology::new(1, 1, 1)
    }

    /// Named preset shapes, the `--topology` vocabulary next to raw specs.
    pub fn preset(name: &str) -> Option<Topology> {
        let spec = match name {
            "openpower-710" => return Some(Topology::openpower_710()),
            "single-core-st" => return Some(Topology::single_core_st()),
            "2-socket" => "2s2c2t",
            // ≥3-level heterogeneous reference tree: 2 NUMA nodes, each
            // holding 2 dual-thread cores.
            "numa" => "2n2c2t",
            // One 4-way SMT core — exercises the analytic wide-SMT model.
            "wide-smt" => "1c4t",
            _ => return None,
        };
        Some(Topology::parse_spec(spec).expect("preset specs parse"))
    }

    /// Parse `--topology` input: a named preset or a spec string.
    pub fn parse(input: &str) -> Result<Topology, TopologyError> {
        let input = input.trim();
        if let Some(t) = Topology::preset(input) {
            return Ok(t);
        }
        Topology::parse_spec(input)
    }

    /// Parse the spec grammar. A spec is a sequence of `<count><tag?>`
    /// tokens, outermost container first, optionally separated by `x`:
    /// tags pin a token to a hierarchy position (`t` threads, `c` cores,
    /// `s` sockets, `n` NUMA nodes), untagged tokens take the next
    /// position inward-out, and positions must strictly ascend (a socket
    /// cannot live inside a core). `2s2c2t` = 2 sockets × 2 cores ×
    /// 2 threads; `2x2x2c2t` = 2 NUMA nodes × 2 sockets × 2 cores ×
    /// 2 threads.
    pub fn parse_spec(spec: &str) -> Result<Topology, TopologyError> {
        // Lex: (count, Option<rank>) tokens, outermost-first as written.
        let mut tokens: Vec<(usize, Option<u8>)> = Vec::new();
        let mut chars = spec.chars().peekable();
        while let Some(&ch) = chars.peek() {
            if ch == 'x' || ch == 'X' {
                chars.next();
                continue;
            }
            if !ch.is_ascii_digit() {
                return Err(TopologyError::Spec(format!("unexpected `{ch}` in `{spec}`")));
            }
            let mut count = 0usize;
            while let Some(&d) = chars.peek() {
                let Some(v) = d.to_digit(10) else { break };
                chars.next();
                count = count
                    .checked_mul(10)
                    .and_then(|c| c.checked_add(v as usize))
                    .ok_or_else(|| TopologyError::Spec(format!("count overflow in `{spec}`")))?;
            }
            let rank = match chars.peek() {
                Some('t' | 'T') => Some(0),
                Some('c' | 'C') => Some(1),
                Some('s' | 'S') => Some(2),
                Some('n' | 'N') => Some(3),
                _ => None,
            };
            if rank.is_some() {
                chars.next();
            }
            tokens.push((count, rank));
        }
        if tokens.is_empty() {
            return Err(TopologyError::Spec(format!("no levels in `{spec}`")));
        }
        // Checked before ranks are assigned: one rank per token, in a `u8`.
        if tokens.len() > MAX_LEVELS {
            return Err(TopologyError::Spec(format!("more than {MAX_LEVELS} levels in `{spec}`")));
        }
        // Assign hierarchy ranks innermost-first: tagged tokens pin their
        // position (skips allowed), untagged take the next one; ranks must
        // strictly ascend outward.
        tokens.reverse();
        let mut ranked: Vec<(usize, u8)> = Vec::with_capacity(tokens.len() + 2);
        let mut next_rank = 0u8;
        for (count, tag) in tokens {
            let rank = match tag {
                Some(r) if r < next_rank => {
                    return Err(TopologyError::Spec(format!(
                        "`{spec}` nests levels out of hierarchy order"
                    )))
                }
                Some(r) => r,
                None => next_rank,
            };
            ranked.push((count, rank));
            next_rank = rank + 1;
        }
        // Normalize: an implicit single thread per innermost unit, and an
        // implicit single-core level when only a thread count was given,
        // so every tree has a Core grouping level.
        if ranked[0].1 != 0 {
            ranked.insert(0, (1, 0));
        }
        if ranked.len() == 1 {
            ranked.push((1, 1));
        }
        // Build levels: level i groups the units counted by token i into
        // the unit of token i+1; the outermost level is the machine root.
        let kind_of_rank = |rank: u8| match rank {
            1 => LevelKind::Core,
            2 => LevelKind::Socket,
            3 => LevelKind::Numa,
            r => LevelKind::Custom(r - 4),
        };
        let mut levels = Vec::with_capacity(ranked.len());
        for i in 0..ranked.len() {
            let kind = if i + 1 == ranked.len() {
                LevelKind::Machine
            } else {
                kind_of_rank(ranked[i + 1].1)
            };
            levels.push(Level { kind, width: ranked[i].0, cost: default_cost(kind) });
        }
        // The machine root cost must dominate whatever custom levels sit
        // below it.
        if let Some((root, inner)) = levels.split_last_mut() {
            let inner_max = inner.iter().map(|l| l.cost).max().unwrap_or(0);
            root.cost = root.cost.max(inner_max.saturating_add(10));
        }
        Topology::try_from_levels(levels)
    }

    /// Render the canonical spec string: `parse(render_spec())`
    /// reproduces the same tree (the round-trip property test).
    pub fn render_spec(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.levels.len());
        for (i, level) in self.levels.iter().enumerate() {
            // Token i counts the units formed by level i-1 (hardware
            // contexts for i == 0).
            let unit = if i == 0 { Some('t') } else {
                match self.levels[i - 1].kind {
                    LevelKind::Core => Some('c'),
                    LevelKind::Socket => Some('s'),
                    LevelKind::Numa => Some('n'),
                    // Custom units render untagged; parse re-assigns them
                    // positionally.
                    LevelKind::Custom(_) => None,
                    LevelKind::Machine => None,
                }
            };
            parts.push(match unit {
                Some(u) => format!("{}{u}", level.width),
                None => format!("{}", level.width),
            });
        }
        parts.reverse();
        // Untagged tokens need an `x` separator so digits don't merge.
        let mut out = String::new();
        for (i, p) in parts.iter().enumerate() {
            if i > 0 && !parts[i - 1].ends_with(|c: char| c.is_ascii_alphabetic()) {
                out.push('x');
            }
            out.push_str(p);
        }
        out
    }

    // ------------------------------------------------------------------
    // Tree API
    // ------------------------------------------------------------------

    /// Number of grouping levels (the machine root included).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, innermost-first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// One level of the tree.
    pub fn level(&self, l: usize) -> &Level {
        &self.levels[l]
    }

    /// CPUs per one level-`l` unit.
    pub fn span(&self, l: usize) -> usize {
        self.spans[l]
    }

    /// Number of level-`l` units in the machine.
    pub fn num_groups(&self, l: usize) -> usize {
        self.num_cpus() / self.spans[l]
    }

    /// The contiguous CPU index range of the level-`l` unit containing
    /// `cpu` — O(1), the tree's replacement for per-domain CPU lists.
    pub fn group_range(&self, cpu: CpuId, l: usize) -> Range<usize> {
        assert!(cpu.0 < self.num_cpus(), "cpu {cpu} out of range");
        let span = self.spans[l];
        let base = (cpu.0 / span) * span;
        base..base + span
    }

    /// Innermost level of the given kind, if the tree has one.
    pub fn level_of_kind(&self, kind: LevelKind) -> Option<usize> {
        self.levels.iter().position(|l| l.kind == kind)
    }

    /// Cost of migrating a task between two CPUs: the cost of the
    /// innermost level whose domain contains both (0 when they are the
    /// same CPU). Monotone non-decreasing in tree distance by
    /// construction.
    pub fn migration_cost(&self, a: CpuId, b: CpuId) -> u32 {
        assert!(a.0 < self.num_cpus() && b.0 < self.num_cpus(), "cpu out of range");
        if a == b {
            return 0;
        }
        for (l, level) in self.levels.iter().enumerate() {
            let span = self.spans[l];
            if a.0 / span == b.0 / span {
                return level.cost;
            }
        }
        // INVARIANT: the machine root spans every CPU, so the loop above
        // always returns.
        unreachable!("machine root contains all CPUs")
    }

    // ------------------------------------------------------------------
    // NUMA
    // ------------------------------------------------------------------

    /// CPUs per NUMA node (the whole machine when the tree has no NUMA
    /// level).
    pub fn numa_span(&self) -> usize {
        self.level_of_kind(LevelKind::Numa)
            .map_or_else(|| self.num_cpus(), |l| self.spans[l])
    }

    /// Number of NUMA nodes.
    pub fn numa_count(&self) -> usize {
        self.num_cpus() / self.numa_span()
    }

    /// The NUMA node a CPU belongs to.
    pub fn numa_node_of(&self, cpu: CpuId) -> usize {
        assert!(cpu.0 < self.num_cpus(), "cpu {cpu} out of range");
        cpu.0 / self.numa_span()
    }

    /// SLIT-style distance between two NUMA nodes (local = 10).
    pub fn numa_distance(&self, a: usize, b: usize) -> u32 {
        self.numa_distances[a][b]
    }

    /// The full distance matrix.
    pub fn numa_distances(&self) -> &[Vec<u32>] {
        &self.numa_distances
    }

    // ------------------------------------------------------------------
    // Classic accessors, derived from the tree
    // ------------------------------------------------------------------

    /// CPUs per core: the span of the innermost `Core` level (1 when the
    /// tree groups contexts into something else directly).
    fn core_span(&self) -> usize {
        self.level_of_kind(LevelKind::Core).map_or(1, |l| self.spans[l])
    }

    /// CPUs per "chip" in the classic sense: the socket span, falling
    /// back to the NUMA node and then the whole machine.
    fn chip_span(&self) -> usize {
        self.level_of_kind(LevelKind::Socket)
            .or_else(|| self.level_of_kind(LevelKind::Numa))
            .map_or_else(|| self.num_cpus(), |l| self.spans[l])
    }

    pub fn num_chips(&self) -> usize {
        self.num_cpus() / self.chip_span()
    }

    pub fn cores_per_chip(&self) -> usize {
        self.chip_span() / self.core_span()
    }

    pub fn threads_per_core(&self) -> usize {
        self.core_span()
    }

    /// Widest core in the machine. The tree is regular, so this equals
    /// [`Topology::threads_per_core`]; model selection keys off it.
    pub fn max_smt_width(&self) -> usize {
        self.core_span()
    }

    pub fn num_cores(&self) -> usize {
        self.num_cpus() / self.core_span()
    }

    /// Total logical CPUs.
    pub fn num_cpus(&self) -> usize {
        *self.spans.last().expect("a topology has at least the machine root")
    }

    /// All CPU ids in the machine.
    pub fn cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.num_cpus()).map(CpuId)
    }

    /// All core ids in the machine.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// The core a CPU belongs to.
    pub fn core_of(&self, cpu: CpuId) -> CoreId {
        assert!(cpu.0 < self.num_cpus(), "cpu {cpu} out of range");
        CoreId(cpu.0 / self.core_span())
    }

    /// The chip a CPU belongs to.
    pub fn chip_of(&self, cpu: CpuId) -> ChipId {
        assert!(cpu.0 < self.num_cpus(), "cpu {cpu} out of range");
        ChipId(cpu.0 / self.chip_span())
    }

    /// Position of a CPU within its core (the hardware context slot).
    pub fn context_of(&self, cpu: CpuId) -> ContextId {
        assert!(cpu.0 < self.num_cpus(), "cpu {cpu} out of range");
        ContextId(cpu.0 % self.core_span())
    }

    /// The CPU ids of a core's hardware contexts, as a contiguous range.
    pub fn core_range(&self, core: CoreId) -> Range<usize> {
        assert!(core.0 < self.num_cores(), "core out of range");
        let base = core.0 * self.core_span();
        base..base + self.core_span()
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::openpower_710()
    }
}

// ----------------------------------------------------------------------
// Snapshot: full-fidelity image of the tree, so checkpoints restore
// custom costs and distance matrices exactly.
// ----------------------------------------------------------------------

const TOPOLOGY_SNAPSHOT_VERSION: u8 = 1;

impl Snapshot for Topology {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u8(TOPOLOGY_SNAPSHOT_VERSION);
        w.put_len(self.levels.len());
        for level in &self.levels {
            let (tag, custom) = match level.kind {
                LevelKind::Core => (0u8, 0u8),
                LevelKind::Socket => (1, 0),
                LevelKind::Numa => (2, 0),
                LevelKind::Machine => (3, 0),
                LevelKind::Custom(j) => (4, j),
            };
            w.put_u8(tag);
            w.put_u8(custom);
            w.put_u64(level.width as u64);
            w.put_u32(level.cost);
        }
        w.put_len(self.numa_distances.len());
        for row in &self.numa_distances {
            for &d in row {
                w.put_u32(d);
            }
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        if r.get_u8()? != TOPOLOGY_SNAPSHOT_VERSION {
            return Err(SnapshotError::Malformed("unsupported Topology snapshot version"));
        }
        let n_levels = r.get_len()?;
        let mut levels = Vec::with_capacity(n_levels.min(MAX_LEVELS));
        for _ in 0..n_levels {
            let tag = r.get_u8()?;
            let custom = r.get_u8()?;
            let kind = match tag {
                0 => LevelKind::Core,
                1 => LevelKind::Socket,
                2 => LevelKind::Numa,
                3 => LevelKind::Machine,
                4 => LevelKind::Custom(custom),
                _ => return Err(SnapshotError::Malformed("bad LevelKind tag")),
            };
            let width = r.get_u64()? as usize;
            let cost = r.get_u32()?;
            levels.push(Level { kind, width, cost });
        }
        let t = Topology::try_from_levels(levels)
            .map_err(|_| SnapshotError::Malformed("invalid topology tree"))?;
        // The tree fixes the matrix size; a length read from the image is
        // checked against it before it sizes anything.
        let n = r.get_len()?;
        if n != t.numa_count() {
            return Err(SnapshotError::Malformed("NUMA distance matrix size disagrees with the tree"));
        }
        let mut m = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.get_u32()?);
            }
            m.push(row);
        }
        t.with_numa_distances(m).map_err(|_| SnapshotError::Malformed("invalid NUMA distances"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openpower_710_shape() {
        let t = Topology::openpower_710();
        assert_eq!(t.num_chips(), 1);
        assert_eq!(t.num_cores(), 2);
        assert_eq!(t.num_cpus(), 4);
    }

    #[test]
    fn cpu_to_core_mapping() {
        let t = Topology::openpower_710();
        assert_eq!(t.core_of(CpuId(0)), CoreId(0));
        assert_eq!(t.core_of(CpuId(1)), CoreId(0));
        assert_eq!(t.core_of(CpuId(2)), CoreId(1));
        assert_eq!(t.core_of(CpuId(3)), CoreId(1));
    }

    #[test]
    fn context_slots() {
        let t = Topology::openpower_710();
        assert_eq!(t.context_of(CpuId(0)), ContextId(0));
        assert_eq!(t.context_of(CpuId(1)), ContextId(1));
        assert_eq!(t.context_of(CpuId(2)), ContextId(0));
    }

    #[test]
    fn core_cpu_lists() {
        let t = Topology::openpower_710();
        assert_eq!(t.core_range(CoreId(0)), 0..2);
        assert_eq!(t.core_range(CoreId(1)), 2..4);
    }

    #[test]
    fn multi_chip_topology() {
        let t = Topology::new(2, 2, 2);
        assert_eq!(t.num_cpus(), 8);
        assert_eq!(t.chip_of(CpuId(3)), ChipId(0));
        assert_eq!(t.chip_of(CpuId(4)), ChipId(1));
        assert_eq!(t.group_range(CpuId(5), 1), 4..8, "chip level");
        assert_eq!(t.group_range(CpuId(5), 2), 0..8, "machine root");
    }

    #[test]
    fn wide_smt_is_a_valid_shape_now() {
        // The old constructor panicked here ("at most 2-way SMT"); wide
        // cores are legal and flagged for the analytic perf model.
        let t = Topology::new(1, 1, 4);
        assert_eq!(t.num_cpus(), 4);
        assert_eq!(t.max_smt_width(), 4);
        assert_eq!(t.core_range(CoreId(0)), 0..4);
    }

    #[test]
    fn zero_dimension_is_a_typed_error() {
        assert_eq!(Topology::try_new(1, 0, 2), Err(TopologyError::ZeroWidth));
        assert_eq!(Topology::try_new(0, 1, 1), Err(TopologyError::ZeroWidth));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_cpu() {
        Topology::openpower_710().core_of(CpuId(4));
    }

    #[test]
    fn spec_parses_the_readme_example() {
        let t = Topology::parse("2x2x2c2t").unwrap();
        assert_eq!(t.num_cpus(), 16);
        assert_eq!(t.num_levels(), 4);
        assert_eq!(t.level(0).kind, LevelKind::Core);
        assert_eq!(t.level(1).kind, LevelKind::Socket);
        assert_eq!(t.level(2).kind, LevelKind::Numa);
        assert_eq!(t.level(3).kind, LevelKind::Machine);
        assert_eq!(t.numa_count(), 2);
        assert_eq!(t.threads_per_core(), 2);
    }

    #[test]
    fn spec_openpower_equals_constructor() {
        assert_eq!(Topology::parse("1s2c2t").unwrap(), Topology::openpower_710());
        assert_eq!(Topology::parse("openpower-710").unwrap(), Topology::openpower_710());
    }

    #[test]
    fn spec_skipping_a_level_compresses_the_tree() {
        // 2 NUMA nodes directly holding 2 dual-thread cores: no socket
        // level at all, 3 grouping levels.
        let t = Topology::parse("2n2c2t").unwrap();
        assert_eq!(t.num_cpus(), 8);
        assert_eq!(t.num_levels(), 3);
        assert_eq!(t.level(1).kind, LevelKind::Numa);
        assert_eq!(t.numa_count(), 2);
        assert_eq!(t.numa_node_of(CpuId(3)), 0);
        assert_eq!(t.numa_node_of(CpuId(4)), 1);
        // Back-compat chip view falls back to the NUMA node.
        assert_eq!(t.num_chips(), 2);
    }

    #[test]
    fn spec_rejects_garbage_and_bad_nesting() {
        assert!(matches!(Topology::parse("bogus"), Err(TopologyError::Spec(_))));
        assert!(matches!(Topology::parse(""), Err(TopologyError::Spec(_))));
        assert!(matches!(Topology::parse("0c2t"), Err(TopologyError::ZeroWidth)));
        // A NUMA node inside a core is out of hierarchy order.
        assert!(matches!(Topology::parse("2c2n2t"), Err(TopologyError::Spec(_))));
        // More tokens than a tree has levels (and than a `u8` rank counts).
        assert!(matches!(Topology::parse(&"1x".repeat(300)), Err(TopologyError::Spec(_))));
    }

    #[test]
    fn numa_node_count_is_capped_before_any_matrix_is_built() {
        let at_cap = Topology::parse(&format!("{MAX_NUMA_NODES}n")).unwrap();
        assert_eq!(at_cap.numa_count(), MAX_NUMA_NODES);
        for spec in ["257n", "2048n", "65536n", "5x64n1t"] {
            let got = Topology::parse(spec);
            assert!(matches!(got, Err(TopologyError::TooManyNumaNodes { .. })), "{spec}: {got:?}");
        }
    }

    #[test]
    fn render_round_trips() {
        for spec in ["1s2c2t", "2s2c2t", "2n2c2t", "1c4t", "2x2x2c2t", "2x2n2c2t"] {
            let t = Topology::parse(spec).unwrap();
            let rendered = t.render_spec();
            assert_eq!(Topology::parse(&rendered).unwrap(), t, "spec `{spec}` → `{rendered}`");
        }
    }

    #[test]
    fn migration_cost_grows_toward_the_root() {
        let t = Topology::parse("2s2c2t").unwrap();
        assert_eq!(t.migration_cost(CpuId(0), CpuId(0)), 0);
        let smt = t.migration_cost(CpuId(0), CpuId(1));
        let cross_core = t.migration_cost(CpuId(0), CpuId(2));
        let cross_socket = t.migration_cost(CpuId(0), CpuId(4));
        assert!(0 < smt && smt <= cross_core && cross_core <= cross_socket);
    }

    #[test]
    fn numa_distances_default_and_override() {
        let t = Topology::parse("2n2c2t").unwrap();
        assert_eq!(t.numa_distance(0, 0), 10);
        assert_eq!(t.numa_distance(0, 1), 20);
        let t = t.with_numa_distances(vec![vec![10, 40], vec![40, 10]]).unwrap();
        assert_eq!(t.numa_distance(1, 0), 40);
        assert!(Topology::parse("2n2c2t")
            .unwrap()
            .with_numa_distances(vec![vec![10]])
            .is_err());
        assert!(Topology::parse("2n2c2t")
            .unwrap()
            .with_numa_distances(vec![vec![10, 5], vec![5, 10]])
            .is_err());
    }

    #[test]
    fn non_monotone_costs_rejected() {
        let err = Topology::openpower_710().with_level_costs(&[10, 3, 50]);
        assert_eq!(err, Err(TopologyError::NonMonotoneCost { level: 1 }));
    }

    #[test]
    fn snapshot_round_trips_full_fidelity() {
        let t = Topology::parse("2n2c2t")
            .unwrap()
            .with_numa_distances(vec![vec![10, 42], vec![42, 10]])
            .unwrap();
        let mut w = SnapshotWriter::new();
        w.put(&t);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let back: Topology = r.get().unwrap();
        assert_eq!(back, t);
        assert_eq!(back.numa_distance(0, 1), 42);
    }

    #[test]
    fn forged_numa_matrix_length_is_malformed() {
        // A valid `2n2c2t` image up to its matrix length (the last 8 + 4·4
        // payload bytes), then a length no image can back; the checksum
        // is valid, so only the decoder can object.
        let mut w = SnapshotWriter::new();
        w.put(&Topology::parse("2n2c2t").unwrap());
        let tree = w.payload()[..w.payload().len() - 24].to_vec();
        let mut w = SnapshotWriter::new();
        tree.iter().for_each(|&b| w.put_u8(b));
        w.put_len(1 << 40);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let got = r.get::<Topology>();
        assert!(matches!(got, Err(SnapshotError::Malformed(m)) if m.contains("NUMA")), "{got:?}");
    }

    #[test]
    fn group_ranges_are_contiguous_and_o1() {
        let t = Topology::parse("2x2x2c2t").unwrap();
        assert_eq!(t.group_range(CpuId(5), 0), 4..6);
        assert_eq!(t.group_range(CpuId(5), 1), 4..8);
        assert_eq!(t.group_range(CpuId(5), 2), 0..8);
        assert_eq!(t.group_range(CpuId(5), 3), 0..16);
        assert_eq!(t.num_groups(0), 8);
        assert_eq!(t.num_groups(3), 1);
    }
}
