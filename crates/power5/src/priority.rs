//! Hardware thread priorities and the software interface for setting them
//! (paper §II-B, Table II).
//!
//! A priority is an integer in `0..=7`. Software changes the priority of the
//! *current* hardware thread by issuing a nop-form `or X,X,X` instruction;
//! which values are reachable depends on the privilege level of the issuing
//! code:
//!
//! | Priority | Level        | Privilege   | or-nop        |
//! |----------|--------------|-------------|---------------|
//! | 0        | Thread off   | Hypervisor  | — (no encoding)|
//! | 1        | Very low     | Supervisor  | `or 31,31,31` |
//! | 2        | Low          | User        | `or 1,1,1`    |
//! | 3        | Medium-Low   | User        | `or 6,6,6`    |
//! | 4        | Medium       | User        | `or 2,2,2`    |
//! | 5        | Medium-high  | Supervisor  | `or 5,5,5`    |
//! | 6        | High         | Supervisor  | `or 3,3,3`    |
//! | 7        | Very high    | Hypervisor  | `or 7,7,7`    |

use std::fmt;

/// A POWER5 hardware thread priority (0–7).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwPriority(u8);

/// The privilege level of the code issuing a priority change.
///
/// On the real machine the OS runs at supervisor level and user code at user
/// level; the hypervisor owns the extremes (thread off / single-thread mode).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PrivilegeLevel {
    User,
    Supervisor,
    Hypervisor,
}

/// Why a priority operation was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PriorityError {
    /// Value outside `0..=7`.
    OutOfRange(u8),
    /// The issuing privilege level may not set this priority.
    InsufficientPrivilege { requested: HwPriority, level: PrivilegeLevel },
    /// No `or`-nop encoding exists (priority 0 is set by the hypervisor
    /// through the thread-control facilities, not by an instruction).
    NoEncoding(HwPriority),
}

impl fmt::Display for PriorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityError::OutOfRange(v) => write!(f, "priority {v} out of range 0..=7"),
            PriorityError::InsufficientPrivilege { requested, level } => {
                write!(f, "privilege {level:?} may not set priority {requested}")
            }
            PriorityError::NoEncoding(p) => {
                write!(f, "priority {p} has no or-nop encoding")
            }
        }
    }
}

impl std::error::Error for PriorityError {}

impl HwPriority {
    /// Context switched off.
    pub const OFF: HwPriority = HwPriority(0);
    /// Background thread: receives only resources left over by the sibling.
    pub const VERY_LOW: HwPriority = HwPriority(1);
    pub const LOW: HwPriority = HwPriority(2);
    pub const MEDIUM_LOW: HwPriority = HwPriority(3);
    /// The default priority every task starts with (paper §IV-B).
    pub const MEDIUM: HwPriority = HwPriority(4);
    pub const MEDIUM_HIGH: HwPriority = HwPriority(5);
    pub const HIGH: HwPriority = HwPriority(6);
    /// Single-thread mode: the sibling context is off.
    pub const VERY_HIGH: HwPriority = HwPriority(7);

    /// Construct from a raw value, validating the range.
    pub fn new(v: u8) -> Result<HwPriority, PriorityError> {
        if v <= 7 {
            Ok(HwPriority(v))
        } else {
            Err(PriorityError::OutOfRange(v))
        }
    }

    /// Raw numeric value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// The lowest privilege level allowed to set this priority (Table II).
    pub const fn required_privilege(self) -> PrivilegeLevel {
        match self.0 {
            0 | 7 => PrivilegeLevel::Hypervisor,
            1 | 5 | 6 => PrivilegeLevel::Supervisor,
            _ => PrivilegeLevel::User, // 2, 3, 4
        }
    }

    /// Whether `level` suffices to set this priority.
    pub fn allowed_at(self, level: PrivilegeLevel) -> bool {
        level >= self.required_privilege()
    }

    /// The register number `X` of the `or X,X,X` nop that requests this
    /// priority, or `None` for priority 0 (Table II).
    pub const fn or_nop_register(self) -> Option<u8> {
        match self.0 {
            1 => Some(31),
            2 => Some(1),
            3 => Some(6),
            4 => Some(2),
            5 => Some(5),
            6 => Some(3),
            7 => Some(7),
            _ => None,
        }
    }

    /// Decode an `or X,X,X` nop register number back into the priority it
    /// requests, if `X` is one of the architected encodings.
    pub const fn from_or_nop_register(x: u8) -> Option<HwPriority> {
        match x {
            31 => Some(HwPriority(1)),
            1 => Some(HwPriority(2)),
            6 => Some(HwPriority(3)),
            2 => Some(HwPriority(4)),
            5 => Some(HwPriority(5)),
            3 => Some(HwPriority(6)),
            7 => Some(HwPriority(7)),
            _ => None,
        }
    }

    /// Human-readable level name as in paper Table II.
    pub const fn level_name(self) -> &'static str {
        match self.0 {
            0 => "Thread off",
            1 => "Very low",
            2 => "Low",
            3 => "Medium-Low",
            4 => "Medium",
            5 => "Medium-high",
            6 => "High",
            _ => "Very high",
        }
    }

    /// Saturating increment within the architected range.
    pub fn raised(self) -> HwPriority {
        HwPriority((self.0 + 1).min(7))
    }

    /// Saturating decrement within the architected range.
    pub fn lowered(self) -> HwPriority {
        HwPriority(self.0.saturating_sub(1))
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: HwPriority, hi: HwPriority) -> HwPriority {
        HwPriority(self.0.clamp(lo.0, hi.0))
    }

    /// True for the "normal" SMT priorities where Table I arbitration
    /// applies (2–6); 0, 1 and 7 have special semantics.
    pub const fn is_regular(self) -> bool {
        matches!(self.0, 2..=6)
    }

    /// Absolute priority difference with another context.
    pub fn diff(self, other: HwPriority) -> u8 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Debug for HwPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

impl fmt::Display for HwPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u8> for HwPriority {
    type Error = PriorityError;
    fn try_from(v: u8) -> Result<Self, Self::Error> {
        HwPriority::new(v)
    }
}

/// Validate a full priority-set request: range, encoding and privilege.
///
/// This is the software-visible semantics of issuing the `or`-nop for
/// `requested` at `level`. Returns the priority that takes effect.
pub fn issue_or_nop(
    requested: HwPriority,
    level: PrivilegeLevel,
) -> Result<HwPriority, PriorityError> {
    if requested.or_nop_register().is_none() {
        return Err(PriorityError::NoEncoding(requested));
    }
    if !requested.allowed_at(level) {
        return Err(PriorityError::InsufficientPrivilege { requested, level });
    }
    Ok(requested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validation() {
        assert!(HwPriority::new(7).is_ok());
        assert_eq!(HwPriority::new(8), Err(PriorityError::OutOfRange(8)));
    }

    #[test]
    fn privilege_matrix_matches_table2() {
        use PrivilegeLevel::*;
        let expect = [
            (0, Hypervisor),
            (1, Supervisor),
            (2, User),
            (3, User),
            (4, User),
            (5, Supervisor),
            (6, Supervisor),
            (7, Hypervisor),
        ];
        for (v, lvl) in expect {
            assert_eq!(HwPriority::new(v).unwrap().required_privilege(), lvl, "prio {v}");
        }
    }

    #[test]
    fn supervisor_can_set_1_through_6_only() {
        // Paper: "The OS (supervisor) can set 6 out of 8 priority values,
        // from 1 to 6".
        let settable: Vec<u8> = (0..=7)
            .filter(|&v| HwPriority::new(v).unwrap().allowed_at(PrivilegeLevel::Supervisor))
            .collect();
        assert_eq!(settable, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn user_can_set_2_3_4_only() {
        let settable: Vec<u8> = (0..=7)
            .filter(|&v| HwPriority::new(v).unwrap().allowed_at(PrivilegeLevel::User))
            .collect();
        assert_eq!(settable, vec![2, 3, 4]);
    }

    #[test]
    fn hypervisor_spans_whole_range() {
        assert!((0..=7).all(|v| HwPriority::new(v).unwrap().allowed_at(PrivilegeLevel::Hypervisor)));
    }

    #[test]
    fn or_nop_encodings_match_table2() {
        let expect = [(1, 31), (2, 1), (3, 6), (4, 2), (5, 5), (6, 3), (7, 7)];
        for (prio, reg) in expect {
            let p = HwPriority::new(prio).unwrap();
            assert_eq!(p.or_nop_register(), Some(reg), "prio {prio}");
            assert_eq!(HwPriority::from_or_nop_register(reg), Some(p), "reg {reg}");
        }
        assert_eq!(HwPriority::OFF.or_nop_register(), None);
        assert_eq!(HwPriority::from_or_nop_register(4), None);
    }

    #[test]
    fn issue_or_nop_enforces_privilege() {
        assert_eq!(
            issue_or_nop(HwPriority::HIGH, PrivilegeLevel::User),
            Err(PriorityError::InsufficientPrivilege {
                requested: HwPriority::HIGH,
                level: PrivilegeLevel::User
            })
        );
        assert_eq!(
            issue_or_nop(HwPriority::HIGH, PrivilegeLevel::Supervisor),
            Ok(HwPriority::HIGH)
        );
        assert_eq!(
            issue_or_nop(HwPriority::OFF, PrivilegeLevel::Hypervisor),
            Err(PriorityError::NoEncoding(HwPriority::OFF))
        );
    }

    #[test]
    fn raise_lower_clamp() {
        assert_eq!(HwPriority::VERY_HIGH.raised(), HwPriority::VERY_HIGH);
        assert_eq!(HwPriority::OFF.lowered(), HwPriority::OFF);
        assert_eq!(HwPriority::MEDIUM.raised().value(), 5);
        assert_eq!(HwPriority::MEDIUM.lowered().value(), 3);
        let p = HwPriority::VERY_HIGH.clamp(HwPriority::MEDIUM, HwPriority::HIGH);
        assert_eq!(p, HwPriority::HIGH);
    }

    #[test]
    fn regular_priorities() {
        assert!(!HwPriority::OFF.is_regular());
        assert!(!HwPriority::VERY_LOW.is_regular());
        assert!(!HwPriority::VERY_HIGH.is_regular());
        assert!((2..=6).all(|v| HwPriority::new(v).unwrap().is_regular()));
    }

    #[test]
    fn diff_is_symmetric() {
        let a = HwPriority::HIGH;
        let b = HwPriority::MEDIUM;
        assert_eq!(a.diff(b), 2);
        assert_eq!(b.diff(a), 2);
    }

    #[test]
    fn level_names() {
        assert_eq!(HwPriority::OFF.level_name(), "Thread off");
        assert_eq!(HwPriority::MEDIUM.level_name(), "Medium");
        assert_eq!(HwPriority::VERY_HIGH.level_name(), "Very high");
    }
}
