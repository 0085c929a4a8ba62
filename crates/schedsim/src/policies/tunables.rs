//! Runtime tunables for the HPC scheduler.
//!
//! The paper exposes these "through specific entries in the sysfs
//! filesystem" (§IV-B); [`HpcTunables::set`]/[`HpcTunables::get`] mirror
//! that string-keyed interface so examples and experiments can tune a live
//! scheduler the way an administrator would.

use power5::HwPriority;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Tunable parameters of the Load Imbalance Detector and heuristics.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HpcTunables {
    /// Utilization (percent) below which a task is "low utilization".
    pub low_util: f64,
    /// Utilization (percent) above which a task is "high utilization".
    pub high_util: f64,
    /// Lowest hardware priority the heuristics may assign.
    pub min_prio: HwPriority,
    /// Highest hardware priority the heuristics may assign.
    pub max_prio: HwPriority,
    /// Weight of the global (historical) utilization in the Adaptive
    /// heuristic. `G + L = 1` is maintained by [`HpcTunables::set_weights`].
    pub g_weight: f64,
    /// Weight of the last iteration's utilization in the Adaptive heuristic.
    pub l_weight: f64,
    /// Utilization spread (percentage points) below which the application
    /// counts as balanced and priorities are left alone.
    pub balance_spread: f64,
    /// Tasks whose global utilization is below this (percent) are treated
    /// as non-compute processes (e.g. an MPI master that only coordinates)
    /// and excluded from the imbalance check — they cannot be sped up or
    /// slowed down, so they are not part of the balancing problem.
    pub negligible_util: f64,
}

impl Default for HpcTunables {
    fn default() -> Self {
        // Paper §IV-B / §V: HIGH_UTIL = 85, LOW_UTIL = 65, priorities
        // explored in [4, 6] (max difference ±2), Adaptive run "very
        // aggressive" at 10% global / 90% last.
        HpcTunables {
            low_util: 65.0,
            high_util: 85.0,
            min_prio: HwPriority::MEDIUM,
            max_prio: HwPriority::HIGH,
            g_weight: 0.10,
            l_weight: 0.90,
            balance_spread: 10.0,
            negligible_util: 5.0,
        }
    }
}

/// Error from the sysfs-style string interface.
#[derive(Clone, Debug, PartialEq)]
pub enum TunableError {
    /// No tunable has this name.
    UnknownKey(String),
    /// The named tunable rejects this value.
    InvalidValue {
        /// The tunable's name.
        key: &'static str,
        /// The rejected value, as written.
        value: String,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for TunableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunableError::UnknownKey(k) => write!(f, "unknown tunable {k:?}"),
            TunableError::InvalidValue { key, value, reason } => {
                write!(f, "invalid value {value:?} for {key}: {reason}")
            }
        }
    }
}

impl std::error::Error for TunableError {}

impl HpcTunables {
    /// Set the Adaptive weights, keeping `G + L = 1`.
    ///
    /// # Panics
    /// If `g` is not within `[0, 1]`.
    pub fn set_weights(&mut self, g: f64) {
        assert!((0.0..=1.0).contains(&g), "G weight must be in [0,1]");
        self.g_weight = g;
        self.l_weight = 1.0 - g;
    }

    /// Validate cross-field consistency.
    pub fn validate(&self) -> Result<(), TunableError> {
        if self.low_util > self.high_util {
            return Err(TunableError::InvalidValue {
                key: "low_util",
                value: self.low_util.to_string(),
                reason: "LOW_UTIL must not exceed HIGH_UTIL",
            });
        }
        if self.min_prio > self.max_prio {
            return Err(TunableError::InvalidValue {
                key: "min_prio",
                value: self.min_prio.to_string(),
                reason: "MIN_PRIO must not exceed MAX_PRIO",
            });
        }
        if !self.min_prio.is_regular() || !self.max_prio.is_regular() {
            return Err(TunableError::InvalidValue {
                key: "max_prio",
                value: self.max_prio.to_string(),
                reason: "heuristic priorities must be regular (2-6)",
            });
        }
        Ok(())
    }

    /// sysfs-style write: `echo <value> > /sys/kernel/hpcsched/<key>`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), TunableError> {
        fn parse_f64(key: &'static str, value: &str) -> Result<f64, TunableError> {
            value.trim().parse::<f64>().map_err(|_| TunableError::InvalidValue {
                key,
                value: value.to_string(),
                reason: "not a number",
            })
        }
        fn parse_prio(key: &'static str, value: &str) -> Result<HwPriority, TunableError> {
            let raw: u8 = value.trim().parse().map_err(|_| TunableError::InvalidValue {
                key,
                value: value.to_string(),
                reason: "not an integer",
            })?;
            HwPriority::new(raw).map_err(|_| TunableError::InvalidValue {
                key,
                value: value.to_string(),
                reason: "priority out of range 0-7",
            })
        }
        match key {
            "low_util" => self.low_util = parse_f64("low_util", value)?,
            "high_util" => self.high_util = parse_f64("high_util", value)?,
            "min_prio" => self.min_prio = parse_prio("min_prio", value)?,
            "max_prio" => self.max_prio = parse_prio("max_prio", value)?,
            "g_weight" => {
                let g = parse_f64("g_weight", value)?;
                if !(0.0..=1.0).contains(&g) {
                    return Err(TunableError::InvalidValue {
                        key: "g_weight",
                        value: value.to_string(),
                        reason: "must be in [0,1]",
                    });
                }
                self.set_weights(g);
            }
            "balance_spread" => self.balance_spread = parse_f64("balance_spread", value)?,
            "negligible_util" => self.negligible_util = parse_f64("negligible_util", value)?,
            other => return Err(TunableError::UnknownKey(other.to_string())),
        }
        self.validate()
    }

    /// sysfs-style read.
    pub fn get(&self, key: &str) -> Result<String, TunableError> {
        Ok(match key {
            "low_util" => self.low_util.to_string(),
            "high_util" => self.high_util.to_string(),
            "min_prio" => self.min_prio.to_string(),
            "max_prio" => self.max_prio.to_string(),
            "g_weight" => self.g_weight.to_string(),
            "l_weight" => self.l_weight.to_string(),
            "balance_spread" => self.balance_spread.to_string(),
            "negligible_util" => self.negligible_util.to_string(),
            other => return Err(TunableError::UnknownKey(other.to_string())),
        })
    }

    /// All tunable keys, for discovery/diagnostics.
    pub fn keys() -> &'static [&'static str] {
        &[
            "low_util",
            "high_util",
            "min_prio",
            "max_prio",
            "g_weight",
            "l_weight",
            "balance_spread",
            "negligible_util",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = HpcTunables::default();
        assert_eq!(t.low_util, 65.0);
        assert_eq!(t.high_util, 85.0);
        assert_eq!(t.min_prio, HwPriority::MEDIUM);
        assert_eq!(t.max_prio, HwPriority::HIGH);
        assert!((t.g_weight - 0.10).abs() < 1e-12);
        assert!((t.l_weight - 0.90).abs() < 1e-12);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn max_priority_difference_is_two() {
        // Paper: priorities limited to [4,6] so the difference is ±2 and
        // the victim keeps reasonable throughput.
        let t = HpcTunables::default();
        assert_eq!(t.max_prio.value() - t.min_prio.value(), 2);
    }

    #[test]
    fn sysfs_set_get_roundtrip() {
        let mut t = HpcTunables::default();
        t.set("high_util", "90").unwrap();
        assert_eq!(t.get("high_util").unwrap(), "90");
        t.set("max_prio", "5").unwrap();
        assert_eq!(t.max_prio, HwPriority::MEDIUM_HIGH);
    }

    #[test]
    fn weights_stay_normalized() {
        let mut t = HpcTunables::default();
        t.set("g_weight", "0.25").unwrap();
        assert!((t.g_weight + t.l_weight - 1.0).abs() < 1e-12);
        assert!((t.l_weight - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_values() {
        let mut t = HpcTunables::default();
        assert!(matches!(t.set("high_util", "abc"), Err(TunableError::InvalidValue { .. })));
        assert!(matches!(t.set("max_prio", "9"), Err(TunableError::InvalidValue { .. })));
        assert!(matches!(t.set("g_weight", "1.5"), Err(TunableError::InvalidValue { .. })));
        assert!(matches!(t.set("nope", "1"), Err(TunableError::UnknownKey(_))));
    }

    #[test]
    fn validation_catches_inversions() {
        let mut t = HpcTunables::default();
        assert!(t.set("low_util", "95").is_err(), "LOW above HIGH rejected");
        let mut t2 = HpcTunables { min_prio: HwPriority::VERY_HIGH, ..Default::default() };
        assert!(t2.validate().is_err());
        t2.min_prio = HwPriority::MEDIUM;
        assert!(t2.validate().is_ok());
    }

    #[test]
    fn keys_are_all_readable() {
        let t = HpcTunables::default();
        for k in HpcTunables::keys() {
            assert!(t.get(k).is_ok(), "key {k}");
        }
    }
}
