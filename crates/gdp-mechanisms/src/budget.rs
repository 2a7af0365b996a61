use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MechanismError;
use crate::Result;

/// A validated differential-privacy parameter `ε`.
///
/// `ε` quantifies the worst-case multiplicative change `e^ε` a single
/// adjacent-dataset step may induce on any output probability. Values are
/// required to be finite and strictly positive; validation happens once at
/// construction so downstream code never re-checks.
///
/// ```
/// use gdp_mechanisms::Epsilon;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let eps = Epsilon::new(0.5)?;
/// assert_eq!(eps.get(), 0.5);
/// assert!(Epsilon::new(0.0).is_err());
/// assert!(Epsilon::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new `ε`, rejecting non-finite or non-positive values.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidEpsilon`] if `value` is NaN,
    /// infinite, zero or negative.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidEpsilon(value))
        }
    }

    /// Returns the raw `ε` value.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Splits this `ε` evenly into `parts` smaller epsilons whose sum is
    /// the original (up to floating-point rounding).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidSplit`] when `parts == 0`.
    pub fn split_even(self, parts: usize) -> Result<Vec<Epsilon>> {
        if parts == 0 {
            return Err(MechanismError::InvalidSplit(
                "cannot split epsilon into zero parts".to_string(),
            ));
        }
        let each = self.0 / parts as f64;
        Ok(vec![Epsilon(each); parts])
    }

    /// Scales this `ε` by `factor` (must keep the result valid).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidEpsilon`] if the scaled value is no
    /// longer finite and positive.
    pub fn scaled(self, factor: f64) -> Result<Self> {
        Self::new(self.0 * factor)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<Epsilon> for f64 {
    fn from(value: Epsilon) -> f64 {
        value.0
    }
}

/// A validated differential-privacy failure probability `δ`.
///
/// `δ` bounds the probability mass on which the `e^ε` guarantee may fail.
/// Pure `ε`-DP corresponds to `δ = 0`. Values must lie in `[0, 1)`.
///
/// ```
/// use gdp_mechanisms::Delta;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let delta = Delta::new(1e-6)?;
/// assert_eq!(delta.get(), 1e-6);
/// assert!(Delta::new(1.0).is_err());
/// assert!(Delta::ZERO.is_pure());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct Delta(f64);

impl Delta {
    /// The `δ = 0` of pure differential privacy.
    pub const ZERO: Delta = Delta(0.0);

    /// Creates a new `δ`, rejecting values outside `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidDelta`] if `value` is NaN or lies
    /// outside `[0, 1)`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && (0.0..1.0).contains(&value) {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidDelta(value))
        }
    }

    /// Returns the raw `δ` value.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` when `δ = 0`, i.e. the guarantee is pure `ε`-DP.
    pub fn is_pure(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "δ={}", self.0)
    }
}

impl TryFrom<f64> for Delta {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<Delta> for f64 {
    fn from(value: Delta) -> f64 {
        value.0
    }
}

/// A complete `(ε, δ)` privacy budget.
///
/// The budget is the currency of the disclosure pipeline: Phase 1
/// (specialization) and Phase 2 (noise injection) each draw on an explicit
/// `PrivacyBudget`, and the [`crate::PrivacyAccountant`] enforces that the
/// total spend never exceeds what the data owner authorized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyBudget {
    /// The multiplicative-guarantee parameter.
    pub epsilon: Epsilon,
    /// The failure-probability parameter.
    pub delta: Delta,
}

impl PrivacyBudget {
    /// Creates a budget from raw `ε` and `δ` values.
    ///
    /// # Errors
    ///
    /// Propagates [`MechanismError::InvalidEpsilon`] /
    /// [`MechanismError::InvalidDelta`] from the component constructors.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        Ok(Self {
            epsilon: Epsilon::new(epsilon)?,
            delta: Delta::new(delta)?,
        })
    }

    /// Creates a pure `ε`-DP budget (`δ = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidEpsilon`] for invalid `ε`.
    pub fn pure(epsilon: f64) -> Result<Self> {
        Ok(Self {
            epsilon: Epsilon::new(epsilon)?,
            delta: Delta::ZERO,
        })
    }

    /// Splits the budget into `parts` equal shares (both `ε` and `δ` are
    /// divided), suitable for sequential composition over `parts`
    /// sub-mechanisms.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidSplit`] when `parts == 0`.
    pub fn split_even(self, parts: usize) -> Result<Vec<PrivacyBudget>> {
        if parts == 0 {
            return Err(MechanismError::InvalidSplit(
                "cannot split budget into zero parts".to_string(),
            ));
        }
        let n = parts as f64;
        let eps = Epsilon::new(self.epsilon.get() / n)?;
        let delta = Delta::new(self.delta.get() / n)?;
        Ok(vec![
            PrivacyBudget {
                epsilon: eps,
                delta,
            };
            parts
        ])
    }

    /// Splits the budget proportionally to `weights`.
    ///
    /// The shares sum to the original budget (up to floating-point
    /// rounding). Zero weights yield zero shares and are rejected because
    /// an `ε = 0` share is not a usable budget.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidSplit`] when `weights` is empty,
    /// contains non-positive or non-finite entries, or sums to zero.
    pub fn split_weighted(self, weights: &[f64]) -> Result<Vec<PrivacyBudget>> {
        if weights.is_empty() {
            return Err(MechanismError::InvalidSplit(
                "weight list is empty".to_string(),
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(MechanismError::InvalidSplit(
                "weights must be finite and positive".to_string(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(MechanismError::InvalidSplit(
                "weights sum to zero".to_string(),
            ));
        }
        weights
            .iter()
            .map(|w| {
                let frac = w / total;
                PrivacyBudget::new(self.epsilon.get() * frac, self.delta.get() * frac)
            })
            .collect()
    }
}

impl fmt::Display for PrivacyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.epsilon, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_bad_values() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Epsilon::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn epsilon_accepts_positive_values() {
        for good in [1e-12, 0.1, 1.0, 10.0, 1e6] {
            assert_eq!(Epsilon::new(good).unwrap().get(), good);
        }
    }

    #[test]
    fn delta_rejects_bad_values() {
        for bad in [-1e-9, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(Delta::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn delta_zero_is_pure() {
        assert!(Delta::ZERO.is_pure());
        assert!(!Delta::new(1e-9).unwrap().is_pure());
    }

    #[test]
    fn epsilon_split_even_sums_back() {
        let eps = Epsilon::new(0.9).unwrap();
        let parts = eps.split_even(9).unwrap();
        assert_eq!(parts.len(), 9);
        let sum: f64 = parts.iter().map(|e| e.get()).sum();
        assert!((sum - 0.9).abs() < 1e-12);
    }

    #[test]
    fn epsilon_split_zero_parts_errors() {
        assert!(Epsilon::new(1.0).unwrap().split_even(0).is_err());
    }

    #[test]
    fn budget_split_weighted_respects_ratios() {
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let shares = b.split_weighted(&[1.0, 3.0]).unwrap();
        assert!((shares[0].epsilon.get() - 0.25).abs() < 1e-12);
        assert!((shares[1].epsilon.get() - 0.75).abs() < 1e-12);
        assert!((shares[0].delta.get() - 0.25e-6).abs() < 1e-18);
    }

    #[test]
    fn budget_split_weighted_rejects_bad_weights() {
        let b = PrivacyBudget::new(1.0, 0.0).unwrap();
        assert!(b.split_weighted(&[]).is_err());
        assert!(b.split_weighted(&[1.0, 0.0]).is_err());
        assert!(b.split_weighted(&[1.0, -2.0]).is_err());
        assert!(b.split_weighted(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn epsilon_scaled() {
        let eps = Epsilon::new(2.0).unwrap();
        assert_eq!(eps.scaled(0.5).unwrap().get(), 1.0);
        assert!(eps.scaled(0.0).is_err());
        assert!(eps.scaled(-1.0).is_err());
    }

    #[test]
    fn display_formats() {
        let b = PrivacyBudget::new(0.5, 1e-6).unwrap();
        let s = b.to_string();
        assert!(s.contains("0.5"));
        assert!(s.contains("0.000001") || s.contains("1e-6"));
    }
}
