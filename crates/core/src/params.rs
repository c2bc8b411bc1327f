//! Tunable parameters of the grouping and correlation algorithms.

use serde::{Deserialize, Serialize};

/// All knobs of the role classification pipeline, with the paper's
/// defaults (Section 6: "we set user-defined thresholds S^hi = 80,
/// S^lo = 55, and K^hi = 7", Section 6.3: "We set α = 0.6 and β = 0.5").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Bootstrap constant α ∈ [0, 1]: an ungrouped host `h` becomes a
    /// singleton group once `k < α·|C(h)|` (formation step 2e).
    pub alpha: f64,
    /// Connection-requirement constant β ∈ [0, 1]: groups merge only if
    /// their average per-member connection counts are within β of each
    /// other (`|a1 − a2| ≤ β·max(a1, a2)`).
    pub beta: f64,
    /// High similarity threshold `S^hi` ∈ (S^lo, 100]: required when
    /// either group has `K_G ≥ K^hi`.
    pub s_hi: f64,
    /// Low similarity threshold `S^lo` ∈ [0, S^hi): required when both
    /// groups have `K_G < K^hi`.
    pub s_lo: f64,
    /// `K^hi`: the `K_G` level above which a group counts as
    /// high-similarity-formed and merges only at `S^hi`.
    pub k_hi: u32,
    /// Correlation tolerance `T^hi` ∈ [0, 1]: connection counts must be
    /// within this fraction for snapshots to correlate (Section 5.2; the
    /// paper never publishes the value — 0.30 is our default, exercised
    /// by sensitivity tests).
    pub t_hi: f64,
    /// Minimum time-varying similarity (same 0–100 scale as `s_lo`) for
    /// two groups to correlate across runs.
    pub s_corr: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            alpha: 0.6,
            beta: 0.5,
            s_hi: 80.0,
            s_lo: 55.0,
            k_hi: 7,
            t_hi: 0.30,
            s_corr: 50.0,
        }
    }
}

/// A parameter failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub String);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

impl Params {
    /// Validates all constraints the paper states (`0 ≤ α, β ≤ 1`,
    /// `0 ≤ S^lo < S^hi ≤ 100`, `0 ≤ T^hi ≤ 1`).
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(0.0..=1.0).contains(&self.alpha) || !self.alpha.is_finite() {
            return Err(ParamError(format!("alpha={} outside [0,1]", self.alpha)));
        }
        if !(0.0..=1.0).contains(&self.beta) || !self.beta.is_finite() {
            return Err(ParamError(format!("beta={} outside [0,1]", self.beta)));
        }
        if !(0.0..=1.0).contains(&self.t_hi) || !self.t_hi.is_finite() {
            return Err(ParamError(format!("t_hi={} outside [0,1]", self.t_hi)));
        }
        if !self.s_lo.is_finite() || !self.s_hi.is_finite() {
            return Err(ParamError("similarity thresholds must be finite".into()));
        }
        if !(0.0..=100.0).contains(&self.s_lo)
            || !(0.0..=100.0).contains(&self.s_hi)
            || self.s_lo >= self.s_hi
        {
            return Err(ParamError(format!(
                "require 0 <= s_lo < s_hi <= 100, got s_lo={} s_hi={}",
                self.s_lo, self.s_hi
            )));
        }
        if !(0.0..=100.0).contains(&self.s_corr) || !self.s_corr.is_finite() {
            return Err(ParamError(format!(
                "s_corr={} outside [0,100]",
                self.s_corr
            )));
        }
        Ok(())
    }

    /// Builder-style setter for `s_lo`.
    pub fn with_s_lo(mut self, v: f64) -> Self {
        self.s_lo = v;
        self
    }

    /// Builder-style setter for `s_hi`.
    pub fn with_s_hi(mut self, v: f64) -> Self {
        self.s_hi = v;
        self
    }

    /// Builder-style setter for `k_hi`.
    pub fn with_k_hi(mut self, v: u32) -> Self {
        self.k_hi = v;
        self
    }

    /// Builder-style setter for `alpha`.
    pub fn with_alpha(mut self, v: f64) -> Self {
        self.alpha = v;
        self
    }

    /// Builder-style setter for `beta`.
    pub fn with_beta(mut self, v: f64) -> Self {
        self.beta = v;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = Params::default();
        assert_eq!(p.alpha, 0.6);
        assert_eq!(p.beta, 0.5);
        assert_eq!(p.s_hi, 80.0);
        assert_eq!(p.s_lo, 55.0);
        assert_eq!(p.k_hi, 7);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(Params {
            alpha: -0.1,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            alpha: 1.1,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            beta: 2.0,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            t_hi: -1.0,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            s_lo: 90.0,
            s_hi: 80.0,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            s_lo: 80.0,
            s_hi: 80.0,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            s_hi: 101.0,
            s_lo: 55.0,
            ..Params::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            alpha: f64::NAN,
            ..Params::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_chain() {
        let p = Params::default()
            .with_s_lo(10.0)
            .with_s_hi(99.0)
            .with_k_hi(3)
            .with_alpha(0.5)
            .with_beta(0.4);
        assert_eq!(p.s_lo, 10.0);
        assert_eq!(p.s_hi, 99.0);
        assert_eq!(p.k_hi, 3);
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.beta, 0.4);
        assert!(p.validate().is_ok());
    }
}
