//! The two network diffusion models of Kempe et al. supported by the paper.

use std::fmt;

/// A network diffusion model (paper Table 1: `IC` / `LT`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiffusionModel {
    /// Independent Cascade: when `u` activates, it gets one independent
    /// chance to activate each inactive out-neighbor `v`, succeeding with
    /// probability `p(u→v)`.
    IndependentCascade,
    /// Linear Threshold: each vertex draws a uniform threshold once; it
    /// activates when the summed weight of its active in-neighbors reaches
    /// the threshold. Requires in-weights summing to at most 1 (see
    /// `Graph::normalize_for_lt` / `WeightModel::WeightedCascade`).
    LinearThreshold,
}

impl DiffusionModel {
    /// Short lowercase tag used in CLI flags and report rows.
    #[must_use]
    pub const fn tag(self) -> &'static str {
        match self {
            DiffusionModel::IndependentCascade => "ic",
            DiffusionModel::LinearThreshold => "lt",
        }
    }

    /// Parses the tag produced by [`DiffusionModel::tag`].
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag.to_ascii_lowercase().as_str() {
            "ic" => Some(DiffusionModel::IndependentCascade),
            "lt" => Some(DiffusionModel::LinearThreshold),
            _ => None,
        }
    }
}

impl fmt::Display for DiffusionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffusionModel::IndependentCascade => "IC",
            DiffusionModel::LinearThreshold => "LT",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for m in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            assert_eq!(DiffusionModel::from_tag(m.tag()), Some(m));
        }
        assert_eq!(
            DiffusionModel::from_tag("IC"),
            Some(DiffusionModel::IndependentCascade)
        );
        assert_eq!(DiffusionModel::from_tag("bogus"), None);
    }

    #[test]
    fn display() {
        assert_eq!(DiffusionModel::IndependentCascade.to_string(), "IC");
        assert_eq!(DiffusionModel::LinearThreshold.to_string(), "LT");
    }
}
