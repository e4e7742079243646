//! The learning ensemble: combines member predictions by weighted voting
//! with an abstention threshold — the learning half of the paper's Voting
//! Master (§3.3; the full Voting Master, which also merges rule-based
//! classifiers, lives in `rulekit-chimera`).

use crate::classifier::{add_vote, Classifier, Prediction};
use rulekit_data::TypeId;

/// A weighted-voting ensemble of classifiers.
pub struct Ensemble {
    members: Vec<(Box<dyn Classifier>, f64)>,
    /// Minimum combined weight for the winner; below it the ensemble
    /// abstains ("the Voting Master refuses to make a prediction due to low
    /// confidence", §3.3).
    confidence_threshold: f64,
}

impl Ensemble {
    /// An empty ensemble with the given abstention threshold (on the
    /// winner's normalized combined weight, range 0–1).
    pub fn new(confidence_threshold: f64) -> Ensemble {
        Ensemble { members: Vec::new(), confidence_threshold }
    }

    /// Adds a member with voting weight `weight`.
    pub fn add(mut self, member: Box<dyn Classifier>, weight: f64) -> Self {
        assert!(weight > 0.0, "member weight must be positive");
        self.members.push((member, weight));
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member names, in insertion order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|(m, _)| m.name()).collect()
    }

    /// Per-member raw predictions (for diagnostics and the Chimera filter).
    pub fn member_predictions(&self, features: &[String]) -> Vec<(&str, Prediction)> {
        self.members.iter().map(|(m, _)| (m.name(), m.predict(features))).collect()
    }
}

impl Classifier for Ensemble {
    fn name(&self) -> &str {
        "ensemble"
    }

    fn predict(&self, features: &[String]) -> Prediction {
        let mut votes: Vec<(TypeId, f64)> = Vec::new();
        let mut voting_weight = 0.0;
        for (member, weight) in &self.members {
            let p = member.predict(features);
            if p.is_abstention() {
                continue;
            }
            voting_weight += weight;
            for (ty, w) in p.scores {
                add_vote(&mut votes, ty, weight * w);
            }
        }
        if voting_weight == 0.0 {
            return Prediction::empty();
        }
        let combined = Prediction::from_scores(votes);
        match combined.top() {
            Some((_, w)) if w >= self.confidence_threshold => combined,
            _ => Prediction::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier with a fixed answer.
    struct Fixed {
        name: &'static str,
        prediction: Prediction,
    }

    impl Classifier for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn predict(&self, _features: &[String]) -> Prediction {
            self.prediction.clone()
        }
    }

    fn fixed(name: &'static str, scores: Vec<(TypeId, f64)>) -> Box<dyn Classifier> {
        Box::new(Fixed { name, prediction: Prediction::from_scores(scores) })
    }

    #[test]
    fn majority_wins() {
        let e = Ensemble::new(0.0)
            .add(fixed("a", vec![(TypeId(1), 1.0)]), 1.0)
            .add(fixed("b", vec![(TypeId(1), 1.0)]), 1.0)
            .add(fixed("c", vec![(TypeId(2), 1.0)]), 1.0);
        assert_eq!(e.predict(&[]).top().unwrap().0, TypeId(1));
    }

    #[test]
    fn weights_shift_the_vote() {
        let e = Ensemble::new(0.0)
            .add(fixed("a", vec![(TypeId(1), 1.0)]), 1.0)
            .add(fixed("b", vec![(TypeId(2), 1.0)]), 3.0);
        assert_eq!(e.predict(&[]).top().unwrap().0, TypeId(2));
    }

    #[test]
    fn abstaining_members_are_skipped() {
        let e = Ensemble::new(0.0)
            .add(fixed("a", vec![]), 5.0)
            .add(fixed("b", vec![(TypeId(3), 1.0)]), 1.0);
        assert_eq!(e.predict(&[]).top().unwrap().0, TypeId(3));
    }

    #[test]
    fn low_confidence_abstains() {
        // Three-way split: winner weight ≈ 1/3 < 0.5 threshold.
        let e = Ensemble::new(0.5)
            .add(fixed("a", vec![(TypeId(1), 1.0)]), 1.0)
            .add(fixed("b", vec![(TypeId(2), 1.0)]), 1.0)
            .add(fixed("c", vec![(TypeId(3), 1.0)]), 1.0);
        assert!(e.predict(&[]).is_abstention());
    }

    #[test]
    fn all_abstain_means_abstain() {
        let e = Ensemble::new(0.0).add(fixed("a", vec![]), 1.0);
        assert!(e.predict(&[]).is_abstention());
        assert!(Ensemble::new(0.0).predict(&[]).is_abstention());
    }

    #[test]
    fn member_introspection() {
        let e = Ensemble::new(0.0)
            .add(fixed("a", vec![(TypeId(1), 1.0)]), 1.0)
            .add(fixed("b", vec![]), 1.0);
        assert_eq!(e.member_names(), vec!["a", "b"]);
        let preds = e.member_predictions(&[]);
        assert_eq!(preds.len(), 2);
        assert!(preds[1].1.is_abstention());
    }
}
