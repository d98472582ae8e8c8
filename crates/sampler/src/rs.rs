//! The RS (naive rejection) sampler.

// Sanctioned panics: each `expect` names a structural invariant of the
// built index (ids and counts fit u32, uniform ranks are in range);
// violation is a bug, not a recoverable state.
#![allow(clippy::expect_used)]

use crate::JoinSampler;
use rae_core::{AccessScratch, CqIndex};
use rae_data::{Symbol, Value};
use rand::Rng;

/// Naive rejection sampling: draw one uniform row from **every** node
/// relation independently and accept only if the rows agree on every shared
/// attribute (i.e. they join).
///
/// Uniform by symmetry (`P = ∏ 1/|R_v|` for every joining combination), but
/// the acceptance probability equals `|answers| / ∏|R_v|`, which collapses
/// for selective joins — reproducing the paper's B.2.3 observation that RS
/// cannot produce even 1% of the answers in reasonable time.
#[derive(Debug, Clone)]
pub struct RsSampler<'a> {
    index: &'a CqIndex,
    /// Per node: `(child node, columns in this bag, columns in child bag)`.
    edges: Vec<(usize, usize, Vec<usize>, Vec<usize>)>,
}

impl<'a> RsSampler<'a> {
    /// Wraps an index, precomputing the join-condition column pairs.
    pub fn new(index: &'a CqIndex) -> Self {
        let plan = index.plan();
        let mut edges = Vec::new();
        for node in 0..plan.node_count() {
            for &child in plan.children(node) {
                let child_cols = plan.parent_shared_cols(child);
                let attrs: Vec<Symbol> = child_cols
                    .iter()
                    .map(|&c| plan.bag(child)[c].clone())
                    .collect();
                let parent_cols: Vec<usize> = attrs
                    .iter()
                    .map(|a| plan.bag(node).binary_search(a).expect("shared attr"))
                    .collect();
                edges.push((node, child, parent_cols, child_cols));
            }
        }
        RsSampler { index, edges }
    }
}

impl JoinSampler for RsSampler<'_> {
    fn attempt_into<'s, R: Rng>(
        &self,
        rng: &mut R,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        // Chaos site: an injected fault reads as one more rejected attempt,
        // which the rejection samplers already tolerate uniformly.
        rae_faults::fail_point!("sampler/attempt", |_site| None);
        let idx = self.index;
        if idx.count() == 0 {
            return None;
        }
        // One uniform row per node, into the reused row-id buffer.
        {
            let rows = scratch.row_ids();
            rows.clear();
            for node in 0..idx.node_count() {
                let n = idx.node_len(node);
                debug_assert!(n > 0);
                rows.push(rng.gen_range(0..u32::try_from(n).expect("row count fits u32")));
            }
        }
        // Join check on every tree edge, over the index's value ranks (u32
        // compares instead of Value compares).
        {
            let rows: &[u32] = scratch.row_ids();
            for (parent, child, parent_cols, child_cols) in &self.edges {
                let p_ranks = idx.node_ranks(*parent, rows[*parent]);
                let c_ranks = idx.node_ranks(*child, rows[*child]);
                for (&pc, &cc) in parent_cols.iter().zip(child_cols.iter()) {
                    if p_ranks[pc] != c_ranks[cc] {
                        return None;
                    }
                }
            }
        }
        scratch.reset_answer(idx.arity());
        let (rows, answer) = scratch.rows_and_answer();
        for (node, &row) in rows.iter().enumerate() {
            idx.write_row_values(node, row, answer);
        }
        Some(scratch.answer())
    }

    fn index(&self) -> &CqIndex {
        self.index
    }

    fn name(&self) -> &'static str {
        "RS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_uniform, skewed_index};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_over_answers() {
        let idx = skewed_index();
        let s = RsSampler::new(&idx);
        assert_uniform(&s, 12000, 0.3);
    }

    #[test]
    fn rejection_rate_matches_selectivity() {
        // 4 R-rows × 6 S-rows = 24 combinations; the join has 9 answers
        // (2·3 for y=1, 1·1 for y=2, 1·2 for y=3) ⇒ acceptance ≈ 9/24.
        let idx = skewed_index();
        let s = RsSampler::new(&idx);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 8000u32;
        let mut accepted = 0u32;
        for _ in 0..trials {
            if s.attempt(&mut rng).is_some() {
                accepted += 1;
            }
        }
        let rate = f64::from(accepted) / f64::from(trials);
        assert!(
            (0.32..=0.43).contains(&rate),
            "acceptance rate {rate:.3}, expected ≈ 9/24"
        );
    }

    #[test]
    fn accepts_everything_on_trivial_join() {
        use rae_data::Database;
        use rae_query::parser::parse_cq;
        let mut db = Database::new();
        db.add_relation("R", crate::test_support::rel_int(&["a"], &[&[1], &[2]]))
            .unwrap();
        let cq = parse_cq("Q(x) :- R(x)").unwrap();
        let idx = CqIndex::build(&cq, &db).unwrap();
        let s = RsSampler::new(&idx);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(s.attempt(&mut rng).is_some());
        }
    }
}
