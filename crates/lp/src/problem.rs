//! A small modelling layer over the standard-form simplex.

use crate::simplex::{solve_standard, StandardForm, StandardOutcome};
use bwfirst_rational::Rat;

/// Handle to a decision variable (implicitly `≥ 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal {
        /// Objective value at the optimum.
        value: Rat,
        /// Value of each declared variable, indexed by [`VarId`].
        solution: Vec<Rat>,
    },
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// No point satisfies all constraints.
    Infeasible,
}

/// Builds a *maximization* problem over non-negative variables.
///
/// ```
/// use bwfirst_lp::{Cmp, LpOutcome, ProblemBuilder};
/// use bwfirst_rational::rat;
///
/// // max 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 2
/// let mut pb = ProblemBuilder::new();
/// let x = pb.var(rat(3, 1));
/// let y = pb.var(rat(2, 1));
/// pb.constraint(&[(x, rat(1, 1)), (y, rat(1, 1))], Cmp::Le, rat(4, 1));
/// pb.constraint(&[(x, rat(1, 1))], Cmp::Le, rat(2, 1));
/// match pb.solve() {
///     LpOutcome::Optimal { value, solution } => {
///         assert_eq!(value, rat(10, 1)); // x = 2, y = 2
///         assert_eq!(solution, vec![rat(2, 1), rat(2, 1)]);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProblemBuilder {
    objective: Vec<Rat>,
    rows: Vec<(Vec<Rat>, Rat)>, // all converted to ≤ on build
}

impl ProblemBuilder {
    /// Creates an empty problem.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a variable with the given objective coefficient.
    pub fn var(&mut self, objective: Rat) -> VarId {
        self.objective.push(objective);
        VarId(self.objective.len() - 1)
    }

    /// Adds a linear constraint `Σ coeffᵢ·xᵢ  cmp  rhs`.
    ///
    /// Panics on unknown variables; repeated variables accumulate.
    pub fn constraint(&mut self, terms: &[(VarId, Rat)], cmp: Cmp, rhs: Rat) {
        let mut row = vec![Rat::ZERO; self.objective.len()];
        for &(VarId(i), coeff) in terms {
            assert!(i < row.len(), "unknown variable");
            row[i] += coeff;
        }
        match cmp {
            Cmp::Le => self.rows.push((row, rhs)),
            Cmp::Ge => self.rows.push((row.iter().map(|&c| -c).collect(), -rhs)),
            Cmp::Eq => {
                self.rows.push((row.iter().map(|&c| -c).collect(), -rhs));
                self.rows.push((row, rhs));
            }
        }
    }

    /// Solves the problem with the exact two-phase simplex.
    #[must_use]
    pub fn solve(&self) -> LpOutcome {
        let sf = StandardForm { objective: self.objective.clone(), rows: self.rows.clone() };
        match solve_standard(&sf) {
            StandardOutcome::Optimal { value, solution } => LpOutcome::Optimal { value, solution },
            StandardOutcome::Unbounded => LpOutcome::Unbounded,
            StandardOutcome::Infeasible => LpOutcome::Infeasible,
        }
    }

    /// Checks that `point` satisfies every constraint (and non-negativity).
    /// Useful for validating solutions independently of the solver.
    #[must_use]
    pub fn is_feasible(&self, point: &[Rat]) -> bool {
        if point.len() != self.objective.len() || point.iter().any(|v| v.is_negative()) {
            return false;
        }
        self.rows.iter().all(|(row, rhs)| {
            let lhs: Rat = row.iter().zip(point).map(|(&c, &x)| c * x).sum();
            lhs <= *rhs
        })
    }

    /// Evaluates the objective at `point`.
    #[must_use]
    pub fn objective_at(&self, point: &[Rat]) -> Rat {
        self.objective.iter().zip(point).map(|(&c, &x)| c * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn r(n: i128) -> Rat {
        rat(n, 1)
    }

    #[test]
    fn simple_max() {
        // max x + y s.t. 2x + y ≤ 4, x + 2y ≤ 4 → (4/3, 4/3), value 8/3.
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        let y = pb.var(r(1));
        pb.constraint(&[(x, r(2)), (y, r(1))], Cmp::Le, r(4));
        pb.constraint(&[(x, r(1)), (y, r(2))], Cmp::Le, r(4));
        let LpOutcome::Optimal { value, solution } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, rat(8, 3));
        assert_eq!(solution, vec![rat(4, 3), rat(4, 3)]);
        assert!(pb.is_feasible(&solution));
    }

    #[test]
    fn equality_constraints() {
        // max x s.t. x + y = 3, y ≥ 1 → x = 2.
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        let y = pb.var(r(0));
        pb.constraint(&[(x, r(1)), (y, r(1))], Cmp::Eq, r(3));
        pb.constraint(&[(y, r(1))], Cmp::Ge, r(1));
        let LpOutcome::Optimal { value, solution } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, r(2));
        assert_eq!(solution[1], r(1));
    }

    #[test]
    fn detects_unbounded() {
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        pb.constraint(&[(x, r(-1))], Cmp::Le, r(0)); // -x ≤ 0 i.e. x ≥ 0
        assert_eq!(pb.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn detects_infeasible() {
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        pb.constraint(&[(x, r(1))], Cmp::Le, r(1));
        pb.constraint(&[(x, r(1))], Cmp::Ge, r(2));
        assert_eq!(pb.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn zero_variable_problem() {
        let pb = ProblemBuilder::new();
        let LpOutcome::Optimal { value, solution } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, Rat::ZERO);
        assert!(solution.is_empty());
    }

    #[test]
    fn repeated_variables_accumulate() {
        // x + x ≤ 4 → x ≤ 2.
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        pb.constraint(&[(x, r(1)), (x, r(1))], Cmp::Le, r(4));
        let LpOutcome::Optimal { value, .. } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, r(2));
    }

    #[test]
    fn negative_rhs_requires_phase_one() {
        // max -x s.t. x ≥ 3 (i.e. -x ≤ -3) → x = 3, value -3.
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(-1));
        pb.constraint(&[(x, r(1))], Cmp::Ge, r(3));
        let LpOutcome::Optimal { value, solution } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, r(-3));
        assert_eq!(solution, vec![r(3)]);
    }

    #[test]
    fn fractional_coefficients_stay_exact() {
        // max x s.t. (1/3)x ≤ 1/7 → x = 3/7.
        let mut pb = ProblemBuilder::new();
        let x = pb.var(r(1));
        pb.constraint(&[(x, rat(1, 3))], Cmp::Le, rat(1, 7));
        let LpOutcome::Optimal { value, .. } = pb.solve() else { panic!("expected optimum") };
        assert_eq!(value, rat(3, 7));
    }
}
