//! Abstract syntax of the specification language.
//!
//! The language has two layers: *arithmetic expressions* over shared
//! variables, which are compared to form *atomic state predicates*, and
//! *formulas* combining atoms with boolean and past-time temporal operators.

use serde::{Deserialize, Serialize};

use jmpax_core::VarId;

/// Integer arithmetic over shared variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// The current value of a shared variable (booleans coerce to 0/1).
    Var(VarId),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary arithmetic operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero evaluates to 0; see [`crate::state`])
    Div,
    /// `%` (modulo by zero evaluates to 0)
    Mod,
}

/// Comparison operators between arithmetic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=` / `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// An atomic state predicate.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Atom {
    /// A comparison between two arithmetic expressions.
    Cmp(Expr, CmpOp, Expr),
    /// A bare variable used as a boolean (truthy when nonzero).
    BoolVar(VarId),
}

/// A formula of past-time LTL with the interval operator.
///
/// Following the monitor-synthesis papers referenced by JMPaX
/// (Havelund & Roşu, TACAS'02), all temporal operators look *backwards*:
/// a safety property is a formula required to hold at **every** state of a
/// run. The observed/predicted runs violate the property as soon as the
/// formula evaluates to false at some state.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// An atomic predicate on the current state.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// `@ F` — *previously*: `F` held at the previous state. At the initial
    /// state, `@ F ≡ F` (the standard ptLTL convention).
    Prev(Box<Formula>),
    /// `[*] F` — `F` held at every state so far (always in the past).
    AlwaysPast(Box<Formula>),
    /// `<*> F` — `F` held at some state so far (eventually in the past).
    EventuallyPast(Box<Formula>),
    /// `F S G` — *(strong) since*: `G` held at some past-or-present state
    /// and `F` has held ever since (strictly after it).
    Since(Box<Formula>, Box<Formula>),
    /// `F Sw G` — *weak since*: `F S G` or `F` held at every state so far.
    SinceWeak(Box<Formula>, Box<Formula>),
    /// `[P, Q)` — *interval*: there is a past-or-present state where `P`
    /// held, and `Q` has not held at that state or any state since.
    /// The paper reads `[y = 0, y > z)` as "`y = 0` has been true in the
    /// past, and since then `y > z` was always false".
    Interval(Box<Formula>, Box<Formula>),
    /// `start(F)` — `F` just became true: false at the initial state,
    /// afterwards `F ∧ ¬@F`.
    Start(Box<Formula>),
    /// `end(F)` — `F` just became false: false at the initial state,
    /// afterwards `¬F ∧ @F`.
    End(Box<Formula>),
}

#[allow(clippy::should_implement_trait)] // `not`/`and`/`or` mirror the logic's syntax
impl Formula {
    /// Convenience: `!self`.
    #[must_use]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Convenience: `self /\ rhs`.
    #[must_use]
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// Convenience: `self \/ rhs`.
    #[must_use]
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// Convenience: `self -> rhs`.
    #[must_use]
    pub fn implies(self, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// The set of variables mentioned by the formula — these are the
    /// *relevant variables* the instrumentor must watch (Section 2.3:
    /// "an instrumentation module parses the user specification \[and\]
    /// extracts the set of shared variables it refers to").
    #[must_use]
    pub fn variables(&self) -> std::collections::BTreeSet<VarId> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut std::collections::BTreeSet<VarId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => a.collect_vars(out),
            Formula::Not(f)
            | Formula::Prev(f)
            | Formula::AlwaysPast(f)
            | Formula::EventuallyPast(f)
            | Formula::Start(f)
            | Formula::End(f) => f.collect_vars(out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b)
            | Formula::SinceWeak(a, b)
            | Formula::Interval(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Number of AST nodes (a size measure used by benchmarks).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f)
            | Formula::Prev(f)
            | Formula::AlwaysPast(f)
            | Formula::EventuallyPast(f)
            | Formula::Start(f)
            | Formula::End(f) => 1 + f.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b)
            | Formula::SinceWeak(a, b)
            | Formula::Interval(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Compiles the formula into an online monitor.
    ///
    /// Errors when the formula has more than [`crate::monitor::MAX_BITS`]
    /// temporal subformulas (monitor state must fit one machine word).
    pub fn monitor(&self) -> Result<crate::monitor::Monitor, crate::monitor::MonitorError> {
        crate::monitor::Monitor::compile(self)
    }
}

impl Atom {
    pub(crate) fn collect_vars(&self, out: &mut std::collections::BTreeSet<VarId>) {
        match self {
            Atom::BoolVar(v) => {
                out.insert(*v);
            }
            Atom::Cmp(a, _, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl Expr {
    fn collect_vars(&self, out: &mut std::collections::BTreeSet<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                out.insert(*v);
            }
            Expr::Neg(e) => e.collect_vars(out),
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: u32) -> Expr {
        Expr::Var(VarId(i))
    }

    #[test]
    fn variables_collects_across_layers() {
        // (v0 > 0) -> [v1 = 0, v1 > v2)
        let f =
            Formula::Atom(Atom::Cmp(var(0), CmpOp::Gt, Expr::Const(0))).implies(Formula::Interval(
                Box::new(Formula::Atom(Atom::Cmp(var(1), CmpOp::Eq, Expr::Const(0)))),
                Box::new(Formula::Atom(Atom::Cmp(var(1), CmpOp::Gt, var(2)))),
            ));
        let vars: Vec<_> = f.variables().into_iter().collect();
        assert_eq!(vars, vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::True.and(Formula::False.not());
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let f = Formula::True.or(Formula::False);
        assert!(matches!(f, Formula::Or(_, _)));
        let f = Formula::True.implies(Formula::False);
        assert!(matches!(f, Formula::Implies(_, _)));
    }

    #[test]
    fn bool_var_is_collected() {
        let f = Formula::Atom(Atom::BoolVar(VarId(7)));
        assert!(f.variables().contains(&VarId(7)));
    }
}
