//! Global program states and predicate evaluation.
//!
//! A state is "a map assigning values to variables" (Section 1). The
//! observer reconstructs these maps from the write messages and evaluates
//! the specification's atoms over them.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use jmpax_core::{Value, VarId};

use crate::ast::{Atom, BinOp, CmpOp, Expr};

/// A global state: shared-variable values at one point of a run.
///
/// Variables never written (and absent from the initial state) read as
/// integer `0` — the same default the JVM gives primitive fields.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ProgramState {
    values: BTreeMap<VarId, Value>,
}

impl ProgramState {
    /// The empty state (all variables 0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a state from any `(VarId, Value)` map.
    #[must_use]
    pub fn from_map(values: BTreeMap<VarId, Value>) -> Self {
        Self { values }
    }

    /// The value of `var` (integer 0 when unset).
    #[must_use]
    pub fn get(&self, var: VarId) -> Value {
        self.values.get(&var).copied().unwrap_or(Value::Int(0))
    }

    /// Sets `var` to `value`.
    pub fn set(&mut self, var: VarId, value: impl Into<Value>) {
        self.values.insert(var, value.into());
    }

    /// Returns a copy with `var` updated — the state-transition taken when
    /// the observer applies one write message.
    #[must_use]
    pub fn updated(&self, var: VarId, value: Value) -> ProgramState {
        let mut next = self.clone();
        next.values.insert(var, value);
        next
    }

    /// Iterates over explicitly set variables.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }

    /// The underlying map.
    #[must_use]
    pub fn as_map(&self) -> &BTreeMap<VarId, Value> {
        &self.values
    }

    /// Evaluates an arithmetic expression over this state.
    ///
    /// Division and modulo by zero evaluate to 0 (monitors must be total:
    /// a crash in the observer must never take down the analysis).
    /// Arithmetic wraps on overflow for the same reason.
    #[must_use]
    pub fn eval_expr(&self, expr: &Expr) -> i64 {
        eval_expr(self, expr)
    }

    /// Evaluates an atomic predicate over this state.
    #[must_use]
    pub fn eval_atom(&self, atom: &Atom) -> bool {
        eval_atom(self, atom)
    }
}

/// Where predicate evaluation reads variable values from: a whole
/// [`ProgramState`], or a monitor's slot vector (`crate::monitor`).
pub(crate) trait Vars {
    /// The integer view of `var` (booleans as 0/1).
    fn int(&self, var: VarId) -> i64;
}

impl Vars for ProgramState {
    fn int(&self, var: VarId) -> i64 {
        self.get(var).as_int()
    }
}

/// [`ProgramState::eval_expr`] over any value source.
pub(crate) fn eval_expr<V: Vars + ?Sized>(vars: &V, expr: &Expr) -> i64 {
    match expr {
        Expr::Const(c) => *c,
        Expr::Var(v) => vars.int(*v),
        Expr::Neg(e) => eval_expr(vars, e).wrapping_neg(),
        Expr::Bin(op, a, b) => {
            let a = eval_expr(vars, a);
            let b = eval_expr(vars, b);
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_rem(b)
                    }
                }
            }
        }
    }
}

/// [`ProgramState::eval_atom`] over any value source. A bare variable is
/// truthy when its integer view is nonzero, which is exactly
/// [`Value::as_bool`] for every value kind.
pub(crate) fn eval_atom<V: Vars + ?Sized>(vars: &V, atom: &Atom) -> bool {
    match atom {
        Atom::BoolVar(v) => vars.int(*v) != 0,
        Atom::Cmp(a, op, b) => {
            let a = eval_expr(vars, a);
            let b = eval_expr(vars, b);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
    }
}

impl fmt::Display for ProgramState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, (var, value)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{var}={value}")?;
        }
        write!(f, ">")
    }
}

impl FromIterator<(VarId, Value)> for ProgramState {
    fn from_iter<I: IntoIterator<Item = (VarId, Value)>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);

    #[test]
    fn defaults_to_zero() {
        let s = ProgramState::new();
        assert_eq!(s.get(X), Value::Int(0));
        assert_eq!(s.eval_expr(&Expr::Var(X)), 0);
    }

    #[test]
    fn set_and_update() {
        let mut s = ProgramState::new();
        s.set(X, 3);
        let s2 = s.updated(Y, Value::Int(4));
        assert_eq!(s.get(Y), Value::Int(0)); // original untouched
        assert_eq!(s2.get(X), Value::Int(3));
        assert_eq!(s2.get(Y), Value::Int(4));
    }

    #[test]
    fn arithmetic() {
        let mut s = ProgramState::new();
        s.set(X, 7);
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Var(X)), Box::new(Expr::Const(1)));
        assert_eq!(s.eval_expr(&e), 8);
        let e = Expr::Neg(Box::new(Expr::Var(X)));
        assert_eq!(s.eval_expr(&e), -7);
        let e = Expr::Bin(BinOp::Mul, Box::new(Expr::Var(X)), Box::new(Expr::Const(3)));
        assert_eq!(s.eval_expr(&e), 21);
    }

    #[test]
    fn division_by_zero_is_total() {
        let s = ProgramState::new();
        let div = Expr::Bin(BinOp::Div, Box::new(Expr::Const(5)), Box::new(Expr::Var(X)));
        let modulo = Expr::Bin(BinOp::Mod, Box::new(Expr::Const(5)), Box::new(Expr::Var(X)));
        assert_eq!(s.eval_expr(&div), 0);
        assert_eq!(s.eval_expr(&modulo), 0);
    }

    #[test]
    fn overflow_wraps() {
        let mut s = ProgramState::new();
        s.set(X, i64::MAX);
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Var(X)), Box::new(Expr::Const(1)));
        assert_eq!(s.eval_expr(&e), i64::MIN);
    }

    #[test]
    fn comparisons() {
        let mut s = ProgramState::new();
        s.set(X, 2);
        s.set(Y, 3);
        let cmp = |op| Atom::Cmp(Expr::Var(X), op, Expr::Var(Y));
        assert!(s.eval_atom(&cmp(CmpOp::Lt)));
        assert!(s.eval_atom(&cmp(CmpOp::Le)));
        assert!(s.eval_atom(&cmp(CmpOp::Ne)));
        assert!(!s.eval_atom(&cmp(CmpOp::Eq)));
        assert!(!s.eval_atom(&cmp(CmpOp::Gt)));
        assert!(!s.eval_atom(&cmp(CmpOp::Ge)));
    }

    #[test]
    fn bool_vars_are_truthy_nonzero() {
        let mut s = ProgramState::new();
        s.set(X, Value::Bool(true));
        s.set(Y, -5);
        assert!(s.eval_atom(&Atom::BoolVar(X)));
        assert!(s.eval_atom(&Atom::BoolVar(Y)));
        assert!(!s.eval_atom(&Atom::BoolVar(VarId(9))));
    }

    #[test]
    fn display_is_compact() {
        let mut s = ProgramState::new();
        s.set(X, 1);
        s.set(Y, Value::Bool(false));
        assert_eq!(s.to_string(), "<v0=1,v1=false>");
    }
}
