//! AST-level optimizations applied before lowering at `-O3`: small-function
//! inlining and loop unrolling.
//!
//! Loop unrolling is the transformation the paper's *loop rerolling*
//! decompiler pass has to undo: a counted `for` loop whose trip count is a
//! known constant divisible by the unroll factor gets its body replicated
//! with the induction step between copies, exactly the form early compilers
//! emitted.

use crate::ast::{Expr, FuncDecl, Program, Stmt};
use crate::parser::eval_const;

/// Maximum body statements for a function to be inline-eligible.
const INLINE_MAX_STMTS: usize = 1;
/// Unroll factor attempted first.
const UNROLL_FACTOR: u64 = 4;
/// Maximum statements in a loop body eligible for unrolling.
const UNROLL_MAX_BODY: usize = 6;

/// Statistics about what the AST optimizer did (used by tests/reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AstOptStats {
    /// Call sites replaced by bodies.
    pub inlined_calls: usize,
    /// Loops unrolled.
    pub unrolled_loops: usize,
}

/// Runs `-O3` AST transformations in place.
pub fn optimize_ast(prog: &mut Program) -> AstOptStats {
    let mut stats = AstOptStats::default();
    inline_small(prog, &mut stats);
    for f in &mut prog.funcs {
        let mut body = std::mem::take(&mut f.body);
        for s in &mut body {
            unroll_stmt(s, &mut stats);
        }
        f.body = body;
    }
    stats
}

// ---- inlining ----

/// A function is inlinable when its body is a single `return expr;` whose
/// expression has no side effects (no calls / assignments / increments).
fn inline_candidate(f: &FuncDecl) -> Option<&Expr> {
    if f.body.len() != INLINE_MAX_STMTS {
        return None;
    }
    match &f.body[0] {
        Stmt::Return(Some(e)) if expr_is_pure(e) => Some(e),
        _ => None,
    }
}

fn expr_is_pure(e: &Expr) -> bool {
    match e {
        Expr::Num(_) | Expr::Ident(_) => true,
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Deref(expr) => {
            expr_is_pure(expr)
        }
        Expr::AddrOf(expr) => expr_is_pure(expr),
        Expr::Binary { lhs, rhs, .. } => expr_is_pure(lhs) && expr_is_pure(rhs),
        Expr::Index { base, index } => expr_is_pure(base) && expr_is_pure(index),
        Expr::Ternary { cond, then, els } => {
            expr_is_pure(cond) && expr_is_pure(then) && expr_is_pure(els)
        }
        Expr::Call { .. }
        | Expr::Assign { .. }
        | Expr::PreInc { .. }
        | Expr::PostInc { .. } => false,
    }
}

fn substitute(e: &Expr, params: &[(String, crate::ast::Ty)], args: &[Expr]) -> Expr {
    match e {
        Expr::Ident(n) => {
            for (k, (p, _)) in params.iter().enumerate() {
                if p == n {
                    return args[k].clone();
                }
            }
            e.clone()
        }
        Expr::Num(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute(expr, params, args)),
        },
        Expr::Cast { ty, expr } => Expr::Cast {
            ty: ty.clone(),
            expr: Box::new(substitute(expr, params, args)),
        },
        Expr::Deref(x) => Expr::Deref(Box::new(substitute(x, params, args))),
        Expr::AddrOf(x) => Expr::AddrOf(Box::new(substitute(x, params, args))),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute(lhs, params, args)),
            rhs: Box::new(substitute(rhs, params, args)),
        },
        Expr::Index { base, index } => Expr::Index {
            base: Box::new(substitute(base, params, args)),
            index: Box::new(substitute(index, params, args)),
        },
        Expr::Ternary { cond, then, els } => Expr::Ternary {
            cond: Box::new(substitute(cond, params, args)),
            then: Box::new(substitute(then, params, args)),
            els: Box::new(substitute(els, params, args)),
        },
        other => other.clone(),
    }
}

/// (name, params, body expression) of a function small enough to inline.
type InlineCandidate = (String, Vec<(String, crate::ast::Ty)>, Expr);

fn inline_small(prog: &mut Program, stats: &mut AstOptStats) {
    let candidates: Vec<InlineCandidate> = prog
        .funcs
        .iter()
        .filter_map(|f| inline_candidate(f).map(|e| (f.name.clone(), f.params.clone(), e.clone())))
        .collect();
    if candidates.is_empty() {
        return;
    }
    let find = |name: &str| candidates.iter().find(|(n, _, _)| n == name);
    for f in &mut prog.funcs {
        let name = f.name.clone();
        for s in &mut f.body {
            inline_stmt(s, &name, &find, stats);
        }
    }
}

type Candidate = (String, Vec<(String, crate::ast::Ty)>, Expr);

fn inline_stmt<'a>(
    s: &mut Stmt,
    self_name: &str,
    find: &impl Fn(&str) -> Option<&'a Candidate>,
    stats: &mut AstOptStats,
) {
    match s {
        Stmt::Decl { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
            inline_expr(e, self_name, find, stats)
        }
        Stmt::If { cond, then, els } => {
            inline_expr(cond, self_name, find, stats);
            inline_stmt(then, self_name, find, stats);
            if let Some(e) = els {
                inline_stmt(e, self_name, find, stats);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            inline_expr(cond, self_name, find, stats);
            inline_stmt(body, self_name, find, stats);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                inline_stmt(i, self_name, find, stats);
            }
            if let Some(c) = cond {
                inline_expr(c, self_name, find, stats);
            }
            if let Some(st) = step {
                inline_expr(st, self_name, find, stats);
            }
            inline_stmt(body, self_name, find, stats);
        }
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => {
            inline_expr(scrutinee, self_name, find, stats);
            for (_, body) in cases {
                for s in body {
                    inline_stmt(s, self_name, find, stats);
                }
            }
            if let Some(d) = default {
                for s in d {
                    inline_stmt(s, self_name, find, stats);
                }
            }
        }
        Stmt::Block(v) => {
            for s in v {
                inline_stmt(s, self_name, find, stats);
            }
        }
        _ => {}
    }
}

fn inline_expr<'a>(
    e: &mut Expr,
    self_name: &str,
    find: &impl Fn(&str) -> Option<&'a Candidate>,
    stats: &mut AstOptStats,
) {
    // Recurse first so nested calls inline bottom-up.
    match e {
        Expr::Unary { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Deref(expr)
        | Expr::AddrOf(expr)
        | Expr::PreInc { expr, .. }
        | Expr::PostInc { expr, .. } => inline_expr(expr, self_name, find, stats),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            inline_expr(lhs, self_name, find, stats);
            inline_expr(rhs, self_name, find, stats);
        }
        Expr::Index { base, index } => {
            inline_expr(base, self_name, find, stats);
            inline_expr(index, self_name, find, stats);
        }
        Expr::Ternary { cond, then, els } => {
            inline_expr(cond, self_name, find, stats);
            inline_expr(then, self_name, find, stats);
            inline_expr(els, self_name, find, stats);
        }
        Expr::Call { name, args } => {
            for a in args.iter_mut() {
                inline_expr(a, self_name, find, stats);
            }
            if name != self_name {
                if let Some((_, params, body)) = find(name) {
                    // Arguments must be pure to substitute without temps.
                    if args.iter().all(expr_is_pure) && params.len() == args.len() {
                        *e = substitute(body, params, args);
                        stats.inlined_calls += 1;
                    }
                }
            }
        }
        Expr::Num(_) | Expr::Ident(_) => {}
    }
}

// ---- unrolling ----

fn unroll_stmt(s: &mut Stmt, stats: &mut AstOptStats) {
    match s {
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            unroll_stmt(body, stats);
            let factor = unrollable(init.as_deref(), cond.as_ref(), step.as_ref(), body);
            if let (Some(factor), Some(step_expr)) = (factor, step.as_ref()) {
                let mut replicas: Vec<Stmt> = Vec::new();
                for k in 0..factor {
                    replicas.push((**body).clone());
                    if k + 1 < factor {
                        replicas.push(Stmt::Expr(step_expr.clone()));
                    }
                }
                **body = Stmt::Block(replicas);
                stats.unrolled_loops += 1;
            }
        }
        Stmt::If { then, els, .. } => {
            unroll_stmt(then, stats);
            if let Some(e) = els {
                unroll_stmt(e, stats);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => unroll_stmt(body, stats),
        Stmt::Block(v) => v.iter_mut().for_each(|s| unroll_stmt(s, stats)),
        Stmt::Switch { cases, default, .. } => {
            for (_, body) in cases {
                body.iter_mut().for_each(|s| unroll_stmt(s, stats));
            }
            if let Some(d) = default {
                d.iter_mut().for_each(|s| unroll_stmt(s, stats));
            }
        }
        _ => {}
    }
}

/// Checks the canonical counted-loop shape `for (i = C0; i < CN; i += S)`
/// (or `i++`/`<=`), body small, body not writing `i`, trip count constant
/// and divisible by the factor. Returns the chosen unroll factor.
fn unrollable(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    body: &Stmt,
) -> Option<u64> {
    use crate::ast::BinOp as B;
    let iv;
    let c0;
    match init? {
        Stmt::Expr(Expr::Assign {
            op: None,
            lhs,
            rhs,
        }) => {
            let Expr::Ident(n) = &**lhs else { return None };
            iv = n.clone();
            c0 = eval_const(rhs)?;
        }
        Stmt::Decl {
            name,
            init: Some(rhs),
            ..
        } => {
            iv = name.clone();
            c0 = eval_const(rhs)?;
        }
        _ => return None,
    }
    let (op, bound) = match cond? {
        Expr::Binary { op, lhs, rhs } => {
            let Expr::Ident(n) = &**lhs else { return None };
            if *n != iv {
                return None;
            }
            (*op, eval_const(rhs)?)
        }
        _ => return None,
    };
    let s = match step? {
        Expr::PostInc { inc: true, expr } | Expr::PreInc { inc: true, expr } => {
            let Expr::Ident(n) = &**expr else { return None };
            if *n != iv {
                return None;
            }
            1
        }
        Expr::Assign {
            op: Some(B::Add),
            lhs,
            rhs,
        } => {
            let Expr::Ident(n) = &**lhs else { return None };
            if *n != iv {
                return None;
            }
            eval_const(rhs)?
        }
        _ => return None,
    };
    if s <= 0 {
        return None;
    }
    let trip = match op {
        B::Lt => (bound - c0 + s - 1) / s,
        B::Le => (bound - c0) / s + 1,
        _ => return None,
    };
    if trip <= 0 {
        return None;
    }
    let trip = trip as u64;
    // body must be small and must not write the induction variable
    if stmt_count(body) > UNROLL_MAX_BODY || writes_var(body, &iv) || has_jump(body) {
        return None;
    }
    [UNROLL_FACTOR, 2].into_iter().find(|&factor| trip.is_multiple_of(factor) && trip >= factor)
}

fn stmt_count(s: &Stmt) -> usize {
    match s {
        Stmt::Block(v) => v.iter().map(stmt_count).sum(),
        Stmt::If { then, els, .. } => {
            1 + stmt_count(then) + els.as_ref().map_or(0, |e| stmt_count(e))
        }
        _ => 1,
    }
}

fn has_jump(s: &Stmt) -> bool {
    match s {
        Stmt::Break | Stmt::Continue | Stmt::Return(_) => true,
        Stmt::Block(v) => v.iter().any(has_jump),
        Stmt::If { then, els, .. } => {
            has_jump(then) || els.as_ref().is_some_and(|e| has_jump(e))
        }
        // nested loops contain their own break/continue; conservative: reject
        Stmt::While { .. } | Stmt::DoWhile { .. } | Stmt::For { .. } | Stmt::Switch { .. } => true,
        _ => false,
    }
}

fn writes_var(s: &Stmt, name: &str) -> bool {
    fn expr_writes(e: &Expr, name: &str) -> bool {
        match e {
            Expr::Assign { lhs, rhs, .. } => {
                matches!(&**lhs, Expr::Ident(n) if n == name)
                    || expr_writes(lhs, name)
                    || expr_writes(rhs, name)
            }
            Expr::PreInc { expr, .. } | Expr::PostInc { expr, .. } => {
                matches!(&**expr, Expr::Ident(n) if n == name) || expr_writes(expr, name)
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Deref(expr)
            | Expr::AddrOf(expr) => expr_writes(expr, name),
            Expr::Binary { lhs, rhs, .. } => expr_writes(lhs, name) || expr_writes(rhs, name),
            Expr::Index { base, index } => expr_writes(base, name) || expr_writes(index, name),
            Expr::Call { args, .. } => args.iter().any(|a| expr_writes(a, name)),
            Expr::Ternary { cond, then, els } => {
                expr_writes(cond, name) || expr_writes(then, name) || expr_writes(els, name)
            }
            _ => false,
        }
    }
    match s {
        Stmt::Expr(e) | Stmt::Return(Some(e)) => expr_writes(e, name),
        Stmt::Decl { init: Some(e), .. } => expr_writes(e, name),
        Stmt::Block(v) => v.iter().any(|s| writes_var(s, name)),
        Stmt::If { cond, then, els } => {
            expr_writes(cond, name)
                || writes_var(then, name)
                || els.as_ref().is_some_and(|e| writes_var(e, name))
        }
        _ => true, // conservative for loops/switch inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unrolls_counted_loop() {
        let mut p = parse(
            "int a[16]; int f(void){ int i; int s=0; for(i=0;i<16;i++){ s += a[i]; } return s; }",
        )
        .unwrap();
        let stats = optimize_ast(&mut p);
        assert_eq!(stats.unrolled_loops, 1);
        // The body should now contain 4 replicas (3 step statements between).
        let Stmt::For { body, .. } = &p.funcs[0].body[2] else {
            panic!("for expected: {:?}", p.funcs[0].body)
        };
        let Stmt::Block(v) = &**body else { panic!() };
        assert_eq!(v.len(), 7); // 4 bodies + 3 steps
    }

    #[test]
    fn does_not_unroll_non_divisible_trip() {
        let mut p = parse(
            "int a[15]; int f(void){ int i; int s=0; for(i=0;i<15;i++){ s += a[i]; } return s; }",
        )
        .unwrap();
        let stats = optimize_ast(&mut p);
        assert_eq!(stats.unrolled_loops, 0);
    }

    #[test]
    fn does_not_unroll_iv_writing_body() {
        let mut p = parse(
            "int f(void){ int i; int s=0; for(i=0;i<16;i++){ if (s > 5) i = i + 1; s++; } return s; }",
        )
        .unwrap();
        let stats = optimize_ast(&mut p);
        assert_eq!(stats.unrolled_loops, 0);
    }

    #[test]
    fn inlines_single_return_function() {
        let mut p = parse(
            "int sq(int x){ return x * x; } int f(int y){ return sq(y + 1); }",
        )
        .unwrap();
        let stats = optimize_ast(&mut p);
        assert_eq!(stats.inlined_calls, 1);
        let Stmt::Return(Some(e)) = &p.funcs[1].body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Binary { .. }));
    }

    #[test]
    fn does_not_inline_impure_args() {
        let mut p = parse(
            "int sq(int x){ return x * x; } int f(int y){ return sq(y++); }",
        )
        .unwrap();
        let stats = optimize_ast(&mut p);
        assert_eq!(stats.inlined_calls, 0);
    }
}
