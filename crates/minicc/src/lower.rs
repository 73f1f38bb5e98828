//! AST → TIR lowering with integrated semantic checks.
//!
//! Responsibilities: scope/symbol resolution, C integer promotion and
//! signedness selection, array decay and pointer-arithmetic scaling,
//! short-circuit control flow, and canonicalizing narrow scalar variables
//! (values of `char`/`short` locals are kept sign-/zero-extended to 32 bits).

use crate::ast::{BinOp, Expr, FuncDecl, Program, Stmt, Ty, UnOp};
use crate::tir::{
    BlockId, MemW, Opnd, TBinOp, TFunc, TInst, TProgram, TTerm, TUnOp, VarId, VarInfo, VarKind,
};
use std::collections::HashMap;
use std::fmt;

/// Semantic / lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Message.
    pub msg: String,
}

impl LowerError {
    fn new(msg: impl Into<String>) -> LowerError {
        LowerError { msg: msg.into() }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.msg)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a parsed program to TIR.
///
/// # Errors
///
/// Returns [`LowerError`] for undefined names, arity mismatches, assignments
/// to non-lvalues, and other semantic violations.
pub fn lower(prog: &Program) -> Result<TProgram, LowerError> {
    let mut sigs: HashMap<String, (Ty, Vec<Ty>)> = HashMap::new();
    for f in &prog.funcs {
        if sigs
            .insert(
                f.name.clone(),
                (
                    f.ret.clone(),
                    f.params.iter().map(|(_, t)| t.decayed()).collect(),
                ),
            )
            .is_some()
        {
            return Err(LowerError::new(format!("function `{}` redefined", f.name)));
        }
    }
    let mut globals_index = HashMap::new();
    for (i, g) in prog.globals.iter().enumerate() {
        if globals_index.insert(g.name.clone(), i).is_some() {
            return Err(LowerError::new(format!("global `{}` redefined", g.name)));
        }
    }
    let cx = ProgCx {
        prog,
        sigs,
        globals_index,
    };
    let mut funcs = Vec::new();
    for f in &prog.funcs {
        funcs.push(lower_func(&cx, f)?);
    }
    Ok(TProgram {
        globals: prog.globals.clone(),
        funcs,
    })
}

struct ProgCx<'p> {
    prog: &'p Program,
    sigs: HashMap<String, (Ty, Vec<Ty>)>,
    globals_index: HashMap<String, usize>,
}

struct FnCx<'p, 'c> {
    cx: &'c ProgCx<'p>,
    f: TFunc,
    scopes: Vec<HashMap<String, VarId>>,
    cur: BlockId,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
    addr_taken: Vec<String>,
}

/// An lvalue.
enum Place {
    Var(VarId, Ty),
    Mem { addr: Opnd, ty: Ty },
}

impl Place {
    fn ty(&self) -> &Ty {
        match self {
            Place::Var(_, t) => t,
            Place::Mem { ty, .. } => ty,
        }
    }
}

fn collect_addr_taken(stmts: &[Stmt], out: &mut Vec<String>) {
    fn expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::AddrOf(inner) => {
                if let Expr::Ident(n) = &**inner {
                    if !out.contains(n) {
                        out.push(n.clone());
                    }
                } else {
                    expr(inner, out);
                }
            }
            Expr::Unary { expr: e, .. }
            | Expr::Cast { expr: e, .. }
            | Expr::Deref(e)
            | Expr::PreInc { expr: e, .. }
            | Expr::PostInc { expr: e, .. } => expr(e, out),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            Expr::Index { base, index } => {
                expr(base, out);
                expr(index, out);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| expr(a, out)),
            Expr::Ternary { cond, then, els } => {
                expr(cond, out);
                expr(then, out);
                expr(els, out);
            }
            Expr::Num(_) | Expr::Ident(_) => {}
        }
    }
    fn stmt(s: &Stmt, out: &mut Vec<String>) {
        match s {
            Stmt::Decl { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                expr(e, out)
            }
            Stmt::If { cond, then, els } => {
                expr(cond, out);
                stmt(then, out);
                if let Some(e) = els {
                    stmt(e, out);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                expr(cond, out);
                stmt(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    stmt(i, out);
                }
                if let Some(c) = cond {
                    expr(c, out);
                }
                if let Some(st) = step {
                    expr(st, out);
                }
                stmt(body, out);
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                expr(scrutinee, out);
                for (_, body) in cases {
                    body.iter().for_each(|s| stmt(s, out));
                }
                if let Some(d) = default {
                    d.iter().for_each(|s| stmt(s, out));
                }
            }
            Stmt::Block(v) => v.iter().for_each(|s| stmt(s, out)),
            _ => {}
        }
    }
    stmts.iter().for_each(|s| stmt(s, out));
}

fn lower_func(cx: &ProgCx<'_>, decl: &FuncDecl) -> Result<TFunc, LowerError> {
    let mut addr_taken = Vec::new();
    collect_addr_taken(&decl.body, &mut addr_taken);
    let mut fcx = FnCx {
        cx,
        f: TFunc {
            name: decl.name.clone(),
            ret: decl.ret.clone(),
            params: Vec::new(),
            vars: Vec::new(),
            blocks: Vec::new(),
        },
        scopes: vec![HashMap::new()],
        cur: BlockId(0),
        breaks: Vec::new(),
        continues: Vec::new(),
        addr_taken,
    };
    let entry = fcx.f.new_block();
    fcx.cur = entry;
    for (name, ty) in &decl.params {
        let ty = ty.decayed();
        let id = VarId(fcx.f.vars.len() as u32);
        fcx.f.vars.push(VarInfo {
            name: name.clone(),
            ty: ty.clone(),
            kind: VarKind::Scalar,
        });
        fcx.f.params.push(id);
        fcx.bind(name, id);
        // Address-taken parameters get a frame home seeded from the register.
        if fcx.addr_taken.contains(name) {
            let home = fcx.declare_frame(&format!("{name}$home"), ty.clone(), ty.size() as u32)?;
            let addr = fcx.f.new_temp(Ty::Ptr(Box::new(ty.clone())));
            fcx.f.emit(
                fcx.cur,
                TInst::AddrFrame {
                    dst: addr,
                    var: home,
                    offset: 0,
                },
            );
            fcx.f.emit(
                fcx.cur,
                TInst::Store {
                    addr: Opnd::Var(addr),
                    src: Opnd::Var(id),
                    width: MemW::for_ty(&ty),
                },
            );
            fcx.bind(name, home);
        }
    }
    for s in &decl.body {
        fcx.stmt(s)?;
    }
    // Fall-off-the-end return.
    let default_ret = if decl.ret == Ty::Void {
        TTerm::Ret(None)
    } else {
        TTerm::Ret(Some(Opnd::Const(0)))
    };
    fcx.f.set_term(fcx.cur, default_ret);
    Ok(fcx.f)
}

impl<'p, 'c> FnCx<'p, 'c> {
    fn declare_scalar(&mut self, name: &str, ty: Ty) -> VarId {
        let id = VarId(self.f.vars.len() as u32);
        self.f.vars.push(VarInfo {
            name: name.to_string(),
            ty,
            kind: VarKind::Scalar,
        });
        self.bind(name, id);
        id
    }

    fn declare_frame(&mut self, name: &str, ty: Ty, size: u32) -> Result<VarId, LowerError> {
        let align = ty.align() as u32;
        let id = VarId(self.f.vars.len() as u32);
        self.f.vars.push(VarInfo {
            name: name.to_string(),
            ty,
            kind: VarKind::Frame { size, align },
        });
        self.bind(name, id);
        Ok(id)
    }

    /// Binds `name` to `id` in the innermost scope. The function's own
    /// scope is pushed first and never popped, so there always is one.
    fn bind(&mut self, name: &str, id: VarId) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), id);
        }
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        for scope in self.scopes.iter().rev() {
            if let Some(&v) = scope.get(name) {
                return Some(v);
            }
        }
        None
    }

    fn emit(&mut self, inst: TInst) {
        self.f.emit(self.cur, inst);
    }

    fn jump_to(&mut self, b: BlockId) {
        self.f.set_term(self.cur, TTerm::Jump(b));
        self.cur = b;
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Decl { name, ty, init } => {
                match ty {
                    Ty::Array(elem, n) => {
                        if init.is_some() {
                            return Err(LowerError::new(
                                "local array initializers are not supported",
                            ));
                        }
                        self.declare_frame(name, (**elem).clone(), (elem.size() * n) as u32)?;
                    }
                    _ if self.addr_taken.contains(name) => {
                        let home =
                            self.declare_frame(name, ty.clone(), ty.size().max(1) as u32)?;
                        if let Some(e) = init {
                            let (v, vt) = self.rvalue(e)?;
                            let v = self.convert(v, &vt, ty);
                            let addr = self.frame_addr(home, ty.clone());
                            self.emit(TInst::Store {
                                addr,
                                src: v,
                                width: MemW::for_ty(ty),
                            });
                        }
                    }
                    _ => {
                        let id = self.declare_scalar(name, ty.clone());
                        if let Some(e) = init {
                            let (v, vt) = self.rvalue(e)?;
                            let v = self.convert(v, &vt, ty);
                            self.emit(TInst::Copy { dst: id, src: v });
                        }
                    }
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.rvalue_or_void(e)?;
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let tb = self.f.new_block();
                let jb = self.f.new_block();
                let eb = if els.is_some() { self.f.new_block() } else { jb };
                self.branch_on(cond, tb, eb)?;
                self.cur = tb;
                self.stmt(then)?;
                self.jump_to(jb);
                if let Some(e) = els {
                    self.cur = eb;
                    self.stmt(e)?;
                    self.jump_to(jb);
                }
                self.cur = jb;
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header = self.f.new_block();
                let bodyb = self.f.new_block();
                let exit = self.f.new_block();
                self.jump_to(header);
                self.branch_on(cond, bodyb, exit)?;
                self.cur = bodyb;
                self.breaks.push(exit);
                self.continues.push(header);
                self.stmt(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.f.set_term(self.cur, TTerm::Jump(header));
                self.cur = exit;
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let bodyb = self.f.new_block();
                let condb = self.f.new_block();
                let exit = self.f.new_block();
                self.jump_to(bodyb);
                self.breaks.push(exit);
                self.continues.push(condb);
                self.stmt(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.f.set_term(self.cur, TTerm::Jump(condb));
                self.cur = condb;
                self.branch_on(cond, bodyb, exit)?;
                self.cur = exit;
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let header = self.f.new_block();
                let bodyb = self.f.new_block();
                let stepb = self.f.new_block();
                let exit = self.f.new_block();
                self.jump_to(header);
                match cond {
                    Some(c) => self.branch_on(c, bodyb, exit)?,
                    None => self.f.set_term(self.cur, TTerm::Jump(bodyb)),
                }
                self.cur = bodyb;
                self.breaks.push(exit);
                self.continues.push(stepb);
                self.stmt(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.f.set_term(self.cur, TTerm::Jump(stepb));
                self.cur = stepb;
                if let Some(st) = step {
                    self.rvalue_or_void(st)?;
                }
                self.f.set_term(self.cur, TTerm::Jump(header));
                self.cur = exit;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let (val, _) = self.rvalue(scrutinee)?;
                let join = self.f.new_block();
                let mut case_blocks = Vec::new();
                for (label, _) in cases {
                    case_blocks.push((*label, self.f.new_block()));
                }
                let default_block = if default.is_some() {
                    self.f.new_block()
                } else {
                    join
                };
                self.f.set_term(
                    self.cur,
                    TTerm::Switch {
                        val,
                        cases: case_blocks.clone(),
                        default: default_block,
                    },
                );
                self.breaks.push(join);
                for ((_, body), (_, block)) in cases.iter().zip(&case_blocks) {
                    self.cur = *block;
                    for s in body {
                        self.stmt(s)?;
                    }
                    self.f.set_term(self.cur, TTerm::Jump(join));
                }
                if let Some(d) = default {
                    self.cur = default_block;
                    for s in d {
                        self.stmt(s)?;
                    }
                    self.f.set_term(self.cur, TTerm::Jump(join));
                }
                self.breaks.pop();
                self.cur = join;
                Ok(())
            }
            Stmt::Return(e) => {
                let term = match e {
                    None => TTerm::Ret(None),
                    Some(e) => {
                        let (v, vt) = self.rvalue(e)?;
                        let ret_ty = self.f.ret.clone();
                        let v = self.convert(v, &vt, &ret_ty);
                        TTerm::Ret(Some(v))
                    }
                };
                self.f.set_term(self.cur, term);
                self.cur = self.f.new_block(); // unreachable continuation
                Ok(())
            }
            Stmt::Break => {
                let target = *self
                    .breaks
                    .last()
                    .ok_or_else(|| LowerError::new("`break` outside loop/switch"))?;
                self.f.set_term(self.cur, TTerm::Jump(target));
                self.cur = self.f.new_block();
                Ok(())
            }
            Stmt::Continue => {
                let target = *self
                    .continues
                    .last()
                    .ok_or_else(|| LowerError::new("`continue` outside loop"))?;
                self.f.set_term(self.cur, TTerm::Jump(target));
                self.cur = self.f.new_block();
                Ok(())
            }
            Stmt::Block(v) => {
                self.scopes.push(HashMap::new());
                for s in v {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn branch_on(&mut self, cond: &Expr, t: BlockId, f: BlockId) -> Result<(), LowerError> {
        let (v, _) = self.rvalue(cond)?;
        self.f.set_term(self.cur, TTerm::Br { cond: v, t, f });
        Ok(())
    }

    // ---- expressions ----

    /// Allows void calls in statement position.
    fn rvalue_or_void(&mut self, e: &Expr) -> Result<(), LowerError> {
        if let Expr::Call { name, args } = e {
            let (ret, _) = self.check_call(name, args.len())?;
            let args = self.lower_args(name, args)?;
            let dst = if ret == Ty::Void {
                None
            } else {
                Some(self.f.new_temp(ret))
            };
            self.emit(TInst::Call {
                dst,
                callee: name.clone(),
                args,
            });
            Ok(())
        } else {
            self.rvalue(e).map(|_| ())
        }
    }

    fn check_call(&self, name: &str, argc: usize) -> Result<(Ty, Vec<Ty>), LowerError> {
        let (ret, params) = self
            .cx
            .sigs
            .get(name)
            .ok_or_else(|| LowerError::new(format!("call to undefined function `{name}`")))?;
        if params.len() != argc {
            return Err(LowerError::new(format!(
                "`{name}` expects {} argument(s), got {argc}",
                params.len()
            )));
        }
        Ok((ret.clone(), params.clone()))
    }

    fn lower_args(&mut self, name: &str, args: &[Expr]) -> Result<Vec<Opnd>, LowerError> {
        let (_, params) = self.check_call(name, args.len())?;
        let mut out = Vec::new();
        for (a, pty) in args.iter().zip(&params) {
            let (v, vt) = self.rvalue(a)?;
            out.push(self.convert(v, &vt, pty));
        }
        Ok(out)
    }

    /// Converts `v : from` into representation type `to` (canonical widened
    /// form): truncating conversions re-extend per the target signedness.
    fn convert(&mut self, v: Opnd, from: &Ty, to: &Ty) -> Opnd {
        let need = match to {
            Ty::Char => Some((TUnOp::SextB, 8)),
            Ty::UChar => Some((TUnOp::ZextB, 8)),
            Ty::Short => Some((TUnOp::SextH, 16)),
            Ty::UShort => Some((TUnOp::ZextH, 16)),
            _ => None,
        };
        // Narrow source types are already canonical; skip when identical.
        if from == to {
            return v;
        }
        match need {
            None => v,
            Some((op, _bits)) => {
                if let Opnd::Const(c) = v {
                    return Opnd::Const(op.fold(c));
                }
                let t = self.f.new_temp(to.clone());
                self.emit(TInst::Un { op, dst: t, a: v });
                Opnd::Var(t)
            }
        }
    }

    fn frame_addr(&mut self, var: VarId, elem_ty: Ty) -> Opnd {
        let t = self.f.new_temp(Ty::Ptr(Box::new(elem_ty)));
        self.emit(TInst::AddrFrame {
            dst: t,
            var,
            offset: 0,
        });
        Opnd::Var(t)
    }

    fn global_addr(&mut self, idx: usize, elem_ty: Ty) -> Opnd {
        let t = self.f.new_temp(Ty::Ptr(Box::new(elem_ty)));
        self.emit(TInst::AddrGlobal {
            dst: t,
            global: idx,
            offset: 0,
        });
        Opnd::Var(t)
    }

    fn place(&mut self, e: &Expr) -> Result<Place, LowerError> {
        match e {
            Expr::Ident(name) => {
                if let Some(id) = self.lookup(name) {
                    let info = self.f.vars[id.index()].clone();
                    return Ok(match info.kind {
                        VarKind::Scalar => Place::Var(id, info.ty),
                        VarKind::Frame { .. } => {
                            let addr = self.frame_addr(id, info.ty.clone());
                            Place::Mem {
                                addr,
                                ty: info.ty,
                            }
                        }
                    });
                }
                if let Some(&gi) = self.cx.globals_index.get(name) {
                    let gty = self.cx.prog.globals[gi].ty.clone();
                    let elem = match &gty {
                        Ty::Array(e, _) => (**e).clone(),
                        t => t.clone(),
                    };
                    let addr = self.global_addr(gi, elem);
                    return Ok(Place::Mem { addr, ty: gty });
                }
                Err(LowerError::new(format!("undefined variable `{name}`")))
            }
            Expr::Deref(inner) => {
                let (v, t) = self.rvalue(inner)?;
                let elem = t
                    .element()
                    .cloned()
                    .ok_or_else(|| LowerError::new("dereference of non-pointer"))?;
                Ok(Place::Mem { addr: v, ty: elem })
            }
            Expr::Index { base, index } => {
                let (base_addr, base_ty) = self.array_base(base)?;
                let elem = base_ty
                    .element()
                    .cloned()
                    .ok_or_else(|| LowerError::new("indexing a non-array"))?;
                let (idx, _) = self.rvalue(index)?;
                let addr = self.scale_add(base_addr, idx, elem.size() as i64);
                Ok(Place::Mem { addr, ty: elem })
            }
            other => Err(LowerError::new(format!(
                "expression is not assignable: {other:?}"
            ))),
        }
    }

    /// Base address of an array-ish expression plus its (decayed) type.
    fn array_base(&mut self, e: &Expr) -> Result<(Opnd, Ty), LowerError> {
        match e {
            Expr::Ident(name) => {
                if let Some(id) = self.lookup(name) {
                    let info = self.f.vars[id.index()].clone();
                    return Ok(match info.kind {
                        VarKind::Frame { .. } => {
                            // frame object: either array storage or scalar home
                            let addr = self.frame_addr(id, info.ty.clone());
                            (addr, Ty::Ptr(Box::new(info.ty)))
                        }
                        VarKind::Scalar => (Opnd::Var(id), info.ty), // pointer variable
                    });
                }
                if let Some(&gi) = self.cx.globals_index.get(name) {
                    let gty = self.cx.prog.globals[gi].ty.clone();
                    return Ok(match &gty {
                        Ty::Array(e, _) => {
                            let addr = self.global_addr(gi, (**e).clone());
                            (addr, Ty::Ptr(e.clone()))
                        }
                        Ty::Ptr(e) => {
                            // global pointer variable: load its value
                            let addr = self.global_addr(gi, gty.clone());
                            let t = self.f.new_temp(gty.clone());
                            self.emit(TInst::Load {
                                dst: t,
                                addr,
                                width: MemW::W,
                                signed: false,
                            });
                            (Opnd::Var(t), Ty::Ptr(e.clone()))
                        }
                        _ => return Err(LowerError::new(format!("`{name}` is not an array"))),
                    });
                }
                Err(LowerError::new(format!("undefined variable `{name}`")))
            }
            other => self.rvalue(other),
        }
    }

    fn scale_add(&mut self, base: Opnd, idx: Opnd, scale: i64) -> Opnd {
        let scaled = if scale == 1 {
            idx
        } else if let Opnd::Const(c) = idx {
            Opnd::Const(c.wrapping_mul(scale))
        } else {
            let t = self.f.new_temp(Ty::Int);
            self.emit(TInst::Bin {
                op: TBinOp::Mul,
                dst: t,
                a: idx,
                b: Opnd::Const(scale),
            });
            Opnd::Var(t)
        };
        let t = self.f.new_temp(Ty::UInt);
        self.emit(TInst::Bin {
            op: TBinOp::Add,
            dst: t,
            a: base,
            b: scaled,
        });
        Opnd::Var(t)
    }

    fn read_place(&mut self, p: &Place) -> (Opnd, Ty) {
        match p {
            Place::Var(id, t) => (Opnd::Var(*id), t.clone()),
            Place::Mem { addr, ty } => {
                let promoted = promote(ty);
                let t = self.f.new_temp(promoted.clone());
                self.emit(TInst::Load {
                    dst: t,
                    addr: *addr,
                    width: MemW::for_ty(ty),
                    signed: ty.is_signed(),
                });
                (Opnd::Var(t), ty.clone())
            }
        }
    }

    fn write_place(&mut self, p: &Place, v: Opnd, vt: &Ty) {
        match p {
            Place::Var(id, t) => {
                let v = self.convert(v, vt, t);
                self.emit(TInst::Copy { dst: *id, src: v });
            }
            Place::Mem { addr, ty } => {
                self.emit(TInst::Store {
                    addr: *addr,
                    src: v,
                    width: MemW::for_ty(ty),
                });
            }
        }
    }

    fn rvalue(&mut self, e: &Expr) -> Result<(Opnd, Ty), LowerError> {
        match e {
            Expr::Num(v) => Ok((Opnd::Const(*v), Ty::Int)),
            Expr::Ident(name) => {
                // Arrays decay to their address.
                if let Some(id) = self.lookup(name) {
                    let info = self.f.vars[id.index()].clone();
                    return Ok(match info.kind {
                        VarKind::Scalar => (Opnd::Var(id), info.ty),
                        VarKind::Frame { .. } => {
                            if matches!(info.ty, Ty::Char | Ty::UChar | Ty::Short | Ty::UShort | Ty::Int | Ty::UInt | Ty::Ptr(_))
                                && self.addr_taken.contains(name)
                            {
                                // address-taken scalar: read through memory
                                let addr = self.frame_addr(id, info.ty.clone());
                                let place = Place::Mem {
                                    addr,
                                    ty: info.ty.clone(),
                                };
                                self.read_place(&place)
                            } else {
                                let addr = self.frame_addr(id, info.ty.clone());
                                (addr, Ty::Ptr(Box::new(info.ty)))
                            }
                        }
                    });
                }
                if let Some(&gi) = self.cx.globals_index.get(name) {
                    let gty = self.cx.prog.globals[gi].ty.clone();
                    return Ok(match &gty {
                        Ty::Array(e, _) => {
                            let addr = self.global_addr(gi, (**e).clone());
                            (addr, Ty::Ptr(e.clone()))
                        }
                        t => {
                            let addr = self.global_addr(gi, t.clone());
                            let place = Place::Mem {
                                addr,
                                ty: t.clone(),
                            };
                            self.read_place(&place)
                        }
                    });
                }
                Err(LowerError::new(format!("undefined variable `{name}`")))
            }
            Expr::Unary { op, expr } => {
                let (v, t) = self.rvalue(expr)?;
                match op {
                    UnOp::Neg => Ok((self.un(TUnOp::Neg, v), promote(&t))),
                    UnOp::Not => Ok((self.un(TUnOp::Not, v), promote(&t))),
                    UnOp::LNot => {
                        let d = self.f.new_temp(Ty::Int);
                        self.emit(TInst::Bin {
                            op: TBinOp::Eq,
                            dst: d,
                            a: v,
                            b: Opnd::Const(0),
                        });
                        Ok((Opnd::Var(d), Ty::Int))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            Expr::Assign { op, lhs, rhs } => {
                let place = self.place(lhs)?;
                let value = match op {
                    None => {
                        let (v, vt) = self.rvalue(rhs)?;
                        let target_ty = place.ty().clone();
                        
                        self.convert(v, &vt, &target_ty)
                    }
                    Some(bop) => {
                        let (cur, cur_ty) = self.read_place(&place);
                        let (rv, rvt) = self.rvalue(rhs)?;
                        let (v, _) = self.apply_binop(*bop, cur, &cur_ty, rv, &rvt)?;
                        let target_ty = place.ty().clone();
                        self.convert(v, &cur_ty, &target_ty)
                    }
                };
                let vt = place.ty().clone();
                self.write_place(&place, value, &vt);
                Ok((value, vt))
            }
            Expr::Index { .. } | Expr::Deref(_) => {
                let place = self.place(e)?;
                Ok(self.read_place(&place))
            }
            Expr::Call { name, args } => {
                let (ret, _) = self.check_call(name, args.len())?;
                if ret == Ty::Void {
                    return Err(LowerError::new(format!(
                        "void function `{name}` used as a value"
                    )));
                }
                let args = self.lower_args(name, args)?;
                let dst = self.f.new_temp(ret.clone());
                self.emit(TInst::Call {
                    dst: Some(dst),
                    callee: name.clone(),
                    args,
                });
                Ok((Opnd::Var(dst), ret))
            }
            Expr::Cast { ty, expr } => {
                let (v, vt) = self.rvalue(expr)?;
                let v = self.convert(v, &vt, ty);
                Ok((v, ty.clone()))
            }
            Expr::AddrOf(inner) => {
                let place = self.place(inner)?;
                match place {
                    Place::Mem { addr, ty } => Ok((addr, Ty::Ptr(Box::new(ty)))),
                    Place::Var(..) => Err(LowerError::new(
                        "cannot take the address of a register variable",
                    )),
                }
            }
            Expr::Ternary { cond, then, els } => {
                let result = self.f.new_temp(Ty::Int);
                let tb = self.f.new_block();
                let eb = self.f.new_block();
                let join = self.f.new_block();
                self.branch_on(cond, tb, eb)?;
                self.cur = tb;
                let (tv, _) = self.rvalue(then)?;
                self.emit(TInst::Copy {
                    dst: result,
                    src: tv,
                });
                self.jump_to(join);
                self.cur = eb;
                let (ev, _) = self.rvalue(els)?;
                self.emit(TInst::Copy {
                    dst: result,
                    src: ev,
                });
                self.f.set_term(self.cur, TTerm::Jump(join));
                self.cur = join;
                Ok((Opnd::Var(result), Ty::Int))
            }
            Expr::PreInc { inc, expr } => {
                let place = self.place(expr)?;
                let (cur, t) = self.read_place(&place);
                let step = self.step_for(&t);
                let op = if *inc { TBinOp::Add } else { TBinOp::Sub };
                let nv = self.f.new_temp(t.clone());
                self.emit(TInst::Bin {
                    op,
                    dst: nv,
                    a: cur,
                    b: Opnd::Const(step),
                });
                self.write_place(&place, Opnd::Var(nv), &t);
                Ok((Opnd::Var(nv), t))
            }
            Expr::PostInc { inc, expr } => {
                let place = self.place(expr)?;
                let (cur, t) = self.read_place(&place);
                // capture old value
                let old = self.f.new_temp(t.clone());
                self.emit(TInst::Copy { dst: old, src: cur });
                let step = self.step_for(&t);
                let op = if *inc { TBinOp::Add } else { TBinOp::Sub };
                let nv = self.f.new_temp(t.clone());
                self.emit(TInst::Bin {
                    op,
                    dst: nv,
                    a: Opnd::Var(old),
                    b: Opnd::Const(step),
                });
                self.write_place(&place, Opnd::Var(nv), &t);
                Ok((Opnd::Var(old), t))
            }
        }
    }

    fn step_for(&self, t: &Ty) -> i64 {
        match t {
            Ty::Ptr(e) => e.size() as i64,
            _ => 1,
        }
    }

    fn un(&mut self, op: TUnOp, v: Opnd) -> Opnd {
        if let Opnd::Const(c) = v {
            return Opnd::Const(op.fold(c));
        }
        let t = self.f.new_temp(Ty::Int);
        self.emit(TInst::Un { op, dst: t, a: v });
        Opnd::Var(t)
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<(Opnd, Ty), LowerError> {
        // Short-circuit forms need control flow.
        if matches!(op, BinOp::LAnd | BinOp::LOr) {
            let result = self.f.new_temp(Ty::Int);
            let rhsb = self.f.new_block();
            let shortb = self.f.new_block();
            let join = self.f.new_block();
            let (lv, _) = self.rvalue(lhs)?;
            let (t, f) = if op == BinOp::LAnd {
                (rhsb, shortb)
            } else {
                (shortb, rhsb)
            };
            self.f.set_term(self.cur, TTerm::Br { cond: lv, t, f });
            self.cur = rhsb;
            let (rv, _) = self.rvalue(rhs)?;
            let norm = self.f.new_temp(Ty::Int);
            self.emit(TInst::Bin {
                op: TBinOp::Ne,
                dst: norm,
                a: rv,
                b: Opnd::Const(0),
            });
            self.emit(TInst::Copy {
                dst: result,
                src: Opnd::Var(norm),
            });
            self.f.set_term(self.cur, TTerm::Jump(join));
            self.cur = shortb;
            self.emit(TInst::Copy {
                dst: result,
                src: Opnd::Const((op == BinOp::LOr) as i64),
            });
            self.f.set_term(self.cur, TTerm::Jump(join));
            self.cur = join;
            return Ok((Opnd::Var(result), Ty::Int));
        }
        let (a, at) = self.rvalue(lhs)?;
        let (b, bt) = self.rvalue(rhs)?;
        self.apply_binop(op, a, &at, b, &bt)
    }

    fn apply_binop(
        &mut self,
        op: BinOp,
        a: Opnd,
        at: &Ty,
        b: Opnd,
        bt: &Ty,
    ) -> Result<(Opnd, Ty), LowerError> {
        // Pointer arithmetic scaling.
        if let (BinOp::Add | BinOp::Sub, Ty::Ptr(e)) = (op, at) {
            if bt.is_integer() {
                let scaled = match b {
                    Opnd::Const(c) => Opnd::Const(c.wrapping_mul(e.size() as i64)),
                    v => {
                        let t = self.f.new_temp(Ty::Int);
                        self.emit(TInst::Bin {
                            op: TBinOp::Mul,
                            dst: t,
                            a: v,
                            b: Opnd::Const(e.size() as i64),
                        });
                        Opnd::Var(t)
                    }
                };
                let top = if op == BinOp::Add {
                    TBinOp::Add
                } else {
                    TBinOp::Sub
                };
                let t = self.f.new_temp(at.clone());
                self.emit(TInst::Bin {
                    op: top,
                    dst: t,
                    a,
                    b: scaled,
                });
                return Ok((Opnd::Var(t), at.clone()));
            }
        }
        let unsigned = is_unsigned_ctx(at) || is_unsigned_ctx(bt);
        let top = match op {
            BinOp::Add => TBinOp::Add,
            BinOp::Sub => TBinOp::Sub,
            BinOp::Mul => TBinOp::Mul,
            BinOp::Div => {
                if unsigned {
                    TBinOp::DivU
                } else {
                    TBinOp::DivS
                }
            }
            BinOp::Rem => {
                if unsigned {
                    TBinOp::RemU
                } else {
                    TBinOp::RemS
                }
            }
            BinOp::And => TBinOp::And,
            BinOp::Or => TBinOp::Or,
            BinOp::Xor => TBinOp::Xor,
            BinOp::Shl => TBinOp::Shl,
            BinOp::Shr => {
                if is_unsigned_ctx(at) {
                    TBinOp::ShrL
                } else {
                    TBinOp::ShrA
                }
            }
            BinOp::Eq => TBinOp::Eq,
            BinOp::Ne => TBinOp::Ne,
            BinOp::Lt => {
                if unsigned {
                    TBinOp::LtU
                } else {
                    TBinOp::LtS
                }
            }
            BinOp::Le => {
                if unsigned {
                    TBinOp::LeU
                } else {
                    TBinOp::LeS
                }
            }
            BinOp::Gt => {
                if unsigned {
                    TBinOp::GtU
                } else {
                    TBinOp::GtS
                }
            }
            BinOp::Ge => {
                if unsigned {
                    TBinOp::GeU
                } else {
                    TBinOp::GeS
                }
            }
            BinOp::LAnd | BinOp::LOr => {
                return Err(LowerError::new(
                    "logical operator reached arithmetic lowering",
                ))
            }
        };
        if let (Opnd::Const(x), Opnd::Const(y)) = (a, b) {
            if let Some(v) = top.fold(x, y) {
                let rty = result_ty(op, at, bt);
                return Ok((Opnd::Const(v), rty));
            }
        }
        let rty = result_ty(op, at, bt);
        let t = self.f.new_temp(rty.clone());
        self.emit(TInst::Bin {
            op: top,
            dst: t,
            a,
            b,
        });
        Ok((Opnd::Var(t), rty))
    }
}

fn promote(t: &Ty) -> Ty {
    match t {
        Ty::Char | Ty::Short | Ty::Int => Ty::Int,
        Ty::UChar | Ty::UShort => Ty::Int, // C promotes narrow unsigned to int
        Ty::UInt => Ty::UInt,
        other => other.clone(),
    }
}

fn is_unsigned_ctx(t: &Ty) -> bool {
    matches!(t, Ty::UInt | Ty::Ptr(_))
}

fn result_ty(op: BinOp, at: &Ty, bt: &Ty) -> Ty {
    if matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return Ty::Int;
    }
    if matches!(at, Ty::Ptr(_)) {
        return at.clone();
    }
    if is_unsigned_ctx(at) || is_unsigned_ctx(bt) {
        Ty::UInt
    } else {
        Ty::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> TProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn lowers_simple_function() {
        let p = lower_src("int add(int a, int b) { return a + b; }");
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert!(f.inst_count() >= 1);
    }

    #[test]
    fn loops_produce_expected_block_shape() {
        let p = lower_src("int f(int n){ int i; int s=0; for(i=0;i<n;i++) s+=i; return s; }");
        let f = &p.funcs[0];
        // entry + header + body + step + exit + return-continuation blocks
        assert!(f.blocks.len() >= 5);
        // one conditional branch somewhere
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, TTerm::Br { .. })));
    }

    #[test]
    fn short_circuit_creates_control_flow() {
        let p = lower_src("int f(int a, int b){ return a && b; }");
        let f = &p.funcs[0];
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn narrow_assignment_inserts_extension() {
        let p = lower_src("int f(int x){ char c; c = x; return c; }");
        let f = &p.funcs[0];
        let has_sext = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, TInst::Un { op: TUnOp::SextB, .. }));
        assert!(has_sext, "char assignment must sign-extend: {f}");
    }

    #[test]
    fn array_indexing_scales() {
        let p = lower_src("int a[10]; int f(int i){ return a[i]; }");
        let f = &p.funcs[0];
        let has_mul_or_shift = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                TInst::Bin {
                    op: TBinOp::Mul,
                    b: Opnd::Const(4),
                    ..
                }
            )
        });
        assert!(has_mul_or_shift, "index must scale by 4: {f}");
        let has_addr_global = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, TInst::AddrGlobal { .. }));
        assert!(has_addr_global);
    }

    #[test]
    fn unsigned_compare_selected() {
        let p = lower_src("int f(unsigned int a, unsigned int b){ return a < b; }");
        let f = &p.funcs[0];
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, TInst::Bin { op: TBinOp::LtU, .. })));
    }

    #[test]
    fn undefined_variable_rejected() {
        let e = lower(&parse("int f(void){ return zz; }").unwrap()).unwrap_err();
        assert!(e.msg.contains("undefined variable"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = lower(&parse("int g(int a){return a;} int f(void){ return g(1,2); }").unwrap())
            .unwrap_err();
        assert!(e.msg.contains("expects 1 argument"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = lower(&parse("int f(void){ break; return 0; }").unwrap()).unwrap_err();
        assert!(e.msg.contains("break"));
    }

    #[test]
    fn addr_of_local_goes_through_frame() {
        let p = lower_src("int f(void){ int x = 3; int* p = &x; *p = 5; return x; }");
        let f = &p.funcs[0];
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, TInst::AddrFrame { .. })));
    }

    #[test]
    fn switch_lowered_to_switch_term() {
        let p = lower_src(
            "int f(int x){ switch(x){ case 1: return 10; case 2: return 20; default: return 0; } }",
        );
        let f = &p.funcs[0];
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, TTerm::Switch { .. })));
    }
}
