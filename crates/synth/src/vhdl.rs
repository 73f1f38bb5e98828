//! Register-transfer-level VHDL emission.
//!
//! The original flow handed RTL VHDL to Xilinx ISE; we emit equivalent
//! FSM-plus-datapath VHDL text (entity, state machine, per-step datapath
//! transfers). Nothing here is synthesized further: the area and clock
//! numbers ISE reported come instead from this crate's Virtex-II–class
//! technology model ([`crate::tech`], [`crate::TechLibrary::virtex2`]),
//! applied to the same schedule this text is rendered from.

use crate::schedule::BlockSchedule;
use binpart_cdfg::ir::{BinOp, Function, Op, Operand, UnOp};
use std::fmt::Write;

/// Emits a VHDL architecture for one scheduled kernel.
///
/// `name` becomes the entity name; `ops`/`schedule` describe one scheduled
/// region (typically the hottest loop body).
pub fn emit_kernel(f: &Function, name: &str, ops: &[&Op], schedule: &BlockSchedule) -> String {
    let mut v = String::new();
    let entity = sanitize(name);
    let _ = writeln!(v, "library ieee;");
    let _ = writeln!(v, "use ieee.std_logic_1164.all;");
    let _ = writeln!(v, "use ieee.numeric_std.all;");
    let _ = writeln!(v);
    let _ = writeln!(v, "entity {entity} is");
    let _ = writeln!(v, "  port (");
    let _ = writeln!(v, "    clk    : in  std_logic;");
    let _ = writeln!(v, "    rst    : in  std_logic;");
    let _ = writeln!(v, "    start  : in  std_logic;");
    let _ = writeln!(v, "    done   : out std_logic;");
    let _ = writeln!(v, "    mem_addr  : out std_logic_vector(31 downto 0);");
    let _ = writeln!(v, "    mem_wdata : out std_logic_vector(31 downto 0);");
    let _ = writeln!(v, "    mem_rdata : in  std_logic_vector(31 downto 0);");
    let _ = writeln!(v, "    mem_we    : out std_logic");
    let _ = writeln!(v, "  );");
    let _ = writeln!(v, "end entity {entity};");
    let _ = writeln!(v);
    let _ = writeln!(v, "architecture rtl of {entity} is");
    // State type.
    let nstates = schedule.depth.max(1);
    let states: Vec<String> = (0..nstates).map(|s| format!("S{s}")).collect();
    let _ = writeln!(
        v,
        "  type state_t is (IDLE, {}, FINISH);",
        states.join(", ")
    );
    let _ = writeln!(v, "  signal state : state_t := IDLE;");
    // Registers for every produced value.
    for op in ops {
        if let Some(d) = op.dst() {
            let bits = f.bits_of(d).max(1);
            let _ = writeln!(
                v,
                "  signal r{} : std_logic_vector({} downto 0);",
                d.0,
                bits.saturating_sub(1)
            );
        }
    }
    let _ = writeln!(v, "begin");
    let _ = writeln!(v, "  process (clk)");
    let _ = writeln!(v, "  begin");
    let _ = writeln!(v, "    if rising_edge(clk) then");
    let _ = writeln!(v, "      if rst = '1' then");
    let _ = writeln!(v, "        state <= IDLE;");
    let _ = writeln!(v, "        done  <= '0';");
    let _ = writeln!(v, "      else");
    let _ = writeln!(v, "        case state is");
    let _ = writeln!(v, "          when IDLE =>");
    let _ = writeln!(v, "            done <= '0';");
    let _ = writeln!(v, "            if start = '1' then state <= S0; end if;");
    for s in 0..nstates {
        let _ = writeln!(v, "          when S{s} =>");
        for (k, op) in ops.iter().enumerate() {
            if schedule.steps[k] == s {
                for line in op_to_vhdl(f, op) {
                    let _ = writeln!(v, "            {line}");
                }
            }
        }
        if s + 1 < nstates {
            let _ = writeln!(v, "            state <= S{};", s + 1);
        } else {
            let _ = writeln!(v, "            state <= FINISH;");
        }
    }
    let _ = writeln!(v, "          when FINISH =>");
    let _ = writeln!(v, "            done  <= '1';");
    let _ = writeln!(v, "            state <= IDLE;");
    let _ = writeln!(v, "        end case;");
    let _ = writeln!(v, "      end if;");
    let _ = writeln!(v, "    end if;");
    let _ = writeln!(v, "  end process;");
    let _ = writeln!(v, "end architecture rtl;");
    v
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'k');
    }
    s
}

fn operand(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => format!("r{}", r.0),
        Operand::Const(c) => format!("std_logic_vector(to_signed({c}, 32))"),
    }
}

fn op_to_vhdl(f: &Function, op: &Op) -> Vec<String> {
    let _ = f;
    match op {
        Op::Const { dst, value } => vec![format!(
            "r{} <= std_logic_vector(to_signed({value}, 32));",
            dst.0
        )],
        Op::Copy { dst, src } => vec![format!("r{} <= {};", dst.0, operand(src))],
        Op::Un { op, dst, src } => {
            let s = operand(src);
            let expr = match op {
                UnOp::Not => format!("not {s}"),
                UnOp::Neg => format!("std_logic_vector(-signed({s}))"),
                UnOp::SextB => format!("std_logic_vector(resize(signed({s}(7 downto 0)), 32))"),
                UnOp::SextH => format!("std_logic_vector(resize(signed({s}(15 downto 0)), 32))"),
                UnOp::ZextB => format!("std_logic_vector(resize(unsigned({s}(7 downto 0)), 32))"),
                UnOp::ZextH => {
                    format!("std_logic_vector(resize(unsigned({s}(15 downto 0)), 32))")
                }
            };
            vec![format!("r{} <= {expr};", op_dst(opn(dst)))]
        }
        Op::Bin { op, dst, lhs, rhs } => {
            let a = operand(lhs);
            let b = operand(rhs);
            let expr = match op {
                BinOp::Add => format!("std_logic_vector(signed({a}) + signed({b}))"),
                BinOp::Sub => format!("std_logic_vector(signed({a}) - signed({b}))"),
                BinOp::Mul => format!("std_logic_vector(resize(signed({a}) * signed({b}), 32))"),
                BinOp::MulHiS | BinOp::MulHiU => {
                    format!("mulhi({a}, {b})")
                }
                BinOp::DivS | BinOp::DivU => format!("div_unit({a}, {b})"),
                BinOp::RemS | BinOp::RemU => format!("rem_unit({a}, {b})"),
                BinOp::And => format!("{a} and {b}"),
                BinOp::Or => format!("{a} or {b}"),
                BinOp::Xor => format!("{a} xor {b}"),
                BinOp::Nor => format!("not ({a} or {b})"),
                BinOp::Shl => shift("shift_left", &a, rhs),
                BinOp::ShrL => shift("shift_right", &a, rhs),
                BinOp::ShrA => shift_arith(&a, rhs),
                BinOp::Eq => cmp(&a, &b, "="),
                BinOp::Ne => cmp(&a, &b, "/="),
                BinOp::LtS => cmp_signed(&a, &b, "<"),
                BinOp::LtU => cmp_unsigned(&a, &b, "<"),
                BinOp::LeS => cmp_signed(&a, &b, "<="),
                BinOp::GtS => cmp_signed(&a, &b, ">"),
                BinOp::GeS => cmp_signed(&a, &b, ">="),
            };
            vec![format!("r{} <= {expr};", dst.0)]
        }
        Op::Load { dst, addr, .. } => vec![
            format!("mem_addr <= {};", operand(addr)),
            "mem_we <= '0';".to_string(),
            format!("r{} <= mem_rdata;", dst.0),
        ],
        Op::Store { src, addr, .. } => vec![
            format!("mem_addr <= {};", operand(addr)),
            format!("mem_wdata <= {};", operand(src)),
            "mem_we <= '1';".to_string(),
        ],
        Op::Phi { dst, .. } => vec![format!("-- r{} carried by pipeline register", dst.0)],
        Op::Call { .. } => vec!["-- call (not synthesizable)".to_string()],
    }
}

fn opn(d: &binpart_cdfg::ir::VReg) -> u32 {
    d.0
}

fn op_dst(n: u32) -> u32 {
    n
}

fn shift(f: &str, a: &str, rhs: &Operand) -> String {
    match rhs {
        Operand::Const(c) => format!("std_logic_vector({f}(unsigned({a}), {}))", *c & 31),
        Operand::Reg(r) => format!(
            "std_logic_vector({f}(unsigned({a}), to_integer(unsigned(r{}(4 downto 0)))))",
            r.0
        ),
    }
}

fn shift_arith(a: &str, rhs: &Operand) -> String {
    match rhs {
        Operand::Const(c) => format!("std_logic_vector(shift_right(signed({a}), {}))", *c & 31),
        Operand::Reg(r) => format!(
            "std_logic_vector(shift_right(signed({a}), to_integer(unsigned(r{}(4 downto 0)))))",
            r.0
        ),
    }
}

fn cmp(a: &str, b: &str, op: &str) -> String {
    format!("(31 downto 1 => '0') & bool_to_sl({a} {op} {b})")
}

fn cmp_signed(a: &str, b: &str, op: &str) -> String {
    format!("(31 downto 1 => '0') & bool_to_sl(signed({a}) {op} signed({b}))")
}

fn cmp_unsigned(a: &str, b: &str, op: &str) -> String {
    format!("(31 downto 1 => '0') & bool_to_sl(unsigned({a}) {op} unsigned({b}))")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_ops, ResourceBudget};
    use crate::tech::TechLibrary;
    use binpart_cdfg::ir::VReg;

    #[test]
    fn emits_structured_entity() {
        let mut f = Function::new("fir_kernel");
        let a = f.new_vreg();
        let b = f.new_vreg();
        let d = f.new_vreg();
        let e = f.new_vreg();
        let ops = [
            Op::Bin {
                op: BinOp::Mul,
                dst: d,
                lhs: Operand::Reg(a),
                rhs: Operand::Reg(b),
            },
            Op::Bin {
                op: BinOp::Add,
                dst: e,
                lhs: Operand::Reg(d),
                rhs: Operand::Const(1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let s = schedule_ops(
            &f,
            &refs,
            &TechLibrary::virtex2(),
            &ResourceBudget::default(),
            true,
        );
        let v = emit_kernel(&f, "fir_kernel", &refs, &s);
        assert!(v.contains("entity fir_kernel is"));
        assert!(v.contains("architecture rtl of fir_kernel"));
        assert!(v.contains("when IDLE =>"));
        assert!(v.contains("when FINISH =>"));
        assert!(v.contains(&format!("r{} <=", e.0)));
        assert!(v.contains("signed"));
        // every state present
        for st in 0..s.depth {
            assert!(v.contains(&format!("when S{st} =>")), "missing state {st}");
        }
        let _ = VReg(0);
    }

    #[test]
    fn sanitizes_entity_names() {
        assert_eq!(sanitize("f_0x400040"), "f_0x400040");
        assert_eq!(sanitize("0bad"), "k0bad");
        assert_eq!(sanitize("a-b"), "a_b");
    }
}
