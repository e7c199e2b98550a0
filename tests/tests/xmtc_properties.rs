//! Property tests of the XMTC toolchain: (1) printing a random
//! expression AST and re-parsing it yields the same AST (parser
//! correctness incl. precedence); (2) compiling and executing a random
//! expression matches an independent Rust-side evaluator (codegen +
//! ISA semantics); (3) random flat programs with counted loops agree
//! between the two execution engines.

use proptest::prelude::*;
use xmtc::{BinOp, Expr};

// ---------- random integer expressions ----------

fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        prop_oneof![
            (0u32..1000).prop_map(Expr::Int),
            Just(Expr::Var("a".into())),
            Just(Expr::Var("b".into())),
        ]
        .boxed()
    } else {
        let sub = arb_expr(depth - 1);
        prop_oneof![
            (0u32..1000).prop_map(Expr::Int),
            Just(Expr::Var("a".into())),
            Just(Expr::Var("b".into())),
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Rem),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Xor),
                    Just(BinOp::Shl),
                    Just(BinOp::Shr),
                ],
                sub.clone(),
                sub
            )
                .prop_map(|(op, l, r)| Expr::Bin(op, Box::new(l), Box::new(r))),
        ]
        .boxed()
    }
}

/// Print an expression with full parenthesization (so precedence can't
/// hide printer bugs; the parser must still produce the same tree).
fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Bin(op, l, r) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
            };
            format!("({} {} {})", print_expr(l), o, print_expr(r))
        }
        _ => unreachable!("generator emits only literals/vars/binops"),
    }
}

/// Independent evaluator with the ISA's wrapping/unsigned semantics.
fn eval(e: &Expr, a: u32, b: u32) -> u32 {
    match e {
        Expr::Int(v) => *v,
        Expr::Var(n) => {
            if n == "a" {
                a
            } else {
                b
            }
        }
        Expr::Bin(op, l, r) => {
            let (x, y) = (eval(l, a, b), eval(r, a, b));
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => x.checked_div(y).unwrap_or(u32::MAX),
                BinOp::Rem => x.checked_rem(y).unwrap_or(x),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y & 31),
                BinOp::Shr => x.wrapping_shr(y & 31),
            }
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_parse_roundtrip(e in arb_expr(3)) {
        let src = format!("int a = 1; int b = 2; int z = {};", print_expr(&e));
        let ast = xmtc::parse(&src).unwrap();
        match &ast.body[2] {
            xmtc::Stmt::Decl { init, .. } => prop_assert_eq!(init, &e),
            other => prop_assert!(false, "unexpected stmt {:?}", other),
        }
    }

    #[test]
    fn compiled_expression_matches_evaluator(
        e in arb_expr(3),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let src = format!(
            "int a = {a}; int b = {b}; mem[0] = {};",
            print_expr(&e)
        );
        let prog = xmtc::compile(&src).unwrap();
        let mut m = xmt_isa::Interp::new(8);
        m.run(&prog).unwrap();
        prop_assert_eq!(m.mem[0], eval(&e, a, b));
    }

    #[test]
    fn counted_loops_terminate_and_agree(
        iters in 0u32..20,
        stride in 1u32..5,
        e in arb_expr(2),
    ) {
        // A counted while loop accumulating a random expression of the
        // loop counter; both engines must agree with each other.
        let src = format!(
            "int a = 0; int b = {stride}; int acc = 0; int i = 0;
             while (i < {iters}) {{
                 a = i;
                 acc = acc + {};
                 i = i + b;
             }}
             mem[0] = acc; mem[1] = i;",
            print_expr(&e)
        );
        let prog = xmtc::compile(&src).unwrap();
        let mut interp = xmt_isa::Interp::new(8);
        interp.run(&prog).unwrap();

        let cfg = xmt_sim::XmtConfig::xmt_4k().scaled_to(2);
        let mut mach = xmt_sim::SimConfig::new(&cfg).builder(prog).mem_words(8).build();
        mach.run().unwrap();
        prop_assert_eq!(interp.mem[0], mach.mem[0]);
        prop_assert_eq!(interp.mem[1], mach.mem[1]);

        // Cross-check against direct evaluation.
        let mut acc = 0u32;
        let mut i = 0u32;
        while i < iters {
            acc = acc.wrapping_add(eval(&e, i, stride));
            i += stride;
        }
        prop_assert_eq!(interp.mem[0], acc);
    }

    #[test]
    fn random_spawn_bodies_execute_identically(
        threads in 1u32..32,
        e in arb_expr(2),
    ) {
        // Each thread stores f($, K) into its own slot.
        let src = format!(
            "g0 = 7;
             spawn ({threads}) {{
                 int a = $;
                 int b = g0;
                 mem[$] = {};
             }}",
            print_expr(&e)
        );
        let prog = xmtc::compile(&src).unwrap();
        let mut interp = xmt_isa::Interp::new(64);
        interp.run(&prog).unwrap();
        let cfg = xmt_sim::XmtConfig::xmt_4k().scaled_to(2);
        let mut mach = xmt_sim::SimConfig::new(&cfg).builder(prog).mem_words(64).build();
        mach.run().unwrap();
        for t in 0..threads {
            prop_assert_eq!(interp.mem[t as usize], eval(&e, t, 7));
            prop_assert_eq!(mach.mem[t as usize], interp.mem[t as usize]);
        }
    }
}
