//! Known-bad graph mutations, each pinned to the exact diagnostic code the
//! static analyzer must emit. Every class here models a defect that — before
//! the analyzer — would have built fine and failed (or silently misbehaved)
//! at run time.

use rdg_graph::analyze::{analyze_module, codes, AnalysisConfig};
use rdg_graph::graph::{GraphError, PortRef};
use rdg_graph::{ModuleBuilder, OpKind};
use rdg_tensor::{DType, Tensor};

/// Asserts that `finish()` rejects the module with the given code.
fn assert_denied(mb: ModuleBuilder, want: &str) {
    match mb.finish() {
        Err(GraphError::Analysis { code, msg }) => {
            assert_eq!(code, want, "wrong diagnostic code; message: {msg}");
        }
        Err(e) => panic!("expected Analysis[{want}], got {e}"),
        Ok(_) => panic!("expected Analysis[{want}], module built clean"),
    }
}

/// Asserts the analyzer emits at least one diagnostic with the given code.
fn assert_code(m: &rdg_graph::Module, want: &str) {
    let report = analyze_module(m);
    assert!(
        report.diagnostics.iter().any(|d| d.code == want),
        "expected a {want} diagnostic, got: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect::<Vec<_>>()
    );
}

// -- class 1: element-wise shape clash --------------------------------------

#[test]
fn shape_clash_rejected_at_finish() {
    let mut mb = ModuleBuilder::new();
    let a = mb.constant(Tensor::from_f32(vec![2, 2], vec![0.0; 4]).unwrap());
    let b = mb.constant(Tensor::from_f32(vec![3], vec![0.0; 3]).unwrap());
    let c = mb.add(a, b).unwrap();
    mb.set_outputs(&[c]).unwrap();
    assert_denied(mb, codes::SHAPE_MISMATCH);
}

// -- class 2: matmul inner-dimension clash through an invoke ----------------
//
// Regression for the historical loophole: `invoke` only checked arity and
// dtypes, so a call site could pass a shape-incompatible argument and the
// kernel died at run time. Interprocedural inference now rejects it at
// build time.

#[test]
fn shape_incompatible_invoke_arg_rejected() {
    let mut mb = ModuleBuilder::new();
    let w = mb.constant(Tensor::from_f32(vec![3, 4], vec![0.0; 12]).unwrap());
    let f = mb
        .subgraph("proj", &[DType::F32], &[DType::F32], |b| {
            let x = b.input(0)?;
            Ok(vec![b.matmul(x, w)?])
        })
        .unwrap();
    // Arity and dtype are correct; only the inner dimension (5 vs 3) is not.
    let bad = mb.constant(Tensor::from_f32(vec![2, 5], vec![0.0; 10]).unwrap());
    let y = mb.invoke(&f, &[bad]).unwrap()[0];
    mb.set_outputs(&[y]).unwrap();
    assert_denied(mb, codes::SHAPE_MISMATCH);
}

// -- class 3: unguarded recursion -------------------------------------------

#[test]
fn unguarded_self_recursion_rejected() {
    let mut mb = ModuleBuilder::new();
    let w = mb.declare_subgraph("spin", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&w, |b| {
        let n = b.input(0)?;
        // Recurse unconditionally: no cond anywhere on the cycle.
        Ok(vec![b.invoke(&w, &[n])?[0]])
    })
    .unwrap();
    let s = mb.const_i32(3);
    let out = mb.invoke(&w, &[s]).unwrap()[0];
    mb.set_outputs(&[out]).unwrap();
    assert_denied(mb, codes::UNGUARDED_RECURSION);
}

// -- class 4: base case exists but is unreachable ----------------------------

#[test]
fn const_pinned_recursive_branch_rejected() {
    let mut mb = ModuleBuilder::new();
    let w = mb.declare_subgraph("pinned", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&w, |b| {
        let n = b.input(0)?;
        // The predicate is a constant: the recursive arm is always taken,
        // so the syntactic base case can never execute.
        let p = b.const_i32(1);
        let one = b.const_i32(1);
        let out = b.cond1(
            p,
            DType::I32,
            |b| {
                let m = b.isub(n, one)?;
                Ok(b.invoke(&w, &[m])?[0])
            },
            |b| b.identity(n),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let s = mb.const_i32(3);
    let out = mb.invoke(&w, &[s]).unwrap()[0];
    mb.set_outputs(&[out]).unwrap();
    assert_denied(mb, codes::UNREACHABLE_BASE_CASE);
}

// -- class 5: double publish -------------------------------------------------

#[test]
fn double_published_output_rejected() {
    let mut mb = ModuleBuilder::new();
    let c = mb.const_f32(1.0);
    let d = mb.tanh(c).unwrap();
    mb.set_outputs(&[d, d]).unwrap();
    assert_denied(mb, codes::DOUBLE_PUBLISH);
}

// -- class 6: dtype clash (forged graph; the builder API can't express it) --

#[test]
fn forged_dtype_clash_detected() {
    let mut mb = ModuleBuilder::new();
    let a = mb.const_f32(1.0);
    let b = mb.const_f32(2.0);
    let c = mb.add(a, b).unwrap();
    mb.set_outputs(&[c]).unwrap();
    let mut m = mb.finish().unwrap();
    // Splice an i32 producer into the Add's second input, as a buggy graph
    // transform might.
    let forged = m.main.push_node(
        OpKind::Const(Tensor::scalar_i32(7)),
        vec![],
        vec![DType::I32],
    );
    let add = m
        .main
        .nodes
        .iter()
        .position(|n| matches!(n.op, OpKind::Add))
        .unwrap();
    m.main.nodes[add].inputs[1] = PortRef::of(forged);
    assert_code(&m, codes::DTYPE_MISMATCH);
}

// -- class 6b: factored sink whose product does not fit its parameter ---------

#[test]
fn forged_factored_sink_shape_clash_detected() {
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::zeros([3, 4]));
    let out = mb.const_f32(0.0);
    mb.set_outputs(&[out]).unwrap();
    let base = mb.finish().unwrap();
    // `GradSinkOuter(a, dy)` over two constants of the given shapes.
    let with_sink = |a: [usize; 2], dy: [usize; 2]| {
        let mut m = base.clone();
        let inputs = [a, dy].map(|dims| {
            let zeros = OpKind::Const(Tensor::zeros(dims));
            PortRef::of(m.main.push_node(zeros, vec![], vec![DType::F32]))
        });
        let sink = OpKind::GradSinkOuter { param: w };
        m.main.push_node(sink, inputs.to_vec(), vec![DType::F32]);
        m
    };
    // aᵀ·dy = [3, 4]: what the parameter holds.
    let ok = analyze_module(&with_sink([2, 3], [2, 4]));
    assert!(
        ok.diagnostics
            .iter()
            .all(|d| d.code != codes::SHAPE_MISMATCH),
        "{:?}",
        ok.diagnostics
    );
    // Operands exchanged: dyᵀ·a = [4, 3] into a [3, 4] parameter.
    assert_code(&with_sink([2, 4], [2, 3]), codes::SHAPE_MISMATCH);
    // Row counts that cannot meet: [2, 3]ᵀ·[3, 4].
    assert_code(&with_sink([2, 3], [3, 4]), codes::SHAPE_MISMATCH);
}

// -- class 7: dead node -------------------------------------------------------

#[test]
fn dead_compute_flagged() {
    let mut mb = ModuleBuilder::new();
    let a = mb.const_f32(1.0);
    let used = mb.tanh(a).unwrap();
    let unused = mb.neg(a).unwrap();
    let _ = unused;
    mb.set_outputs(&[used]).unwrap();
    // Dead code is a warning, so the default policy still builds it.
    let m = mb.finish().unwrap();
    assert_code(&m, codes::DEAD_NODE);
}

// -- class 8: unused parameter ------------------------------------------------

#[test]
fn unused_parameter_flagged() {
    let mut mb = ModuleBuilder::new();
    let _pid = mb.param("never_read", Tensor::zeros(vec![4, 4]));
    let c = mb.const_f32(1.0);
    let out = mb.tanh(c).unwrap();
    mb.set_outputs(&[out]).unwrap();
    let m = mb.finish().unwrap();
    assert_code(&m, codes::UNUSED_PARAM);
}

// -- class 9: depth-unbounded recursion ---------------------------------------

#[test]
fn argument_forwarding_recursion_flagged() {
    let mut mb = ModuleBuilder::new();
    let w = mb.declare_subgraph("fwd", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&w, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        // Guarded, so well-founded in shape — but the recursive call passes
        // `n` through unchanged, so the predicate can never flip.
        let out = b.cond1(
            p,
            DType::I32,
            |b| Ok(b.invoke(&w, &[n])?[0]),
            |b| b.identity(n),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let s = mb.const_i32(3);
    let out = mb.invoke(&w, &[s]).unwrap()[0];
    mb.set_outputs(&[out]).unwrap();
    let m = mb.finish().unwrap();
    assert_code(&m, codes::DEPTH_UNBOUNDED);
}

// -- class 10: fusion-ineligible op in a hot (recursive) subgraph -------------

#[test]
fn heavy_op_in_recursive_subgraph_flagged() {
    let mut mb = ModuleBuilder::new();
    let w = mb.declare_subgraph("hot", &[DType::F32, DType::I32], &[DType::F32]);
    mb.define_subgraph(&w, |b| {
        let x = b.input(0)?;
        let n = b.input(1)?;
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let p = b.igt(n, zero)?;
        // Softmax on the recursive path: it can never participate in
        // cross-request fusion, so the whole hot loop serializes on it.
        let s = b.softmax(x)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let m = b.isub(n, one)?;
                Ok(b.invoke(&w, &[s, m])?[0])
            },
            |b| b.identity(s),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let x0 = mb.constant(Tensor::from_f32(vec![2, 3], vec![0.1; 6]).unwrap());
    let n0 = mb.const_i32(3);
    let out = mb.invoke(&w, &[x0, n0]).unwrap()[0];
    mb.set_outputs(&[out]).unwrap();
    let m = mb.finish().unwrap();
    assert_code(&m, codes::FUSION_INELIGIBLE);
}

// -- policy surface ------------------------------------------------------------

#[test]
fn allow_all_escape_hatch_builds_bad_modules() {
    let mut mb = ModuleBuilder::new();
    mb.set_analysis(AnalysisConfig::allow_all());
    let a = mb.constant(Tensor::from_f32(vec![2, 2], vec![0.0; 4]).unwrap());
    let b = mb.constant(Tensor::from_f32(vec![3], vec![0.0; 3]).unwrap());
    let c = mb.add(a, b).unwrap();
    mb.set_outputs(&[c]).unwrap();
    // The analyzer is bypassed but the structural validator still runs.
    let m = mb.finish().expect("allow_all must bypass analysis");
    assert_code(&m, codes::SHAPE_MISMATCH);
}

#[test]
fn deny_all_promotes_warnings() {
    let mut mb = ModuleBuilder::new();
    mb.set_analysis(AnalysisConfig::deny_all());
    let a = mb.const_f32(1.0);
    let used = mb.tanh(a).unwrap();
    let _unused = mb.neg(a).unwrap();
    mb.set_outputs(&[used]).unwrap();
    assert_denied(mb, codes::DEAD_NODE);
}
