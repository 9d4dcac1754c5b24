//! End-to-end autodiff tests: every scenario checks analytic gradients
//! against finite differences on the real executor.

use rdg_autodiff::{build_training_module, check_gradients};
use rdg_exec::{Executor, Session};
use rdg_graph::{ModuleBuilder, PortRef};
use rdg_tensor::{DType, Tensor};

fn assert_gradcheck(module: &rdg_graph::Module, feeds: &[Tensor]) {
    let report = check_gradients(module, 0, feeds, 1e-2, 16).expect("gradcheck runs");
    assert!(
        report.max_rel_err < 0.05,
        "max_rel_err {} (abs {}) over {} elements",
        report.max_rel_err,
        report.max_abs_err,
        report.n_checked
    );
    assert!(report.n_checked > 0);
}

#[test]
fn chain_rule_in_main_graph() {
    // loss = tanh(w * x), dw = (1 - tanh²(wx)) x.
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", Tensor::scalar_f32(0.7)).unwrap();
    let x = mb.const_f32(1.3);
    let y = mb.mul(w, x).unwrap();
    let loss = mb.tanh(y).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let m = mb.finish().unwrap();

    // Exact analytic check first.
    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let exec = Executor::with_threads(2);
    let s = Session::new(exec, train).unwrap();
    s.run_training(vec![]).unwrap();
    let g = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .unwrap()
        .as_f32_scalar()
        .unwrap();
    let wx = 0.7f32 * 1.3;
    let want = (1.0 - wx.tanh().powi(2)) * 1.3;
    assert!((g - want).abs() < 1e-5, "got {g}, want {want}");

    assert_gradcheck(&m, &[]);
}

#[test]
fn matmul_bias_activation_pipeline() {
    // loss = mean(sigmoid(x·W + b)) — a dense layer, checked numerically.
    let mut mb = ModuleBuilder::new();
    let w = mb
        .param_wire(
            "W",
            Tensor::from_f32([3, 2], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]).unwrap(),
        )
        .unwrap();
    let b = mb
        .param_wire("b", Tensor::from_f32([2], vec![0.05, -0.05]).unwrap())
        .unwrap();
    let x = mb.constant(Tensor::from_f32([2, 3], vec![1.0, 2.0, -1.0, 0.5, -0.3, 0.8]).unwrap());
    let h = mb.matmul(x, w).unwrap();
    let hb = mb.add_bias(h, b).unwrap();
    let a = mb.sigmoid(hb).unwrap();
    let loss = mb.mean_all(a).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    assert_gradcheck(&mb.finish().unwrap(), &[]);
}

#[test]
fn invoke_gradient_flows_through_subgraph() {
    // f(x) = tanh(x * w); loss = f(c). The gradient of the InvokeOp is an
    // InvokeOp of the gradient SubGraph.
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(0.9));
    let f = mb
        .subgraph("f", &[DType::F32], &[DType::F32], |b| {
            let x = b.input(0)?;
            let wv = b.param_read(w)?;
            let y = b.mul(x, wv)?;
            Ok(vec![b.tanh(y)?])
        })
        .unwrap();
    let c = mb.const_f32(0.4);
    let out = mb.invoke(&f, &[c]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let m = mb.finish().unwrap();
    // There must be a gradient SubGraph after differentiation.
    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    assert!(
        train.subgraphs.iter().any(|s| s.grad_of.is_some()),
        "gradient SubGraph synthesized"
    );
    assert_gradcheck(&m, &[]);
}

#[test]
fn recursive_power_gradient() {
    // P(n) = n > 0 ? w * P(n-1) : x   ⇒   loss = P(3) = w³x, dw = 3w²x.
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(0.8));
    let x = mb.const_f32(0.5);
    let h = mb.declare_subgraph("power", &[DType::I32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let rec = b.invoke(&h, &[m])?[0];
                let wv = b.param_read(w)?;
                b.mul(wv, rec)
            },
            |b| b.identity(x),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let n0 = mb.const_i32(3);
    let out = mb.invoke(&h, &[n0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let exec = Executor::with_threads(2);
    let s = Session::new(exec, train).unwrap();
    let outs = s.run_training(vec![]).unwrap();
    let loss = outs[0].as_f32_scalar().unwrap();
    assert!(
        (loss - 0.8f32.powi(3) * 0.5).abs() < 1e-5,
        "forward value {loss}"
    );
    let g = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .unwrap()
        .as_f32_scalar()
        .unwrap();
    let want = 3.0 * 0.8f32.powi(2) * 0.5;
    assert!((g - want).abs() < 1e-4, "dw = {g}, want {want}");

    assert_gradcheck(&m, &[]);
}

#[test]
fn double_recursion_gradient() {
    // T(n) = n <= 0 ? w : T(n-1) + T(n-1)  ⇒  T(n) = 2ⁿ w, dw = 2ⁿ.
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(0.3));
    let h = mb.declare_subgraph("twice", &[DType::I32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let l = b.invoke(&h, &[m])?[0];
                let r = b.invoke(&h, &[m])?[0];
                b.add(l, r)
            },
            |b| b.param_read(w),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let n0 = mb.const_i32(4);
    let out = mb.invoke(&h, &[n0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let s = Session::new(Executor::with_threads(2), train).unwrap();
    let outs = s.run_training(vec![]).unwrap();
    assert!((outs[0].as_f32_scalar().unwrap() - 16.0 * 0.3).abs() < 1e-4);
    let g = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .unwrap()
        .as_f32_scalar()
        .unwrap();
    assert!(
        (g - 16.0).abs() < 1e-3,
        "dw = {g}, want 16 (2⁴ leaf contributions)"
    );
}

#[test]
fn while_loop_gradient() {
    // s ← s * w, 5 times: loss = x·w⁵.
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(0.9));
    let x = mb.const_f32(0.7);
    let i0 = mb.const_i32(0);
    let limit = mb.const_i32(5);
    let outs = mb
        .while_loop(
            "powloop",
            &[i0, x],
            |b, s| b.ilt(s[0], limit),
            |b, s| {
                let one = b.const_i32(1);
                let i = b.iadd(s[0], one)?;
                let wv = b.param_read(w)?;
                let v = b.mul(s[1], wv)?;
                Ok(vec![i, v])
            },
        )
        .unwrap();
    mb.set_outputs(&[outs[1]]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let s = Session::new(Executor::with_threads(2), train).unwrap();
    let o = s.run_training(vec![]).unwrap();
    assert!((o[0].as_f32_scalar().unwrap() - 0.7 * 0.9f32.powi(5)).abs() < 1e-5);
    let g = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .unwrap()
        .as_f32_scalar()
        .unwrap();
    let want = 5.0 * 0.9f32.powi(4) * 0.7;
    assert!((g - want).abs() < 1e-4, "dw = {g}, want {want}");

    assert_gradcheck(&m, &[]);
}

#[test]
fn cond_gradient_routes_to_taken_branch() {
    // loss = pred ? x*w1 : x*w2, with pred fed at run time.
    let build = || {
        let mut mb = ModuleBuilder::new();
        let w1 = mb.param("w1", Tensor::scalar_f32(0.5));
        let w2 = mb.param("w2", Tensor::scalar_f32(-0.5));
        // One i32 input in the main graph: hand-build the Input node.
        let m = {
            let x = mb.const_f32(2.0);
            let h = mb
                .subgraph("pick", &[DType::I32], &[DType::F32], |b| {
                    let p = b.input(0)?;
                    let out = b.cond1(
                        p,
                        DType::F32,
                        |b| {
                            let wv = b.param_read(w1)?;
                            b.mul(x, wv)
                        },
                        |b| {
                            let wv = b.param_read(w2)?;
                            b.mul(x, wv)
                        },
                    )?;
                    Ok(vec![out])
                })
                .unwrap();
            // Feed the predicate through a main-graph input.
            let input = {
                let node = mb_input_i32(&mut mb);
                node
            };
            let out = mb.invoke(&h, &[input]).unwrap();
            mb.set_outputs(&[out[0]]).unwrap();
            mb.finish().unwrap()
        };
        m.validate().unwrap();
        m
    };
    // Helper: ModuleBuilder has no main-input API by design (feeds are
    // usually tree tensors); emulate one via a const + identity? Instead we
    // add the input node through the public graph type after finish — but
    // simplest is: build two modules with a const predicate each.
    fn mb_input_i32(mb: &mut ModuleBuilder) -> rdg_graph::Wire {
        mb.main_input(rdg_tensor::DType::I32)
    }
    let m = build();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let s = Session::new(Executor::with_threads(2), train).unwrap();

    // pred = 1: gradient goes to w1 only.
    s.run_training(vec![Tensor::scalar_i32(1)]).unwrap();
    let g1 = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .map(|t| t.as_f32_scalar().unwrap());
    let g2 = s
        .grads()
        .get(rdg_graph::ParamId(1))
        .map(|t| t.as_f32_scalar().unwrap());
    assert!((g1.unwrap() - 2.0).abs() < 1e-5, "dw1 = {g1:?}");
    assert!(
        g2.is_none() || g2.unwrap().abs() < 1e-6,
        "dw2 = {g2:?} must be zero"
    );

    // pred = 0: gradient goes to w2 only.
    s.run_training(vec![Tensor::scalar_i32(0)]).unwrap();
    let g1 = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .map(|t| t.as_f32_scalar().unwrap());
    let g2 = s
        .grads()
        .get(rdg_graph::ParamId(1))
        .map(|t| t.as_f32_scalar().unwrap());
    assert!(
        g1.is_none() || g1.unwrap().abs() < 1e-6,
        "dw1 = {g1:?} must be zero"
    );
    assert!((g2.unwrap() - 2.0).abs() < 1e-5, "dw2 = {g2:?}");
}

#[test]
fn embedding_gradient_is_row_sparse() {
    // loss = mean(gather(table, [1, 1, 3])): rows 1 and 3 get gradients,
    // row 1 twice as much.
    let mut mb = ModuleBuilder::new();
    let table = mb
        .param_wire(
            "emb",
            Tensor::from_f32([4, 2], (0..8).map(|i| i as f32 * 0.1).collect()).unwrap(),
        )
        .unwrap();
    let ids = mb.constant(Tensor::from_i32([3], vec![1, 1, 3]).unwrap());
    let rows = mb.gather_rows(table, ids).unwrap();
    let loss = mb.mean_all(rows).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    // The gather reads a Param directly: gradient must use GradSinkRows.
    let has_sparse_sink = train
        .main
        .nodes
        .iter()
        .any(|n| matches!(n.op, rdg_graph::OpKind::GradSinkRows { .. }));
    assert!(has_sparse_sink, "embedding gradient should be row-sparse");

    let s = Session::new(Executor::with_threads(2), train).unwrap();
    s.run_training(vec![]).unwrap();
    let g = s.grads().get(rdg_graph::ParamId(0)).unwrap();
    let gv = g.f32s().unwrap();
    // d(mean)/d(element) = 1/6 for each of the 6 gathered elements.
    assert!(
        (gv[2] - 2.0 / 6.0).abs() < 1e-5,
        "row 1 gathered twice: {gv:?}"
    );
    assert!(
        (gv[6] - 1.0 / 6.0).abs() < 1e-5,
        "row 3 gathered once: {gv:?}"
    );
    assert!(
        gv[0].abs() < 1e-9 && gv[4].abs() < 1e-9,
        "rows 0, 2 untouched"
    );

    assert_gradcheck(&m, &[]);
}

/// Nodes of the whole module (main and every SubGraph) whose op matches.
fn count_ops(m: &rdg_graph::Module, pred: impl Fn(&rdg_graph::OpKind) -> bool) -> usize {
    let subs = m.subgraphs.iter().map(|s| &s.graph);
    std::iter::once(&m.main)
        .chain(subs)
        .flat_map(|g| g.nodes.iter())
        .filter(|n| pred(&n.op))
        .count()
}

fn sinks(m: &rdg_graph::Module) -> (usize, usize, usize) {
    use rdg_graph::OpKind;
    (
        count_ops(m, |op| matches!(op, OpKind::GradSinkOuter { .. })),
        count_ops(m, |op| matches!(op, OpKind::GradSink { .. })),
        count_ops(m, |op| matches!(op, OpKind::MatMulAT)),
    )
}

fn seq(rows: usize, cols: usize, step: f32) -> Tensor {
    let v = (0..rows * cols).map(|i| (i as f32 - 2.0) * step).collect();
    Tensor::from_f32([rows, cols], v).unwrap()
}

#[test]
fn weight_gradient_is_factored() {
    // loss = sum(x·W) with W read straight from a parameter: dW = xᵀ·1 goes
    // into a factored sink and no dense product is built.
    let x = seq(2, 3, 0.5);
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", seq(3, 2, 0.1)).unwrap();
    let xw = mb.constant(x.clone());
    let y = mb.matmul(xw, w).unwrap();
    let loss = mb.sum_all(y).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    assert_eq!(sinks(&train), (1, 0, 0), "(factored, dense, MatMulAT)");

    let s = Session::new(Executor::with_threads(2), train).unwrap();
    s.run_training(vec![]).unwrap();
    let g = s.grads().get(rdg_graph::ParamId(0)).unwrap();
    let want = rdg_tensor::ops::matmul_at(&x, &Tensor::ones([2, 2])).unwrap();
    assert_eq!(g.shape(), want.shape());
    assert!(g.allclose(&want, 1e-6), "{g:?} vs {want:?}");
    assert_gradcheck(&m, &[]);
}

#[test]
fn shared_weight_gets_one_factored_sink_per_matmul() {
    // loss = sum(tanh(x·W)·W): two reads of one parameter, two sinks
    // accumulating into one gradient.
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", seq(3, 3, 0.1)).unwrap();
    let x = mb.constant(seq(2, 3, 0.3));
    let h = mb.matmul(x, w).unwrap();
    let h = mb.tanh(h).unwrap();
    let y = mb.matmul(h, w).unwrap();
    let loss = mb.sum_all(y).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    assert_eq!(sinks(&train), (2, 0, 0), "(factored, dense, MatMulAT)");
    assert_gradcheck(&m, &[]);
}

#[test]
fn computed_operand_and_bias_keep_the_dense_path() {
    // The right operand is 2·W, not a parameter read: its gradient is a
    // tensor the Scale rule still needs, so MatMulAT builds it; the bias
    // gradient is a dense sink as before.
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", seq(3, 2, 0.1)).unwrap();
    let b = mb.param_wire("b", seq(1, 2, 0.2)).unwrap();
    let x = mb.constant(seq(2, 3, 0.3));
    let w2 = mb.scale(w, 2.0).unwrap();
    let y = mb.matmul(x, w2).unwrap();
    let y = mb.add_bias(y, b).unwrap();
    let y = mb.tanh(y).unwrap();
    let loss = mb.sum_all(y).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let m = mb.finish().unwrap();

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    assert_eq!(sinks(&train), (0, 2, 1), "(factored, dense, MatMulAT)");
    assert_gradcheck(&m, &[]);
}

#[test]
fn matmul_bt_weight_gradient_is_factored() {
    // y = x·Wᵀ (no builder method: the op of a square MatMul is swapped):
    // dW = dyᵀ·x, the same factored sink with its operands exchanged.
    let x = seq(2, 3, 0.5);
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", seq(3, 3, 0.1)).unwrap();
    let xw = mb.constant(x.clone());
    let y = mb.matmul(xw, w).unwrap();
    let y = mb.tanh(y).unwrap();
    let loss = mb.sum_all(y).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    let mut m = mb.finish().unwrap();
    for n in &mut m.main.nodes {
        if matches!(n.op, rdg_graph::OpKind::MatMul) {
            n.op = rdg_graph::OpKind::MatMulBT;
        }
    }

    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    assert_eq!(sinks(&train), (1, 0, 0), "(factored, dense, MatMulAT)");
    assert_gradcheck(&m, &[]);
}

#[test]
fn iterative_state_matrix_gradcheck() {
    // The iterative baseline's pattern: a state matrix threaded through
    // get_row / set_row / concat updates.
    let mut mb = ModuleBuilder::new();
    let w = mb
        .param_wire("W", Tensor::from_f32([4, 2], vec![0.3; 8]).unwrap())
        .unwrap();
    let state = mb.constant(Tensor::from_f32([3, 2], vec![0.1, 0.2, 0.3, 0.4, 0.0, 0.0]).unwrap());
    let i0 = mb.const_i32(0);
    let i1 = mb.const_i32(1);
    let i2 = mb.const_i32(2);
    let r0 = mb.get_row(state, i0).unwrap();
    let r1 = mb.get_row(state, i1).unwrap();
    let cat = mb.concat_cols(r0, r1).unwrap(); // [1,4]
    let h = mb.matmul(cat, w).unwrap(); // [1,2]
    let ht = mb.tanh(h).unwrap();
    let state2 = mb.set_row(state, i2, ht).unwrap();
    let out = mb.get_row(state2, i2).unwrap();
    let loss = mb.mean_all(out).unwrap();
    mb.set_outputs(&[loss]).unwrap();
    assert_gradcheck(&mb.finish().unwrap(), &[]);
}

#[test]
fn unused_invoke_output_gets_zero_dy() {
    // f returns two values; only one feeds the loss.
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(1.1));
    let f = mb
        .subgraph("two", &[DType::F32], &[DType::F32, DType::F32], |b| {
            let x = b.input(0)?;
            let wv = b.param_read(w)?;
            let a = b.mul(x, wv)?;
            let bb = b.mul(a, wv)?;
            Ok(vec![a, bb])
        })
        .unwrap();
    let c = mb.const_f32(0.6);
    let outs = mb.invoke(&f, &[c]).unwrap();
    // Only output 0 used: loss = x·w, so dw = x (output 1 contributes 0).
    mb.set_outputs(&[outs[0]]).unwrap();
    let m = mb.finish().unwrap();
    let train = build_training_module(&m, m.main.outputs[0]).unwrap();
    let s = Session::new(Executor::with_threads(2), train).unwrap();
    s.run_training(vec![]).unwrap();
    let g = s
        .grads()
        .get(rdg_graph::ParamId(0))
        .unwrap()
        .as_f32_scalar()
        .unwrap();
    assert!((g - 0.6).abs() < 1e-5, "dw = {g}, want 0.6");
}

#[test]
fn rejects_bad_loss_ports() {
    let mut mb = ModuleBuilder::new();
    let c = mb.const_i32(1);
    mb.set_outputs(&[c]).unwrap();
    let m = mb.finish().unwrap();
    // i32 loss is invalid.
    assert!(build_training_module(&m, m.main.outputs[0]).is_err());
    // Dangling port is invalid.
    let bad = PortRef {
        node: rdg_graph::NodeId(999),
        port: 0,
    };
    assert!(build_training_module(&m, bad).is_err());
}
