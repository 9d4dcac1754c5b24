//! Liveness and definite-publish checks.
//!
//! Per graph: every declared output port must be published exactly once
//! ([`codes::DOUBLE_PUBLISH`] otherwise), and every node must contribute —
//! transitively — to an output, a gradient sink, or a keep-set entry
//! (the backprop caches pin forward values by `(node, port)`), else it is
//! flagged [`codes::DEAD_NODE`]. Module-wide, a declared parameter that no
//! live node reads (`Param`) or accumulates into (`GradSink*`) is flagged
//! [`codes::UNUSED_PARAM`].

use super::{codes, node_diag, Diagnostic, Severity};
use crate::graph::NodeId;
use crate::module::{GraphRef, Module};
use crate::op::OpKind;
use crate::subgraph::SubGraphId;
use std::collections::HashSet;

/// SubGraphs that (transitively) contain a gradient sink: invoking them is
/// a side effect, so a call site is live even when its outputs go unused.
pub(crate) fn effectful_subgraphs(m: &Module) -> Vec<bool> {
    let mut eff = vec![false; m.subgraphs.len()];
    loop {
        let mut changed = false;
        for (i, sg) in m.subgraphs.iter().enumerate() {
            if eff[i] {
                continue;
            }
            let hit = sg.graph.nodes.iter().any(|n| match &n.op {
                OpKind::Invoke { sub, .. } => eff[sub.0 as usize],
                OpKind::Cond {
                    sub_then, sub_else, ..
                } => eff[sub_then.0 as usize] || eff[sub_else.0 as usize],
                op => op.is_sink(),
            });
            if hit {
                eff[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    eff
}

/// Backward-reachability from the liveness roots of one graph: declared
/// outputs, gradient sinks, effectful call sites, and keep-set ports (the
/// executor retains those values/shapes for the backward pass).
pub(crate) fn live_set(m: &Module, gref: GraphRef, effectful: &[bool]) -> Vec<bool> {
    let g = m.graph(gref);
    let mut live = vec![false; g.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    let root = |n: NodeId, live: &mut Vec<bool>, stack: &mut Vec<NodeId>| {
        if !std::mem::replace(&mut live[n.0 as usize], true) {
            stack.push(n);
        }
    };
    for p in &g.outputs {
        root(p.node, &mut live, &mut stack);
    }
    for (i, n) in g.nodes.iter().enumerate() {
        let is_root = match &n.op {
            OpKind::Invoke { sub, .. } => effectful[sub.0 as usize],
            OpKind::Cond {
                sub_then, sub_else, ..
            } => effectful[sub_then.0 as usize] || effectful[sub_else.0 as usize],
            op => op.is_sink(),
        };
        if is_root {
            root(NodeId(i as u32), &mut live, &mut stack);
        }
    }
    for sets in [&m.keep_sets, &m.shape_keep_sets] {
        if let Some(set) = sets.get(&gref) {
            for &(n, _) in set {
                root(n, &mut live, &mut stack);
            }
        }
    }
    while let Some(n) = stack.pop() {
        for p in &g.node(n).inputs {
            root(p.node, &mut live, &mut stack);
        }
    }
    live
}

/// Runs the liveness pass over every graph in the module.
pub fn check_liveness(m: &Module, diags: &mut Vec<Diagnostic>) {
    let mut grefs = vec![GraphRef::Main];
    grefs.extend((0..m.subgraphs.len()).map(|k| GraphRef::Sub(SubGraphId(k as u32))));

    let effectful = effectful_subgraphs(m);
    let mut used_params: HashSet<u32> = HashSet::new();

    for gref in grefs {
        let g = m.graph(gref);

        // Double publish: the same (node, port) listed twice in outputs.
        let mut seen: HashSet<(NodeId, u16)> = HashSet::new();
        for p in &g.outputs {
            if !seen.insert((p.node, p.port)) {
                diags.push(node_diag(
                    m,
                    gref,
                    p.node,
                    Severity::Error,
                    codes::DOUBLE_PUBLISH,
                    vec![p.port],
                    format!("output port {p} is published more than once"),
                ));
            }
        }

        let live = live_set(m, gref, &effectful);

        for (i, n) in g.nodes.iter().enumerate() {
            if live[i] {
                match n.op {
                    OpKind::Param(pid) => {
                        used_params.insert(pid.0);
                    }
                    OpKind::GradSink { param }
                    | OpKind::GradSinkRows { param }
                    | OpKind::GradSinkOuter { param } => {
                        used_params.insert(param.0);
                    }
                    _ => {}
                }
                continue;
            }
            // Formal inputs are part of the signature, not dead code: a
            // SubGraph may legitimately ignore an argument (e.g. one arm
            // of a conditional).
            if matches!(n.op, OpKind::Input { .. }) {
                continue;
            }
            diags.push(node_diag(
                m,
                gref,
                NodeId(i as u32),
                Severity::Warning,
                codes::DEAD_NODE,
                Vec::new(),
                "contributes to no output, sink, or retained value".to_string(),
            ));
        }
    }

    for (i, spec) in m.params.iter().enumerate() {
        if !used_params.contains(&(i as u32)) {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: codes::UNUSED_PARAM,
                subgraph: None,
                node: None,
                ports: Vec::new(),
                message: format!(
                    "parameter '{}' ({:?}) is never read or accumulated into by any live node",
                    spec.name,
                    spec.init.shape().dims()
                ),
            });
        }
    }
}
