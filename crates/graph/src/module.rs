//! [`Module`]: a library of SubGraphs, a main graph, and parameters.

use crate::graph::Graph;
use crate::op::{OpKind, ParamId};
use crate::subgraph::{SubGraph, SubGraphId};
use rdg_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Which graph a frame / cache entry refers to: the main graph or a SubGraph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphRef {
    /// The module's main graph (the root frame).
    Main,
    /// A SubGraph.
    Sub(SubGraphId),
}

/// Declaration of a trainable parameter: name plus initial value.
///
/// Parameters live *outside* graphs in a parameter store; `Param` nodes read
/// them and `GradSink` nodes accumulate gradients into the matching slot.
#[derive(Clone, Debug)]
pub struct ParamSpec {
    /// Human-readable name (unique within the module).
    pub name: String,
    /// Initial value; also fixes the shape and dtype.
    pub init: Tensor,
}

/// A complete executable unit: SubGraph library + main graph + parameters.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// All SubGraphs, indexed by [`SubGraphId`].
    pub subgraphs: Vec<SubGraph>,
    /// The main graph submitted by the client.
    pub main: Graph,
    /// Trainable parameters.
    pub params: Vec<ParamSpec>,
    /// Number of call sites allocated (next fresh id).
    pub n_sites: u32,
    /// Keep-sets: for each graph, the (node, port) pairs whose forward
    /// values must be cached for backpropagation. Filled by `rdg-autodiff`;
    /// empty for inference modules.
    pub keep_sets: HashMap<GraphRef, HashSet<(crate::graph::NodeId, u16)>>,
    /// Shape keep-sets: ports whose forward *shapes* (not values) must be
    /// cached, serving `FwdZeros` shape witnesses in gradient graphs.
    pub shape_keep_sets: HashMap<GraphRef, HashSet<(crate::graph::NodeId, u16)>>,
}

impl Module {
    /// Borrows a SubGraph by id.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id; ids are only minted by the builder.
    pub fn subgraph(&self, id: SubGraphId) -> &SubGraph {
        &self.subgraphs[id.0 as usize]
    }

    /// Borrows the graph behind a [`GraphRef`].
    pub fn graph(&self, r: GraphRef) -> &Graph {
        match r {
            GraphRef::Main => &self.main,
            GraphRef::Sub(id) => &self.subgraphs[id.0 as usize].graph,
        }
    }

    /// Display name of a graph (diagnostics).
    pub fn graph_name(&self, r: GraphRef) -> String {
        match r {
            GraphRef::Main => "main".to_string(),
            GraphRef::Sub(id) => self.subgraphs[id.0 as usize].name.clone(),
        }
    }

    /// Looks up a parameter id by name.
    pub fn param_by_name(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p.name == name)
            .map(|i| ParamId(i as u32))
    }

    /// Whole-module validation.
    ///
    /// Checks every graph structurally, then cross-checks every `Invoke` and
    /// `Cond` against the signatures of the SubGraphs they reference, and
    /// verifies call-site uniqueness (paths would collide otherwise).
    pub fn validate(&self) -> crate::Result<()> {
        self.main.validate("main")?;
        for sg in &self.subgraphs {
            sg.validate()?;
        }
        let mut seen_sites = HashSet::new();
        let mut check_graph = |g: &Graph, gname: &str| -> crate::Result<()> {
            for node in &g.nodes {
                match &node.op {
                    OpKind::Invoke {
                        sub,
                        site,
                        n_out,
                        mirror,
                    } => {
                        let sg = self.subgraphs.get(sub.0 as usize).ok_or_else(|| {
                            crate::GraphError::invalid(format!(
                                "{gname}/{}: invoke of unknown SubGraph sg{}",
                                node.name, sub.0
                            ))
                        })?;
                        if node.inputs.len() != sg.n_inputs() {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: invoke of '{}' passes {} args, needs {}",
                                    node.name,
                                    sg.name,
                                    node.inputs.len(),
                                    sg.n_inputs()
                                ),
                            });
                        }
                        if *n_out as usize != sg.n_outputs() {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: invoke of '{}' expects {} outputs, SubGraph has {}",
                                    node.name,
                                    sg.name,
                                    n_out,
                                    sg.n_outputs()
                                ),
                            });
                        }
                        if !mirror && !seen_sites.insert(*site) {
                            return Err(crate::GraphError::invalid(format!(
                                "call site {} reused at {gname}/{}",
                                site.0, node.name
                            )));
                        }
                    }
                    OpKind::Cond {
                        sub_then,
                        sub_else,
                        site_then,
                        site_else,
                        n_then_in,
                        n_out,
                        mirror,
                    } => {
                        let st = self.subgraphs.get(sub_then.0 as usize).ok_or_else(|| {
                            crate::GraphError::invalid(format!(
                                "{gname}/{}: cond references unknown then-branch",
                                node.name
                            ))
                        })?;
                        let se = self.subgraphs.get(sub_else.0 as usize).ok_or_else(|| {
                            crate::GraphError::invalid(format!(
                                "{gname}/{}: cond references unknown else-branch",
                                node.name
                            ))
                        })?;
                        if st.output_dtypes != se.output_dtypes {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: cond branches disagree on outputs ({:?} vs {:?})",
                                    node.name, st.output_dtypes, se.output_dtypes
                                ),
                            });
                        }
                        if *n_out as usize != st.n_outputs() {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: cond expects {} outputs, branches have {}",
                                    node.name,
                                    n_out,
                                    st.n_outputs()
                                ),
                            });
                        }
                        let expect = 1 + st.n_inputs() + se.n_inputs();
                        if node.inputs.len() != expect {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: cond wires {} inputs, needs {expect}",
                                    node.name,
                                    node.inputs.len()
                                ),
                            });
                        }
                        if *n_then_in as usize != st.n_inputs() {
                            return Err(crate::GraphError::SignatureMismatch {
                                msg: format!(
                                    "{gname}/{}: cond routes {} inputs to then-branch, needs {}",
                                    node.name,
                                    n_then_in,
                                    st.n_inputs()
                                ),
                            });
                        }
                        if !mirror {
                            for s in [site_then, site_else] {
                                if !seen_sites.insert(*s) {
                                    return Err(crate::GraphError::invalid(format!(
                                        "call site {} reused at {gname}/{}",
                                        s.0, node.name
                                    )));
                                }
                            }
                        }
                    }
                    OpKind::Param(p)
                    | OpKind::GradSink { param: p }
                    | OpKind::GradSinkRows { param: p }
                    | OpKind::GradSinkOuter { param: p } => {
                        if p.0 as usize >= self.params.len() {
                            return Err(crate::GraphError::invalid(format!(
                                "{gname}/{}: unknown parameter id {}",
                                node.name, p.0
                            )));
                        }
                    }
                    _ => {}
                }
            }
            Ok(())
        };
        check_graph(&self.main, "main")?;
        for sg in &self.subgraphs {
            check_graph(&sg.graph, &sg.name)?;
        }
        Ok(())
    }

    /// Total node count across the main graph and all SubGraphs.
    pub fn total_nodes(&self) -> usize {
        self.main.len() + self.subgraphs.iter().map(|s| s.graph.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use rdg_tensor::DType;

    #[test]
    fn empty_module_is_valid() {
        let m = Module::default();
        assert!(m.validate().is_ok());
        assert_eq!(m.total_nodes(), 0);
    }

    #[test]
    fn param_lookup_by_name() {
        let mut mb = ModuleBuilder::new();
        let _w = mb.param("W", Tensor::zeros([2, 2]));
        let x = mb.constant(Tensor::ones([2, 2]));
        mb.set_outputs(&[x]).unwrap();
        let m = mb.finish().unwrap();
        assert_eq!(m.param_by_name("W"), Some(ParamId(0)));
        assert_eq!(m.param_by_name("nope"), None);
    }

    #[test]
    fn invoke_arity_mismatch_is_caught() {
        // Build a valid module, then corrupt an invoke's inputs.
        let mut mb = ModuleBuilder::new();
        let sg = mb.declare_subgraph("id", &[DType::F32], &[DType::F32]);
        mb.define_subgraph(&sg, |b| {
            let x = b.input(0)?;
            Ok(vec![x])
        })
        .unwrap();
        let c = mb.constant(Tensor::scalar_f32(1.0));
        let out = mb.invoke(&sg, &[c]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        let mut m = mb.finish().unwrap();
        assert!(m.validate().is_ok());
        // Corrupt: drop the invoke's argument.
        for node in &mut m.main.nodes {
            if matches!(node.op, OpKind::Invoke { .. }) {
                node.inputs.clear();
            }
        }
        assert!(m.validate().is_err());
    }
}
