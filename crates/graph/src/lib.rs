//! Dataflow-graph IR for recursive deep-learning computations.
//!
//! This crate implements the *programming model* of the EuroSys '18 paper
//! "Improving the Expressiveness of Deep Learning Frameworks with Recursion":
//!
//! * [`Graph`] — a DAG of port-addressed operation nodes ([`op::OpKind`]).
//! * [`SubGraph`] — a graph fragment with a typed signature, the paper's unit
//!   of recursion; semantically a function definition.
//! * [`op::OpKind::Invoke`] — the paper's `InvokeOp`: an ordinary node whose
//!   kernel executes an associated SubGraph. A SubGraph may invoke *itself*,
//!   which is what makes recursion expressible inside a static graph.
//! * [`op::OpKind::Cond`] — functional conditional carrying two branch
//!   SubGraphs; only the taken branch is executed (lazy), which is how the
//!   base case of a recursion terminates the unfolding.
//! * [`builder::ModuleBuilder`] — the user-facing DSL. It supports **forward
//!   declarations** (declare a SubGraph's signature, then define the body
//!   that refers to itself — §5 "Forward declaration" in the paper) and
//!   **automatic outer-reference capture** (free variables of a SubGraph
//!   body are detected and appended to its input list — §5 "Outer
//!   reference"), including transitive capture through nested scopes.
//! * [`Module`] — a library of SubGraphs plus the main graph and parameter
//!   table; the unit submitted to the executor.
//!
//! The IR is executor-agnostic: `rdg-exec` interprets it with a parallel
//! worker pool, and `rdg-autodiff` rewrites modules into training modules by
//! synthesizing gradient SubGraphs with mirrored call sites.

pub mod analyze;
pub mod builder;
pub mod dot;
pub mod graph;
pub mod module;
pub mod op;
pub mod subgraph;

pub use analyze::{
    analyze_module, check_module, fuse_class, AbsDim, AbsShape, AnalysisConfig, AnalysisReport,
    BatchabilityReport, Diagnostic, FuseClass, Severity, ShapeMap,
};
pub use builder::{ModuleBuilder, SubGraphHandle, Wire};
pub use graph::{Graph, GraphError, Node, NodeId, PortRef};
pub use module::{GraphRef, Module, ParamSpec};
pub use op::{CallSiteId, OpKind, ParamId};
pub use subgraph::{SubGraph, SubGraphId};

/// Result alias for graph-construction fallibility.
pub type Result<T> = std::result::Result<T, GraphError>;
