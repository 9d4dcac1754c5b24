//! Plan-time static analysis for recursive module graphs.
//!
//! The paper's core artifact is a *statically declared* recursive dataflow
//! graph — which means every class of graph defect that an eager framework
//! only hits at run time is, here, checkable **before a single frame
//! spawns** (cf. Cortex and the TF "Recursive Function Definitions in
//! Static Dataflow Graphs" line of work). This module runs four passes over
//! a built [`Module`] and emits structured [`Diagnostic`]s:
//!
//! 1. **Interprocedural shape/dtype inference** ([`shape`]) — a fixpoint of
//!    abstract shapes (concrete dims ⊔ symbolic dims ⊔ ⊤) propagated through
//!    every op and across `Invoke`/`Cond` call sites. Rejects at build time
//!    every mismatch that would otherwise die as a runtime kernel error.
//! 2. **Recursion well-foundedness** ([`recursion`]) — SCCs of the SubGraph
//!    call graph; every recursive cycle must contain a conditionally
//!    reachable non-recursive exit.
//! 3. **Liveness / definite publish** ([`liveness`]) — every declared output
//!    produced exactly once; dead nodes and unused parameters flagged.
//! 4. **Static batchability** ([`batchability`]) — classifies each node
//!    against the serving executor's cross-request fuse signature and
//!    reports per-graph fusion coverage, so operators see *before
//!    deployment* which models will fuse.
//!
//! Entry points: [`analyze_module`] returns the full [`AnalysisReport`];
//! [`check_module`] additionally converts denied diagnostics into a
//! [`GraphError::Analysis`]. `ModuleBuilder::finish` and `ModulePlan::new`
//! both call [`check_module`] with [`AnalysisConfig::default`] (deny
//! errors, allow warnings).

pub mod batchability;
pub mod dce;
pub mod liveness;
pub mod recursion;
pub mod shape;

pub use batchability::{fuse_class, BatchabilityReport, FuseClass, GraphCoverage};
pub use dce::prune_dead;
pub use shape::{AbsDim, AbsShape, ShapeMap};

use crate::graph::GraphError;
use crate::module::{GraphRef, Module};
use crate::subgraph::SubGraphId;
use crate::NodeId;
use std::fmt;

/// Diagnostic severity: errors are definite defects (the graph *will*
/// misbehave at run time), warnings are suspicious-but-executable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Severity {
    /// Suspicious but executable (dead code, unbounded depth, fusion gaps).
    Warning,
    /// A definite defect that would surface as a runtime failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes, pinned by the mutation suite and printed by
/// `rdg_lint`. Each code maps to exactly one defect class.
pub mod codes {
    /// Two ports that must agree on shape at run time definitely cannot.
    pub const SHAPE_MISMATCH: &str = "shape-mismatch";
    /// An op was wired with an operand of the wrong element type.
    pub const DTYPE_MISMATCH: &str = "dtype-mismatch";
    /// A recursive cycle has no conditionally reachable non-recursive exit.
    pub const UNGUARDED_RECURSION: &str = "unguarded-recursion";
    /// A recursion's exit branch is statically unreachable (constant guard).
    pub const UNREACHABLE_BASE_CASE: &str = "unreachable-base-case";
    /// Recursion state reaches the recursive call entirely unchanged.
    pub const DEPTH_UNBOUNDED: &str = "depth-unbounded";
    /// A node's outputs are consumed by nothing (and it is not a sink).
    pub const DEAD_NODE: &str = "dead-node";
    /// The same output port is published more than once.
    pub const DOUBLE_PUBLISH: &str = "double-publish";
    /// A declared parameter is never read by any live node.
    pub const UNUSED_PARAM: &str = "unused-param";
    /// A compute-heavy op inside a recursive (hot) SubGraph cannot fuse.
    pub const FUSION_INELIGIBLE: &str = "fusion-ineligible";
}

/// One structured finding from the analyzer.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// The SubGraph the finding anchors to; `None` for the main graph or
    /// module-level findings.
    pub subgraph: Option<SubGraphId>,
    /// The node the finding anchors to, if any.
    pub node: Option<NodeId>,
    /// Output ports involved (empty when the finding is about the whole
    /// node).
    pub ports: Vec<u16>,
    /// Human-readable rendering with node names, op kinds, and shapes.
    pub message: String,
}

impl Diagnostic {
    /// The [`GraphRef`] this diagnostic anchors to.
    pub fn graph_ref(&self) -> GraphRef {
        match self.subgraph {
            Some(id) => GraphRef::Sub(id),
            None => GraphRef::Main,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.message)
    }
}

/// Policy for converting diagnostics into build failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Fail the build on [`Severity::Error`] diagnostics (default `true`).
    pub deny_errors: bool,
    /// Fail the build on [`Severity::Warning`] diagnostics too (lint mode).
    pub deny_warnings: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            deny_errors: true,
            deny_warnings: false,
        }
    }
}

impl AnalysisConfig {
    /// Permissive configuration: nothing is denied (analysis still runs and
    /// reports, but never fails the build). Used by fuzzers and generators
    /// that intentionally construct defective graphs.
    pub fn allow_all() -> Self {
        AnalysisConfig {
            deny_errors: false,
            deny_warnings: false,
        }
    }

    /// Strict lint configuration: every diagnostic is denied.
    pub fn deny_all() -> Self {
        AnalysisConfig {
            deny_errors: true,
            deny_warnings: true,
        }
    }

    /// Returns `true` if `d` fails the build under this policy.
    pub fn denies(&self, d: &Diagnostic) -> bool {
        match d.severity {
            Severity::Error => self.deny_errors,
            Severity::Warning => self.deny_warnings,
        }
    }
}

/// Everything the analyzer learned about a module.
pub struct AnalysisReport {
    /// All findings, in pass order (shape, recursion, liveness,
    /// batchability).
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred abstract shapes for every output port of every node.
    pub shapes: ShapeMap,
    /// Per-graph fusion coverage under the serving executor's fuse
    /// signature.
    pub batchability: BatchabilityReport,
}

impl AnalysisReport {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Findings denied under `cfg`, i.e. those that fail the build.
    pub fn denied<'a>(&'a self, cfg: &'a AnalysisConfig) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| cfg.denies(d))
    }

    /// Returns `true` when no diagnostic was emitted at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs all four analysis passes over a structurally valid module.
///
/// The module must already pass [`Module::validate`]; the analyzer assumes
/// edges reference existing nodes and ports. (Both callers —
/// `ModuleBuilder::finish` and `ModulePlan::new` — validate first.)
pub fn analyze_module(m: &Module) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let shapes = shape::infer_shapes(m, &mut diagnostics);
    let hot = recursion::check_recursion(m, &mut diagnostics);
    liveness::check_liveness(m, &mut diagnostics);
    let batchability = batchability::check_batchability(m, &hot, &mut diagnostics);
    AnalysisReport {
        diagnostics,
        shapes,
        batchability,
    }
}

/// Runs the analyzer and fails with [`GraphError::Analysis`] if any
/// diagnostic is denied under `cfg`.
///
/// On failure the error carries the first denied diagnostic's code and a
/// summary of *all* denied findings, so a build error names every defect at
/// once instead of one per rebuild.
pub fn check_module(m: &Module, cfg: &AnalysisConfig) -> crate::Result<AnalysisReport> {
    let report = analyze_module(m);
    let denied: Vec<&Diagnostic> = report.denied(cfg).collect();
    if let Some(first) = denied.first() {
        let mut msg = denied
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        if denied.len() > 1 {
            msg = format!("{} findings: {msg}", denied.len());
        }
        return Err(GraphError::Analysis {
            code: first.code,
            msg,
        });
    }
    Ok(report)
}

/// Internal helper shared by the passes: a diagnostic anchored at a node,
/// with the graph/node name and op mnemonic folded into the message.
pub(crate) fn node_diag(
    m: &Module,
    gref: GraphRef,
    node: NodeId,
    severity: Severity,
    code: &'static str,
    ports: Vec<u16>,
    detail: String,
) -> Diagnostic {
    let g = m.graph(gref);
    let n = g.node(node);
    Diagnostic {
        severity,
        code,
        subgraph: match gref {
            GraphRef::Main => None,
            GraphRef::Sub(id) => Some(id),
        },
        node: Some(node),
        ports,
        message: format!(
            "{}/{} ({}): {detail}",
            m.graph_name(gref),
            n.name,
            n.op.mnemonic()
        ),
    }
}
