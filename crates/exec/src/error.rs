//! Runtime errors raised by the executor.

use rdg_graph::GraphError;
use rdg_tensor::TensorError;
use std::fmt;

/// Errors surfaced by graph execution.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// A tensor kernel failed; carries graph context.
    Kernel {
        /// Graph name (main or SubGraph).
        graph: String,
        /// Node name.
        node: String,
        /// The underlying kernel error (boxed: it holds up to two inline
        /// shapes, and `Result<_, ExecError>` is returned on every path).
        source: Box<TensorError>,
    },
    /// Structural graph problem detected at run time.
    Graph(GraphError),
    /// The run was fed the wrong number (or dtype) of inputs.
    BadFeed {
        /// Description of the mismatch.
        msg: String,
    },
    /// A shared [`crate::ParamStore`] does not match the module's parameter
    /// specs (wrong count, dtype, or shape). Raised by
    /// `Session::with_params` *before* any run starts, so a mismatched
    /// store fails at session construction instead of inside a kernel.
    ParamMismatch {
        /// Description of the mismatch (includes the parameter name).
        msg: String,
    },
    /// Two training calls that clear the gradient store
    /// (`Session::run_training` / `Session::run_training_batch`) overlapped
    /// on one session. The second clearer is rejected deterministically
    /// instead of silently corrupting the shared `GradStore`
    /// mid-accumulation; inference calls are unrestricted.
    TrainingOverlap,
    /// A `FwdValue`/`FwdZeros` lookup missed the backprop cache.
    CacheMiss {
        /// Description with key context.
        msg: String,
    },
    /// The executor has shut down.
    Shutdown,
    /// The run was cancelled before it produced a result
    /// (see `RunHandle::cancel`).
    Cancelled,
    /// An optimizer update or host-side gradient transform failed.
    Optimizer {
        /// The underlying tensor-math error.
        source: TensorError,
    },
    /// A run output did not have the form the caller required (e.g. the
    /// scalar-loss convention of `Trainer`).
    Output {
        /// Description of the mismatch.
        msg: String,
    },
    /// Something impossible happened (internal invariant violation).
    Internal {
        /// Description.
        msg: String,
    },
}

impl ExecError {
    /// Internal-invariant error helper.
    pub fn internal(msg: impl fmt::Display) -> Self {
        ExecError::Internal {
            msg: msg.to_string(),
        }
    }

    /// Wraps a tensor-math failure from an optimizer or gradient transform.
    pub fn optimizer(source: TensorError) -> Self {
        ExecError::Optimizer { source }
    }

    /// Output-convention error helper.
    pub fn output(msg: impl fmt::Display) -> Self {
        ExecError::Output {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Kernel {
                graph,
                node,
                source,
            } => {
                write!(f, "kernel failure at {graph}/{node}: {source}")
            }
            ExecError::Graph(e) => write!(f, "graph error: {e}"),
            ExecError::BadFeed { msg } => write!(f, "bad feed: {msg}"),
            ExecError::ParamMismatch { msg } => {
                write!(f, "shared parameter store mismatch: {msg}")
            }
            ExecError::TrainingOverlap => write!(
                f,
                "overlapping training step: run_training/run_training_batch \
                 clear the shared GradStore at step start and must not \
                 overlap on one session"
            ),
            ExecError::CacheMiss { msg } => write!(f, "backprop cache miss: {msg}"),
            ExecError::Shutdown => write!(f, "executor has shut down"),
            ExecError::Cancelled => write!(f, "run was cancelled"),
            ExecError::Optimizer { source } => write!(f, "optimizer failure: {source}"),
            ExecError::Output { msg } => write!(f, "bad run output: {msg}"),
            ExecError::Internal { msg } => write!(f, "internal executor error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Kernel { source, .. } => Some(&**source),
            ExecError::Optimizer { source } => Some(source),
            ExecError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ExecError {
    fn from(e: GraphError) -> Self {
        ExecError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = ExecError::Kernel {
            graph: "TreeLSTM".into(),
            node: "matmul_7".into(),
            source: Box::new(TensorError::invalid("boom")),
        };
        let s = e.to_string();
        assert!(s.contains("TreeLSTM") && s.contains("matmul_7") && s.contains("boom"));
    }

    #[test]
    fn graph_errors_convert() {
        let ge = GraphError::invalid("x");
        let ee: ExecError = ge.into();
        assert!(matches!(ee, ExecError::Graph(_)));
    }
}
