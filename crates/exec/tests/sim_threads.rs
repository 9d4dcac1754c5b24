//! The virtual clock runs on an executor without worker threads: a run
//! starts no OS thread and so leaves none behind. Thread counts are
//! process-wide, which is why this test has a binary to itself.

use rdg_exec::sim::SimExecutor;
use rdg_exec::{ModulePlan, ParamStore};
use rdg_graph::ModuleBuilder;
use std::sync::Arc;

#[test]
#[cfg(target_os = "linux")]
fn a_virtual_run_starts_no_os_thread() {
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let mut mb = ModuleBuilder::new();
    let mut x = mb.const_f32(0.5);
    for _ in 0..100 {
        x = mb.tanh(x).unwrap();
    }
    mb.set_outputs(&[x]).unwrap();
    let plan = ModulePlan::new(Arc::new(mb.finish().unwrap())).unwrap();
    let params = Arc::new(ParamStore::from_module(&plan.module));

    let before = threads();
    let r = SimExecutor::new(36)
        .run(&plan, &params, vec![], None, None)
        .unwrap();
    assert_eq!(threads(), before, "no worker was spawned for the run");
    assert_eq!(r.ops, 101);
    // The count does see a worker pool when there is one.
    let _pool = rdg_exec::Executor::with_threads(1);
    assert_eq!(threads(), before + 1);
}
