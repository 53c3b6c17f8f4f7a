//! Helpers shared by the integration-test binaries.

use heteroprio::core::kernel::{KernelContext, KernelPolicy, Pick};
use heteroprio::core::{TaskId, WorkerId, WorkerOrder};

/// A [`KernelPolicy`] that forwards to `inner` and counts the kernel's
/// `pick` calls: the denominator of the sampled `kernel_pick_ns` span.
pub struct CountingPicks<P> {
    pub inner: P,
    pub picks: u64,
}

impl<P> CountingPicks<P> {
    pub fn new(inner: P) -> Self {
        CountingPicks { inner, picks: 0 }
    }
}

impl<P: KernelPolicy> KernelPolicy for CountingPicks<P> {
    const EMIT_DECISIONS: bool = P::EMIT_DECISIONS;

    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        self.inner.on_ready(tasks, ctx);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        self.picks += 1;
        self.inner.pick(worker, ctx)
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        self.inner.spoliation_victim(worker, ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.inner.worker_order()
    }
}
