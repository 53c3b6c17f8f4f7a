//! Independent-task instances for the Figure 6 experiments.
//!
//! "To obtain realistic instances with independent tasks, we have taken the
//! actual measurements from tasks of each kernel (Cholesky, QR and LU) and
//! considered these as independent tasks" — i.e. the kernel multiset of an
//! N-tile factorization with dependencies dropped.

use heteroprio_core::Instance;
use heteroprio_taskgraph::{kernel_counts, Factorization, KernelTiming};

/// The tasks of an `n`-tile factorization as an independent-task instance.
pub fn independent_instance(f: Factorization, n: usize, timing: &impl KernelTiming) -> Instance {
    let mut inst = Instance::new();
    for (kernel, count) in kernel_counts(f, n) {
        let task = timing.task(kernel);
        for _ in 0..count {
            inst.push(task);
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ChameleonTiming;
    use heteroprio_taskgraph::{cholesky, Kernel};

    #[test]
    fn instance_is_the_dags_tasks_in_kernel_order() {
        let inst = independent_instance(Factorization::Cholesky, 8, &ChameleonTiming);
        assert_eq!(inst.len(), cholesky(8, &ChameleonTiming).len());
        // One run of equal tasks per kernel: POTRF, TRSM, SYRK, GEMM.
        let runs = 1 + inst.tasks().windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(runs, 4);
    }

    #[test]
    fn gemm_dominates_large_cholesky() {
        // For large N the GEMM count (~N³/6) dwarfs the others (~N²).
        let counts = kernel_counts(Factorization::Cholesky, 32);
        let gemm = counts.iter().find(|(k, _)| *k == Kernel::Gemm).unwrap().1;
        let rest: usize = counts.iter().filter(|(k, _)| *k != Kernel::Gemm).map(|&(_, c)| c).sum();
        assert!(gemm > 3 * rest);
    }

    #[test]
    fn tiny_instances_have_no_update_kernels() {
        let counts = kernel_counts(Factorization::Cholesky, 2);
        let gemm = counts.iter().find(|(k, _)| *k == Kernel::Gemm).unwrap().1;
        assert_eq!(gemm, 0);
        assert_eq!(independent_instance(Factorization::Cholesky, 2, &ChameleonTiming).len(), 4);
    }
}
