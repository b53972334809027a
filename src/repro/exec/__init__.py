"""The execution layer: every query runs as a compiled codegen kernel.

Optimized KOLA terms are *lowered* into a small loop IR
(:mod:`repro.exec.ir`), *fused* so producer–consumer pipelines touch
each element once (:mod:`repro.exec.fuse`), and compiled to
specialized Python source (:mod:`repro.exec.codegen`): one
straight-line kernel per query, with parameter slots so one compiled
kernel serves an entire constant-varying template family.  One loop
IR, one lowering to code, with bag/set semantics explicit in the
sinks.

The stages are independently testable, but almost every caller wants
the composition::

    kernel = compile_kernel(term)        # lower + fuse + emit, once
    kernel.run(db_a)                     # bind a database at run time
    kernel.run(db_b)                     # ... and retarget freely

Database bindings happen at *execution* time (``run(db)``), never at
compile time, so one compiled kernel serves any database with the same
schema.  The optimizer keeps kernels in a skeleton-keyed cache
(:meth:`repro.optimizer.optimizer.Optimizer.kernel_for`) and runs them
as ``kernel.run(db, values)``.

Lowering is total: terms outside the loop-pipeline fragment fall back
to compiled-closure evaluation (:mod:`repro.exec.scalar`), so
``compile_kernel`` accepts *any* ground query the evaluator does and is
bit-identical to :func:`repro.core.eval.eval_obj` (enforced by the
differential oracle's ``codegen-exec`` configuration and the property
suites in ``tests/test_exec_property.py``).

The closure emitter (:mod:`repro.exec.emit`, ``compile_executable``)
and its column cache (:mod:`repro.exec.columnar`) interpret the same
IR as generator stages.  Nothing in the optimizer reaches them; they
load only when asked for by name.
"""

from repro.exec.codegen import CompiledKernel, compile_kernel
from repro.exec.fuse import fuse
from repro.exec.lower import lower_query

__all__ = ["CompiledKernel", "ExecutablePlan", "compile_executable",
           "compile_kernel", "fuse", "lower_query"]


def __getattr__(name: str):
    if name in ("ExecutablePlan", "compile_executable"):
        from repro.exec import emit
        return getattr(emit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
