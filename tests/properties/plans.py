"""The two physical forms of one expression that the parity suites compare.

* :func:`row_plan` lowers the (optimized) expression without forming
  fused regions, so every operator runs its row-at-a-time ``execute`` —
  the reference the columnar path is tested against.
* :func:`fused_plan` compiles the expression privately (outside the
  shared plan cache) and marks every fused region eligible, so each
  region runs its whole-column path whatever its size estimate.

Both are fresh operator trees: lowering state such as bound schemas and
pushdown analyses never leaks between the two.
"""

from __future__ import annotations

from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra.optimizer import optimize_expression


def row_plan(expression) -> X.PhysicalOperator:
    return planner._lower(optimize_expression(expression))


def fused_plan(expression) -> X.PhysicalOperator:
    plan = planner.compile_expression(expression)
    for op in X._walk_plan(plan):
        if isinstance(op, X.FusedPipelineOp):
            op.fuse_eligible = True
    return plan
