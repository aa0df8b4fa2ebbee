"""The paper's core contribution: processor reallocation strategies.

* :class:`~repro.core.allocation.Allocation` — a complete nest→rectangle
  assignment (with its generating tree);
* :class:`~repro.core.scratch.ScratchStrategy` — §IV-A, rebuild the Huffman
  tree at every adaptation point;
* :class:`~repro.core.diffusion.DiffusionStrategy` — §IV-B, the tree-based
  hierarchical diffusion (Algorithm 3) reusing the existing tree;
* :class:`~repro.core.dynamic.DynamicStrategy` — §IV-C, pick per adaptation
  point whichever of the two minimises predicted execution + redistribution
  time;
* :func:`~repro.core.redistribution.predict_redistribution` — transfer
  matrices, messages, overlap and the §IV-C1 predicted time (no network
  simulation: how the dynamic strategy prices a candidate);
* :func:`~repro.core.redistribution.plan_redistribution` — the same plus
  hop-bytes and the measured (simulated) time for one adaptation point;
* :class:`~repro.core.reallocator.ProcessorReallocator` — the end-to-end
  driver gluing predictor, strategy and redistribution planning together.
"""

from repro.core.allocation import Allocation
from repro.core.scratch import ScratchStrategy
from repro.core.diffusion import DiffusionStrategy
from repro.core.dynamic import DynamicStrategy
from repro.core.adaptive import AdaptiveResetStrategy, layout_quality
from repro.core.strategy import ReallocationStrategy
from repro.core.redistribution import (
    NestMove,
    RedistributionPlan,
    RedistributionPrediction,
    plan_redistribution,
    predict_redistribution,
)
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.metrics import StepMetrics, summarize_improvement
from repro.core.invariants import (
    InvariantViolation,
    check_all,
    check_plan_conservation,
    check_tiling,
    check_tree_consistency,
)

__all__ = [
    "Allocation",
    "AdaptiveResetStrategy",
    "layout_quality",
    "ReallocationStrategy",
    "ScratchStrategy",
    "DiffusionStrategy",
    "DynamicStrategy",
    "NestMove",
    "RedistributionPlan",
    "RedistributionPrediction",
    "plan_redistribution",
    "predict_redistribution",
    "ProcessorReallocator",
    "StepResult",
    "StepMetrics",
    "InvariantViolation",
    "check_all",
    "check_plan_conservation",
    "check_tiling",
    "check_tree_consistency",
    "summarize_improvement",
]
