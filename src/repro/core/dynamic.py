"""The dynamic strategy (paper §IV-C).

At every adaptation point both candidate allocations are computed — scratch
and diffusion — and the one with the smaller **predicted execution time +
predicted redistribution time** wins:

* predicted execution time of an allocation is the slowest nest (they run
  simultaneously on disjoint rectangles), each nest's time interpolated by
  the :class:`~repro.perfmodel.exectime.ExecTimePredictor`;
* predicted redistribution time is the §IV-C1 analytical alltoallv model
  over the retained nests' transfer matrices
  (:func:`~repro.core.redistribution.predict_redistribution`: no network
  simulation — the candidates are priced, not planned).

The winner's prediction is kept as :attr:`DynamicStrategy.last_prediction`
so the executed plan reuses its transfer matrices.

The choice history is recorded so the Fig. 12 experiment can report how
often each method was selected and whether the selection was correct.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.diffusion import DiffusionStrategy
from repro.core.redistribution import (
    RedistributionPrediction,
    # re-exported, not called: perfbench/tracing.py patches
    # ``repro.core.dynamic.plan_redistribution`` by name
    plan_redistribution,  # noqa: F401
    predict_redistribution,
)
from repro.core.scratch import ScratchStrategy
from repro.core.strategy import ReallocationStrategy
from repro.grid.procgrid import ProcessorGrid
from repro.mpisim.costmodel import CostModel
from repro.obs import get_flight_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.topology.machines import MachineSpec

__all__ = [
    "DynamicStrategy",
    "DynamicChoice",
    "CandidateCosts",
    "predict_candidate_costs",
    "predicted_exec_time",
]


@dataclass(frozen=True)
class DynamicChoice:
    """One adaptation point's selection record."""

    chosen: str  # "scratch" or "diffusion"
    scratch_exec: float
    scratch_redist: float
    diffusion_exec: float
    diffusion_redist: float

    @property
    def scratch_total(self) -> float:
        return self.scratch_exec + self.scratch_redist

    @property
    def diffusion_total(self) -> float:
        return self.diffusion_exec + self.diffusion_redist


@dataclass(frozen=True)
class CandidateCosts:
    """Both candidate allocations with their §IV-C predicted costs.

    The predictions are ``None`` at the first adaptation point, where
    nothing is redistributed.
    """

    choice: DynamicChoice
    scratch: Allocation
    diffusion: Allocation
    scratch_prediction: RedistributionPrediction | None = None
    diffusion_prediction: RedistributionPrediction | None = None

    @property
    def chosen_allocation(self) -> Allocation:
        return self.scratch if self.choice.chosen == "scratch" else self.diffusion

    @property
    def chosen_prediction(self) -> RedistributionPrediction | None:
        if self.choice.chosen == "scratch":
            return self.scratch_prediction
        return self.diffusion_prediction


def predicted_exec_time(
    predictor: ExecTimePredictor,
    allocation: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
) -> float:
    """Slowest-nest predicted execution time for an allocation."""
    if allocation.is_empty:
        return 0.0
    missing = set(allocation.rects) - set(nest_sizes)
    if missing:
        raise ValueError(f"nest_sizes missing allocated nests {sorted(missing)}")
    return max(
        predictor.predict(*nest_sizes[nid], allocation.rects[nid].area)
        for nid in allocation.rects
    )


def predict_candidate_costs(
    old: Allocation | None,
    weights: dict[int, float],
    grid: ProcessorGrid,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    predictor: ExecTimePredictor,
) -> CandidateCosts:
    """Compute both candidate allocations and the §IV-C decision inputs.

    This is the dynamic strategy's decision procedure, exposed so the
    adaptation audit trail can record *what the predictions were* at an
    adaptation point even when the run's strategy never computed them
    (scratch- and diffusion-only runs).  The winner rule matches
    :class:`DynamicStrategy` exactly: strict inequality, ties keep
    diffusion (which preserves overlap for free).
    """
    missing = set(weights) - set(nest_sizes)
    if missing:
        raise KeyError(f"nest_sizes missing for nests {sorted(missing)}")
    scratch_alloc = ScratchStrategy().reallocate(old, weights, grid)
    diffusion_alloc = DiffusionStrategy().reallocate(old, weights, grid)

    s_exec = predicted_exec_time(predictor, scratch_alloc, nest_sizes)
    d_exec = predicted_exec_time(predictor, diffusion_alloc, nest_sizes)
    s_pred: RedistributionPrediction | None = None
    d_pred: RedistributionPrediction | None = None
    s_redist = d_redist = 0.0
    if old is not None:
        s_pred = predict_redistribution(old, scratch_alloc, nest_sizes, machine, cost)
        d_pred = predict_redistribution(old, diffusion_alloc, nest_sizes, machine, cost)
        s_redist, d_redist = s_pred.predicted_time, d_pred.predicted_time
    # Strict inequality: on a predicted tie (frequently the two trees
    # coincide exactly) keep the diffusion allocation, which preserves
    # overlap for free.
    chosen = "scratch" if s_exec + s_redist < d_exec + d_redist else "diffusion"
    return CandidateCosts(
        choice=DynamicChoice(
            chosen=chosen,
            scratch_exec=s_exec,
            scratch_redist=s_redist,
            diffusion_exec=d_exec,
            diffusion_redist=d_redist,
        ),
        scratch=scratch_alloc,
        diffusion=diffusion_alloc,
        scratch_prediction=s_pred,
        diffusion_prediction=d_pred,
    )


class DynamicStrategy(ReallocationStrategy):
    """Select scratch or diffusion by predicted total time, per step."""

    name = "dynamic"

    def __init__(
        self,
        machine: MachineSpec,
        cost: CostModel,
        predictor: ExecTimePredictor,
    ) -> None:
        self.machine = machine
        self.cost = cost
        self.predictor = predictor
        self.history: list[DynamicChoice] = []

    def predicted_exec_time(
        self, allocation: Allocation, nest_sizes: dict[int, tuple[int, int]]
    ) -> float:
        """Slowest-nest predicted execution time for an allocation."""
        return predicted_exec_time(self.predictor, allocation, nest_sizes)

    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
    ) -> Allocation:
        if nest_sizes is None:
            raise ValueError(
                "DynamicStrategy needs nest_sizes to predict redistribution"
            )
        candidates = predict_candidate_costs(
            old, weights, grid, nest_sizes, self.machine, self.cost, self.predictor
        )
        choice = candidates.choice
        self.history.append(choice)
        self.last_prediction = candidates.chosen_prediction
        get_flight_recorder().emit(
            "dynamic.choice",
            chosen=choice.chosen,
            scratch_exec=choice.scratch_exec,
            scratch_redist=choice.scratch_redist,
            diffusion_exec=choice.diffusion_exec,
            diffusion_redist=choice.diffusion_redist,
        )
        return candidates.chosen_allocation
