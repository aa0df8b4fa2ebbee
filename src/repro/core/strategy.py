"""The strategy interface shared by scratch / diffusion / dynamic."""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

from repro.core.allocation import Allocation
from repro.grid.procgrid import ProcessorGrid
from repro.util.validation import check_type

if TYPE_CHECKING:
    from repro.core.redistribution import RedistributionPrediction

__all__ = ["ReallocationStrategy"]


class ReallocationStrategy(abc.ABC):
    """Computes the next allocation from the previous one and new weights."""

    #: short name used in reports ("scratch", "diffusion", "dynamic")
    name: str = "abstract"

    #: the redistribution prediction a strategy made for the allocation its
    #: last :meth:`reallocate` returned, if it made one (the dynamic strategy
    #: prices its candidates); the reallocator's plan reuses it when it
    #: matches that plan's ``(old, new)`` pair exactly
    last_prediction: RedistributionPrediction | None = None

    @abc.abstractmethod
    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
    ) -> Allocation:
        """Allocate processors for the nests in ``weights``.

        Parameters
        ----------
        old:
            The previous allocation (``None`` at the first adaptation point).
        weights:
            ``{nest_id: weight}`` for every nest that must run next —
            retained nests keep their ids, new nests carry fresh ids;
            nests present in ``old`` but absent here are deleted.
        grid:
            The full process grid being partitioned.
        nest_sizes:
            ``{nest_id: (nx, ny)}`` fine-grid sizes; required by strategies
            that predict redistribution cost (dynamic), ignored otherwise.
        """

    @staticmethod
    def check_reallocate_args(
        old: Allocation | None, weights: dict[int, float], grid: ProcessorGrid
    ) -> None:
        """Shared argument validation for :meth:`reallocate` implementations.

        Rejects non-finite or non-positive weights (a zero-weight nest would
        receive an empty rectangle and break the tiling invariant) and
        mismatched grid/allocation pairings before any tree edit happens.
        """
        check_type("grid", grid, ProcessorGrid)
        if old is not None:
            check_type("old", old, Allocation)
            if old.grid != grid:
                raise ValueError(
                    f"old allocation is on grid {old.grid}, asked to "
                    f"reallocate on {grid}"
                )
        for nid, weight in weights.items():
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(
                    f"weights[{nid}] must be finite and positive, got {weight!r}"
                )

    @staticmethod
    def split_churn(
        old: Allocation | None, weights: dict[int, float]
    ) -> tuple[list[int], dict[int, float], dict[int, float]]:
        """Classify the churn: (deleted ids, retained weights, new weights).

        Validation: pure id classification — every mapping input is
        meaningful, and callers have already validated the weights via
        :meth:`check_reallocate_args`.
        """
        old_ids = set(old.rects) if old is not None else set()
        deleted = sorted(old_ids - set(weights))
        retained = {nid: w for nid, w in weights.items() if nid in old_ids}
        new = {nid: w for nid, w in weights.items() if nid not in old_ids}
        return deleted, retained, new
