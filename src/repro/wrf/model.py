"""The time-stepping parent model and its split-file output.

:class:`WrfLikeModel` advances a population of cloud systems over the parent
domain and, at every analysis step, writes one
:class:`~repro.analysis.records.SplitFile` per simulation rank — the
subdomain's QCLOUD/OLR blocks, batched as one
:class:`~repro.analysis.records.SplitFileSet` — exactly the artefacts the
paper's parallel data analysis consumes.  Cloud births are driven by a scenario
(:mod:`repro.wrf.scenario`): either scripted events (the Mumbai-2005-like
trace) or seeded random churn (the synthetic workloads).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis.records import SplitFileSet, SplitLayout
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.wrf.clouds import CloudSystem, advance_systems
from repro.wrf.fields import olr_field, qcloud_field

__all__ = ["DomainConfig", "WrfLikeModel"]


@dataclass(frozen=True)
class DomainConfig:
    """Parent-domain geometry and decomposition.

    Defaults mirror the paper: the Indian region 60E–120E, 5N–40N at 12 km
    (≈ 552 x 324 grid points), decomposed over the simulation process grid.
    """

    nx: int = 552
    ny: int = 324
    sim_grid: ProcessorGrid = ProcessorGrid(32, 32)
    resolution_km: float = 12.0
    nest_refinement: int = 3  # nests run at 4 km = 12/3

    def __post_init__(self) -> None:
        if self.nx < self.sim_grid.px or self.ny < self.sim_grid.py:
            raise ValueError(
                f"domain {self.nx}x{self.ny} smaller than process grid "
                f"{self.sim_grid}"
            )
        if self.nest_refinement < 1:
            raise ValueError(f"nest_refinement must be >= 1")


class WrfLikeModel:
    """Cloud-field simulator producing per-rank split files.

    Parameters
    ----------
    config:
        Domain geometry and decomposition.
    birth_fn:
        ``birth_fn(step, systems) -> list[CloudSystem]`` — scenario hook
        returning the systems born at this step (may be empty).
    systems:
        Initial cloud systems.
    """

    def __init__(
        self,
        config: DomainConfig,
        birth_fn: Callable[[int, list[CloudSystem]], list[CloudSystem]] | None = None,
        systems: list[CloudSystem] | None = None,
    ) -> None:
        self.config = config
        self.birth_fn = birth_fn or (lambda step, systems: [])
        self.systems: list[CloudSystem] = list(systems or [])
        self.step_count = 0
        self.split_layout = SplitLayout(config.nx, config.ny, config.sim_grid)

    def step(self) -> None:
        """Advance one analysis interval (the paper's 2 simulated minutes)."""
        self.systems = advance_systems(self.systems)
        born = self.birth_fn(self.step_count, self.systems)
        self.systems.extend(born)
        self.step_count += 1

    # ------------------------------------------------------------------

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Current full-domain ``(qcloud, olr)`` fields, shape ``(ny, nx)``."""
        q = qcloud_field(self.config.nx, self.config.ny, self.systems)
        return q, olr_field(q)

    def subdomain_extent(self, block_x: int, block_y: int) -> Rect:
        """Grid-point extent of simulation rank block ``(block_x, block_y)``."""
        return self.split_layout.extents[self.config.sim_grid.rank(block_x, block_y)]

    def write_split_files(self) -> SplitFileSet:
        """One split file per simulation rank for the current step, as a batch."""
        return SplitFileSet(self.split_layout, *self.fields())
