"""The coupled simulation driver — the paper's contribution 2 as one object.

:class:`CoupledSimulation` wires every subsystem together the way the
paper's modified WRF does:

    parent model step → split files → parallel data analysis → ROIs →
    nest tracking → processor reallocation → executed redistribution of
    retained nests' state → (optional) integrity verification.

Each nest carries an actual payload (its QCLOUD field at spawn, refreshed
from the parent after geometry changes); at every adaptation point the
retained nests' payloads are *physically moved* through
:mod:`repro.core.dataplane` from the old processor rectangles to the new
ones and — with ``verify_data=True`` — gathered back and checked
bit-for-bit, so a correctness bug anywhere in the tree edits, the layout,
the block decomposition or the transfer matrices is caught at the step it
happens.

ROI geometry changes are handled the way WRF handles moving nests: the
payload is redistributed at its *current* size onto the new rectangle,
then re-interpolated from the parent onto the new ROI (regridding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.pda import PDAConfig, parallel_data_analysis
from repro.core.dataplane import (
    RankStore,
    execute_redistribution,
    gather_nest,
    scatter_nest,
)
from repro.core.diffusion import DiffusionStrategy
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.strategy import ReallocationStrategy
from repro.grid.rect import Rect
from repro.mpisim.costmodel import CostModel
from repro.obs import get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable
from repro.topology.machines import MachineSpec, blue_gene_l
from repro.wrf.model import WrfLikeModel
from repro.wrf.nests import NestTracker
from repro.wrf.scenario import Scenario, mumbai_2005_scenario
from repro.util.logging import get_logger

__all__ = ["CoupledSimulation", "CoupledStepResult"]

logger = get_logger("wrf.driver")


def _clamp_roi(roi: Rect, min_side: int, max_side: int, nx: int, ny: int) -> Rect:
    from repro.experiments.workloads import _clamp_roi as clamp

    return clamp(roi, min_side, max_side, nx, ny)


@dataclass(frozen=True)
class CoupledStepResult:
    """Everything one adaptation point produced."""

    step: int
    rois: list[Rect]
    spawned: list[int]
    retained: list[int]
    deleted: list[int]
    reallocation: StepResult | None  # None when no nests are live
    moved_bytes: float
    verified_nests: list[int]  # nests whose payload integrity was checked


class CoupledSimulation:
    """End-to-end nested-simulation framework on the simulated machine."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        scenario: Scenario | None = None,
        strategy: ReallocationStrategy | None = None,
        predictor: ExecTimePredictor | None = None,
        n_analysis: int = 64,
        pda_config: PDAConfig | None = None,
        max_nests: int = 7,
        roi_side_range: tuple[int, int] = (58, 120),
        verify_data: bool = True,
    ) -> None:
        self.machine = machine or blue_gene_l(1024)
        self.scenario = scenario or mumbai_2005_scenario()
        self.config = self.scenario.config
        self.model = WrfLikeModel(
            self.config, self.scenario.birth_fn, self.scenario.initial_systems
        )
        self.tracker = NestTracker(refinement=self.config.nest_refinement)
        self.predictor = predictor or ExecTimePredictor(ProfileTable(ExecutionOracle()))
        self.reallocator = ProcessorReallocator(
            self.machine,
            strategy or DiffusionStrategy(),
            self.predictor,
            CostModel.for_machine(self.machine),
        )
        self.n_analysis = n_analysis
        self.pda_config = pda_config or PDAConfig()
        self.max_nests = max_nests
        self.roi_side_range = roi_side_range
        self.verify_data = verify_data
        self.store = RankStore(self.machine.ncores)
        #: current payload size per nest (the size the stored blocks tile)
        self._payload_size: dict[int, tuple[int, int]] = {}
        self.step_count = 0

    # ------------------------------------------------------------------

    def _detect(self) -> tuple[list[Rect], np.ndarray]:
        """This step's clamped ROIs, plus the parent QCLOUD they came from."""
        with get_recorder().span("driver.detect"):
            files = self.model.write_split_files()
            result = parallel_data_analysis(
                files, self.config.sim_grid, self.n_analysis, self.pda_config
            )
            rois = sorted(result.rectangles, key=lambda r: -r.area)[: self.max_nests]
            lo, hi = self.roi_side_range
            clamped = [_clamp_roi(r, lo, hi, self.config.nx, self.config.ny) for r in rois]
            return clamped, files.qcloud

    def step(self) -> CoupledStepResult:
        """Advance one adaptation interval end to end."""
        recorder = get_recorder()
        with recorder.bind(step=self.step_count + 1):
            with recorder.span("driver.step"):
                return self._step()

    def _step(self) -> CoupledStepResult:
        recorder = get_recorder()
        with recorder.span("driver.model"):
            self.model.step()
        self.step_count += 1
        rois, qcloud = self._detect()
        retained, deleted_ids, new = self.tracker.update(rois)
        nests = {n.nest_id: (n.nx, n.ny) for n in self.tracker.live.values()}

        # drop deleted nests' state (their processors are freed)
        for nid in deleted_ids:
            self.store.drop_nest(nid)
            self._payload_size.pop(nid, None)

        if not nests:
            return CoupledStepResult(
                step=self.step_count,
                rois=rois,
                spawned=[],
                retained=[],
                deleted=deleted_ids,
                reallocation=None,
                moved_bytes=0.0,
                verified_nests=[],
            )

        old_alloc = self.reallocator.allocation
        result = self.reallocator.step(nests)
        new_alloc = result.allocation

        moved = 0.0
        verified: list[int] = []
        # 1. physically move retained nests' payloads
        if old_alloc is not None:
            with recorder.span("driver.dataplane", n_retained=len(result.retained)):
                for nid in result.retained:
                    nx, ny = self._payload_size[nid]
                    checksum = None
                    if self.verify_data:
                        checksum = gather_nest(self.store, nid, nx, ny)
                    transfer = execute_redistribution(
                        self.store, nid, old_alloc, new_alloc, nx, ny
                    )
                    moved += (
                        transfer.network_points
                        * self.reallocator.cost.bytes_per_point
                    )
                    if self.verify_data:
                        after = gather_nest(self.store, nid, nx, ny)
                        if not np.array_equal(checksum, after):
                            raise RuntimeError(
                                f"nest {nid}: payload corrupted during redistribution"
                            )
                        verified.append(nid)
                        logger.debug(
                            "step %d: nest %d payload verified after moving %d points",
                            self.step_count,
                            nid,
                            transfer.network_points,
                        )

        # 2. regrid retained nests whose ROI geometry changed, and scatter
        #    the payloads of freshly spawned nests; every payload is QCLOUD
        #    interpolated onto the fine grid from the field detection read
        for nest in retained:
            if self._payload_size.get(nest.nest_id) != (nest.nx, nest.ny):
                self.store.drop_nest(nest.nest_id)
                scatter_nest(
                    self.store,
                    nest.nest_id,
                    nest.interpolate_from_parent(qcloud),
                    new_alloc,
                )
                self._payload_size[nest.nest_id] = (nest.nx, nest.ny)
        for nest in new:
            scatter_nest(
                self.store, nest.nest_id, nest.interpolate_from_parent(qcloud), new_alloc
            )
            self._payload_size[nest.nest_id] = (nest.nx, nest.ny)

        return CoupledStepResult(
            step=self.step_count,
            rois=rois,
            spawned=[n.nest_id for n in new],
            retained=[n.nest_id for n in retained],
            deleted=deleted_ids,
            reallocation=result,
            moved_bytes=moved,
            verified_nests=verified,
        )

    def run(self, n_steps: int) -> list[CoupledStepResult]:
        """Run ``n_steps`` adaptation points and return their results."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------------

    def total_nest_memory(self) -> int:
        """Bytes of nest state currently resident across all ranks."""
        return sum(
            self.store.memory_bytes(rank) for rank in range(self.machine.ncores)
        )
