"""Redistribution planning for one adaptation point.

For every retained nest, the old and new block decompositions yield a
transfer matrix (who sends which nest points to whom); from it come the
quantities the paper reports:

* the **messages** of the per-nest ``MPI_Alltoallv`` (local copies excluded),
* the **overlap fraction** — points keeping their owner (Fig. 11),
* **hop-bytes** — byte-weighted hops under the machine's mapping (Fig. 10),
* **predicted** redistribution time (§IV-C1 analytical model) and
  **measured** time (contention-aware network simulation).

Planning runs in two stages.  :func:`predict_redistribution` is the
simulator-free half — transfer matrices, messages and the §IV-C1
prediction — which is all the dynamic strategy needs to price a
candidate.  :func:`plan_redistribution` adds the measured half (routing,
bottleneck time, hop-bytes, link-state deltas) and reuses a prediction
already made for the same ``(old, new)`` pair instead of recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.allocation import Allocation
from repro.grid.overlap import TransferMatrix, transfer_matrix
from repro.kernels import DEFAULT_KERNELS, check_kernels
from repro.mpisim.alltoallv import (
    MessageSet,
    hop_bytes,
    messages_from_transfer,
    predict_alltoallv_time,
)
from repro.mpisim.costmodel import CostModel
from repro.mpisim.netsim import LinkLoadState, NetworkSimulator
from repro.obs import get_flight_recorder, get_recorder
from repro.perfmodel.redisttime import measure_redistribution_time
from repro.sanitize.hooks import get_sanitizer
from repro.topology.machines import MachineSpec

__all__ = [
    "NestMove",
    "RedistributionPlan",
    "RedistributionPrediction",
    "plan_redistribution",
    "predict_redistribution",
]


@dataclass(frozen=True)
class NestMove:
    """One retained nest's data movement."""

    nest_id: int
    transfer: TransferMatrix
    messages: MessageSet

    @property
    def overlap_fraction(self) -> float:
        return self.transfer.overlap_fraction


@dataclass(frozen=True)
class RedistributionPlan:
    """All data movement of one adaptation point, with its metrics."""

    moves: list[NestMove]
    predicted_time: float  # §IV-C1 model, summed over nests
    measured_time: float  # network-simulated, summed over nests
    hop_bytes_total: float
    hop_bytes_avg: float  # byte-weighted average hops (Fig. 10 units)
    overlap_fraction: float  # point-weighted across retained nests
    network_bytes: float
    #: §IV-C1 predicted time per nest round (keys = retained nest ids) —
    #: the basis for per-round timeouts in the self-healing executor
    per_nest_predicted: dict[int, float] = field(default_factory=dict)

    @property
    def retained_nests(self) -> list[int]:
        return [m.nest_id for m in self.moves]

    def round_timeout(self, nest_id: int, factor: float = 4.0) -> float:
        """Deadline for one nest's round: ``factor ×`` its predicted time.

        A round exceeding this is treated as failed by the self-healing
        executor (:func:`repro.core.dataplane.execute_redistribution_with_retry`)
        and retried with backoff.  Falls back to the plan-wide prediction
        when the nest has no per-round entry (e.g. an old serialized plan).
        """
        if factor <= 0:
            raise ValueError(f"timeout factor must be > 0, got {factor}")
        base = self.per_nest_predicted.get(nest_id, self.predicted_time)
        return factor * base


@dataclass(frozen=True)
class RedistributionPrediction:
    """The simulator-free half of a plan: what moves, and its §IV-C1 cost.

    Remembers the exact inputs it was computed from, so a plan is only
    ever built on a prediction for its own ``(old, new)`` pair
    (:meth:`matches`).
    """

    old: Allocation
    new: Allocation
    machine: MachineSpec
    cost: CostModel
    #: ``(nx, ny)`` of every retained nest, as used for its decompositions
    sizes: dict[int, tuple[int, int]]
    moves: list[NestMove]
    per_nest_predicted: dict[int, float]
    predicted_time: float
    overlap_fraction: float  # point-weighted across retained nests

    def matches(
        self,
        old: Allocation,
        new: Allocation,
        nest_sizes: dict[int, tuple[int, int]],
        machine: MachineSpec,
        cost: CostModel,
    ) -> bool:
        """True when this prediction is exactly the one ``old → new`` yields."""
        return (
            self.old is old
            and self.new is new
            and self.machine is machine
            and self.cost == cost
            and all(nest_sizes.get(nid) == size for nid, size in self.sizes.items())
        )


def _emit_round(move: NestMove) -> None:
    get_flight_recorder().emit(
        "redist.round",
        nest=move.nest_id,
        n_messages=len(move.messages),
        network_bytes=move.messages.total_bytes,
        overlap=move.transfer.overlap_fraction,
    )


def predict_redistribution(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
) -> RedistributionPrediction:
    """Transfer matrices, messages and §IV-C1 predicted time of ``old → new``.

    Needs no network simulator: nothing is routed and no link is loaded.
    Every evaluation emits one ``redist.round`` flight event per retained
    nest and, when a sanitizer is armed, has its transfer matrices
    conservation-checked.
    """
    recorder = get_recorder()
    retained = sorted(set(old.rects) & set(new.rects))
    moves: list[NestMove] = []
    sizes: dict[int, tuple[int, int]] = {}
    per_nest_predicted: dict[int, float] = {}
    total_points = 0
    local_points = 0
    for nid in retained:
        if nid not in nest_sizes:
            raise KeyError(f"no size recorded for retained nest {nid}")
        nx, ny = nest_sizes[nid]
        sizes[nid] = (nx, ny)
        with recorder.span("redist.transfer_matrix", nest=nid):
            t = transfer_matrix(
                old.decomposition(nid, nx, ny),
                new.decomposition(nid, nx, ny),
                old.grid.px,
            )
            msgs = messages_from_transfer(t, cost.bytes_per_point)
        move = NestMove(nest_id=nid, transfer=t, messages=msgs)
        moves.append(move)
        per_nest_predicted[nid] = predict_alltoallv_time(msgs, machine, cost)
        total_points += t.total_points
        local_points += t.local_points
        _emit_round(move)
    prediction = RedistributionPrediction(
        old=old,
        new=new,
        machine=machine,
        cost=cost,
        sizes=sizes,
        moves=moves,
        per_nest_predicted=per_nest_predicted,
        predicted_time=sum(per_nest_predicted.values()),
        overlap_fraction=local_points / total_points if total_points else 1.0,
    )
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_prediction(prediction, nest_sizes)
    return prediction


def plan_redistribution(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    simulator: NetworkSimulator | None = None,
    flow_level: bool = False,
    kernels: str = DEFAULT_KERNELS,
    link_state: LinkLoadState | None = None,
    prediction: RedistributionPrediction | None = None,
) -> RedistributionPlan:
    """Plan and cost the redistribution from ``old`` to ``new``.

    ``nest_sizes`` maps every retained nest id to its ``(nx, ny)`` fine-grid
    size.  Nests only in ``old`` (deleted) or only in ``new`` (created; their
    initial data is interpolated from the parent, not redistributed) move no
    data, exactly as in the paper.

    ``prediction`` (optional) is a :func:`predict_redistribution` result
    to build on instead of recomputing the transfer matrices.  It is used
    only when it :meth:`~RedistributionPrediction.matches` exactly these
    arguments and is ignored otherwise.  Either way the plan emits its
    own ``redist.round`` events.

    ``kernels`` selects the network-accounting implementation when no
    ``simulator`` is supplied (a passed-in simulator keeps its own mode);
    both modes yield bit-identical plans (:mod:`repro.kernels`).

    ``link_state`` (optional) is a live
    :class:`~repro.mpisim.netsim.LinkLoadState` to maintain by deltas:
    deleted nests' contributions are retired and each retained nest's is
    replaced by this plan's messages, so after the call the state holds
    exactly this adaptation point's wire traffic without any full
    recomputation.  Each nest is routed once: the link loads that time
    its collective are the ones charged to the state.  The sanitizer
    (when armed) cross-checks the incremental state against a
    from-scratch rebuild.
    """
    check_kernels(kernels)
    if prediction is not None and prediction.matches(
        old, new, nest_sizes, machine, cost
    ):
        for move in prediction.moves:
            _emit_round(move)
    else:
        prediction = predict_redistribution(old, new, nest_sizes, machine, cost)
    simulator = simulator or NetworkSimulator(machine.mapping, cost, kernels=kernels)
    recorder = get_recorder()
    moves = list(prediction.moves)
    per_nest_msgs = [m.messages for m in moves]
    with recorder.span("redist.cost", n_moves=len(moves)):
        all_msgs = MessageSet.concat(per_nest_msgs)
        hb_total, hb_avg = hop_bytes(all_msgs, machine.mapping)
        # Each nest is routed once: the same link loads time its collective
        # here and charge the live link state below.
        per_nest_loads = (
            [simulator.link_load_arrays(m) for m in per_nest_msgs]
            if link_state is not None or not flow_level
            else []
        )
        if flow_level:
            measured = measure_redistribution_time(
                per_nest_msgs, simulator, flow_level=True
            )
        else:
            measured = sum(
                simulator.bottleneck_time(m, link_loads=loads)
                for m, loads in zip(per_nest_msgs, per_nest_loads)
            )
    plan = RedistributionPlan(
        moves=moves,
        predicted_time=prediction.predicted_time,
        measured_time=measured,
        hop_bytes_total=hb_total,
        hop_bytes_avg=hb_avg,
        overlap_fraction=prediction.overlap_fraction,
        network_bytes=all_msgs.total_bytes,
        per_nest_predicted=dict(prediction.per_nest_predicted),
    )
    if link_state is not None:
        with recorder.span("redist.link_state", n_moves=len(moves)):
            for nid in sorted(set(old.rects) - set(new.rects)):
                link_state.retire(nid)
            for move, loads in zip(moves, per_nest_loads):
                link_state.update(move.nest_id, move.messages, loads)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_plan(plan, nest_sizes)
        if link_state is not None:
            sanitizer.after_link_state(link_state)
    return plan
