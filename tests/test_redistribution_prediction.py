"""The two-stage redistribution plan: predict, then measure.

``predict_redistribution`` is the simulator-free half of
``plan_redistribution`` (transfer matrices, messages, §IV-C1 predicted
time).  The dynamic strategy prices its candidates with it, and the
executed plan reuses the winner's prediction.  These tests pin down that:

* a prediction agrees bit-for-bit with the plan built on the same pair,
  and a plan built on a handed-over prediction equals a from-scratch plan;
* the published decision procedure — one full plan per candidate, kept
  here as the oracle — picks the same candidates in the same order;
* a prediction is never applied to a different ``(old, new)`` pair;
* the armed sanitizer still checks every candidate's transfer matrices;
* the flight log is unchanged (golden signatures recorded from the
  one-full-plan-per-candidate implementation).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Allocation,
    DiffusionStrategy,
    DynamicStrategy,
    ProcessorReallocator,
    ScratchStrategy,
    plan_redistribution,
    redistribution,
)
from repro.core.dynamic import DynamicChoice, predict_candidate_costs, predicted_exec_time
from repro.core.redistribution import predict_redistribution
from repro.experiments.workloads import mumbai_trace_workload
from repro.grid import ProcessorGrid
from repro.mpisim import CostModel
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.sanitize import Sanitizer, use_sanitizer
from repro.serve import ScenarioSpec, Session, flight_signature
from repro.topology import MACHINES, fist_cluster
from repro.tree import build_huffman

GRID = ProcessorGrid(16, 16)  # both 256-rank machines
MACHINE_FACTORIES = {
    "bgl-256": lambda: MACHINES["bgl-256"],
    "fist_cluster": lambda: fist_cluster(256),
}
GOLDEN = Path(__file__).parent / "data" / "flight_golden.json"


@pytest.fixture(scope="module")
def predictor():
    return ExecTimePredictor(ProfileTable(ExecutionOracle()))


def draw_allocation(data, label, id_pool=range(1, 10)):
    ids = data.draw(
        st.lists(st.sampled_from(list(id_pool)), min_size=1, max_size=5, unique=True),
        label=f"{label}_ids",
    )
    weights = {nid: 1.0 + data.draw(st.integers(0, 12), label=f"{label}_w{nid}") for nid in ids}
    return Allocation.from_tree(build_huffman(weights), GRID, weights), weights


def assert_moves_equal(a, b):
    assert [m.nest_id for m in a] == [m.nest_id for m in b]
    for ma, mb in zip(a, b):
        for field in ("senders", "receivers", "points"):
            assert np.array_equal(getattr(ma.transfer, field), getattr(mb.transfer, field))
        assert ma.transfer.total_points == mb.transfer.total_points
        for field in ("src", "dst", "nbytes"):
            assert np.array_equal(getattr(ma.messages, field), getattr(mb.messages, field))


def bits(x):
    """A number's type and exact bit pattern (sums over no nests are int 0)."""
    return type(x), float(x).hex()


def hex_map(times):
    return {nid: bits(t) for nid, t in times.items()}


def assert_plans_equal(a, b):
    """Every field of two plans equal; floats compared bit-for-bit."""
    assert_moves_equal(a.moves, b.moves)
    for field in dataclasses.fields(a):
        if field.name == "moves":
            continue
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, (int, float)):
            assert bits(va) == bits(vb), field.name
        elif isinstance(va, dict):
            assert hex_map(va) == hex_map(vb), field.name
        else:
            assert va == vb, field.name


def oracle_candidate_choice(old, weights, grid, nest_sizes, machine, cost, predictor):
    """The published decision procedure: one full plan per candidate."""
    scratch = ScratchStrategy().reallocate(old, weights, grid)
    diffusion = DiffusionStrategy().reallocate(old, weights, grid)

    def redist(candidate):
        if old is None:
            return 0.0
        return plan_redistribution(old, candidate, nest_sizes, machine, cost).predicted_time

    s_exec = predicted_exec_time(predictor, scratch, nest_sizes)
    d_exec = predicted_exec_time(predictor, diffusion, nest_sizes)
    s_redist, d_redist = redist(scratch), redist(diffusion)
    chosen = "scratch" if s_exec + s_redist < d_exec + d_redist else "diffusion"
    return DynamicChoice(chosen, s_exec, s_redist, d_exec, d_redist)


def count_transfer_matrices(monkeypatch):
    calls = []
    original = redistribution.transfer_matrix

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(redistribution, "transfer_matrix", counted)
    return calls


class TestPredictionMatchesPlan:
    @pytest.mark.parametrize("machine_name", sorted(MACHINE_FACTORIES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_prediction_and_handoff_equal_full_plan(self, machine_name, data):
        machine = MACHINE_FACTORIES[machine_name]()
        cost = CostModel.for_machine(machine)
        old, w_old = draw_allocation(data, "old")
        new, w_new = draw_allocation(data, "new")
        sizes = {
            nid: (
                data.draw(st.integers(6, 48), label=f"nx{nid}"),
                data.draw(st.integers(6, 48), label=f"ny{nid}"),
            )
            for nid in set(w_old) | set(w_new)
        }
        prediction = predict_redistribution(old, new, sizes, machine, cost)
        full = plan_redistribution(old, new, sizes, machine, cost)

        assert_moves_equal(prediction.moves, full.moves)
        assert hex_map(prediction.per_nest_predicted) == hex_map(full.per_nest_predicted)
        assert bits(prediction.predicted_time) == bits(full.predicted_time)
        assert bits(prediction.overlap_fraction) == bits(full.overlap_fraction)

        handed = plan_redistribution(old, new, sizes, machine, cost, prediction=prediction)
        assert_plans_equal(handed, full)
        # the plan is built on the prediction's own transfer matrices
        assert all(a is b for a, b in zip(handed.moves, prediction.moves))


class TestDecisionOracle:
    def test_thirty_step_mumbai_run_matches_full_plan_oracle(self, predictor):
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        strategy = DynamicStrategy(machine, cost, predictor)
        realloc = ProcessorReallocator(machine, strategy, predictor, cost)
        workload = mumbai_trace_workload(seed=2005, n_steps=30)
        assert workload.n_steps == 30
        expected = []
        for nests in workload.steps:
            weights = predictor.weights(nests, realloc.grid.nprocs)
            expected.append(
                oracle_candidate_choice(
                    realloc.allocation, weights, realloc.grid, dict(nests),
                    machine, cost, predictor,
                )
            )
            realloc.step(nests)
        assert [c.chosen for c in strategy.history] == [c.chosen for c in expected]
        for got, want in zip(strategy.history, expected):
            for field in dataclasses.fields(DynamicChoice):
                if field.name != "chosen":
                    assert bits(getattr(got, field.name)) == bits(getattr(want, field.name))

    def test_audit_side_path_prices_like_the_oracle(self, predictor):
        machine = fist_cluster(256)
        cost = CostModel.for_machine(machine)
        realloc = ProcessorReallocator(machine, DiffusionStrategy(), predictor, cost)
        sizes = {1: (90, 80), 2: (70, 60), 3: (100, 90)}
        realloc.step(sizes)
        nests = {1: (90, 80), 3: (100, 90), 4: (60, 60)}
        weights = predictor.weights(nests, realloc.grid.nprocs)
        args = (realloc.allocation, weights, realloc.grid, nests, machine, cost, predictor)
        assert predict_candidate_costs(*args).choice == oracle_candidate_choice(*args)


class TestHandoff:
    def _dynamic(self, machine, predictor):
        cost = CostModel.for_machine(machine)
        strategy = DynamicStrategy(machine, cost, predictor)
        return ProcessorReallocator(machine, strategy, predictor, cost), strategy

    def test_executed_plan_reuses_winner_transfer_matrices(self, predictor, monkeypatch):
        realloc, strategy = self._dynamic(MACHINES["bgl-256"], predictor)
        realloc.step({1: (90, 80), 2: (70, 60), 3: (100, 90)})
        calls = count_transfer_matrices(monkeypatch)
        result = realloc.step({1: (90, 80), 3: (100, 90), 4: (60, 60)})
        # two candidates priced, the winner's matrices reused by the plan
        assert len(calls) == 2 * len(result.retained)
        assert all(a is b for a, b in zip(result.plan.moves, strategy.last_prediction.moves))

    def test_first_step_has_no_prediction(self, predictor):
        realloc, strategy = self._dynamic(MACHINES["bgl-256"], predictor)
        result = realloc.step({1: (90, 80), 2: (70, 60)})
        assert result.plan is None
        assert strategy.last_prediction is None
        choice = strategy.history[-1]
        assert choice.scratch_redist == 0.0 and choice.diffusion_redist == 0.0

    def test_step_after_rank_failure_equals_from_scratch_plan(self, predictor, monkeypatch):
        machine = fist_cluster(16)
        realloc, strategy = self._dynamic(machine, predictor)
        realloc.step({1: (40, 30), 2: (30, 30), 3: (50, 40)})
        realloc.step({1: (40, 30), 3: (50, 40), 4: (30, 20)})
        stale = strategy.last_prediction
        assert stale is not None
        realloc.handle_rank_failure([5])
        old = realloc.allocation
        assert old.grid.nprocs < 16
        nests = {1: (40, 30), 3: (50, 40), 5: (20, 20)}
        result = realloc.step(nests)
        assert strategy.last_prediction is not stale
        assert strategy.last_prediction.old is old
        fresh = plan_redistribution(old, result.allocation, dict(nests), machine, realloc.cost)
        assert_plans_equal(result.plan, fresh)
        # a stale prediction handed to this pair is ignored, not applied
        calls = count_transfer_matrices(monkeypatch)
        ignored = plan_redistribution(
            old, result.allocation, dict(nests), machine, realloc.cost, prediction=stale
        )
        assert len(calls) == len(result.retained)
        assert_plans_equal(ignored, fresh)

    def test_prediction_from_outside_a_reallocator_applies_only_to_its_pair(self, predictor):
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        strategy = DynamicStrategy(machine, cost, predictor)
        sizes = {1: (90, 80), 2: (70, 60), 3: (100, 90), 4: (60, 60)}
        first = strategy.reallocate(None, {1: 0.3, 2: 0.3, 3: 0.4}, GRID, nest_sizes=sizes)
        chosen = strategy.reallocate(first, {1: 0.3, 3: 0.3, 4: 0.4}, GRID, nest_sizes=sizes)
        prediction = strategy.last_prediction
        assert prediction.old is first and prediction.new is chosen
        assert prediction.matches(first, chosen, sizes, machine, cost)

        other = ScratchStrategy().reallocate(first, {1: 0.5, 3: 0.5}, GRID)
        resized = {**sizes, 1: (91, 80)}
        mismatches = [
            (first, other, sizes, machine, cost),  # different new allocation
            (chosen, chosen, sizes, machine, cost),  # different old allocation
            (first, chosen, resized, machine, cost),  # a retained nest resized
            (first, chosen, sizes, machine, dataclasses.replace(cost, alpha=2 * cost.alpha)),
            (first, chosen, sizes, fist_cluster(256), cost),  # another machine
        ]
        for args in mismatches:
            assert not prediction.matches(*args)
            assert_plans_equal(
                plan_redistribution(*args, prediction=prediction), plan_redistribution(*args)
            )


class TestSanitizerOnCandidates:
    def test_conservation_runs_once_per_evaluated_candidate(self, predictor):
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        realloc = ProcessorReallocator(
            machine, DynamicStrategy(machine, cost, predictor), predictor, cost
        )
        sanitizer = Sanitizer(strict=True)
        steps = [
            {1: (90, 80), 2: (70, 60), 3: (100, 90)},
            {1: (90, 80), 3: (100, 90), 4: (60, 60)},
            {3: (100, 90), 4: (60, 60), 5: (80, 80)},
        ]
        with use_sanitizer(sanitizer):
            for nests in steps:
                realloc.step(nests)
        planned = len(steps) - 1
        assert sanitizer.checks_run["plan.conservation"] == 2 * planned
        assert sanitizer.checks_run["plan.bytes"] == planned
        assert sanitizer.ok

    def test_corrupted_candidate_transfer_fires(self, predictor, monkeypatch):
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        sizes = {1: (90, 80), 2: (70, 60), 3: (100, 90), 4: (60, 60)}
        old = DiffusionStrategy().reallocate(None, {1: 0.3, 2: 0.3, 3: 0.4}, GRID)
        original = redistribution.transfer_matrix

        def corrupted(*args):
            t = original(*args)
            points = t.points.copy()
            points[0] += 1  # one point counted twice
            return dataclasses.replace(t, points=points)

        monkeypatch.setattr(redistribution, "transfer_matrix", corrupted)
        sanitizer = Sanitizer()
        weights = {1: 0.3, 3: 0.3, 4: 0.4}
        with use_sanitizer(sanitizer):
            predict_candidate_costs(old, weights, GRID, sizes, machine, cost, predictor)
        assert sanitizer.checks_run["plan.conservation"] == 2
        fired = [v for v in sanitizer.violations if v.check == "plan.conservation"]
        # every retained nest of both candidates, twice (cover + partition)
        assert len(fired) == 2 * 2 * 2


class TestGoldenFlightSignatures:
    @pytest.mark.parametrize("name", sorted(json.loads(GOLDEN.read_text())))
    def test_flight_signature_unchanged(self, name):
        golden = json.loads(GOLDEN.read_text())[name]
        session = Session(name, ScenarioSpec.from_dict(golden["spec"]))
        session.run_to_completion()
        signature = json.loads(json.dumps(flight_signature(session.events()), default=repr))
        assert signature == golden["signature"]
