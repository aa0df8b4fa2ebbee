"""Property-based equivalence: vector kernels against the scalar oracles.

Every hot path grown a vectorised fast path (``kernels="vector"``) keeps
its original scalar implementation as a reference oracle
(``kernels="reference"``).  These tests drive both modes over randomized
inputs — grids, nest sets, message sets, fault masks, degraded split-file
sets — and demand the outputs match: bit-for-bit wherever the arithmetic
is order-independent (integer-valued byte counts), and to 1e-12 relative
tolerance for the float aggregates whose summation order legitimately
differs (batched QCLOUD sums).  See ``docs/performance.md``.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PDAConfig, SplitFile, parallel_data_analysis
from repro.analysis.pda import aggregate_summaries, assign_files
from repro.core import Allocation, plan_redistribution
from repro.core.dataplane import (
    RankStore,
    execute_redistribution,
    gather_nest,
    scatter_nest,
)
from repro.grid import ProcessorGrid, Rect
from repro.grid.block import split_evenly
from repro.mpisim import CostModel, MessageSet, NetworkSimulator, SimComm
from repro.topology import MACHINES
from repro.tree import build_huffman
from repro.util.rng import make_rng

MACHINE_NAMES = ("bgl-256", "fist-256")  # one torus, one switched network
GRID = ProcessorGrid(16, 16)  # matches the 256-rank machines


def make_sim_pair(name, adaptive):
    machine = MACHINES[name]
    cost = CostModel.for_machine(machine)
    vec = NetworkSimulator(
        machine.mapping, cost, adaptive_routing=adaptive, kernels="vector"
    )
    ref = NetworkSimulator(
        machine.mapping, cost, adaptive_routing=adaptive, kernels="reference"
    )
    return machine, vec, ref


def draw_messages(data, nranks, min_n=0, max_n=60):
    n = data.draw(st.integers(min_n, max_n), label="n_messages")
    src = data.draw(
        st.lists(st.integers(0, nranks - 1), min_size=n, max_size=n), label="src"
    )
    # dst = src + a non-zero offset: MessageSet forbids self-messages
    offs = data.draw(
        st.lists(st.integers(1, nranks - 1), min_size=n, max_size=n),
        label="dst_offsets",
    )
    words = data.draw(
        st.lists(st.integers(1, 512), min_size=n, max_size=n), label="words"
    )
    src_arr = np.asarray(src, dtype=np.int64)
    return MessageSet(
        src=src_arr,
        dst=(src_arr + np.asarray(offs, dtype=np.int64)) % nranks,
        nbytes=np.asarray(words, dtype=np.float64) * 8.0,
    )


def empty_messages():
    return MessageSet(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        nbytes=np.empty(0, dtype=np.float64),
    )


class TestNetsimEquivalence:
    """Link accounting is bit-exact: the byte counts are integer-valued
    float64, so per-link sums match in any accumulation order."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_link_accounting_matches_reference(self, data):
        name = data.draw(st.sampled_from(MACHINE_NAMES), label="machine")
        adaptive = data.draw(st.booleans(), label="adaptive")
        machine, vec, ref = make_sim_pair(name, adaptive)
        msgs = draw_messages(data, machine.mapping.nranks, min_n=1)

        # Route for route, in hop order: the vector CSR (one batch call, or
        # one per dimension order scattered back under adaptive routing)
        # is exactly the per-message oracle walk.
        hops, offsets = vec.routes_csr(msgs)
        assert [
            hops[offsets[i] : offsets[i + 1]].tolist() for i in range(len(msgs))
        ] == ref._routes_reference(msgs)

        # Random fault masks: degraded links (drawn from links actually
        # used) and straggler ranks, mirrored into both simulators.
        links = sorted(ref.link_loads(msgs))
        if links:
            faulty = data.draw(
                st.lists(st.sampled_from(links), max_size=3, unique=True),
                label="faulty_links",
            )
            for link in faulty:
                vec.set_link_fault(link, 0.5)
                ref.set_link_fault(link, 0.5)
        slow = data.draw(
            st.lists(
                st.integers(0, machine.mapping.nranks - 1),
                max_size=3,
                unique=True,
            ),
            label="stragglers",
        )
        for rank in slow:
            vec.set_rank_slowdown(rank, 2.5)
            ref.set_rank_slowdown(rank, 2.5)

        assert vec.link_loads(msgs) == ref.link_loads(msgs)
        assert vec.busiest_link_contributions(msgs) == (
            ref.busiest_link_contributions(msgs)
        )
        assert vec.bottleneck_time(msgs) == ref.bottleneck_time(msgs)
        assert vec.flow_time(msgs) == ref.flow_time(msgs)

    def test_empty_message_set(self):
        for name in MACHINE_NAMES:
            _machine, vec, ref = make_sim_pair(name, adaptive=False)
            msgs = empty_messages()
            assert vec.link_loads(msgs) == ref.link_loads(msgs) == {}
            assert vec.busiest_link_contributions(msgs) == (
                ref.busiest_link_contributions(msgs)
            )
            assert vec.bottleneck_time(msgs) == ref.bottleneck_time(msgs)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_warm_cache_matches_cold_reference(self, data):
        """Routing one set and then a superset sharing its pairs leaves
        no state behind: the superset still reproduces the oracle."""
        name = data.draw(st.sampled_from(MACHINE_NAMES), label="machine")
        machine, vec, ref = make_sim_pair(name, adaptive=False)
        first = draw_messages(data, machine.mapping.nranks, min_n=1, max_n=30)
        second = draw_messages(data, machine.mapping.nranks, min_n=1, max_n=30)
        both = MessageSet.concat([first, second])
        vec.link_loads(first)
        assert vec.link_loads(both) == ref.link_loads(both)
        assert vec.bottleneck_time(both) == ref.bottleneck_time(both)


def draw_allocation(data, label, id_pool=range(1, 10)):
    ids = data.draw(
        st.lists(st.sampled_from(list(id_pool)), min_size=1, max_size=5, unique=True),
        label=f"{label}_ids",
    )
    weights = {
        nid: 1.0
        + data.draw(st.integers(0, 12), label=f"{label}_w{nid}")
        for nid in ids
    }
    return Allocation.from_tree(build_huffman(weights), GRID, weights), weights


class TestRedistributionPlanEquivalence:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_plan_matches_reference(self, data):
        old, w_old = draw_allocation(data, "old")
        new, w_new = draw_allocation(data, "new")
        sizes = {
            nid: (
                data.draw(st.integers(6, 48), label=f"nx{nid}"),
                data.draw(st.integers(6, 48), label=f"ny{nid}"),
            )
            for nid in set(w_old) | set(w_new)
        }
        flow = data.draw(st.booleans(), label="flow_level")
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)

        plan_v = plan_redistribution(
            old, new, sizes, machine, cost, flow_level=flow, kernels="vector"
        )
        plan_r = plan_redistribution(
            old, new, sizes, machine, cost, flow_level=flow, kernels="reference"
        )

        assert plan_v.hop_bytes_total == plan_r.hop_bytes_total
        assert plan_v.hop_bytes_avg == plan_r.hop_bytes_avg
        assert plan_v.predicted_time == plan_r.predicted_time
        assert plan_v.measured_time == plan_r.measured_time
        assert plan_v.network_bytes == plan_r.network_bytes
        assert plan_v.overlap_fraction == plan_r.overlap_fraction
        assert plan_v.per_nest_predicted == plan_r.per_nest_predicted
        assert len(plan_v.moves) == len(plan_r.moves)
        for mv, mr in zip(plan_v.moves, plan_r.moves):
            assert mv.nest_id == mr.nest_id
            assert np.array_equal(mv.messages.src, mr.messages.src)
            assert np.array_equal(mv.messages.dst, mr.messages.dst)
            assert np.array_equal(mv.messages.nbytes, mr.messages.nbytes)


class TestDataplaneEquivalence:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_store_contents_match_reference(self, data):
        """scatter → execute in both modes leaves identical per-rank blocks,
        and both gathers return the original field bit-for-bit."""
        old, w_old = draw_allocation(data, "old")
        nid = next(iter(w_old))
        w_new = dict(w_old)
        w_new[nid] = w_new[nid] + data.draw(st.integers(1, 8), label="bump")
        new = Allocation.from_tree(build_huffman(w_new), GRID, w_new)
        nx = data.draw(st.integers(8, 60), label="nx")
        ny = data.draw(st.integers(8, 60), label="ny")
        seed = data.draw(st.integers(0, 2**20), label="seed")
        field = make_rng(seed).uniform(0.0, 1.0, (ny, nx))

        stores = {}
        for mode in ("vector", "reference"):
            store = RankStore(GRID.nprocs)
            scatter_nest(store, nid, field, old, kernels=mode)
            execute_redistribution(store, nid, old, new, nx, ny, kernels=mode)
            stores[mode] = store

        holders = stores["vector"].holders(nid)
        assert holders == stores["reference"].holders(nid)
        for rank in holders:
            block_v, rect_v = stores["vector"].get(rank, nid)
            block_r, rect_r = stores["reference"].get(rank, nid)
            assert rect_v == rect_r
            assert np.array_equal(block_v, block_r)
        for mode in ("vector", "reference"):
            assert np.array_equal(
                gather_nest(stores[mode], nid, nx, ny, kernels=mode), field
            )


def draw_split_files(data):
    """A randomized sim grid of split files with missing/corrupt entries."""
    px = data.draw(st.integers(1, 4), label="px")
    py = data.draw(st.integers(1, 4), label="py")
    nx = data.draw(st.integers(px, 36), label="domain_nx")
    ny = data.draw(st.integers(py, 36), label="domain_ny")
    seed = data.draw(st.integers(0, 2**20), label="field_seed")
    rng = make_rng(seed)
    xb, yb = split_evenly(nx, px), split_evenly(ny, py)
    n_files = px * py
    missing = set(
        data.draw(
            st.lists(st.integers(0, n_files - 1), max_size=2, unique=True),
            label="missing",
        )
    )
    corrupt = set(
        data.draw(
            st.lists(st.integers(0, n_files - 1), max_size=2, unique=True),
            label="corrupt",
        )
    )
    files = []
    for by in range(py):
        for bx in range(px):
            idx = by * px + bx
            if idx in missing:
                files.append(None)
                continue
            extent = Rect(
                int(xb[bx]),
                int(yb[by]),
                int(xb[bx + 1] - xb[bx]),
                int(yb[by + 1] - yb[by]),
            )
            qcloud = rng.uniform(0.0, 5.0, (extent.h, extent.w))
            olr = rng.uniform(100.0, 300.0, (extent.h, extent.w))
            if idx in corrupt:
                olr[0, 0] = np.inf
            files.append(
                SplitFile(
                    file_index=idx,
                    block_x=bx,
                    block_y=by,
                    extent=extent,
                    qcloud=qcloud,
                    olr=olr,
                )
            )
    return files, ProcessorGrid(px, py)


class TestPDAEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pda_matches_reference(self, data):
        files, sim_grid = draw_split_files(data)
        n_analysis = data.draw(
            st.integers(1, sim_grid.nprocs), label="n_analysis"
        )
        dead = data.draw(
            st.lists(st.integers(1, max(1, n_analysis - 1)), max_size=2, unique=True)
            if n_analysis > 1
            else st.just([]),
            label="dead_ranks",
        )
        config = PDAConfig()

        results = {}
        for mode in ("vector", "reference"):
            comm = SimComm(n_analysis, failed_ranks=tuple(dead))
            results[mode] = parallel_data_analysis(
                files, sim_grid, n_analysis, config, comm=comm, kernels=mode
            )
        rv, rr = results["vector"], results["reference"]

        assert rv.rectangles == rr.rectangles
        assert rv.gathered_items == rr.gathered_items
        assert rv.partial == rr.partial
        assert rv.n_files_missing == rr.n_files_missing
        assert rv.n_files_corrupt == rr.n_files_corrupt
        assert rv.n_ranks_failed == rr.n_ranks_failed
        assert rv.coverage == rr.coverage
        assert math.isclose(
            rv.low_olr_fraction, rr.low_olr_fraction, rel_tol=1e-12, abs_tol=1e-15
        )
        assert len(rv.summaries) == len(rr.summaries)
        for sv, sr in zip(rv.summaries, rr.summaries):
            assert (sv.file_index, sv.block_x, sv.block_y, sv.extent) == (
                sr.file_index,
                sr.block_x,
                sr.block_y,
                sr.extent,
            )
            assert sv.olr_fraction == sr.olr_fraction
            assert math.isclose(sv.qcloud, sr.qcloud, rel_tol=1e-12, abs_tol=1e-15)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_aggregate_matches_per_file_summarise(self, data):
        files, _sim_grid = draw_split_files(data)
        present = [f for f in files if f is not None]
        threshold = data.draw(
            st.sampled_from((0.0, 150.0, 200.0, 400.0)), label="threshold"
        )
        batched = aggregate_summaries(present, threshold, kernels="vector")
        for (corrupt, summary), f in zip(batched, present):
            olr_bad = not bool(np.isfinite(f.olr).all())
            assert corrupt == olr_bad
            if corrupt:
                assert summary is None
                continue
            expect = f.summarise(threshold)
            assert (summary.file_index, summary.block_x, summary.block_y) == (
                expect.file_index,
                expect.block_x,
                expect.block_y,
            )
            assert summary.olr_fraction == expect.olr_fraction
            assert math.isclose(
                summary.qcloud, expect.qcloud, rel_tol=1e-12, abs_tol=1e-15
            )

    def test_degraded_step_matches_reference(self):
        # missing files, corrupt files (both fields) and failed ranks at once,
        # on a grid where many healthy files have no low-OLR area at all
        px, py, n_analysis = 8, 6, 12
        sim_grid = ProcessorGrid(px, py)
        xb, yb = split_evenly(53, px), split_evenly(37, py)
        rng = make_rng(11)
        files = []
        for by in range(py):
            for bx in range(px):
                extent = Rect(
                    int(xb[bx]),
                    int(yb[by]),
                    int(xb[bx + 1] - xb[bx]),
                    int(yb[by + 1] - yb[by]),
                )
                shape = (extent.h, extent.w)
                olr = rng.uniform(100.0, 300.0, shape)
                if (bx + by) % 3:
                    olr += 150.0  # clear sky: reported by no rank
                files.append(
                    SplitFile(
                        file_index=sim_grid.rank(bx, by),
                        block_x=bx,
                        block_y=by,
                        extent=extent,
                        qcloud=rng.uniform(0.0, 5.0, shape),
                        olr=olr,
                    )
                )
        for i in (0, 9, 30, 47):
            files[i] = None
        for i, field in ((3, "qcloud"), (12, "olr"), (21, "olr"), (40, "qcloud")):
            f = files[i]
            arr = getattr(f, field).copy()
            arr[-1, 0] = np.nan if field == "olr" else np.inf
            files[i] = dataclasses.replace(f, **{field: arr})
        dead = (2, 7)

        results, comms = {}, {}
        for mode in ("vector", "reference"):
            comms[mode] = SimComm(n_analysis, failed_ranks=dead)
            results[mode] = parallel_data_analysis(
                files, sim_grid, n_analysis, comm=comms[mode], kernels=mode
            )
        rv, rr = results["vector"], results["reference"]

        assert rv.rectangles == rr.rectangles
        assert rv.gathered_items == rr.gathered_items
        assert comms["vector"].stats == comms["reference"].stats
        assert (rv.n_files_missing, rv.n_files_corrupt, rv.n_ranks_failed) == (
            rr.n_files_missing,
            rr.n_files_corrupt,
            rr.n_ranks_failed,
        )
        assert rv.coverage == rr.coverage
        assert rv.partial and rr.partial
        assert rv.n_files_missing == 4 and rv.n_files_corrupt == 4
        assert rv.n_ranks_failed == len(dead)

        # gathered = healthy files, on alive ranks, with some low-OLR area
        expect = sum(
            1
            for rank, bucket in enumerate(assign_files(files, sim_grid, n_analysis))
            if rank not in dead
            for f in bucket
            if np.isfinite(f.qcloud).all()
            and np.isfinite(f.olr).all()
            and (f.olr <= PDAConfig().olr_threshold).any()
        )
        assert 0 < rv.gathered_items == expect < sim_grid.nprocs // 2

    def test_aggregate_empty(self):
        assert aggregate_summaries([], 200.0, kernels="vector") == []
        assert aggregate_summaries([], 200.0, kernels="reference") == []


class TestStatefulChurnEquivalence:
    """Drive full reallocators through randomized nest churn.

    One ``ProcessorReallocator`` per kernel mode walks an identical drawn
    sequence of adaptation points — nest births, deaths, growth/decay
    (the observable effect of merges and splits) and an optional rank
    failure — and after every step the incremental ``LinkLoadState`` must
    equal its from-scratch ``rebuild()`` oracle bit-for-bit, both modes
    must agree bit-for-bit, and the live state's busiest-link answer must
    match brute-force routing of the concatenated plan messages.
    """

    @staticmethod
    def _make_reallocators():
        from repro.core import DiffusionStrategy, ProcessorReallocator
        from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable

        return {
            mode: ProcessorReallocator(
                MACHINES["bgl-256"],
                DiffusionStrategy(),
                ExecTimePredictor(ProfileTable(ExecutionOracle())),
                kernels=mode,
            )
            for mode in ("vector", "reference")
        }

    def _churn(self, data, nests, next_id, step):
        nests = dict(nests)
        for nid in sorted(nests):
            action = data.draw(
                st.sampled_from(("keep", "keep", "decay", "grow", "die")),
                label=f"step{step}.nest{nid}",
            )
            if action == "die" and len(nests) > 1:
                del nests[nid]
            elif action == "decay":
                nx, ny = nests[nid]
                nests[nid] = (max(6, nx - 10), max(6, ny - 8))
            elif action == "grow":
                nx, ny = nests[nid]
                nests[nid] = (min(96, nx + 12), min(96, ny + 6))
        for _ in range(data.draw(st.integers(0, 2), label=f"step{step}.births")):
            nests[next_id] = (
                data.draw(st.integers(8, 64), label=f"step{step}.nx{next_id}"),
                data.draw(st.integers(8, 64), label=f"step{step}.ny{next_id}"),
            )
            next_id += 1
        return nests, next_id

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_link_state_and_plans_under_churn(self, data):
        reallocs = self._make_reallocators()
        nests = {1: (40, 40), 2: (30, 50), 3: (24, 24)}
        next_id = 4
        n_steps = data.draw(st.integers(3, 5), label="n_steps")
        fail_at = data.draw(st.integers(1, n_steps - 1), label="fail_at")
        inject_failure = data.draw(st.booleans(), label="inject_failure")
        for step in range(n_steps):
            if inject_failure and step == fail_at:
                nprocs = reallocs["vector"].grid.nprocs
                dead = data.draw(st.integers(0, nprocs - 1), label="dead_rank")
                for realloc in reallocs.values():
                    realloc.handle_rank_failure([dead])
                    # the wire picture is void after a failure
                    assert realloc.link_state.active_keys == []
                    assert not realloc.link_state.loads.any()
                assert (
                    reallocs["vector"].grid.nprocs
                    == reallocs["reference"].grid.nprocs
                )
            nests, next_id = self._churn(data, nests, next_id, step)
            results = {m: r.step(dict(nests)) for m, r in reallocs.items()}

            rv, rr = results["vector"], results["reference"]
            assert rv.allocation.rects == rr.allocation.rects
            assert (rv.plan is None) == (rr.plan is None)
            if rv.plan is not None:
                assert rv.plan.measured_time == rr.plan.measured_time
                assert rv.plan.predicted_time == rr.plan.predicted_time
                assert rv.plan.network_bytes == rr.plan.network_bytes
                assert rv.plan.hop_bytes_total == rr.plan.hop_bytes_total
                assert rv.plan.retained_nests == rr.plan.retained_nests

            for mode, realloc in reallocs.items():
                state = realloc.link_state
                # incremental state vs from-scratch oracle: bit-identical
                assert np.array_equal(state.loads, state.rebuild())
                plan = results[mode].plan
                if plan is None:
                    continue
                assert state.active_keys == sorted(plan.retained_nests)
                all_msgs = MessageSet.concat([m.messages for m in plan.moves])
                if len(all_msgs):
                    expect = realloc.simulator.busiest_link_contributions(all_msgs)
                    got = state.busiest_link_contributions()
                    assert got[0] == expect[0]
                    assert got[1] == expect[1]
                    assert got[2] == expect[2]
            assert np.array_equal(
                reallocs["vector"].link_state.loads,
                reallocs["reference"].link_state.loads,
            )
