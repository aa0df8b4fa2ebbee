"""Tests for repro.wrf: cloud systems, fields, model, nests, scenarios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import parallel_data_analysis
from repro.analysis.records import SplitFileSet
from repro.faults import FaultInjector, FaultPlan, SplitFileFault
from repro.grid import ProcessorGrid, Rect
from repro.grid.block import split_evenly
from repro.wrf import (
    CloudSystem,
    DomainConfig,
    Nest,
    NestTracker,
    WrfLikeModel,
    advance_systems,
    mumbai_2005_scenario,
    olr_field,
    qcloud_field,
    synthetic_scenario,
)
from repro.wrf.clouds import random_system
from repro.wrf.fields import CLEAR_SKY_OLR, DEEP_CLOUD_OLR


def system(**kw):
    defaults = dict(
        system_id=1, x=50.0, y=50.0, sigma_x=10.0, sigma_y=10.0,
        peak=2e-3, vx=1.0, vy=0.0, lifetime=20,
    )
    defaults.update(kw)
    return CloudSystem(**defaults)


class TestCloudSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            system(sigma_x=0)
        with pytest.raises(ValueError):
            system(peak=-1)
        with pytest.raises(ValueError):
            system(lifetime=0)

    def test_step_moves(self):
        s2 = system().step()
        assert s2.x == 51.0 and s2.age == 1

    def test_lifecycle_intensity(self):
        s = system(lifetime=20, ramp=4)
        ramp_up = [s0.intensity for s0 in [system(age=a) for a in range(5)]]
        assert ramp_up[0] < ramp_up[3]
        assert system(age=10).intensity == 1.0
        assert system(age=19).intensity < 1.0
        assert system(age=20).intensity == 0.0

    def test_advance_drops_dead(self):
        out = advance_systems([system(age=18, lifetime=19), system(age=0)])
        assert len(out) == 1

    def test_random_system_in_domain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_system(rng, 1, 200, 100)
            assert 0 < s.x < 200 and 0 < s.y < 100


class TestFields:
    def test_qcloud_peak_at_center(self):
        q = qcloud_field(100, 100, [system(x=50, y=50, age=10)])
        yx = np.unravel_index(np.argmax(q), q.shape)
        assert abs(yx[0] - 50) <= 1 and abs(yx[1] - 50) <= 1

    def test_qcloud_empty_systems(self):
        assert qcloud_field(10, 10, []).sum() == 0.0

    def test_qcloud_additive(self):
        a = qcloud_field(60, 60, [system(x=20, y=20, age=10)])
        b = qcloud_field(60, 60, [system(x=40, y=40, age=10)])
        both = qcloud_field(
            60, 60, [system(x=20, y=20, age=10), system(x=40, y=40, age=10)]
        )
        assert np.allclose(both, a + b, atol=1e-12)

    def test_qcloud_offdomain_system(self):
        q = qcloud_field(50, 50, [system(x=500, y=500, age=10)])
        assert q.sum() == 0.0

    def test_qcloud_invalid_domain(self):
        with pytest.raises(ValueError):
            qcloud_field(0, 10, [])

    def test_olr_bounds(self):
        q = qcloud_field(80, 80, [system(x=40, y=40, age=10)])
        o = olr_field(q)
        assert o.max() <= CLEAR_SKY_OLR + 1e-9
        assert o.min() >= DEEP_CLOUD_OLR - 1e-9

    def test_olr_below_200_under_strong_cloud(self):
        q = qcloud_field(80, 80, [system(x=40, y=40, age=10, peak=2e-3)])
        o = olr_field(q)
        assert o[40, 40] <= 200.0
        assert o[0, 0] > 280.0  # clear corner

    def test_olr_validation(self):
        with pytest.raises(ValueError):
            olr_field(np.zeros((2, 2)), clear_sky=100.0, deep_cloud=200.0)
        with pytest.raises(ValueError):
            olr_field(np.zeros((2, 2)), saturation=0.0)


class TestModel:
    def _config(self):
        return DomainConfig(nx=64, ny=64, sim_grid=ProcessorGrid(4, 4))

    def test_split_files_cover_domain(self):
        m = WrfLikeModel(self._config(), systems=[system(x=30, y=30, age=5)])
        files = m.write_split_files()
        assert len(files) == 16
        total = sum(f.extent.area for f in files)
        assert total == 64 * 64

    def test_split_files_match_full_field(self):
        m = WrfLikeModel(self._config(), systems=[system(x=30, y=30, age=5)])
        q, o = m.fields()
        for f in m.write_split_files():
            e = f.extent
            assert np.array_equal(f.qcloud, q[e.y0 : e.y1, e.x0 : e.x1])
            assert np.array_equal(f.olr, o[e.y0 : e.y1, e.x0 : e.x1])

    def test_step_advances(self):
        m = WrfLikeModel(self._config(), systems=[system(age=0, lifetime=3)])
        for _ in range(5):
            m.step()
        assert m.systems == [] and m.step_count == 5

    def test_birth_fn_called(self):
        born = []

        def births(step, systems):
            s = system(system_id=100 + step, age=0)
            born.append(s)
            return [s]

        m = WrfLikeModel(self._config(), birth_fn=births)
        m.step()
        assert len(m.systems) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DomainConfig(nx=2, ny=2, sim_grid=ProcessorGrid(4, 4))

    def test_subdomain_extent(self):
        m = WrfLikeModel(self._config())
        e = m.subdomain_extent(1, 2)
        assert e == Rect(16, 32, 16, 16)

    def test_pda_detects_model_cloud(self):
        cfg = self._config()
        m = WrfLikeModel(cfg, systems=[system(x=32, y=32, age=8, peak=2.5e-3)])
        result = parallel_data_analysis(m.write_split_files(), cfg.sim_grid, 4)
        assert len(result.rectangles) >= 1
        # the detected ROI covers the cloud centre
        assert any(r.contains_point(32, 32) for r in result.rectangles)


def _summary_key(s):
    return (s.file_index, s.block_x, s.block_y, s.extent, s.qcloud.hex(), s.olr_fraction.hex())


def _pda_key(r, exact_qcloud=True):
    """Every PDAResult field; floats as ``float.hex`` (qcloud optionally dropped)."""

    def summary(s):
        key = _summary_key(s)
        return key if exact_qcloud else key[:4] + key[5:]

    return (
        r.rectangles,
        [[summary(s) for s in c] for c in r.clusters],
        [summary(s) for s in r.summaries],
        r.gathered_items,
        r.partial,
        r.n_files_missing,
        r.n_files_corrupt,
        r.n_ranks_failed,
        r.coverage.hex(),
        r.low_olr_fraction.hex(),
    )


@st.composite
def batch_models(draw):
    """A model over a random decomposition (uneven, 1xN, single rank) with clouds."""
    px = draw(st.integers(1, 6), label="px")
    py = draw(st.integers(1, 6), label="py")
    nx = draw(st.integers(px, 7 * px + 5), label="nx")
    ny = draw(st.integers(py, 7 * py + 5), label="ny")
    systems = [
        system(
            system_id=k,
            x=draw(st.floats(0, nx - 1), label="x"),
            y=draw(st.floats(0, ny - 1), label="y"),
            sigma_x=draw(st.floats(0.5, max(1.0, nx / 3)), label="sigma_x"),
            sigma_y=draw(st.floats(0.5, max(1.0, ny / 3)), label="sigma_y"),
            peak=draw(st.floats(2e-4, 4e-3), label="peak"),
            age=8,
        )
        for k in range(draw(st.integers(0, 3), label="n_systems"))
    ]
    return WrfLikeModel(DomainConfig(nx=nx, ny=ny, sim_grid=ProcessorGrid(px, py)), systems=systems)


class TestSplitFileSet:
    @given(model=batch_models(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_rank_files(self, model, data):
        cfg = model.config
        grid = cfg.sim_grid
        q, o = model.fields()
        batch = model.write_split_files()
        assert isinstance(batch, SplitFileSet) and len(batch) == grid.nprocs

        # materialised files are exactly the per-rank slices (views)
        xb, yb = split_evenly(cfg.nx, grid.px), split_evenly(cfg.ny, grid.py)
        for rank, f in enumerate(batch):
            bx, by = rank % grid.px, rank // grid.px
            x0, x1, y0, y1 = (int(v) for v in (xb[bx], xb[bx + 1], yb[by], yb[by + 1]))
            extent = Rect(x0, y0, x1 - x0, y1 - y0)
            assert (f.file_index, f.block_x, f.block_y, f.extent) == (rank, bx, by, extent)
            sl = (slice(extent.y0, extent.y1), slice(extent.x0, extent.x1))
            assert f.qcloud.tobytes() == q[sl].tobytes() and f.olr.tobytes() == o[sl].tobytes()
            assert np.shares_memory(f.qcloud, batch.qcloud) and batch[rank] is f

        # tiles() is np.stack of those views, shape by shape
        seen = []
        for pos, qs, os_ in batch.tiles():
            seen.extend(pos.tolist())
            for stack, name in ((qs, "qcloud"), (os_, "olr")):
                expect = np.stack([getattr(batch[i], name) for i in pos])
                assert stack.flags.c_contiguous and stack.shape == expect.shape
                assert stack.tobytes() == expect.tobytes()
        assert sorted(seen) == list(range(grid.nprocs))

        # the batch, its list and the reference oracle agree on every field
        n = data.draw(st.integers(1, grid.nprocs), label="n_analysis")
        on_set = parallel_data_analysis(batch, grid, n)
        on_list = parallel_data_analysis(list(batch), grid, n)
        reference = parallel_data_analysis(batch, grid, n, kernels="reference")
        assert _pda_key(on_set) == _pda_key(on_list)
        # the oracle sums each masked tile in another order: qcloud may
        # differ in the last ulp, every other field is exact
        assert _pda_key(on_set, exact_qcloud=False) == _pda_key(reference, exact_qcloud=False)
        for a, b in zip(on_set.summaries, reference.summaries):
            assert a.qcloud == pytest.approx(b.qcloud, rel=1e-12, abs=1e-15)

        # damaging a batch is damaging its list
        faults = data.draw(
            st.lists(
                st.builds(
                    SplitFileFault,
                    step=st.just(3),
                    file_index=st.integers(0, grid.nprocs),
                    mode=st.sampled_from(["truncate", "corrupt"]),
                ),
                max_size=3,
            ),
            label="faults",
        )
        plan = FaultPlan(tuple(faults))
        from_set = FaultInjector(plan).damage_files(3, batch)
        from_list = FaultInjector(plan).damage_files(3, list(batch))
        assert len(from_set) == len(from_list)
        for a, b in zip(from_set, from_list):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.file_index, a.block_x, a.block_y, a.extent) == (
                    b.file_index,
                    b.block_x,
                    b.block_y,
                    b.extent,
                )
                assert a.qcloud.tobytes() == b.qcloud.tobytes()
                assert a.olr.tobytes() == b.olr.tobytes()
        assert _pda_key(parallel_data_analysis(from_set, grid, n)) == _pda_key(
            parallel_data_analysis(from_list, grid, n)
        )

    def test_non_finite_batch_is_checked_tile_by_tile(self):
        cfg = DomainConfig(nx=40, ny=30, sim_grid=ProcessorGrid(4, 3))
        m = WrfLikeModel(cfg, systems=[system(x=20, y=15, sigma_x=5, sigma_y=5, age=8)])
        batch = m.write_split_files()
        batch.qcloud[16, 21] = np.nan  # inside rank 6's tile
        result = parallel_data_analysis(batch, cfg.sim_grid, 4)
        assert result.partial and result.n_files_corrupt == 1
        assert all(s.file_index != 6 for s in result.summaries)
        assert _pda_key(result) == _pda_key(parallel_data_analysis(list(batch), cfg.sim_grid, 4))

    def test_sequence_protocol(self):
        m = WrfLikeModel(DomainConfig(nx=10, ny=6, sim_grid=ProcessorGrid(3, 2)))
        batch = m.write_split_files()
        assert batch[-1] is batch[5] and batch[-1].file_index == 5
        assert [f.file_index for f in batch[1:4]] == [1, 2, 3]
        with pytest.raises(IndexError):
            batch[6]
        with pytest.raises(ValueError):
            SplitFileSet(m.split_layout, np.zeros((5, 10)), np.zeros((6, 10)))


class TestNest:
    def test_sizes(self):
        n = Nest(nest_id=1, roi=Rect(10, 20, 30, 40), refinement=3)
        assert (n.nx, n.ny) == (90, 120) and n.npoints == 90 * 120

    def test_validation(self):
        with pytest.raises(ValueError):
            Nest(1, Rect(0, 0, 0, 0))
        with pytest.raises(ValueError):
            Nest(1, Rect(0, 0, 2, 2), refinement=0)

    def test_interpolation_constant_field(self):
        parent = np.full((50, 50), 7.0)
        n = Nest(1, Rect(5, 5, 10, 10))
        fine = n.interpolate_from_parent(parent)
        assert fine.shape == (30, 30)
        assert np.allclose(fine, 7.0)

    def test_interpolation_linear_field_exact(self):
        # bilinear interpolation reproduces linear ramps exactly (interior)
        yy, xx = np.mgrid[0:40, 0:40]
        parent = 2.0 * xx + 3.0 * yy
        n = Nest(1, Rect(10, 10, 8, 8))
        fine = n.interpolate_from_parent(parent.astype(float))
        fx = 10 + (np.arange(n.nx) + 0.5) / 3 - 0.5
        fy = 10 + (np.arange(n.ny) + 0.5) / 3 - 0.5
        expected = 2.0 * fx[None, :] + 3.0 * fy[:, None]
        assert np.allclose(fine, expected)

    def test_interpolation_roi_bounds(self):
        n = Nest(1, Rect(45, 45, 10, 10))
        with pytest.raises(ValueError):
            n.interpolate_from_parent(np.zeros((50, 50)))

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_interpolation_within_parent_range(self, r, w, h):
        rng = np.random.default_rng(0)
        parent = rng.uniform(0, 1, (30, 30))
        n = Nest(1, Rect(3, 4, w, h), refinement=r)
        fine = n.interpolate_from_parent(parent)
        assert fine.min() >= parent.min() - 1e-12
        assert fine.max() <= parent.max() + 1e-12


class TestNestTracker:
    def test_births(self):
        t = NestTracker()
        retained, deleted, new = t.update([Rect(0, 0, 10, 10), Rect(20, 20, 5, 5)])
        assert retained == [] and deleted == [] and len(new) == 2
        assert sorted(t.live) == [1, 2]

    def test_retention_by_overlap(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([Rect(1, 1, 10, 10)])
        assert len(retained) == 1 and retained[0].nest_id == 1
        assert deleted == [] and new == []
        assert t.live[1].roi == Rect(1, 1, 10, 10)

    def test_deletion(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([])
        assert deleted == [1] and t.live == {}

    def test_replacement_far_away(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([Rect(50, 50, 10, 10)])
        assert deleted == [1] and len(new) == 1 and new[0].nest_id == 2

    def test_greedy_best_match(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10), Rect(8, 0, 10, 10)])
        # one new ROI overlapping both: matches the better (first) one only
        retained, deleted, new = t.update([Rect(0, 0, 11, 10)])
        assert len(retained) == 1 and retained[0].nest_id == 1
        assert deleted == [2] and new == []

    def test_ids_never_reused(self):
        t = NestTracker()
        t.update([Rect(0, 0, 5, 5)])
        t.update([])
        _, _, new = t.update([Rect(0, 0, 5, 5)])
        assert new[0].nest_id == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            NestTracker(iou_threshold=0.0)
        with pytest.raises(ValueError):
            NestTracker(matcher="nearest")

    def test_centroid_matcher_tracks_fast_mover(self):
        # a tall ROI jumped by its full width: zero IoU overlap, but the
        # centres are still within half the diagonal
        t_iou = NestTracker(matcher="iou")
        t_cen = NestTracker(matcher="centroid")
        for t in (t_iou, t_cen):
            t.update([Rect(0, 0, 10, 30)])
        moved = [Rect(10, 0, 10, 30)]
        _, deleted_iou, new_iou = t_iou.update(moved)
        retained_cen, deleted_cen, _ = t_cen.update(moved)
        assert deleted_iou == [1] and len(new_iou) == 1  # identity lost
        assert deleted_cen == [] and retained_cen[0].nest_id == 1  # kept

    def test_centroid_matcher_rejects_distant(self):
        t = NestTracker(matcher="centroid")
        t.update([Rect(0, 0, 10, 10)])
        _, deleted, new = t.update([Rect(40, 40, 10, 10)])
        assert deleted == [1] and len(new) == 1


class TestScenarios:
    def test_mumbai_produces_multiple_systems(self):
        sc = mumbai_2005_scenario(
            seed=1, n_steps=30,
            config=DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8)),
        )
        m = WrfLikeModel(sc.config, sc.birth_fn, sc.initial_systems)
        counts = []
        for _ in range(30):
            m.step()
            counts.append(len(m.systems))
        assert max(counts) >= 3
        assert min(counts) >= 1  # the Mumbai cell persists

    def test_synthetic_bounds_population(self):
        sc = synthetic_scenario(
            seed=2, n_steps=40, n_range=(2, 6),
            config=DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8)),
        )
        m = WrfLikeModel(sc.config, sc.birth_fn, sc.initial_systems)
        for _ in range(40):
            m.step()
            assert len(m.systems) >= 1

    def test_scenarios_deterministic(self):
        a = mumbai_2005_scenario(seed=7)
        b = mumbai_2005_scenario(seed=7)
        assert [s.x for s in a.initial_systems] == [s.x for s in b.initial_systems]

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            synthetic_scenario(n_range=(0, 5))
