"""Data records flowing through the analysis pipeline.

:class:`SplitFile` models one rank's simulation output file (the paper's
``F_1 .. F_P``): the rank's QCLOUD/OLR subarrays plus where the subdomain
sits, both as a block index in the simulation's process decomposition (used
for the hop-distance proximity of Algorithm 2) and as a grid-point extent in
parent-domain coordinates (used to build nest rectangles).

:class:`SubdomainSummary` is one element of the paper's ``qcloudinfo``: the
aggregated QCLOUD of a split file plus the fraction of its area with
``OLR <= 200``.

:class:`SplitFileSet` is one step's ``P`` split files as a single batch:
the two parent-domain fields plus a :class:`SplitLayout` (where every
rank's subdomain sits, built once per model).  It behaves as a sequence of
:class:`SplitFile` views, and it also hands Algorithm 1 its same-shape
tiles as stacked arrays without building any per-file object.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect

__all__ = ["SplitFile", "SplitFileSet", "SplitLayout", "SubdomainSummary"]


@dataclass(frozen=True)
class SplitFile:
    """One simulation rank's output for one analysis step."""

    file_index: int  # writing rank (0 .. P-1)
    block_x: int  # subdomain position in the Px x Py sim decomposition
    block_y: int
    extent: Rect  # grid-point extent in parent-domain coordinates
    qcloud: np.ndarray  # (extent.h, extent.w) cloud water mixing ratio
    olr: np.ndarray  # (extent.h, extent.w) outgoing long-wave radiation

    def __post_init__(self) -> None:
        expected = (self.extent.h, self.extent.w)
        if self.qcloud.shape != expected or self.olr.shape != expected:
            raise ValueError(
                f"field shapes {self.qcloud.shape}/{self.olr.shape} do not "
                f"match extent {expected}"
            )

    def summarise(self, olr_threshold: float) -> "SubdomainSummary":
        """Algorithm 1, lines 4–9: aggregate QCLOUD where OLR <= threshold.

        Validation: any threshold is meaningful — one below the field's
        minimum simply selects nothing (zero cloud fraction).
        """
        mask = self.olr <= olr_threshold
        qcloud = float(self.qcloud[mask].sum())
        area = self.qcloud.size
        olr_fraction = float(mask.sum()) / area if area else 0.0
        return SubdomainSummary(
            file_index=self.file_index,
            block_x=self.block_x,
            block_y=self.block_y,
            extent=self.extent,
            qcloud=qcloud,
            olr_fraction=olr_fraction,
        )


@dataclass(frozen=True)
class SubdomainSummary:
    """One ``qcloudinfo`` tuple: a subdomain's cloud-cover summary."""

    file_index: int
    block_x: int
    block_y: int
    extent: Rect
    qcloud: float
    olr_fraction: float

    def hop_distance(self, other: "SubdomainSummary") -> int:
        """Chebyshev distance between subdomain block positions.

        "1-hop" neighbours are the 8 surrounding subdomains; "2-hop" the
        next ring out — the proximity notion of Algorithm 2.
        """
        return max(abs(self.block_x - other.block_x), abs(self.block_y - other.block_y))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SplitLayout:
    """Where every simulation rank's subdomain sits in the parent domain.

    Position ``i`` is the split file of rank ``i`` (row-major, as
    :meth:`ProcessorGrid.rank`).  ``file_index``, ``block_x``, ``block_y``
    and ``extents`` hold plain ints per position; ``blocks`` holds the
    block coordinates again as a read-only ``(2, P)`` array.  ``groups``
    has one ``(positions, flat_index)`` pair per tile shape, in order of
    first appearance: the positions (ascending) of the files with that
    shape, and a read-only ``(k, h, w)`` index of their grid points in the
    flattened ``(ny, nx)`` field.
    """

    __slots__ = (
        "shape",
        "file_index",
        "block_x",
        "block_y",
        "extents",
        "blocks",
        "groups",
    )

    def __init__(self, nx: int, ny: int, sim_grid: ProcessorGrid) -> None:
        px, py = sim_grid.px, sim_grid.py
        xb = split_evenly(nx, px)
        yb = split_evenly(ny, py)
        bx = np.tile(np.arange(px, dtype=np.int64), py)
        by = np.repeat(np.arange(py, dtype=np.int64), px)
        x0, w = xb[bx], np.diff(xb)[bx]
        y0, h = yb[by], np.diff(yb)[by]
        self.shape = (ny, nx)
        self.file_index = tuple((by * px + bx).tolist())
        self.block_x = tuple(bx.tolist())
        self.block_y = tuple(by.tolist())
        self.extents = tuple(map(Rect, x0.tolist(), y0.tolist(), w.tolist(), h.tolist()))
        self.blocks = _read_only(np.stack([bx, by]))
        _, first, group_of = np.unique(
            h * (nx + 1) + w, return_index=True, return_inverse=True
        )
        groups = []
        for g in np.argsort(first):
            pos = np.flatnonzero(group_of == g)
            gh, gw = int(h[pos[0]]), int(w[pos[0]])
            rows = y0[pos, None, None] + np.arange(gh)[None, :, None]
            cols = x0[pos, None, None] + np.arange(gw)[None, None, :]
            groups.append((_read_only(pos), _read_only(rows * nx + cols)))
        self.groups = tuple(groups)

    def __len__(self) -> int:
        return len(self.file_index)


class SplitFileSet(Sequence[SplitFile]):
    """One step's split files as a single batch over the parent fields.

    Indexing or iterating materialises the :class:`SplitFile` of a
    position on first access (views into ``qcloud``/``olr``, exactly what
    a per-rank list holds) and keeps it.  :meth:`tiles` gives the
    batched view Algorithm 1 scans instead.
    """

    __slots__ = ("layout", "qcloud", "olr", "_files")

    def __init__(self, layout: SplitLayout, qcloud: np.ndarray, olr: np.ndarray) -> None:
        if qcloud.shape != layout.shape or olr.shape != layout.shape:
            raise ValueError(
                f"field shapes {qcloud.shape}/{olr.shape} do not match "
                f"layout {layout.shape}"
            )
        self.layout = layout
        self.qcloud = qcloud
        self.olr = olr
        self._files: list[SplitFile | None] = [None] * len(layout)

    def __len__(self) -> int:
        return len(self._files)

    def _file(self, i: int) -> SplitFile:
        f = self._files[i]
        if f is None:
            lay = self.layout
            e = lay.extents[i]
            f = self._files[i] = SplitFile(
                file_index=lay.file_index[i],
                block_x=lay.block_x[i],
                block_y=lay.block_y[i],
                extent=e,
                qcloud=self.qcloud[e.y0 : e.y1, e.x0 : e.x1],
                olr=self.olr[e.y0 : e.y1, e.x0 : e.x1],
            )
        return f

    @overload
    def __getitem__(self, i: int) -> SplitFile: ...

    @overload
    def __getitem__(self, i: slice) -> list[SplitFile]: ...

    def __getitem__(self, i: int | slice) -> SplitFile | list[SplitFile]:
        if isinstance(i, slice):
            return [self._file(j) for j in range(len(self))[i]]
        return self._file(range(len(self))[i])

    def __iter__(self) -> Iterator[SplitFile]:
        return map(self._file, range(len(self)))

    def tiles(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(positions, qcloud_stack, olr_stack)`` for each tile shape.

        Each stack is ``(k, h, w)``, C-contiguous, and holds the same
        bytes in the same order as ``np.stack`` of the positions' views,
        so every per-tile reduction over it is bit-identical.  The stacks
        are gathered one shape at a time, as the caller asks for them, so
        a scan that drops each shape's stacks before the next reuses
        their memory instead of faulting in fresh pages.
        """
        # integer-array indexing, not ``ndarray.take``: take converts a
        # read-only index array on every call and runs ~5x slower
        q = self.qcloud.ravel()
        o = self.olr.ravel()
        for pos, idx in self.layout.groups:
            yield pos, q[idx], o[idx]
