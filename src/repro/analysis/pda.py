"""Algorithm 1: parallel data analysis of split files.

``P`` split files are divided among ``N`` analysis processes as rectangular
subsets of the simulation's ``(Px, Py)`` process decomposition; each
analysis process summarises its ``k = P/N`` files (aggregate QCLOUD where
``OLR <= 200``, plus the low-OLR area fraction); the root gathers the
summaries, sorts them by decreasing QCLOUD, clusters them with Algorithm 2
and emits one bounding rectangle per cluster.

The analysis runs on the :class:`~repro.mpisim.comm.SimComm` SPMD harness —
"the parallel data analysis algorithm is executed simultaneously on a
different set of processors than the processors running the WRF simulation"
— so the division of files, the per-rank loop and the root-side gather are
structured exactly as published.

Degraded mode (:mod:`repro.faults`): a production analysis step must survive
missing split files (a crashed writer leaves nothing behind), truncated or
corrupt files (non-finite payloads), and failed analysis ranks.  The entry
point therefore accepts ``None`` entries in ``files``, detects non-finite
fields, and skips the buckets of failed :class:`SimComm` ranks; the result
is flagged ``partial`` with per-cause counts, and the aggregate low-OLR
fraction is renormalised over the *reporting* subdomain area rather than
the whole domain, so thresholds stay comparable whatever was lost.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.analysis.nnc import NNCConfig, nearest_neighbour_clustering
from repro.analysis.records import SplitFile, SplitFileSet, SubdomainSummary
from repro.analysis.regions import clusters_to_rectangles
from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.kernels import DEFAULT_KERNELS, check_kernels
from repro.sanitize.hooks import get_sanitizer
from repro.mpisim.comm import SimComm
from repro.obs import get_flight_recorder, get_recorder

__all__ = [
    "PDAConfig",
    "PDAResult",
    "aggregate_summaries",
    "assign_files",
    "parallel_data_analysis",
]


@dataclass(frozen=True)
class PDAConfig:
    """Thresholds for Algorithm 1 + the embedded Algorithm 2."""

    olr_threshold: float = 200.0  # paper: upper OLR bound for deep cloud
    nnc: NNCConfig = field(default_factory=NNCConfig)
    min_roi_area: int = 0


@dataclass(frozen=True)
class PDAResult:
    """Everything the root computes at one adaptation point."""

    rectangles: list[Rect]  # regions of interest (parent grid points)
    clusters: list[list[SubdomainSummary]]
    summaries: list[SubdomainSummary]  # sorted qcloudinfo the root saw
    gathered_items: int  # elements gathered at the root
    #: True when any split file or analysis rank failed to report
    partial: bool = False
    n_files_missing: int = 0  # ``None`` entries (lost / truncated writers)
    n_files_corrupt: int = 0  # files with non-finite QCLOUD/OLR payloads
    n_ranks_failed: int = 0  # failed analysis ranks (their buckets unread)
    #: reporting subdomain area / full domain area: 1.0 when complete,
    #: 0.0 when every split file is missing (nothing reported)
    coverage: float = 1.0
    #: area-weighted low-OLR fraction over *reporting* subdomains only
    low_olr_fraction: float = 0.0


def _bucket_indices(
    file_index: Sequence[int],
    blocks: np.ndarray,
    sim_grid: ProcessorGrid,
    n_analysis: int,
) -> list[list[int]]:
    """Positions owned by each analysis rank, in file order.

    ``blocks`` is the ``(2, n)`` array of the files' block coordinates.
    Block → analysis-rank lookup tables are built once per call, one
    ``searchsorted`` per axis; one stable sort groups the positions.
    """
    ag = ProcessorGrid.square_like(n_analysis)
    px, py = sim_grid.px, sim_grid.py
    bx, by = blocks
    outside = (bx < 0) | (bx >= px) | (by < 0) | (by >= py)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"split file {file_index[i]} block ({bx[i]},{by[i]}) outside "
            f"simulation grid {sim_grid}"
        )
    # column of block bx = number of analysis-column boundaries <= bx
    col = np.searchsorted(split_evenly(px, ag.px)[1:], np.arange(px), side="right")
    row = np.searchsorted(split_evenly(py, ag.py)[1:], np.arange(py), side="right")
    owner = row[by] * ag.px + col[bx]
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n_analysis + 1)).tolist()
    order_list = order.tolist()
    return [order_list[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _block_array(files: Sequence[SplitFile]) -> np.ndarray:
    """The ``(2, n)`` block coordinates of ``files``."""
    return np.array(
        [[f.block_x for f in files], [f.block_y for f in files]], dtype=np.int64
    ).reshape(2, len(files))


def assign_files(
    files: Sequence[SplitFile | None], sim_grid: ProcessorGrid, n_analysis: int
) -> list[list[SplitFile]]:
    """Divide the P split files among N analysis ranks (Algorithm 1, 1–2).

    The subsets are rectangular blocks of the simulation's ``(Px, Py)``
    decomposition: the analysis grid is the most square factorisation of
    ``N`` and each analysis rank receives a contiguous block of subdomains.
    Missing files (``None`` entries) are simply absent from every bucket.

    Validation: delegated — ``n_analysis < 1`` and a file whose block lies
    outside ``sim_grid`` raise ``ValueError`` in the helpers it calls.
    """
    present = [f for f in files if f is not None]
    buckets = _bucket_indices(
        [f.file_index for f in present], _block_array(present), sim_grid, n_analysis
    )
    return [[present[i] for i in bucket] for bucket in buckets]


def _is_corrupt(f: SplitFile) -> bool:
    """A truncated/garbled payload shows up as non-finite field values."""
    return not (
        bool(np.isfinite(f.qcloud).all()) and bool(np.isfinite(f.olr).all())
    )


#: ``(positions, qcloud stack, olr stack)`` of the same-shape tiles
_Tiles = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _stack_tiles(files: Sequence[SplitFile]) -> _Tiles:
    """Same-shape tiles of ``files`` as stacks, one shape at a time.

    A :class:`SplitFileSet` gathers them from its fields
    (:meth:`~SplitFileSet.tiles`); any other sequence is grouped by shape
    and ``np.stack``ed.
    """
    if isinstance(files, SplitFileSet):
        yield from files.tiles()
        return
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(files):
        by_shape.setdefault(f.qcloud.shape, []).append(i)
    for idxs in by_shape.values():
        yield (
            np.array(idxs),
            np.stack([files[i].qcloud for i in idxs]),
            np.stack([files[i].olr for i in idxs]),
        )


#: per tile shape: positions, per-tile finiteness (``None``: all finite),
#: the low-OLR mask stack and the QCLOUD stack zeroed outside the mask
_MaskedTiles = Iterator[
    tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]
]


def _masked_tiles(files: Sequence[SplitFile], olr_threshold: float) -> _MaskedTiles:
    """Algorithm 1's per-grid-point work, one tile shape at a time.

    A set whose fields are finite everywhere (one whole-field check) is
    masked on the whole OLR field and gathered per tile shape; anything
    else, including a set with a non-finite value, is stacked and checked
    tile by tile.  Either way the QCLOUD stack is a fresh copy, zeroed
    outside the mask in place: the same values ``np.where(mask, q, 0.0)``
    gives, without a second stack-sized buffer per shape.
    """
    if (
        isinstance(files, SplitFileSet)
        and np.isfinite(files.qcloud).all()
        and np.isfinite(files.olr).all()
    ):
        low = (files.olr <= olr_threshold).ravel()
        qcloud = files.qcloud.ravel()
        for pos, idx in files.layout.groups:
            mask, q = low[idx], qcloud[idx]
            np.copyto(q, 0.0, where=~mask)
            yield pos, None, mask, q
        return
    for pos, q, o in _stack_tiles(files):
        ok = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(o).all(axis=(1, 2))
        mask = o <= olr_threshold
        np.copyto(q, 0.0, where=~mask)
        yield pos, ok, mask, q


def _scan(
    files: Sequence[SplitFile], olr_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched Algorithm 1 scan: per-file arrays aligned with ``files``.

    Returns ``(corrupt, low_olr_count, masked_qcloud_sum, area)``.  Each
    tile shape is reduced with one per-tile ``sum(axis=(1, 2))``, so the
    sums match a file-by-file stack bit for bit.  The count and sum of a
    corrupt file (non-finite QCLOUD/OLR) are meaningless.
    """
    n = len(files)
    corrupt = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    qsums = np.zeros(n, dtype=np.float64)
    areas = np.zeros(n, dtype=np.int64)
    for pos, ok, mask, masked in _masked_tiles(files, olr_threshold):
        if ok is not None:
            corrupt[pos] = ~ok
        counts[pos] = np.count_nonzero(mask, axis=(1, 2))
        qsums[pos] = masked.sum(axis=(1, 2))
        areas[pos] = mask.shape[1] * mask.shape[2]
    return corrupt, counts, qsums, areas


def _summary(
    f: SplitFile, qcloud: float, count: int, area: int
) -> SubdomainSummary:
    """The ``qcloudinfo`` tuple of one healthy file from its batched sums."""
    return SubdomainSummary(
        file_index=f.file_index,
        block_x=f.block_x,
        block_y=f.block_y,
        extent=f.extent,
        qcloud=qcloud,
        olr_fraction=float(count) / area if area else 0.0,
    )


def aggregate_summaries(
    files: list[SplitFile],
    olr_threshold: float,
    kernels: str = DEFAULT_KERNELS,
) -> list[tuple[bool, SubdomainSummary | None]]:
    """Corruption flag + summary for many split files at once.

    Returns one ``(corrupt, summary)`` per input file, aligned with
    ``files``; corrupt files (non-finite QCLOUD/OLR) carry ``None``.  The
    vector path wraps the batched scan of :func:`_scan`; the
    reference path summarises file by file.  The integer-derived fields
    (``olr_fraction``, corruption flags) are bit-identical across modes;
    the ``qcloud`` float aggregate may differ in the last ulp because
    batched reductions sum in a different order (see
    ``docs/performance.md``).
    """
    check_kernels(kernels)
    with get_recorder().span("analysis.aggregate", n_files=len(files)):
        if kernels == "reference":
            return [
                (True, None)
                if _is_corrupt(f)
                else (False, f.summarise(olr_threshold))
                for f in files
            ]
        corrupt, counts, qsums, areas = (
            a.tolist() for a in _scan(files, olr_threshold)
        )
        return [
            (True, None) if bad else (False, _summary(f, q, c, a))
            for f, bad, c, q, a in zip(files, corrupt, counts, qsums, areas)
        ]


class _Identities(NamedTuple):
    """Who each present file is and where it sits, by position."""

    file_index: Sequence[int]
    block_x: Sequence[int]
    block_y: Sequence[int]
    extents: Sequence[Rect]
    blocks: np.ndarray  # (2, n) block coordinates, for the bucket lookup


def _identities(files: Sequence[SplitFile]) -> _Identities:
    """The files' identities; a set reads them off its layout."""
    if isinstance(files, SplitFileSet):
        lay = files.layout
        return _Identities(lay.file_index, lay.block_x, lay.block_y, lay.extents, lay.blocks)
    return _Identities(
        [f.file_index for f in files],
        [f.block_x for f in files],
        [f.block_y for f in files],
        [f.extent for f in files],
        _block_array(files),
    )


def _summarise_files(
    files: Sequence[SplitFile],
    ident: _Identities,
    olr_threshold: float,
    kernels: str,
) -> tuple[list[bool], list[int], list[float], list[SubdomainSummary | None]]:
    """Per file: corrupt flag, area, low-OLR fraction and reported summary.

    The reported summary is ``None`` for a corrupt file and for one with
    no low-OLR area; only the others reach the root.  The vector path
    builds a :class:`SubdomainSummary` from ``ident`` for reported files
    only, so it never touches a file object.
    """
    if kernels == "reference":
        pairs = aggregate_summaries(list(files), olr_threshold, kernels)
        fraction = [0.0 if s is None else s.olr_fraction for _, s in pairs]
        return (
            [bad for bad, _ in pairs],
            [e.area for e in ident.extents],
            fraction,
            [s if frac > 0 else None for (_, s), frac in zip(pairs, fraction)],
        )
    with get_recorder().span("analysis.aggregate", n_files=len(files)):
        corrupt, counts, qsums, areas = _scan(files, olr_threshold)
    area = areas.tolist()
    fraction = [float(c) / a if a else 0.0 for c, a in zip(counts.tolist(), area)]
    qcloud = qsums.tolist()
    reported: list[SubdomainSummary | None] = [None] * len(files)
    for i in np.flatnonzero((counts > 0) & ~corrupt).tolist():
        reported[i] = SubdomainSummary(
            file_index=ident.file_index[i],
            block_x=ident.block_x[i],
            block_y=ident.block_y[i],
            extent=ident.extents[i],
            qcloud=qcloud[i],
            olr_fraction=fraction[i],
        )
    return corrupt.tolist(), area, fraction, reported


def parallel_data_analysis(
    files: Sequence[SplitFile | None],
    sim_grid: ProcessorGrid,
    n_analysis: int,
    config: PDAConfig | None = None,
    comm: SimComm | None = None,
    kernels: str = DEFAULT_KERNELS,
) -> PDAResult:
    """Run Algorithm 1 over one step's split files.

    Parameters
    ----------
    files:
        The ``P`` split files written by the simulation ranks.  ``None``
        entries mark files that never arrived (crashed or truncated
        writers); they are counted and the result is flagged partial.
    sim_grid:
        The simulation's ``(Px, Py)`` process decomposition (for the
        rectangular division of files among analysis ranks).
    n_analysis:
        ``N``, the number of analysis processes.
    config:
        Thresholds; paper defaults when omitted.
    comm:
        An existing :class:`SimComm` of size ``N`` (one is created when
        omitted); its statistics account the root gather, and its failed
        ranks' buckets go unread (degraded mode).
    kernels:
        ``"vector"`` (default) scans every present file in one batched
        pass (:func:`_scan`) shared by the per-rank analysis and the
        degraded-mode renormalisation, and builds a summary only for a
        file that reports.  A :class:`SplitFileSet` is scanned through
        its tile stacks without materialising any file; any other
        sequence is grouped and stacked.  ``"reference"`` summarises
        file by file (:func:`aggregate_summaries`), the scalar oracle.
    """
    if len(files) != sim_grid.nprocs:
        raise ValueError(
            f"expected one split file per simulation rank "
            f"({sim_grid.nprocs}), got {len(files)}"
        )
    if not 1 <= n_analysis <= len(files):
        raise ValueError(
            f"n_analysis must be in [1, {len(files)}], got {n_analysis}"
        )
    config = config or PDAConfig()
    comm = comm or SimComm(n_analysis)
    check_kernels(kernels)
    if comm.Get_size() != n_analysis:
        raise ValueError(
            f"communicator size {comm.Get_size()} != n_analysis {n_analysis}"
        )

    with get_recorder().span(
        "analysis.pda", n_files=len(files), n_analysis=n_analysis
    ):
        # a batch has no missing entries; anything else is filtered here
        if kernels == "vector" and isinstance(files, SplitFileSet):
            present: Sequence[SplitFile] = files
        else:
            present = [f for f in files if f is not None]
        n_missing = len(files) - len(present)
        ident = _identities(present)
        buckets = _bucket_indices(ident.file_index, ident.blocks, sim_grid, n_analysis)
        corrupt, area, low_olr_fraction, reported = _summarise_files(
            present, ident, config.olr_threshold, kernels
        )
        corrupt_count = [0]  # mutated by the per-rank closure

        # Per-rank analysis (Algorithm 1, lines 3–9).  An analysis rank only
        # reports subdomains containing any low-OLR area — "some of the split
        # files may not have regions with OLR <= 200, in which case the
        # process owning these split files will send fewer than k values" —
        # and skips corrupt files, counting them for the partial flag.
        def analyse(rank: int) -> list[SubdomainSummary]:
            out = []
            for i in buckets[rank]:
                if corrupt[i]:
                    corrupt_count[0] += 1
                    continue
                summary = reported[i]
                if summary is not None:
                    out.append(summary)
            return out

        per_rank = comm.run(analyse)

        # Reporting area: every healthy file whose analysis rank is alive.
        # Renormalise over reporting ranks: the low-OLR fraction a complete
        # analysis would divide by the whole domain is instead divided by
        # the area that actually reported, so it stays a comparable fraction.
        reporting_area = 0
        weighted_low_olr = 0.0
        for rank, bucket in enumerate(buckets):
            if not comm.alive(rank):
                continue
            for i in bucket:
                if corrupt[i]:
                    continue
                reporting_area += area[i]
                weighted_low_olr += low_olr_fraction[i] * area[i]
        low_olr = weighted_low_olr / reporting_area if reporting_area else 0.0

        n_failed = len(comm.failed_ranks)
        n_corrupt = corrupt_count[0]
        partial = bool(n_missing or n_corrupt or n_failed)
        full_area = _full_domain_area(area, n_missing)
        if full_area:
            coverage = reporting_area / full_area
        else:  # no file reported any area: complete only if nothing was lost
            coverage = 0.0 if partial else 1.0

        # Root gather (line 11) + sort (line 13) + NNC (line 14) + rectangles.
        gathered = comm.gather(per_rank, root=0)
        assert gathered is not None
        qcloudinfo = sorted(gathered, key=lambda s: -s.qcloud)
        clusters = nearest_neighbour_clustering(qcloudinfo, config.nnc)
        rectangles = clusters_to_rectangles(clusters, config.min_roi_area)
        if partial:
            get_flight_recorder().emit(
                "pda.partial",
                missing=n_missing,
                corrupt=n_corrupt,
                failed_ranks=n_failed,
                coverage=round(coverage, 6),
            )
        result = PDAResult(
            rectangles=rectangles,
            clusters=clusters,
            summaries=qcloudinfo,
            gathered_items=len(gathered),
            partial=partial,
            n_files_missing=n_missing,
            n_files_corrupt=n_corrupt,
            n_ranks_failed=n_failed,
            coverage=coverage,
            low_olr_fraction=low_olr,
        )
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.after_pda(result)
        return result


def _full_domain_area(present_areas: list[int], n_missing: int) -> float:
    """Total subdomain area including an estimate for missing files.

    Present files report their exact extents; a missing file's extent is
    unknown, so it is approximated by the mean extent of the present ones
    (exact when the decomposition is even, close otherwise).
    """
    if not present_areas:
        return 0.0
    mean_area = sum(present_areas) / len(present_areas)
    return float(sum(present_areas) + mean_area * n_missing)
