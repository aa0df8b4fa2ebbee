"""Algorithm 2: nearest-neighbour clustering of subdomain summaries.

Elements (subdomain summaries, pre-sorted by decreasing aggregated QCLOUD)
are clustered by spatial proximity:

* an element below the QCLOUD or OLR-fraction thresholds is skipped;
* the element joins the first cluster containing a member **1 hop** away —
  provided joining would not shift the cluster's mean QCLOUD by more than
  the mean-deviation threshold (30 %);
* failing that, the same check is repeated at **2 hops**;
* otherwise the element founds a new cluster.

Checking 1-hop before 2-hop attaches each element to its *nearest* cluster,
which keeps clusters spatially disjoint; the mean-deviation guard stops a
cluster from growing uncontrollably (paper §V-A, Fig. 9b).

:func:`simple_two_hop_clustering` is the baseline of Fig. 9a — 2-hop only,
no mean guard — whose clusters can overlap in space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from statistics import fmean

from repro.analysis.records import SubdomainSummary
from repro.obs import get_recorder

__all__ = ["NNCConfig", "nearest_neighbour_clustering", "simple_two_hop_clustering"]


@dataclass(frozen=True)
class NNCConfig:
    """Thresholds of Algorithms 1–2 (paper defaults)."""

    qcloud_threshold: float = 0.005  # minimum aggregated QCLOUD per subdomain
    olr_fraction_threshold: float = 0.005  # minimum low-OLR area fraction
    mean_deviation: float = 0.30  # cluster-mean shift tolerance
    max_hops: int = 2  # proximity rings to inspect

    def __post_init__(self) -> None:
        if self.mean_deviation < 0:
            raise ValueError(f"mean_deviation must be >= 0, got {self.mean_deviation}")
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")


def _passes_thresholds(element: SubdomainSummary, config: NNCConfig) -> bool:
    return (
        element.qcloud >= config.qcloud_threshold
        and element.olr_fraction >= config.olr_fraction_threshold
    )


def _mean_ok(qclouds: list[float], qcloud: float, mean_deviation: float) -> bool:
    """The mean test of the paper's DISTANCE function (Algorithm 2, 22–31).

    True when adding ``qcloud`` to a cluster whose members' QCLOUD values
    are ``qclouds`` moves its mean by at most ``mean_deviation`` of the
    old mean.
    """
    old_mean = fmean(qclouds)
    new_mean = fmean(qclouds + [qcloud])
    if old_mean == 0:
        return new_mean == 0
    return abs(new_mean - old_mean) <= mean_deviation * abs(old_mean)


@cache
def _band_offsets(lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """Cell offsets ``lo..hi`` hops (Chebyshev) from the origin."""
    return tuple(
        (dx, dy)
        for dx in range(-hi, hi + 1)
        for dy in range(-hi, hi + 1)
        if max(abs(dx), abs(dy)) >= lo
    )


def _ids_within(
    cells: dict[tuple[int, int], list[int]], x: int, y: int, lo: int, hi: int
) -> list[int]:
    """Ids of clusters with a member ``lo..hi`` hops from ``(x, y)``, ascending.

    Looks up the cells of the Chebyshev band around ``(x, y)``, or scans
    the occupied cells when there are fewer of those than band cells.
    """
    ids: set[int] = set()
    if (2 * hi + 1) ** 2 <= len(cells):
        for dx, dy in _band_offsets(lo, hi):
            cell_ids = cells.get((x + dx, y + dy))
            if cell_ids:
                ids.update(cell_ids)
    else:
        for (cx, cy), cell_ids in cells.items():
            if lo <= max(abs(cx - x), abs(cy - y)) <= hi:
                ids.update(cell_ids)
    return sorted(ids)


def _grow_clusters(
    elements: list[SubdomainSummary],
    hop_bands: list[tuple[int, int]],
    mean_deviation: float | None,
) -> list[list[SubdomainSummary]]:
    """Greedy proximity clustering over a block-cell index of cluster ids.

    Each element joins the first cluster, in creation order, that has a
    member within the first hop band yielding one and passes the mean test
    (none when ``mean_deviation`` is None); otherwise it founds a cluster.
    This is the linear scan of Algorithm 2 over every member of every
    cluster, restricted to the cells a member could occupy.
    """
    clusters: list[list[SubdomainSummary]] = []
    qclouds: list[list[float]] = []  # members' QCLOUD, per cluster
    cells: dict[tuple[int, int], list[int]] = {}
    for element in elements:
        x, y, q = element.block_x, element.block_y, element.qcloud
        target = None
        for lo, hi in hop_bands:
            for cid in _ids_within(cells, x, y, lo, hi):
                if mean_deviation is None or _mean_ok(qclouds[cid], q, mean_deviation):
                    target = cid
                    break
            if target is not None:
                break
        if target is None:
            target = len(clusters)
            clusters.append([])
            qclouds.append([])
        clusters[target].append(element)
        qclouds[target].append(q)
        cells.setdefault((x, y), []).append(target)
    return clusters


def nearest_neighbour_clustering(
    qcloudinfo: list[SubdomainSummary], config: NNCConfig | None = None
) -> list[list[SubdomainSummary]]:
    """Cluster sorted ``qcloudinfo`` by proximity (Algorithm 2).

    ``qcloudinfo`` must already be sorted in non-increasing QCLOUD order
    (Algorithm 1 line 13 does the sort before calling NNC); only the
    elements that survive the thresholds need to obey the ordering.
    """
    config = config or NNCConfig()
    with get_recorder().span("analysis.nnc", n_elements=len(qcloudinfo)):
        elements = [e for e in qcloudinfo if _passes_thresholds(e, config)]
        if any(a.qcloud < b.qcloud for a, b in zip(elements, elements[1:])):
            raise ValueError(
                "qcloudinfo must be sorted in non-increasing QCLOUD order "
                "(Algorithm 1 sorts before clustering)"
            )
        # 1-hop ring first, then 2-hop — never 2-hop before 1-hop.
        return _grow_clusters(
            elements,
            [(hop, hop) for hop in range(1, config.max_hops + 1)],
            config.mean_deviation,
        )


def simple_two_hop_clustering(
    qcloudinfo: list[SubdomainSummary], config: NNCConfig | None = None
) -> list[list[SubdomainSummary]]:
    """Fig. 9a baseline: 2-hop-only proximity, no mean-deviation guard.

    An element joins the first cluster with any member within 2 hops; the
    resulting clusters can overlap in space and grow without bound.

    Validation: intentionally none — this baseline accepts any element
    order to mirror the paper's unguarded Fig. 9a comparison run.
    """
    config = config or NNCConfig()
    elements = [e for e in qcloudinfo if _passes_thresholds(e, config)]
    return _grow_clusters(elements, [(0, 2)], None)
