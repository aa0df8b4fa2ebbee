"""Cluster → region-of-interest rectangles (Algorithm 1, lines 16–19).

Each cluster of subdomain summaries is replaced by the bounding rectangle of
its members' grid-point extents; these rectangles are the nest domains that
the simulation spawns at the next adaptation point.
"""

from __future__ import annotations

from repro.analysis.records import SubdomainSummary
from repro.grid.rect import Rect
from repro.util.validation import check_non_negative

__all__ = ["cluster_bounding_rect", "clusters_to_rectangles"]


def cluster_bounding_rect(cluster: list[SubdomainSummary]) -> Rect:
    """Bounding rectangle (parent grid points) of a cluster's subdomains."""
    if not cluster:
        raise ValueError("cannot bound an empty cluster")
    # empty extents do not widen the box (Rect.union_bbox semantics)
    boxes = [m.extent for m in cluster if not m.extent.is_empty]
    if not boxes:
        return cluster[-1].extent
    x0 = min(r.x0 for r in boxes)
    y0 = min(r.y0 for r in boxes)
    x1 = max(r.x0 + r.w for r in boxes)
    y1 = max(r.y0 + r.h for r in boxes)
    return Rect(x0, y0, x1 - x0, y1 - y0)


def clusters_to_rectangles(
    clusters: list[list[SubdomainSummary]],
    min_area: int = 0,
) -> list[Rect]:
    """Region-of-interest rectangles for all clusters.

    ``min_area`` (parent grid points) drops degenerate single-subdomain
    specks not worth a nest; 0 keeps everything, as the paper does — its
    thresholds already filtered weak subdomains.
    """
    check_non_negative("min_area", min_area)
    rects = [cluster_bounding_rect(c) for c in clusters if c]
    return [r for r in rects if r.area >= min_area]
