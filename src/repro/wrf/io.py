"""Split-file disk I/O.

The paper's simulation ranks "generate output for [their] subdomain and
write into a split file"; the analysis processes then read those files.
:class:`SplitFileWriter` and :class:`SplitFileReader` provide that
round-trip: one compact binary file per rank per analysis step, with the
subdomain geometry in the header and the QCLOUD/OLR arrays as payload
(NumPy ``.npz``), so the PDA pipeline can run through the filesystem
exactly as deployed — and tests can verify that nothing is lost in the
round-trip.

File naming follows WRF's split-output convention:
``<prefix>_d01_<step:06d>_<rank:05d>.npz``.
"""

from __future__ import annotations

import pathlib
import re
from collections.abc import Sequence

import numpy as np

from repro.analysis.records import SplitFile
from repro.grid.rect import Rect

__all__ = ["SplitFileWriter", "SplitFileReader", "split_file_name"]

_NAME_RE = re.compile(r"^(?P<prefix>.+)_d01_(?P<step>\d{6})_(?P<rank>\d{5})\.npz$")


def split_file_name(prefix: str, step: int, rank: int) -> str:
    """WRF-style split file name for ``rank``'s output at ``step``."""
    if step < 0 or rank < 0:
        raise ValueError(f"step and rank must be >= 0: {step}, {rank}")
    return f"{prefix}_d01_{step:06d}_{rank:05d}.npz"


class SplitFileWriter:
    """Writes one step's split files into a directory."""

    def __init__(self, directory: str | pathlib.Path, prefix: str = "wrfout") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if "_d01_" in prefix:
            raise ValueError("prefix must not contain the domain marker '_d01_'")
        self.prefix = prefix

    def write_step(self, step: int, files: Sequence[SplitFile]) -> list[pathlib.Path]:
        """Write every rank's split file for ``step``; returns the paths."""
        paths = []
        for f in files:
            path = self.directory / split_file_name(self.prefix, step, f.file_index)
            np.savez_compressed(
                path,
                qcloud=f.qcloud,
                olr=f.olr,
                meta=np.asarray(
                    [
                        f.file_index,
                        f.block_x,
                        f.block_y,
                        f.extent.x0,
                        f.extent.y0,
                        f.extent.w,
                        f.extent.h,
                    ],
                    dtype=np.int64,
                ),
            )
            paths.append(path)
        return paths


class SplitFileReader:
    """Reads a step's split files back from a directory."""

    def __init__(self, directory: str | pathlib.Path, prefix: str = "wrfout") -> None:
        self.directory = pathlib.Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no such directory: {self.directory}")
        self.prefix = prefix

    def steps_available(self) -> list[int]:
        """Sorted analysis steps present in the directory."""
        steps = set()
        for p in self.directory.iterdir():
            m = _NAME_RE.match(p.name)
            if m and m.group("prefix") == self.prefix:
                steps.add(int(m.group("step")))
        return sorted(steps)

    def read_step(self, step: int) -> list[SplitFile]:
        """Read every rank's split file for ``step``, ordered by rank."""
        out = []
        pattern = f"{self.prefix}_d01_{step:06d}_*.npz"
        paths = sorted(self.directory.glob(pattern))
        if not paths:
            raise FileNotFoundError(
                f"no split files for step {step} under {self.directory}"
            )
        for path in paths:
            with np.load(path) as data:
                meta = data["meta"]
                rank, bx, by, x0, y0, w, h = (int(v) for v in meta)
                out.append(
                    SplitFile(
                        file_index=rank,
                        block_x=bx,
                        block_y=by,
                        extent=Rect(x0, y0, w, h),
                        qcloud=data["qcloud"],
                        olr=data["olr"],
                    )
                )
        return out

    def read_one(self, step: int, rank: int) -> SplitFile:
        """Read a single rank's split file."""
        path = self.directory / split_file_name(self.prefix, step, rank)
        if not path.exists():
            raise FileNotFoundError(f"missing split file: {path}")
        return self.read_step_file(path)

    @staticmethod
    def read_step_file(path: str | pathlib.Path) -> SplitFile:
        with np.load(path) as data:
            meta = data["meta"]
            rank, bx, by, x0, y0, w, h = (int(v) for v in meta)
            return SplitFile(
                file_index=rank,
                block_x=bx,
                block_y=by,
                extent=Rect(x0, y0, w, h),
                qcloud=data["qcloud"],
                olr=data["olr"],
            )
