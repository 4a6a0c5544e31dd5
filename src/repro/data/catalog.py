"""The MERRA-2 archive catalog: every granule's name, timestamp and size.

Paper §III: "455GB of 3-hourly ... MERRA V2 dataset from January 1, 1980
to May 31, 2018", "246GB (112,249 NetCDF files)" after variable
subsetting.  The catalog reproduces exactly those aggregate numbers: the
granule count is the calendar-exact 3-hourly count for that date range,
and per-file sizes carry deterministic jitter around the mean such that
the totals match the paper to the byte.

This module is pure bookkeeping (no arrays); it drives the Step-1
transfer simulation at paper scale.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import typing as _t

from repro.sim.rng import derive_seed

import numpy as np

__all__ = ["GranuleInfo", "MerraArchive", "PAPER_FILE_COUNT"]

#: Aggregate numbers reported in §III-A.
PAPER_FULL_BYTES = 455e9
PAPER_SUBSET_BYTES = 246e9
PAPER_FILE_COUNT = 112_249

_EPOCH = _dt.datetime(1980, 1, 1)
# The paper reports 112,249 granules; 3-hourly stamps from 1980-01-01 00:00
# through 2018-06-01 00:00 inclusive give exactly that count.
_END = _dt.datetime(2018, 6, 1)


@dataclasses.dataclass(frozen=True)
class GranuleInfo:
    """One archive file.

    The timestamp, name and URL are functions of ``index`` and are
    computed when read: a transfer of the whole archive reads only the
    sizes of most granules.
    """

    index: int
    full_bytes: float
    subset_bytes: float

    @property
    def timestamp(self) -> _dt.datetime:
        """Valid time: 3-hourly from the archive epoch."""
        return _EPOCH + _dt.timedelta(hours=3 * self.index)

    @property
    def name(self) -> str:
        """The MERRA-2 file name, e.g. ``MERRA2.inst3_3d_asm_Np.19800101_0000.nc4``."""
        return f"MERRA2.inst3_3d_asm_Np.{self.timestamp:%Y%m%d_%H%M}.nc4"

    def url(self, server: str = "thredds") -> str:
        """The THREDDS fileServer URL of this granule."""
        return (
            f"https://{server}/fileServer/MERRA2/M2I3NPASM/"
            f"{self.timestamp:%Y%m%d_%H%M}/{self.name}"
        )


class MerraArchive:
    """Deterministic catalog of the paper's 112,249-granule archive.

    Parameters
    ----------
    n_files:
        Number of granules (defaults to the calendar-exact paper count).
        Pass a small number for laptop-scale runs: aggregate sizes scale
        proportionally so ratios stay paper-faithful.
    seed:
        Controls the per-file size jitter.
    """

    def __init__(self, n_files: int | None = None, seed: int = 0):
        calendar_count = int((_END - _EPOCH).total_seconds() // (3 * 3600)) + 1
        self.n_files = n_files if n_files is not None else calendar_count
        if self.n_files < 1:
            raise ValueError("archive needs at least one file")
        self.seed = seed
        scale = self.n_files / calendar_count
        self.total_full_bytes = PAPER_FULL_BYTES * scale
        self.total_subset_bytes = PAPER_SUBSET_BYTES * scale

        rng = np.random.default_rng(derive_seed(seed, "archive-sizes"))
        jitter = rng.uniform(0.9, 1.1, size=self.n_files)
        jitter *= self.n_files / jitter.sum()  # renormalize so totals are exact
        self._full_sizes = jitter * (self.total_full_bytes / self.n_files)
        self._subset_sizes = jitter * (self.total_subset_bytes / self.n_files)

    @property
    def calendar_exact(self) -> bool:
        """True when this catalog matches the paper's granule count."""
        return self.n_files == PAPER_FILE_COUNT

    def __len__(self) -> int:
        return self.n_files

    def granule(self, index: int) -> GranuleInfo:
        """The ``index``-th granule (0-based, time-ordered)."""
        return self.granules_at([index])[0]

    def granules_at(self, indices: _t.Sequence[int]) -> list[GranuleInfo]:
        """The granules at ``indices``, in the order given.

        Raises :class:`IndexError` before building any granule if an
        index is negative or past the end (no wrap-around).
        """
        full, subset = self.sizes_at(indices)
        return [
            GranuleInfo(*fields)
            for fields in zip(indices, full.tolist(), subset.tolist())
        ]

    def sizes_at(self, indices: _t.Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The full and subset sizes of the granules at ``indices``.

        Two float arrays in the order given; raises :class:`IndexError`
        like :meth:`granules_at`.
        """
        if len(indices) == 0:
            return self._full_sizes[:0], self._subset_sizes[:0]
        if min(indices) < 0 or max(indices) >= self.n_files:
            bad = next(i for i in indices if not 0 <= i < self.n_files)
            raise IndexError(f"granule index {bad} out of range")
        at = np.asarray(indices)
        return self._full_sizes[at], self._subset_sizes[at]

    def granules(self) -> _t.Iterator[GranuleInfo]:
        """Iterate all granules in time order."""
        for i in range(self.n_files):
            yield self.granule(i)

    def subset_ratio(self) -> float:
        """Bytes saved by variable subsetting (paper: 246/455 ≈ 0.54)."""
        return self.total_subset_bytes / self.total_full_bytes

    def manifest_chunks(self, n_chunks: int) -> list[list[int]]:
        """Split granule indices into ``n_chunks`` contiguous work lists.

        These are the "files that contain urls to download" the paper's
        Redis queue distributes to workers (§III-A).
        """
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        bounds = np.linspace(0, self.n_files, n_chunks + 1).astype(int)
        return [
            list(range(bounds[i], bounds[i + 1])) for i in range(n_chunks)
        ]

    def __repr__(self) -> str:
        return (
            f"<MerraArchive {self.n_files} granules, "
            f"{self.total_full_bytes / 1e9:.0f} GB full / "
            f"{self.total_subset_bytes / 1e9:.0f} GB subset>"
        )
