"""A THREDDS-like data server.

"THREDDS is a web server that provides metadata and data access for
scientific datasets using a variety of remote data access protocols"
(§III-A).  The server fronts a :class:`~repro.data.catalog.MerraArchive`,
answers catalog queries, and — crucially — implements the **NetCDF subset
service**: requesting only the IVT-relevant variables returns the
granule's subset size (246 GB total) instead of the full file (455 GB),
"greatly increasing the speed at which data is transferred".

The server is attached to a host on the PRP topology; actual byte
movement happens in :class:`~repro.transfer.aria2.Aria2Downloader`
through the flow engine, bounded by this server's NIC and a configurable
per-request service overhead.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing as _t

import numpy as np

from repro.data.catalog import GranuleInfo, MerraArchive
from repro.errors import TransferError, TransientServerError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.transfer.retry import TransientFaultInjector

__all__ = ["ResolvedChunk", "SubsetRequest", "ThreddsServer"]


@dataclasses.dataclass(frozen=True)
class SubsetRequest:
    """A resolved download: what to fetch and how many bytes it is."""

    granule: GranuleInfo
    variables: tuple[str, ...] | None  # None = whole file
    nbytes: float
    host: str  # the serving THREDDS host

    @property
    def url(self) -> str:
        """The granule's fileServer URL on :attr:`host`."""
        return self.granule.url(server=self.host)


class ResolvedChunk(collections.abc.Sequence):
    """A resolved manifest chunk: one :class:`SubsetRequest` per granule,
    stored as columns.

    ``indices`` and ``nbytes`` are lists; the catalog sizes stay the
    archive's arrays.  A request (or a slice, itself a chunk) is built
    when read, so a transfer that needs only the sizes builds no object
    per granule.  Read-only; compares equal to a list of the same
    requests.
    """

    __slots__ = ("indices", "nbytes", "variables", "host", "_full", "_subset")

    def __init__(
        self,
        indices: list[int],
        nbytes: list[float],
        full: np.ndarray,
        subset: np.ndarray,
        variables: tuple[str, ...] | None,
        host: str,
    ):
        self.indices = indices
        self.nbytes = nbytes
        self.variables = variables
        self.host = host
        self._full = full
        self._subset = subset

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ResolvedChunk(
                self.indices[key],
                self.nbytes[key],
                self._full[key],
                self._subset[key],
                self.variables,
                self.host,
            )
        granule = GranuleInfo(
            self.indices[key], float(self._full[key]), float(self._subset[key])
        )
        return SubsetRequest(granule, self.variables, self.nbytes[key], self.host)

    def __iter__(self) -> _t.Iterator[SubsetRequest]:
        variables, host = self.variables, self.host
        for index, full, subset, nbytes in zip(
            self.indices, self._full.tolist(), self._subset.tolist(), self.nbytes
        ):
            yield SubsetRequest(GranuleInfo(index, full, subset), variables, nbytes, host)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, ResolvedChunk)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<ResolvedChunk {len(self)} granules from {self.host}>"


#: Server-side latency per request (catalog lookup + subset setup).
REQUEST_OVERHEAD_S = 0.05


class ThreddsServer:
    """Catalog + subset service for the MERRA archive.

    Parameters
    ----------
    archive:
        The granule catalog to serve.
    host:
        Hostname on the network topology (a PRP DTN: the paper's server
        lived at ``its-dtn-02.prism.optiputer.net``).
    fault_injector:
        Optional :class:`~repro.transfer.retry.TransientFaultInjector`;
        when armed, catalog/subset calls raise
        :class:`~repro.errors.TransientServerError` at the injector's
        seeded rate, and downloaders consult it for stream faults.
    """

    #: Variables the subset service can extract (IVT inputs).
    SUBSET_VARIABLES = ("U", "V", "QV")

    def __init__(
        self,
        archive: MerraArchive,
        host: str = "its-dtn-02",
        generator: object | None = None,
        fault_injector: "TransientFaultInjector | None" = None,
    ):
        self.archive = archive
        self.host = host
        #: Optional :class:`~repro.data.merra.MerraGenerator` enabling
        #: :meth:`open_granule` to serve real array content.
        self.generator = generator
        self.fault_injector = fault_injector
        self.requests_served = 0
        self.bytes_served = 0.0
        self.errors_served = 0

    def _maybe_fail(self, what: str) -> None:
        if self.fault_injector is not None and self.fault_injector.server_error():
            self.errors_served += 1
            raise TransientServerError(f"THREDDS {self.host}: 503 on {what}")

    # -- subset service --------------------------------------------------------------

    def resolve_many(
        self, indices: _t.Sequence[int], variables: _t.Sequence[str] | None = None
    ) -> ResolvedChunk:
        """Resolve a manifest chunk's worth of granules (optionally
        variable-subset) into requests.

        ``variables=None`` fetches whole files; naming a non-empty subset
        of :data:`SUBSET_VARIABLES` fetches only those fields' bytes.
        One server round-trip: the transient-fault draw happens once for
        the whole chunk, not per granule, and ``variables`` and every
        index are validated before any request is counted.  Returns the
        requests as a :class:`ResolvedChunk`, in the order of ``indices``.
        """
        self._maybe_fail(f"resolve_many({len(indices)} granules)")
        return self._resolve_batch(indices, variables)

    def _resolve_batch(
        self, indices: _t.Sequence[int], variables: _t.Sequence[str] | None
    ) -> ResolvedChunk:
        vars_tuple = self._subset_variables(variables)
        full, subset = self.archive.sizes_at(indices)
        if vars_tuple is None:
            sizes = full.tolist()
        else:
            # The catalog's subset size covers all three IVT variables;
            # fewer variables scale proportionally.
            fraction = len(vars_tuple) / len(self.SUBSET_VARIABLES)
            sizes = (subset * fraction).tolist()
        self.requests_served += len(sizes)
        for nbytes in sizes:  # one add per granule, in order: sum() rounds differently
            self.bytes_served += nbytes
        return ResolvedChunk(list(indices), sizes, full, subset, vars_tuple, self.host)

    def _subset_variables(
        self, variables: _t.Sequence[str] | None
    ) -> tuple[str, ...] | None:
        """``variables`` deduplicated in first-seen order (None = whole file).

        Raises :class:`~repro.errors.TransferError` for an empty subset
        or a variable the subset service cannot extract.
        """
        if variables is None:
            return None
        unique = tuple(dict.fromkeys(variables))
        if not unique:
            raise TransferError("empty variable subset: name at least one variable")
        unknown = set(unique) - set(self.SUBSET_VARIABLES)
        if unknown:
            raise TransferError(
                f"subset service cannot extract {sorted(unknown)}; "
                f"available: {self.SUBSET_VARIABLES}"
            )
        return unique

    # -- content service ------------------------------------------------------------

    def open_granule(self, index: int, variables: _t.Sequence[str] | None = None):
        """Serve the *content* of a granule as a NetCDF-like file.

        Requires the server to have been built with a
        :class:`~repro.data.merra.MerraGenerator` (laptop-scale runs);
        the subset service drops every variable not requested, exactly
        like the catalog-level :meth:`resolve_many` drops their bytes.
        """
        if self.generator is None:
            raise TransferError(
                "this THREDDS server has no data generator attached "
                "(catalog-only mode)"
            )
        self._maybe_fail(f"open_granule({index})")
        granule_info = self.archive.granule(index)  # validates the index
        subset_vars = self._subset_variables(variables)
        granule = self.generator.granule(index, name=granule_info.name)
        if subset_vars is not None:
            granule = granule.subset(list(subset_vars))
        self.requests_served += 1
        self.bytes_served += granule.nbytes
        return granule

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ThreddsServer {self.host}: {len(self.archive)} granules, "
            f"{self.requests_served} requests served>"
        )
