"""The batched THREDDS resolve path against a per-granule reference.

``_reference_resolve`` is the per-granule resolve the batched routine
replaced: it builds the timestamp, name and URL eagerly and charges each
granule as it goes.  The batched path must agree with it exactly.
"""

import datetime

import numpy as np
import pytest

from repro.data import MerraArchive
from repro.data.merra import GridSpec, MerraGenerator
from repro.errors import TransferError
from repro.transfer import ThreddsServer

SUBSET_VARIABLES = ("U", "V", "QV")
EPOCH = datetime.datetime(1980, 1, 1)
#: 1980-02-29 00:00, the first leap day of the archive.
LEAP_DAY = (31 + 28) * 8


class _ReferenceServer:
    """Counters of the per-granule reference."""

    def __init__(self):
        self.requests_served = 0
        self.bytes_served = 0.0


def _reference_resolve(archive, ref, host, index, variables):
    """(nbytes, variables, index, name, timestamp, url) of one granule."""
    if not 0 <= index < archive.n_files:
        raise IndexError(f"granule index {index} out of range")
    ts = EPOCH + datetime.timedelta(hours=3 * index)
    name = f"MERRA2.inst3_3d_asm_Np.{ts.strftime('%Y%m%d_%H%M')}.nc4"
    full_bytes = float(archive._full_sizes[index])
    subset_bytes = float(archive._subset_sizes[index])
    if variables is None:
        nbytes = full_bytes
        vars_tuple = None
    else:
        fraction = len(set(variables)) / len(SUBSET_VARIABLES)
        nbytes = subset_bytes * fraction
        vars_tuple = tuple(variables)
    ref.requests_served += 1
    ref.bytes_served += nbytes
    stamp = ts.strftime("%Y%m%d_%H%M")
    url = f"https://{host}/fileServer/MERRA2/M2I3NPASM/{stamp}/{name}"
    return nbytes, vars_tuple, index, name, ts, url


def _observed(request):
    g = request.granule
    return (request.nbytes, request.variables, g.index, g.name, g.timestamp,
            request.url)


@pytest.fixture(scope="module")
def archive():
    return MerraArchive(seed=42)


def _indices(archive):
    rng = np.random.default_rng(7)
    sample = rng.choice(archive.n_files, size=300, replace=False).tolist()
    return [0, 1, LEAP_DAY, archive.n_files - 1] + sample


@pytest.mark.parametrize(
    "variables", [None, ("U", "V", "QV"), ("QV",), ("U", "QV"), ["V", "U"]]
)
def test_resolve_many_equals_reference(archive, variables):
    server = ThreddsServer(archive, host="its-dtn-02")
    ref = _ReferenceServer()
    indices = _indices(archive)
    expected = [
        _reference_resolve(archive, ref, "its-dtn-02", i, variables)
        for i in indices
    ]
    got = [_observed(r) for r in server.resolve_many(indices, variables)]
    assert got == expected
    assert server.requests_served == ref.requests_served
    assert server.bytes_served == ref.bytes_served


def test_resolve_equals_reference(archive):
    server = ThreddsServer(archive, host="its-dtn-02")
    ref = _ReferenceServer()
    for i in _indices(archive)[:20]:
        for variables in (None, ("QV",)):
            expected = _reference_resolve(archive, ref, "its-dtn-02", i, variables)
            assert _observed(server.resolve_many([i], variables)[0]) == expected
    assert server.requests_served == ref.requests_served
    assert server.bytes_served == ref.bytes_served


def test_leap_day_and_last_granule_names(archive):
    leap, last = archive.granules_at([LEAP_DAY, archive.n_files - 1])
    assert leap.name == "MERRA2.inst3_3d_asm_Np.19800229_0000.nc4"
    assert leap.timestamp == datetime.datetime(1980, 2, 29)
    assert last.timestamp == datetime.datetime(2018, 6, 1)


def test_request_stores_host_not_url(archive):
    request = ThreddsServer(archive, host="its-dtn-02").resolve_many([3])[0]
    assert request.host == "its-dtn-02"
    assert request.url == request.granule.url(server="its-dtn-02")


class TestBounds:
    @pytest.mark.parametrize(
        "indices", [[0, 1, 10], [0, -1], [-5], [10], [3, 2, 11, 4]]
    )
    def test_bad_index_raises_before_counting(self, indices):
        server = ThreddsServer(MerraArchive(n_files=10, seed=1))
        server.resolve_many([0])
        before = (server.requests_served, server.bytes_served)
        with pytest.raises(IndexError):
            server.resolve_many(indices, ("U", "V", "QV"))
        assert (server.requests_served, server.bytes_served) == before

    @pytest.mark.parametrize("index", [-1, 10])
    def test_resolve_bad_index(self, index):
        server = ThreddsServer(MerraArchive(n_files=10, seed=1))
        with pytest.raises(IndexError):
            server.resolve_many([index])
        assert server.requests_served == 0
        assert server.bytes_served == 0.0

    def test_negative_index_does_not_wrap(self):
        archive = MerraArchive(n_files=10, seed=1)
        with pytest.raises(IndexError):
            archive.granules_at([-1])
        with pytest.raises(IndexError):
            archive.granule(-10)

    def test_empty_chunk(self):
        server = ThreddsServer(MerraArchive(n_files=10, seed=1))
        assert server.resolve_many([], ("U",)) == []
        assert server.requests_served == 0


class TestSubsets:
    @pytest.fixture
    def server(self):
        return ThreddsServer(
            MerraArchive(n_files=20, seed=1),
            generator=MerraGenerator(GridSpec(nlat=8, nlon=12, nlev=2), seed=1),
        )

    def test_empty_subset_rejected(self, server):
        with pytest.raises(TransferError):
            server.resolve_many([0], variables=[])
        with pytest.raises(TransferError):
            server.resolve_many([0, 1], variables=())
        with pytest.raises(TransferError):
            server.open_granule(0, variables=[])
        assert server.requests_served == 0
        assert server.bytes_served == 0.0

    def test_duplicates_recorded_once(self, server):
        request = server.resolve_many([4], variables=("U", "U"))[0]
        assert request.variables == ("U",)
        assert request.nbytes == server.archive.granule(4).subset_bytes * (1 / 3)

    def test_duplicates_keep_first_seen_order(self, server):
        (request,) = server.resolve_many([2], variables=["QV", "U", "QV", "V"])
        assert request.variables == ("QV", "U", "V")
        assert request.nbytes == server.archive.granule(2).subset_bytes

    def test_unknown_variable_raises_before_counting(self, server):
        with pytest.raises(TransferError):
            server.resolve_many([0, 1], variables=("U", "GHOST"))
        with pytest.raises(TransferError):
            server.open_granule(0, variables=("GHOST",))
        assert server.requests_served == 0
