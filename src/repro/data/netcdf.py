"""A lightweight in-memory NetCDF-like container.

Models exactly what the workflow needs from NetCDF: named variables with
dimensions and attributes, per-variable byte sizes, and **variable
subsetting** — the THREDDS capability that let the paper shrink its
archive from 455 GB to 246 GB by transferring only IVT-relevant fields.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.errors import ShapeError

__all__ = ["NetCDFVariable", "NetCDFFile"]


@dataclasses.dataclass
class NetCDFVariable:
    """One variable: dims + (optionally lazy) data.

    ``data`` may be a real :class:`numpy.ndarray` (laptop-scale runs) or
    ``None`` with an explicit ``shape`` (paper-scale runs where only byte
    accounting matters).
    """

    name: str
    dims: tuple[str, ...]
    data: np.ndarray | None = None
    shape: tuple[int, ...] | None = None
    dtype: str = "float32"
    attrs: dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.data is not None:
            self.data = np.asarray(self.data)
            if self.shape is None:
                self.shape = self.data.shape
            elif tuple(self.shape) != self.data.shape:
                raise ShapeError(
                    f"variable {self.name!r}: shape {self.shape} != data "
                    f"{self.data.shape}"
                )
            self.dtype = str(self.data.dtype)
        if self.shape is None:
            raise ShapeError(f"variable {self.name!r} needs data or shape")
        if len(self.dims) != len(self.shape):
            raise ShapeError(
                f"variable {self.name!r}: {len(self.dims)} dims for "
                f"{len(self.shape)}-d shape"
            )

    @property
    def nbytes(self) -> int:
        """Size of the variable's payload in bytes."""
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    def __repr__(self) -> str:
        lazy = "" if self.data is not None else " (lazy)"
        return f"<NetCDFVariable {self.name}{self.dims}={self.shape}{lazy}>"


class NetCDFFile:
    """A granule: named variables + global attributes.

    >>> import numpy as np
    >>> f = NetCDFFile("demo.nc4")
    >>> _ = f.add_variable("T", ("lat", "lon"), data=np.zeros((4, 8)))
    >>> f.subset(["T"]).nbytes == f.variables["T"].nbytes + NetCDFFile.HEADER_BYTES
    True
    """

    #: Fixed metadata overhead per file (headers, dimension tables).
    HEADER_BYTES = 16_384

    def __init__(self, name: str, attrs: dict[str, object] | None = None):
        self.name = name
        self.attrs = dict(attrs or {})
        self.variables: dict[str, NetCDFVariable] = {}

    def add_variable(
        self,
        name: str,
        dims: tuple[str, ...],
        data: np.ndarray | None = None,
        shape: tuple[int, ...] | None = None,
        dtype: str = "float32",
    ) -> NetCDFVariable:
        """Create and attach a variable."""
        if name in self.variables:
            raise ShapeError(f"duplicate variable {name!r} in {self.name}")
        var = NetCDFVariable(
            name=name,
            dims=dims,
            data=data,
            shape=shape,
            dtype=dtype,
        )
        self.variables[name] = var
        return var

    @property
    def nbytes(self) -> int:
        """Total file size (payloads + header overhead)."""
        return self.HEADER_BYTES + sum(v.nbytes for v in self.variables.values())

    def subset(self, variable_names: _t.Sequence[str]) -> "NetCDFFile":
        """A new file containing only the named variables.

        This is the server-side subsetting the paper uses: "THREDDS
        provides a data subset tool that allows for selection of a
        variable within files ... instead of the entire file" (§III-A).
        """
        missing = [n for n in variable_names if n not in self.variables]
        if missing:
            raise KeyError(f"no such variables in {self.name}: {missing}")
        out = NetCDFFile(self.name, attrs=dict(self.attrs))
        for name in variable_names:
            out.variables[name] = self.variables[name]
        return out

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __repr__(self) -> str:
        return (
            f"<NetCDFFile {self.name}: {sorted(self.variables)} "
            f"{self.nbytes / 1e6:.2f} MB>"
        )
