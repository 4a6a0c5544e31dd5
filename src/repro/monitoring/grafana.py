"""ASCII Grafana: the sparkline that draws a time series in a terminal.

"Grafanas web-based dashboard is accessible from a browser, providing a
quick debugging solution for cluster users and administrators" (§II-A).
The figure renderers draw their series as text with :func:`sparkline`,
so benchmark output can carry the curves the paper screenshots.
"""

from __future__ import annotations

import typing as _t

import numpy as np

__all__ = ["sparkline"]

_TICKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: _t.Sequence[float], width: int = 60) -> str:
    """Render values as a unicode sparkline, resampled to ``width``."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return " " * width
    if arr.size > width:
        # Bucket-max resampling keeps peaks visible.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array(
            [arr[a:b].max() if b > a else arr[min(a, arr.size - 1)]
             for a, b in zip(edges, edges[1:])]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _TICKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_TICKS) - 2)
    return "".join(_TICKS[int(round(s)) + 1] for s in scaled)
