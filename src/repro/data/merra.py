"""Seeded synthetic MERRA-2-like atmospheric fields.

The generator produces the three fields IVT needs — eastward wind ``U``,
northward wind ``V`` and specific humidity ``QV`` on pressure levels —
plus decoy variables (``T``, ``H``, ``PS``, ``SLP``) so granules carry the
full-file-vs-subset size structure that makes THREDDS subsetting matter.

Design goals (what the substitution must preserve, per DESIGN.md):

- **Spatial smoothness**: fields are superpositions of low-wavenumber
  spherical Fourier modes, so gradients look meteorological rather than
  white.
- **Temporal coherence**: mode phases advance linearly in time and
  moisture filaments advect eastward, so objects persist across the
  3-hourly steps — the property the CONNECT algorithm exploits.
- **Atmospheric-river analogs**: elongated high-IVT filaments with known
  ground truth, giving the FFN/CONNECT pipelines labelled objects whose
  life cycles span time and space.
- **Determinism**: everything derives from a root seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sim.rng import derive_seed

__all__ = ["GridSpec", "PAPER_GRID", "ML_GRID", "MerraGenerator"]

#: Gravitational acceleration, m/s^2 (used by the IVT integral).
GRAVITY = 9.80665


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """The lat/lon/pressure grid of a granule.

    The paper's grid is 576x361 pixels at 0.5 x 0.625 degrees with 42
    vertical levels (§III); :data:`PAPER_GRID` encodes exactly that.
    """

    nlat: int = 361
    nlon: int = 576
    nlev: int = 42

    @property
    def lats(self) -> np.ndarray:
        return np.linspace(-90.0, 90.0, self.nlat)

    @property
    def lons(self) -> np.ndarray:
        return np.linspace(-180.0, 180.0, self.nlon, endpoint=False)

    @property
    def levels_hpa(self) -> np.ndarray:
        """Pressure levels from 1000 hPa down to ~0.1 hPa (log-spaced)."""
        return np.geomspace(1000.0, 0.1, self.nlev)

    @property
    def shape2d(self) -> tuple[int, int]:
        return (self.nlat, self.nlon)



PAPER_GRID = GridSpec(nlat=361, nlon=576, nlev=42)
#: The laptop-sized grid the real ML runs on.
ML_GRID = GridSpec(nlat=45, nlon=72, nlev=8)

#: Scale height (hPa) of the moisture profile: humidity concentrates in
#: the lowest ~3 km of the atmosphere.
_MOISTURE_SCALE_HPA = 250.0


#: Background Fourier modes per field.
N_MODES = 16
#: Atmospheric-river-like filaments alive at any time.
N_RIVERS = 3


class MerraGenerator:
    """Generates temporally coherent synthetic granules.

    Parameters
    ----------
    grid:
        Resolution (default :data:`ML_GRID`; use small grids for tests,
        :data:`PAPER_GRID` for shape-accurate runs).
    seed:
        Root seed; two generators with equal seeds emit identical data.
    """

    def __init__(
        self,
        grid: GridSpec | None = None,
        seed: int = 0,
    ):
        self.grid = grid or ML_GRID
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, "merra"))

        # Background spectral modes: amplitude decays with wavenumber.
        def draw_modes(count):
            kx = rng.integers(1, 6, size=count).astype(float)
            ky = rng.integers(1, 5, size=count).astype(float)
            phase = rng.uniform(0, 2 * np.pi, size=count)
            omega = rng.normal(0.0, 0.05, size=count)  # rad per step
            amp = rng.uniform(0.4, 1.0, size=count) / np.sqrt(kx**2 + ky**2)
            return kx, ky, phase, omega, amp

        self._modes = {name: draw_modes(N_MODES) for name in ("U", "V", "QV", "T")}

        # Atmospheric-river filaments.
        self._rivers = []
        for j in range(N_RIVERS):
            r = np.random.default_rng(derive_seed(seed, "river", j))
            self._rivers.append(
                {
                    "base_lat": float(r.uniform(-55.0, 55.0)),
                    "meander_amp": float(r.uniform(5.0, 15.0)),
                    "meander_k": float(r.integers(2, 5)),
                    "width_deg": float(r.uniform(3.0, 6.0)),
                    "length_deg": float(r.uniform(25.0, 60.0)),
                    "speed_deg_per_step": float(r.uniform(1.0, 3.0)),
                    "lon0": float(r.uniform(-180.0, 180.0)),
                    "intensity": float(r.uniform(2.5, 4.0)),
                    "period_steps": int(r.integers(80, 160)),
                    "duty": float(r.uniform(0.5, 0.8)),
                }
            )

        lats, lons = self.grid.lats, self.grid.lons
        self._lat2d, self._lon2d = np.meshgrid(lats, lons, indexing="ij")
        self._x = np.deg2rad(self._lon2d)  # 0..2pi-ish
        self._y = np.deg2rad(self._lat2d + 90.0)  # 0..pi

    # -- background fields -------------------------------------------------------

    def _background(self, name: str, t: int) -> np.ndarray:
        """Smooth 2-D field from the mode bank at time step ``t``."""
        kx, ky, phase, omega, amp = self._modes[name]
        # (modes, 1, 1) phases against (lat, lon) grids — fully vectorized.
        arg = (
            kx[:, None, None] * self._x[None]
            + ky[:, None, None] * self._y[None]
            + (phase + omega * t)[:, None, None]
        )
        return np.tensordot(amp, np.cos(arg), axes=(0, 0))

    def _river_mask_2d(self, t: int) -> np.ndarray:
        """Sum of filament moisture enhancements at step ``t`` (>= 0)."""
        total = np.zeros(self.grid.shape2d, dtype=np.float64)
        for river in self._rivers:
            age = t % river["period_steps"]
            if age > river["duty"] * river["period_steps"]:
                continue  # river is between life cycles
            center_lon = (river["lon0"] + river["speed_deg_per_step"] * t + 180.0) % 360.0 - 180.0
            dlon = (self._lon2d - center_lon + 180.0) % 360.0 - 180.0
            path_lat = river["base_lat"] + river["meander_amp"] * np.sin(
                np.deg2rad(river["meander_k"] * self._lon2d) + 0.05 * t
            )
            dlat = self._lat2d - path_lat
            ridge = np.exp(
                -(dlat**2) / (2 * river["width_deg"] ** 2)
                - (dlon**2) / (2 * river["length_deg"] ** 2)
            )
            total += river["intensity"] * ridge
        return total

    # -- public API ---------------------------------------------------------------

    def fields(self, t: int) -> dict[str, np.ndarray]:
        """All granule variables at time step ``t``.

        Returns 3-D ``(nlev, nlat, nlon)`` arrays for U/V/QV/T/H and 2-D
        arrays for PS/SLP, all ``float32``.
        """
        g = self.grid
        levels = g.levels_hpa
        # Vertical structure: winds strengthen aloft; moisture decays.
        wind_profile = (1.0 + 1.5 * (1.0 - levels / 1000.0))[:, None, None]
        qv_profile = np.exp(-(1000.0 - levels) / _MOISTURE_SCALE_HPA)[:, None, None]

        u2 = 8.0 + 6.0 * self._background("U", t)
        v2 = 4.0 * self._background("V", t)
        rivers = self._river_mask_2d(t)
        # Filaments carry enhanced moisture and along-filament wind.
        qv2 = np.clip(0.004 + 0.003 * self._background("QV", t), 0.0, None) + 0.004 * rivers
        u2 = u2 + 4.0 * rivers
        t_bg = self._background("T", t)  # drives both T and SLP
        t2 = 288.0 + 25.0 * np.cos(np.deg2rad(self._lat2d)) + 3.0 * t_bg

        out = {
            "U": (u2[None] * wind_profile).astype(np.float32),
            "V": (v2[None] * wind_profile).astype(np.float32),
            "QV": (qv2[None] * qv_profile).astype(np.float32),
            "T": (t2[None] * np.ones((g.nlev, 1, 1))).astype(np.float32),
            "H": (7000.0 * np.log(1000.0 / levels)[:, None, None]
                  * np.ones(g.shape2d)[None]).astype(np.float32),
            "PS": (101325.0 - 12.0 * self._lat2d**2 / 90.0).astype(np.float32),
            "SLP": (101325.0 + 200.0 * t_bg).astype(np.float32),
        }
        return out

    #: Variables the IVT computation needs (the THREDDS subset).
    IVT_VARIABLES = ("U", "V", "QV")

    def granule(self, t: int, name: str | None = None):
        """Build a full NetCDF-like granule for time step ``t``."""
        from repro.data.netcdf import NetCDFFile

        fields = self.fields(t)
        f = NetCDFFile(
            name or f"MERRA2.inst3_3d_asm_Np.t{t:06d}.nc4",
            attrs={"collection": "M2I3NPASM", "t_index": t},
        )
        for var, data in fields.items():
            dims = (
                ("lev", "lat", "lon") if data.ndim == 3 else ("lat", "lon")
            )
            f.add_variable(var, dims, data=data)
        return f

    def ground_truth_mask(self, t: int) -> np.ndarray:
        """Binary atmospheric-river mask at step ``t``: where the river
        filament field reaches 0.8.

        This is the analog of the CONNECT training dataset: "segmented IVT
        objects in binary label representation" (§III-B) — here derived
        from the generator's own filament geometry, so labels are exact.
        """
        return (self._river_mask_2d(t) >= 0.8).astype(np.uint8)

    def ivt_field(self, t: int) -> np.ndarray:
        """IVT magnitude (kg m^-1 s^-1) at step ``t`` (2-D)."""
        from repro.data.ivt import ivt_magnitude

        f = self.fields(t)
        return ivt_magnitude(
            f["U"], f["V"], f["QV"], self.grid.levels_hpa
        )

    def ivt_volume(self, t0: int, nt: int) -> np.ndarray:
        """Stacked IVT magnitude over ``nt`` consecutive steps:
        shape ``(nt, nlat, nlon)`` — the FFN's input volume."""
        return np.stack([self.ivt_field(t0 + k) for k in range(nt)])

    def label_volume(self, t0: int, nt: int) -> np.ndarray:
        """Stacked ground-truth masks over ``nt`` steps."""
        return np.stack([self.ground_truth_mask(t0 + k) for k in range(nt)])
