"""Flat text configuration for the command-line tools.

Files hold one ``key = value`` pair per line; ``#`` starts a comment, blank
lines are skipped, and every key must be known — a typo is an error, not a
silent default. Values are plain scalars, comma-separated lists, or a
semicolon-separated emitter list.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .operator import SigmaGrid, check_count
from .physics import PhysicalParams, Source
from .solver import SolverConfig


def _to_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"config key {key}: expected a number, got {text!r}") from None


def _to_int(key, text):
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"config key {key}: expected an integer, got {text!r}") from None


def _to_str(key, text):
    return text.strip()


@dataclass(frozen=True)
class RunConfig:
    """Typed view of a configuration file; every field holds its key's default."""

    # transport / imaging physics
    kappa_a: float = 2e-7
    kappa_d: float = 0.0
    diffusion: float = 1e-10
    horizon: float = 3600.0
    pixel_pitch: float = 1e-5
    psf_sigma: float = 0.0
    # image geometry
    rows: int = 128
    cols: int = 128
    # scale grid
    sigma_boundaries: str = "0,2,15,20,30,40,50,70"
    support_bins: str = "1,2,3,4,5,6,7"
    # free-motion-time tabulation
    tau_steps: int = 4096
    phi_eps: float = 1e-6
    # kernel construction
    quad_order: int = 16
    # reconstruction (file key "lambda")
    lam: float = 1e-3
    max_iters: int = 500
    gap_tol: float = 1e-3
    power_iters: int = 60
    # camera
    noise_sigma: float = 0.01
    bits: int = 12
    # synthetic emitters
    num_sources: int = 20
    source_rate: float = 1.0
    source_t_start: float = 0.0
    source_t_stop: float = -1.0
    source_min_separation: float = 10.0
    border_margin: int = 12
    sources: str = ""
    # detection / scoring
    detect_rel_threshold: float = 0.05
    detect_min_separation: int = 4
    match_radius: float = 4.0
    # misc
    seed: int = 12345
    weights_path: str = ""
    mask_path: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        return (check_count("rows", self.rows, 1), check_count("cols", self.cols, 1))

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            kappa_a=self.kappa_a,
            kappa_d=self.kappa_d,
            diffusion=self.diffusion,
            horizon=self.horizon,
            pixel_pitch=self.pixel_pitch,
        )

    def sigma_grid(self) -> SigmaGrid:
        bounds = _parse_list("sigma_boundaries", self.sigma_boundaries, _to_float)
        bins = _parse_list("support_bins", self.support_bins, _to_int)
        return SigmaGrid(boundaries=np.asarray(bounds), support_set=tuple(bins))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            lam=self.lam,
            max_iters=self.max_iters,
            gap_tol=self.gap_tol,
            power_iters=self.power_iters,
        )

    def effective_t_stop(self) -> float:
        return self.horizon if self.source_t_stop < 0 else self.source_t_stop

    def explicit_sources(self) -> list[Source] | None:
        """Emitters given literally as ``m:n[:rate[:t_start[:t_stop]]];...``."""
        text = self.sources.strip()
        if not text:
            return None
        out = []
        for item in text.split(";"):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if len(parts) < 2 or len(parts) > 5:
                raise ValueError(
                    f"config key sources: expected m:n[:rate[:t_start[:t_stop]]], got {item!r}"
                )
            m = _to_int("sources", parts[0])
            n = _to_int("sources", parts[1])
            rate = _to_float("sources", parts[2]) if len(parts) > 2 else self.source_rate
            t0 = _to_float("sources", parts[3]) if len(parts) > 3 else self.source_t_start
            t1 = _to_float("sources", parts[4]) if len(parts) > 4 else self.effective_t_stop()
            out.append(Source(m=m, n=n, rate=rate, t_start=t0, t_stop=t1))
        if not out:
            raise ValueError("config key sources: no emitters in list")
        return out


def _parse_list(key, text, conv):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError(f"config key {key}: empty list")
    return [conv(key, s) for s in items]


# file key -> (field, converter); the converter follows the field's annotation
_CONVERTERS = {"float": _to_float, "int": _to_int, "str": _to_str}
_KEYS = {
    ("lambda" if f.name == "lam" else f.name): (f.name, _CONVERTERS[f.type])
    for f in fields(RunConfig)
}


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    """Parse configuration text; unknown or repeated keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ValueError(f"{origin}:{lineno}: unknown config key {key!r}")
        name, conv = _KEYS[key]
        if name in values:
            raise ValueError(f"{origin}:{lineno}: duplicate config key {key!r}")
        values[name] = conv(key, val)
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    """Parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), origin=str(path))


def default_config() -> RunConfig:
    """Configuration with every key at its default."""
    return RunConfig()
