"""Runtime defaults shared by the CLI and the verification suites.

Defaults can be overridden from a small JSON file (``--config`` on the command
line): any subset of the keys below may appear; unknown keys are rejected so a
typo does not silently run with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ParameterOutOfRange
from .numerics import _require_positive


@dataclass
class Defaults:
    beta: float = 1.0             # strip/circle inverse temperature
    series_terms: int = 10_000    # N for partial-fraction partial sums
    boundary_nodes: int = 1024    # trapezoid nodes on the circle (2**10)
    quad_tol: float = 1e-10       # absolute tolerance target for quadratures
    grid_step: float = 0.02       # step of gridded measure densities
    grid_halfwidth: float = 40.0  # half-width of gridded measure supports
    rng_seed: int = 7051          # seed for the randomized verification draws

    def validate(self) -> "Defaults":
        _require_positive(self.beta)
        if self.series_terms < 1:
            raise ParameterOutOfRange("series_terms must be >= 1")
        if self.boundary_nodes < 4:
            raise ParameterOutOfRange("boundary_nodes must be >= 4")
        for name in ("quad_tol", "grid_step", "grid_halfwidth"):
            _require_positive(getattr(self, name), name)
        return self


def load_defaults(path: str | None = None) -> Defaults:
    """Return the default configuration, optionally overridden by a JSON file."""
    cfg = Defaults()
    if path is None:
        return cfg.validate()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterOutOfRange("config file %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ParameterOutOfRange("config file must contain a JSON object")
    known = {f.name for f in fields(Defaults)}
    unknown = set(data) - known
    if unknown:
        raise ParameterOutOfRange(
            "unknown config keys: %s (known: %s)" % (sorted(unknown), sorted(known))
        )
    for key, value in data.items():
        try:
            setattr(cfg, key, type(getattr(cfg, key))(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterOutOfRange("config key %s: %s" % (key, exc)) from exc
    return cfg.validate()
