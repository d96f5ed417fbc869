"""Runtime defaults shared by the CLI and the verification suites.

The two settings are the ones ``rphardy verify`` takes as ``--beta`` and
``--seed``; every other numerical setting of a check is a constant in
:mod:`rphardy.verify`, because each tolerance there is pinned to it.  The
suite names and the group names live here too, so that the CLI parser can
offer them as choices without importing :mod:`rphardy.verify` or
:mod:`rphardy.rpfunc`.
"""

from __future__ import annotations

from dataclasses import dataclass

# the suites of rphardy.verify, "all" first
SUITE_NAMES = ("all", "kernels", "series", "measures", "modular", "appendix")
# the groups of the reflection-positive families in rphardy.rpfunc
GROUPS = ("integers", "line", "circle")


@dataclass
class Defaults:
    beta: float = 1.0             # strip/circle inverse temperature
    rng_seed: int = 7051          # seed for the randomized verification draws

    def validate(self) -> "Defaults":
        # here, not at the top: ``rphardy --help`` then loads no numpy
        from .numerics import _require_count, _require_positive
        _require_positive(self.beta)
        _require_count(self.rng_seed, "rng_seed", 0)  # numpy takes no negative seed
        return self
