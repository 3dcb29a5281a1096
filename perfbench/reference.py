"""Fixed reference program: the yardstick for machine speed.

    python3 perfbench/reference.py

It does what a ``simplexgeo`` command does, without ``simplexgeo``:
start an interpreter, import numpy, build small validated frozen
dataclasses around short vectors in a Python loop, and format floats
with ``repr``.  The harness times it next to every pass, so the gated
timings are ratios to it and a machine that runs faster or slower for a
minute moves both alike.  Nothing here may change, or the ratios of
earlier runs stop being comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Point:
    coords: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=float)
        if not np.all(np.isfinite(a)) or not np.all(a > 0.0):
            raise ValueError("coordinates must be finite and positive")
        object.__setattr__(self, "coords", a)


def main() -> None:
    x = np.linspace(0.1, 1.0, 64)
    cells = []
    for i in range(6000):
        y = np.exp(x * (i % 7) - 3.0)
        p = _Point(y / y.sum())
        cells.append(repr(float(p.coords[i % 64])))
    print(len(",".join(cells)))


if __name__ == "__main__":
    main()
