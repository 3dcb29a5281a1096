"""Workload definitions: seeded lists of ``simplexgeo`` CLI commands.

Every input the program sees is generated here from the workload seed:
objective coefficients, starting points and velocities (as ``explicit:``
specs for small N and ``file:`` specs for large N) and each command's
``--seed``.  Paths are relative to the repository root, which is the
working directory of every command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("trajectory", "integrability", "check-all")

#: Specs at or above this dimension go through ``file:`` instead of argv.
FILE_SPEC_DIM = 256
#: Smoke mode runs every command at this dimension.
SMOKE_DIM = 8
#: Trials that ``simplexgeo integrability`` and ``check-all`` pass to
#: ``integrability_suite``; the traced self-check derives bracket counts from them.
CLI_INTEGRABILITY_TRIALS = 10
CHECK_ALL_INTEGRABILITY_TRIALS = 3
#: Named results one ``check-all`` prints, and residuals one ``isometry`` reports.
CHECK_ALL_CHECKS = 22
ISOMETRY_CHECKS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the benchmark knows about it in advance.

    ``metric`` groups commands into the per-command timings of the
    workload (``flow_s``, ``bracket_s``, ...).  ``work`` is the unit of
    throughput: trajectory rows, bracket evaluations or named checks.
    ``rows`` is the CSV row count the output must have, if it is a CSV.
    ``expect`` maps (span name, ancestor span name or None) to the exact
    number of such spans the traced run must record for this command.
    """

    metric: str
    argv: tuple[str, ...]
    out: str
    work: int
    rows: int | None = None
    expect: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        return "simplexgeo " + " ".join(self.argv)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _coefficients(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Strictly decreasing objective with a clear leading gap.

    c_0 = 1, the first two gaps are drawn from [0.3, 0.6] and the rest
    decrease by about 1/N per step, so ``lp`` converges to e_0 and its
    fitted rate matches c_0 - c_1 without an advisory.
    """
    gaps = np.empty(dim - 1)
    gaps[:2] = rng.uniform(0.3, 0.6, size=2)
    gaps[2:] = rng.uniform(0.5, 1.5, size=dim - 3) / dim
    return 1.0 - np.concatenate(([0.0], np.cumsum(gaps)))


def _point(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.gamma(2.0, size=dim)
    return g / g.sum()


def _velocity(rng: np.random.Generator, p: np.ndarray, max_exponent: float) -> np.ndarray:
    """Tangent at p whose e-geodesic exponents v_n / p_n stay below ``max_exponent``.

    ``geodesic`` checks its equation residual with a fixed central
    difference step of 1e-3 in t; exponents of order one keep the curve
    resolved at that step over the whole time grid.
    """
    e = rng.uniform(-max_exponent, max_exponent, size=p.size)
    e -= float(np.dot(p, e))
    e *= max_exponent / max(max_exponent, float(np.abs(e).max()))
    return p * e


class _Specs:
    """Writes generated vectors as ``explicit:`` or ``file:`` spec strings."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, values: np.ndarray, normalize: str) -> str:
        if values.size < FILE_SPEC_DIM:
            return "explicit:" + ",".join(repr(float(x)) for x in values)
        self.count += 1
        path = os.path.join(self.workdir, f"spec{self.count}.json")
        spec = {
            "kind": "explicit",
            "dim": int(values.size),
            "coords": [float(x) for x in values],
            "normalize": normalize,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return "file:" + path


def _trajectory(seed: int, dim, specs: _Specs, out) -> list[Command]:
    rng = _rng(seed, 0)
    rows = 1001
    grid = ("--t-max", "10", "--dt", "0.01")
    cmds = []
    n = dim(256)
    c, p0 = _coefficients(rng, n), _point(rng, n)
    cmds.append(Command(
        "flow_s",
        ("flow", "--dim", str(n), "--c", specs(c, "none"), "--p0", specs(p0, "simplex"),
         *grid, "--method", "closed", "--format", "csv", "--out", out("flow.csv")),
        out("flow.csv"), rows, rows,
        {("flows.flow_closed_form", "flows.flow_trajectory"): 4 * rows},
    ))
    n = dim(64)
    c, p0 = _coefficients(rng, n), _point(rng, n)
    cmds.append(Command(
        "rk4_s",
        ("flow", "--dim", str(n), "--c", specs(c, "none"), "--p0", specs(p0, "simplex"),
         *grid, "--method", "rk4", "--format", "csv", "--out", out("rk4.csv")),
        out("rk4.csv"), rows, rows,
        {("flows.gradient_field", "flows.integrate_rk4"): 4 * (rows - 1)},
    ))
    n = dim(64)
    c, p0 = _coefficients(rng, n), _point(rng, n)
    v0 = _velocity(rng, p0, 0.5)
    cmds.append(Command(
        "geodesic_s",
        ("geodesic", "--dim", str(n), "--p0", specs(p0, "simplex"), "--v0", specs(v0, "none"),
         "--c", specs(c, "none"), *grid, "--format", "csv", "--out", out("geodesic.csv")),
        out("geodesic.csv"), rows, rows,
    ))
    n = dim(1024)
    c, p0 = _coefficients(rng, n), _point(rng, n)
    cmds.append(Command(
        "lp_s",
        ("lp", "--dim", str(n), "--c", specs(c, "none"), "--p0", specs(p0, "simplex"),
         "--tol", "1e-10", "--format", "json", "--no-timestamp", "--out", out("lp.json")),
        out("lp.json"), 0,
    ))
    return cmds


def _integrability(seed: int, dim, specs: _Specs, out) -> list[Command]:
    rng = _rng(seed, 1)
    n = dim(32)
    brackets = 1 + n * (n - 1)
    cmds = [Command(
        "bracket_s",
        ("bracket", "--dim", str(n), "--seed", str(_cli_seed(rng)),
         "--no-timestamp", "--out", out("bracket.json")),
        out("bracket.json"), brackets,
        expect={("hamiltonian.poisson_bracket", None): brackets},
    )]
    n = dim(24)
    weights = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
    brackets = CLI_INTEGRABILITY_TRIALS * n * (n + 1)
    cmds.append(Command(
        "integrability_s",
        ("integrability", "--dim", str(n), "--c", specs(weights, "none"),
         "--seed", str(_cli_seed(rng)), "--no-timestamp", "--out", out("integrability.json")),
        out("integrability.json"), brackets,
        expect={("hamiltonian.poisson_bracket", "hamiltonian.integrability_suite"): brackets},
    ))
    return cmds


def _check_all(seed: int, dim, specs: _Specs, out) -> list[Command]:
    rng = _rng(seed, 2)
    seeds = [_cli_seed(rng), _cli_seed(rng)]
    cmds = []
    for n in (dim(8), dim(16)):
        for k, s in enumerate(seeds):
            name = out(f"check-all-{n}-{k}.json")
            cmds.append(Command(
                "check_all_s",
                ("check-all", "--dim", str(n), "--seed", str(s), "--no-timestamp", "--out", name),
                name, CHECK_ALL_CHECKS,
                expect={
                    ("hamiltonian.poisson_bracket", "hamiltonian.integrability_suite"):
                        CHECK_ALL_INTEGRABILITY_TRIALS * n * (n + 1),
                },
            ))
    n = dim(256)
    q = float(rng.uniform(1.5, 4.0))
    cmds.append(Command(
        "isometry_s",
        ("isometry", "--dim", str(n), "--q", repr(q), "--seed", str(_cli_seed(rng)),
         "--no-timestamp", "--out", out("isometry.json")),
        out("isometry.json"), ISOMETRY_CHECKS,
    ))
    return cmds


_BUILDERS = {"trajectory": _trajectory, "integrability": _integrability, "check-all": _check_all}


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Command]:
    """Generate the workload's commands; spec files go to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)

    def dim(n: int) -> int:
        return SMOKE_DIM if smoke else n

    def out(name: str) -> str:
        return os.path.join(workdir, name)

    return _BUILDERS[workload](seed, dim, _Specs(workdir), out)
