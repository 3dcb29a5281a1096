"""The benchmark's tracer, its pinned call counts and its recorded bytes hold for today's code.

``perfbench/tracing.py`` looks each traced name up on its home module, so a
deleted or renamed function would break traced benchmark runs, each
``Command.expect`` in ``perfbench/workloads.py`` pins a call count of the
code, and ``perfbench/digests.json`` pins the bytes of every output.  These
tests load those files without changing them.
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import simplexgeo.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _load("tracing")
    home = {module: sys.modules[f"simplexgeo.{module}"] for module in tracing.TRACED}
    functions = {
        (module, name): getattr(home[module], name)
        for module, names in tracing.TRACED.items()
        for name in names
    }
    classes = {
        metric: (getattr(sys.modules[f"simplexgeo.{module}"], cls), method)
        for metric, (module, cls, method) in tracing.COUNTED.items()
    }
    methods = {metric: cls.__dict__[method] for metric, (cls, method) in classes.items()}
    assert len(methods) == 2

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in functions.items():
            assert getattr(home[module], name).__wrapped__ is original, f"{module}.{name}"
        for metric, (cls, method) in classes.items():
            assert cls.__dict__[method].__wrapped__ is methods[metric], metric
    finally:
        tracer.uninstall()

    for (module, name), original in functions.items():
        assert getattr(home[module], name) is original, f"{module}.{name}"
    for metric, (cls, method) in classes.items():
        assert cls.__dict__[method] is methods[metric], metric


def _smoke_commands(tmp_path):
    workloads = _load("workloads")
    cmds = []
    for name in ("trajectory", "integrability", "check-all"):
        cmds += workloads.build(name, 3, str(tmp_path / name), smoke=True)
    # One check-all command stands for the four; the isometry command pins no count.
    first_check_all = next(c for c in cmds if c.argv[0] == "check-all")
    return [c for c in cmds if c.argv[0] not in ("check-all", "isometry")] + [first_check_all]


def test_workload_counts_match_the_code(tmp_path):
    tracing = _load("tracing")
    cmds = _smoke_commands(tmp_path)
    assert sum(len(c.expect) for c in cmds) == 5
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cmd in cmds:
            lo = len(tracer.spans)
            assert simplexgeo.cli.main(list(cmd.argv)) == 0, cmd.line
            for (name, ancestor), want in cmd.expect.items():
                assert tracer.count(name, ancestor, lo) == want, (cmd.line, name)
    finally:
        tracer.uninstall()


def _recorded_digests():
    """The recorded digest table, or a skip where floating point may round differently."""
    run = _load("run")
    table = json.loads((PERFBENCH / "digests.json").read_text())
    if table["platform"] != run.platform_key():
        pytest.skip(
            f"digests were recorded on {table['platform']!r}; this is {run.platform_key()!r}, "
            "where floating point may round differently"
        )
    return table["runs"]


def _assert_digests(cmds, recorded):
    for cmd in cmds:
        assert simplexgeo.cli.main(list(cmd.argv)) == 0, cmd.line
        digest = hashlib.sha256(Path(cmd.out).read_bytes()).hexdigest()
        assert digest == recorded[os.path.basename(cmd.out)], cmd.line


def test_smoke_outputs_match_recorded_digests(tmp_path):
    runs = _recorded_digests()
    recorded = {}
    for name in ("trajectory", "integrability", "check-all"):
        recorded.update(runs[f"smoke/{name}/3"])
    _assert_digests(_smoke_commands(tmp_path), recorded)


def test_full_size_integrability_matches_recorded_digests(tmp_path):
    # The smoke commands run at N=8; the bracket kernels must also be bitwise at full size.
    runs = _recorded_digests()
    cmds = _load("workloads").build("integrability", 3, str(tmp_path))
    _assert_digests(cmds, runs["full/integrability/3"])


def test_full_size_softmax_kernels_match_recorded_digests(tmp_path):
    # The smoke commands run at N=8, which hardly reaches the fix-up trial or a block
    # boundary; the geodesic (N=64, 1001 rows) and lp (N=1024) kernels run here at full size.
    runs = _recorded_digests()
    cmds = _load("workloads").build("trajectory", 3, str(tmp_path))
    _assert_digests([c for c in cmds if c.argv[0] in ("geodesic", "lp")], runs["full/trajectory/3"])
