"""Benchmark of the simplexgeo CLI: untraced end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every end-to-end metric, all workloads
    python3 perfbench/run.py --smoke --workload check-all --trace 1   # every command at N=8
    python3 perfbench/run.py --record-digests 0-29            # rewrite perfbench/digests.json

``--trace 0`` is a closed loop with one client: each command of the
workload runs as a subprocess only after the previous one has ended, so
every timing includes interpreter start, import, compute and file
emission.  Passes over the command list repeat while one more still fits
in ``--seconds`` (at least three), and timings are medians over passes.
The gated timings are ratios to one run of the fixed program reference.py,
timed around every pass, because the machine's own speed drifts; the
detail line gives the same figures in plain seconds.

``--trace 1`` makes one untraced pass, for the tracing overhead, then
drives the same commands in process through ``simplexgeo.cli.main`` with
spans around every binding of the traced functions (see tracing.py).
Per-layer times are medians over traced passes; counts are exact.

Every output file is checked: exit status 0, a passing status line,
``pass: true`` in JSON reports, well-formed trajectory CSVs, the same
bytes on every pass and, for seeds recorded in digests.json on the same
platform, the recorded SHA-256.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
YARDSTICK = BENCH_DIR / "reference.py"
WORK_DIR = ".perfbench"

#: End-to-end metrics and their units; every workload reports all of them.
#: ``ref`` is the run time of reference.py, timed next to every pass.
#: ``setup_s`` is in nominal seconds: its ratio to reference.py times
#: REF_NOMINAL_S.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
#: What the throughput in the detail line counts on each workload.
WORK_NAMES = {"trajectory": "rows_per_s", "integrability": "brackets_per_s", "check-all": "checks_per_s"}

#: Seconds reference.py takes on the two-core 2.0 GHz Xeon VM the
#: benchmark was written on.  Fixed for good, like reference.py itself.
REF_NOMINAL_S = 0.35
#: Import samples taken just before and just after the reference runs
#: at the start and at the end of a run.
SETUP_PER_SIDE = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: The run stops starting passes after this many seconds and kills commands
#: still running at the hard limit, so it always exits within 180 s.
SOFT_LIMIT_S = 150.0
HARD_LIMIT_S = 172.0

_T0 = time.monotonic()


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    error: str | None
    digest: str | None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _check_csv(text: str, cmd: workloads.Command) -> str | None:
    lines = text.rstrip("\n").split("\n")
    dim = int(cmd.argv[cmd.argv.index("--dim") + 1])
    header = ["t"] + [f"p_{i}" for i in range(dim)] + ["objective", "residual_l1"]
    if lines[0].split(",") != header:
        return "unexpected CSV header"
    if len(lines) - 1 != cmd.rows:
        return f"{len(lines) - 1} CSV rows, expected {cmd.rows}"
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError:
        return "CSV rows are ragged or not numeric"
    if table.shape[1] != dim + 3 or not np.all(np.isfinite(table)):
        return "CSV rows are ragged or not finite"
    coords = table[:, 1 : dim + 1]
    if not np.all(np.diff(table[:, 0]) > 0.0):
        return "CSV times are not increasing"
    if not np.all(coords > 0.0) or np.abs(coords.sum(axis=1) - 1.0).max() > 1e-12 * dim:
        return "CSV row is not a point of the open simplex"
    return None


def _verify(cmd: workloads.Command, code: int, stdout: str, deep: bool) -> tuple[str | None, str | None]:
    """Return (error, digest of the output file) for one finished command."""
    if code != 0:
        return f"exit status {code}", None
    status = stdout.strip().splitlines()
    if not status or not status[-1].endswith(" pass"):
        return "status line does not end in 'pass'", None
    try:
        data = Path(ROOT, cmd.out).read_bytes()
    except OSError as exc:
        return f"output missing: {exc}", None
    digest = hashlib.sha256(data).hexdigest()
    if cmd.out.endswith(".json"):
        try:
            report = json.loads(data)
        except json.JSONDecodeError:
            return "report is not JSON", digest
        results = report.get("results", ())
        if report.get("pass") is not True or any(r.get("pass") is not True for r in results):
            return "report says pass: false", digest
    elif deep:
        return _check_csv(data.decode(), cmd), digest
    return None, digest


def _compare_digest(cmd, outcome: Outcome, reference: dict) -> None:
    """Fail the outcome if its bytes differ from the reference (recorded or first pass)."""
    if outcome.error is not None:
        return
    key = os.path.basename(cmd.out)
    expected = reference.setdefault(key, outcome.digest)
    if outcome.digest != expected:
        outcome.error = f"{key} differs from the reference bytes"


# ---------------------------------------------------------------------------
# subprocess runs
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SIMPLEXGEO_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Spawner:
    """Starts commands through spawner.py, so each peak RSS is the command's own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log: str, deadline: float | None) -> tuple[float, float, int, str]:
        """Run one child to completion: (wall s, its own peak RSS in MB, exit code, stdout).

        A child still running at the monotonic ``deadline`` is killed.
        """
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        request = {"argv": argv, "cwd": str(ROOT), "env": _child_env(), "log": log, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        elapsed, maxrss_kib, code = json.loads(reply)
        stderr = Path(log + ".err").read_text(errors="replace").strip()
        if code != 0 and stderr:
            print(f"stderr of {' '.join(argv[3:5])}: {stderr[-500:]}", file=sys.stderr)
        return elapsed, maxrss_kib / 1024.0, code, Path(log + ".out").read_text(errors="replace")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def time_import(spawner: Spawner, workdir: str) -> float:
    """Seconds from a fresh interpreter to a finished ``import simplexgeo``."""
    argv = [sys.executable, "-c", "import simplexgeo"]
    seconds, _, code, _ = spawner.run(argv, os.path.join(workdir, "setup"), _T0 + HARD_LIMIT_S)
    if code != 0:
        raise RuntimeError("import simplexgeo failed")
    return seconds


def time_yardstick(spawner: Spawner, workdir: str, per_side: int, setup: list) -> float:
    """Seconds one run of the fixed reference program takes right now.

    ``per_side`` imports of simplexgeo run just before and just after it;
    each is appended to ``setup`` as (seconds, seconds / reference seconds).
    """
    before = [time_import(spawner, workdir) for _ in range(per_side)]
    seconds, _, code, _ = spawner.run(
        [sys.executable, str(YARDSTICK)], os.path.join(workdir, "yardstick"), _T0 + HARD_LIMIT_S
    )
    if code != 0:
        raise RuntimeError("reference program failed")
    after = [time_import(spawner, workdir) for _ in range(per_side)]
    setup.extend((s, s / seconds) for s in before + after)
    return seconds


def run_pass(
    spawner: Spawner, cmds, reference: dict, deep: bool, workdir: str, deadline: float | None
) -> list[Outcome]:
    outcomes = []
    for i, cmd in enumerate(cmds):
        Path(ROOT, cmd.out).unlink(missing_ok=True)
        argv = [sys.executable, "-m", "simplexgeo.cli", *cmd.argv]
        seconds, rss, code, stdout = spawner.run(argv, os.path.join(workdir, f"cmd{i}"), deadline)
        outcome = Outcome(seconds, rss, *_verify(cmd, code, stdout, deep))
        _compare_digest(cmd, outcome, reference)
        outcomes.append(outcome)
    return outcomes


def _keep_going(cycles: list[float], minimum: int, start: float, seconds: float) -> bool:
    """Start another pass while the minimum is not met or one more still fits in ``seconds``."""
    if time.monotonic() - _T0 > SOFT_LIMIT_S:
        return not cycles
    if len(cycles) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(cycles) <= seconds


# ---------------------------------------------------------------------------
# provenance and recorded digests
# ---------------------------------------------------------------------------


def _cpu_info() -> tuple[str, str]:
    model, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value.strip()
    except OSError:
        pass
    return model, flags


def platform_key() -> str:
    """Digests are only comparable where floating point rounds the same way."""
    model, flags = _cpu_info()
    flag_hash = hashlib.sha256(flags.encode()).hexdigest()[:12]
    return (
        f"{platform.machine()} | {model} | flags {flag_hash} | "
        f"python {platform.python_version()} | numpy {np.__version__}"
    )


def _recorded(mode: str, workload: str, seed: int) -> dict | None:
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if table.get("platform") != platform_key():
        return None
    runs = table["runs"].get(f"{mode}/{workload}/{seed}")
    return dict(runs) if runs is not None else None


def provenance(args, cmds) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "simplexgeo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": _cpu_info()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "platform": platform_key(),
        "commands": [cmd.line for cmd in cmds],
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _totals(passes: list[list[Outcome]]) -> tuple[int, int]:
    attempted = sum(len(p) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p)
    return attempted, failed


def _report_errors(cmds, passes) -> None:
    for n, outcomes in enumerate(passes):
        for cmd, o in zip(cmds, outcomes):
            if o.error is not None:
                print(f"pass {n}: FAILED {cmd.line[:160]}: {o.error}", file=sys.stderr)


def untraced(
    spawner: Spawner,
    workload: str,
    cmds,
    workdir: str,
    reference: dict,
    setup_per_side: int,
    min_passes: int,
    seconds: float,
) -> dict:
    time_import(spawner, workdir)  # the first start only fills the byte-code cache
    passes, walls, cycles, setup = [], [], [], []
    yardstick = [time_yardstick(spawner, workdir, setup_per_side, setup)]
    start = time.perf_counter()
    while _keep_going(cycles, min_passes, start, seconds):
        t = time.perf_counter()
        passes.append(run_pass(spawner, cmds, reference, not passes, workdir, _T0 + HARD_LIMIT_S))
        walls.append(time.perf_counter() - t)
        yardstick.append(time_yardstick(spawner, workdir, 0, setup))
        cycles.append(time.perf_counter() - t)
    # Import samples go to both ends of the run, outside the timed passes:
    # between passes they would cost the integrability workload one of its
    # four passes.
    time_yardstick(spawner, workdir, setup_per_side, setup)
    _report_errors(cmds, passes)
    attempted, failed = _totals(passes)
    # The machine's speed swings by a quarter within a minute.  Each pass is
    # divided by the mean of the reference runs just before and after it,
    # which swing alike.  Medians per command, summed, then give one pass:
    # a burst in one pass moves one sample of each command it hits.  Each
    # import sample is divided by the reference run next to it, and the
    # median ratio is turned back into seconds of the nominal machine.
    pass_ref = [(a + b) / 2.0 for a, b in zip(yardstick, yardstick[1:])]
    per_cmd = [statistics.median(p[i].seconds for p in passes) for i in range(len(cmds))]
    per_cmd_ref = [
        statistics.median(p[i].seconds / r for p, r in zip(passes, pass_ref)) for i in range(len(cmds))
    ]
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(r for _, r in setup),
        "wall_ref": sum(per_cmd_ref),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
        "pass_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "wall_s": sum(per_cmd),
        "ref_s": statistics.median(yardstick),
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "setup_samples": len(setup),
    }
    for cmd, seconds in zip(cmds, per_cmd):
        detail[cmd.metric] = detail.get(cmd.metric, 0.0) + seconds
    detail[WORK_NAMES[workload]] = sum(cmd.work for cmd in cmds) / detail["wall_s"]
    detail["fail_ratio"] = failed / attempted
    detail["pass_walls_s"] = walls
    return {"metrics": metrics, "detail": detail, "attempted": attempted, "failed": failed}


def _in_process(cli, cmd: workloads.Command) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception:  # noqa: BLE001 - a crash is a failed command, as in a subprocess
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, code, out.getvalue()


def traced(spawner: Spawner, args, cmds, workdir: str, reference: dict) -> dict:
    start = time.perf_counter()
    base = untraced(spawner, args.workload, cmds, workdir, reference, 1, 1, 0.0)
    sys.path.insert(0, str(ROOT / "src"))
    import simplexgeo.cli as cli

    tracer = tracing.Tracer()
    bindings = tracer.install()
    passes, layer, walls, mismatches = [], [], [], []
    try:
        while _keep_going(walls, MIN_TRACED_PASSES, start, 0.0 if args.smoke else args.seconds):
            tracer.reset()
            outcomes, nbytes = [], 0
            for cmd in cmds:
                Path(ROOT, cmd.out).unlink(missing_ok=True)
                lo = len(tracer.spans)
                seconds, code, stdout = _in_process(cli, cmd)
                outcome = Outcome(seconds, 0.0, *_verify(cmd, code, stdout, deep=False))
                _compare_digest(cmd, outcome, reference)
                outcomes.append(outcome)
                if outcome.error is None:
                    nbytes += Path(ROOT, cmd.out).stat().st_size
                for (name, ancestor), want in cmd.expect.items():
                    got = tracer.count(name, ancestor, lo)
                    if got != want:
                        mismatches.append(f"{cmd.metric} {name} under {ancestor}: {got} != {want}")
            metrics = tracer.layer_metrics()
            metrics[tracing.BYTES_OUT] = nbytes
            layer.append(metrics)
            walls.append(sum(o.seconds for o in outcomes))
            passes.append(outcomes)
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
    finally:
        tracer.uninstall()
    _report_errors(cmds, passes)
    attempted, failed = _totals(passes)
    units = tracing.metric_units()
    out = {}
    for name, unit in units.items():
        values = [m[name] for m in layer]
        out[name] = statistics.median(values) if unit == "s" else values[0]
    counts_repeat = all(m[n] == layer[0][n] for m in layer for n, u in units.items() if u != "s")
    untraced_compute = base["detail"]["wall_s"] - len(cmds) * base["detail"]["setup_raw_s"]
    diagnostics = {
        "bindings_wrapped": bindings,
        "traced_passes": len(passes),
        "traced_wall_s": statistics.median(walls),
        "untraced_wall_s": base["detail"]["wall_s"],
        "untraced_compute_s": untraced_compute,
        "tracing_overhead": statistics.median(walls) / untraced_compute,
        "counts_repeat": counts_repeat,
        "selfcheck_ok": not mismatches,
        "selfcheck_mismatches": sorted(set(mismatches)),
        "brackets": out["hamiltonian.poisson_bracket.calls"],
    }
    return {
        "metrics": out,
        "detail": diagnostics,
        "attempted": attempted + base["attempted"],
        "failed": failed + base["failed"],
    }


def run_workload(args) -> dict:
    workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}-{args.workload}")
    spawner = Spawner()
    try:
        cmds = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        mode = "smoke" if args.smoke else "full"
        recorded = _recorded(mode, args.workload, args.seed)
        reference = recorded if recorded is not None else {}
        print(json.dumps({"provenance": provenance(args, cmds), "digests_recorded": recorded is not None}))
        if args.trace:
            return traced(spawner, args, cmds, workdir, reference)
        if args.smoke:
            return untraced(spawner, args.workload, cmds, workdir, reference, 1, 1, 0.0)
        return untraced(
            spawner, args.workload, cmds, workdir, reference, SETUP_PER_SIDE, MIN_PASSES, args.seconds
        )
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _units(trace: int) -> dict[str, str]:
    return tracing.metric_units() if trace else END_TO_END


def result_line(result: dict, trace: int) -> str:
    units = _units(trace)
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    })


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def record_digests(seeds: list[int]) -> int:
    """Run one pass per (mode, workload, seed) and store every output's SHA-256."""
    runs = {}
    spawner = Spawner()
    for smoke in (True, False):
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                workdir = os.path.join(WORK_DIR, f"record-{os.getpid()}")
                try:
                    cmds = workloads.build(workload, seed, workdir, smoke=smoke)
                    reference: dict = {}
                    passes = [run_pass(spawner, cmds, reference, True, workdir, None)]
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                _report_errors(cmds, passes)
                if _totals(passes)[1]:
                    print(f"not recording {workload} seed {seed}: a command failed", file=sys.stderr)
                    spawner.close()
                    return 1
                key = f"{'smoke' if smoke else 'full'}/{workload}/{seed}"
                runs[key] = dict(sorted(reference.items()))
                print(f"recorded {key}", flush=True)
    spawner.close()
    DIGESTS.write_text(json.dumps({"platform": platform_key(), "runs": runs}, indent=1) + "\n")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every command at N=8, one pass")
    parser.add_argument("--record-digests", metavar="LO-HI", help="record output digests for seeds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    if not (ROOT / "src" / "simplexgeo" / "cli.py").is_file():
        print(f"error: no simplexgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.record_digests:
        return record_digests(_seed_range(args.record_digests))
    if args.workload != "all":
        result = run_workload(args)
        print(json.dumps({"detail": result["detail"]}))
        print(result_line(result, args.trace))
        return 0

    summary = {}
    for workload in workloads.WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        summary[workload] = json.loads(result_line(result, args.trace))
        units = _units(args.trace)
        for name, unit in units.items():
            print(f"{workload:<14} {name:<44} {result['metrics'][name]:>14.6g} {unit}")
        print(json.dumps({"workload": workload, "detail": result["detail"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
