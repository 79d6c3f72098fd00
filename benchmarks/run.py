"""Benchmark entry point: time one workload, check its outputs, print metrics.

    python3 benchmarks/run.py --workload offline-sweep --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one fresh process each
    python3 benchmarks/run.py --write-reference       # refresh reference.json (seed 0)

With ``--trace 0`` the run times whole units of work and prints the
end-to-end metrics; with ``--trace 1`` it runs untraced, traced and untraced
cycles (set-up plus one unit) and prints calls and self time per library
function, plus the tracing overhead. Times are scaled to a fixed host speed
(hostspeed.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools would measure the scheduler of a shared machine; set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
# Kernel calls per second (hostspeed.py) on the reference host. Every
# reported time is scaled to this speed. Any fixed value works; it must never
# change, or results before and after the change stop being comparable.
REFERENCE_SPEED = 600.0


def _import_library() -> None:
    if not (SRC / "equityrank" / "__init__.py").is_file():
        sys.exit(f"equityrank sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import equityrank

    if Path(equityrank.__file__).resolve().parent != SRC / "equityrank":
        sys.exit(f"imported equityrank from {equityrank.__file__}, not from {SRC}")


_import_library()

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "equityrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    # after `git pack-refs` or `git gc` the ref lives only in packed-refs
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref[5:]:
                return sha
    return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_unit(workload, inputs, seed: int, workdir: Path, index: int, expected: dict | None):
    """Run one unit; a unit that raises counts every planned run as failed."""
    start = time.perf_counter()
    try:
        outcome = workload.unit(inputs, seed, workdir, index)
    except Exception:  # noqa: BLE001 - the benchmark records the failure and goes on
        traceback.print_exc()
        planned = workload.planned(seed)
        return workloads.Outcome(time.perf_counter() - start, 0, planned, failed=dict.fromkeys(planned, "raised"))
    if expected is not None:
        outcome.compare(expected)
    for key, reason in outcome.failed.items():
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    return outcome


def _expected(name: str, seed: int) -> dict | None:
    """Committed reference values at the default seed; otherwise None, and
    later units are compared with the first unit's values."""
    if seed != workloads.DEFAULT_SEED:
        return None
    return workloads.load_reference().get(name, {})


def measure(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list]:
    """Timed runs: set up several times, then repeat units for ``seconds``.

    Each set-up repeat and each unit is scaled to REFERENCE_SPEED by the
    host speed measured during it (hostspeed.py).
    """
    workload = workloads.WORKLOADS[name]
    expected = _expected(name, seed)
    setup_spans, outcomes, spans = [], [], []
    with hostspeed.HostSpeed(workdir / "host-speed.txt") as host:
        for _ in range(SETUP_REPEATS):
            inputs = None  # so the previous inputs are not held while the next are made
            start = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_spans.append((start, time.perf_counter()))
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            outcome = _run_unit(workload, inputs, seed, workdir, len(outcomes), expected)
            now = time.perf_counter()
            outcomes.append(outcome)
            spans.append((unit_start, now))
            if expected is None and outcome.values:
                expected = {key: list(v) for key, v in outcome.values.items()}
            if now - start + (now - unit_start) > seconds:
                break
    setup_walls = [end - begin for begin, end in setup_spans]
    setup_speeds = [host.speed(*span) for span in setup_spans]
    speeds = [host.speed(*span) for span in spans]
    walls = [o.wall * speed / REFERENCE_SPEED for o, speed in zip(outcomes, speeds)]
    metrics = {
        "setup_s": (statistics.median(w * v / REFERENCE_SPEED for w, v in zip(setup_walls, setup_speeds)), "s"),
        "runs_per_s": (statistics.median(o.passed / w for o, w in zip(outcomes, walls)), "runs/s"),
        "steps_per_s": (statistics.median(o.steps / w for o, w in zip(outcomes, walls)), "steps/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    raw = [o.wall for o in outcomes]
    print(
        f"{name}: {len(outcomes)} units; unscaled unit wall s min/median/max "
        f"{min(raw):.4f}/{statistics.median(raw):.4f}/{max(raw):.4f}; unscaled set-up median "
        f"{statistics.median(setup_walls):.4f} s; host speed during units min/median/max "
        f"{min(speeds):.0f}/{statistics.median(speeds):.0f}/{max(speeds):.0f}, "
        f"during set-up median {statistics.median(setup_speeds):.0f} "
        f"(reference {REFERENCE_SPEED:.0f}; {len(host.samples)} samples)"
    )
    return metrics, outcomes


def trace(name: str, seed: int, workdir: Path) -> tuple[dict, list]:
    """Untraced, traced and untraced cycles (set-up plus one unit) on the same
    inputs; per-function calls and self time come from the traced one.
    Times are scaled to REFERENCE_SPEED like the timed runs'."""
    workload = workloads.WORKLOADS[name]
    expected = _expected(name, seed)
    recorder = tracer.Tracer()

    def cycle(index: int):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        outcome = _run_unit(workload, inputs, seed, workdir, index, expected)
        return outcome, (start, time.perf_counter())

    with hostspeed.HostSpeed(workdir / "host-speed.txt") as host:
        before, before_span = cycle(0)
        if expected is None and before.values:
            expected = {key: list(v) for key, v in before.values.items()}
        with tracer.traced(recorder) as absent:
            traced, traced_span = cycle(1)
        after, after_span = cycle(2)

    def scaled(span: tuple[float, float]) -> float:
        return (span[1] - span[0]) * host.speed(*span) / REFERENCE_SPEED

    before_wall, traced_wall, after_wall = scaled(before_span), scaled(traced_span), scaled(after_span)
    # the faster untraced cycle, so the first cycle's warm-up does not read as
    # negative overhead
    plain_wall = min(before_wall, after_wall)
    traced_scale = host.speed(*traced_span) / REFERENCE_SPEED
    spans_path = OUT / f"trace-{name}-seed{seed}.csv"
    recorder.write(spans_path)

    totals = recorder.layer_totals()
    metrics = {}
    for fn in tracer.TRACED:
        if fn in absent:
            continue
        calls, self_s = totals.get(fn, (0, 0.0))
        metrics[f"{fn}.calls"] = (calls, "count")
        metrics[f"{fn}.self_s"] = (self_s * traced_scale, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    if absent:
        print(f"absent: {', '.join(absent)}")
    total_self = sum(s for _, s in totals.values()) or 1.0
    print(
        f"{name}: untraced {before_wall:.4f} s and {after_wall:.4f} s, traced {traced_wall:.4f} s "
        f"({100 * (traced_wall / plain_wall - 1):+.0f}%), scaled; unscaled spans in {spans_path}"
    )
    for fn, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {fn:<30} {calls:>9} calls {self_s * traced_scale:>10.4f} s self {100 * self_s / total_self:5.1f}%")
    return metrics, [before, traced, after]


@contextmanager
def _workdir(name: str):
    """A fresh directory under .bench_out, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    with _workdir(name) as workdir:
        if trace_on:
            metrics, outcomes = trace(name, seed, workdir)
        else:
            metrics, outcomes = measure(name, seed, seconds, workdir)
    attempted = sum(len(o.planned) for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    print(f"{name}: {'failed_frac':<14} {failed / attempted:<14.6g} ratio ({failed} of {attempted} runs)")
    if not trace_on:  # trace() printed its own table
        for metric, (value, unit) in metrics.items():
            print(f"{name}: {metric:<14} {value:<14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace_on: bool) -> dict:
    """Each workload in a fresh process, so peak RSS and library caches do
    not carry from one workload to the next."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace_on))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def write_reference() -> None:
    """Record one unit's results per workload at the default seed."""
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        with _workdir(name) as workdir:
            inputs = workload.setup(workloads.DEFAULT_SEED, workdir)
            outcome = workload.unit(inputs, workloads.DEFAULT_SEED, workdir, 0)
        if outcome.failed:
            raise SystemExit(f"{name}: reference-free checks failed: {outcome.failed}")
        reference[name] = {key: list(outcome.values[key]) for key in outcome.planned}
    blocks = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(f"    {json.dumps(key)}: {json.dumps(values)}" for key, values in sorted(runs.items()))
        + "\n  }"
        for name, runs in reference.items()
    ]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
