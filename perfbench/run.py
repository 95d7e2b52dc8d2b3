"""Speed-corrected benchmark of the ``facthist`` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --kernel-ms 4 --workload parity-history \\
        --seed 1 --seconds 15 --trace 0

The run drives ``facthist.cli.main(argv)`` in this process, one call at a
time (a closed loop with one client), over the seeded corpus of one workload
from ``workloads.py``.  After every timed op and every set-up step it runs
the reference kernel from ``kernel.py`` and scales the step's wall time by
``--kernel-ms`` over the mean of the kernel times just before and after it,
so every time reads as milliseconds at one fixed reference speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times half the
run without spans and half with them (``spans.py``), and reports per-layer
self times and counts per op.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run context (machine, Python, source revision, raw kernel
time, quantile self-check).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"

SETUP_REPEATS = 3
# p90 needs at least ten samples above it.
MIN_OPS = 110
# A quantile this close to a cumulative share boundary between two op cost
# classes can land in either class from run to run.
GAP_MARGIN = 0.1


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kernel-ms", type=float, required=True,
                   help="nominal reference-kernel time that corrected times are scaled to")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Clock:
    """Times steps and corrects each by the reference kernels around it."""

    def __init__(self, run_kernel, nominal_s: float) -> None:
        self._kernel = run_kernel
        self._nominal = nominal_s
        self.raw_kernels: list[float] = []
        self._last = self._run_kernel()

    def _run_kernel(self) -> float:
        k = self._kernel()
        self.raw_kernels.append(k)
        return k

    def step(self, fn):
        """Run fn(); return (its result, wall seconds, speed factor)."""
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        k = self._run_kernel()
        factor = 2 * self._nominal / (self._last + k)
        self._last = k
        return result, wall, factor


def _call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except Exception:
        return -1, traceback.format_exc()
    return code, out.getvalue() if code in (0, 1) else err.getvalue()


def _check(op, results) -> str | None:
    try:
        return op.check(results)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}; output {results!r:.400}"


class Runner:
    """Runs ops through the CLI, checks their answers, and keeps the failures."""

    def __init__(self, cli, clock: Clock) -> None:
        self._cli = cli
        self.clock = clock
        self.errors: list[str] = []

    def op(self, op) -> tuple[bool, float, float]:
        """Time one op; return (passed, wall seconds, speed factor)."""
        cli = self._cli
        results, wall, factor = self.clock.step(
            lambda: [_call(cli.main, argv) for argv in op.calls]
        )
        problem = _check(op, results)
        if problem is not None:
            self.errors.append(f"{op.kind} {op.calls[0]}: {problem}")
        return problem is None, wall, factor

    def setup(self, build, seed: int, root: Path) -> tuple[list, float]:
        """Write the corpus and warm every distinct op; return (cycle, corrected s)."""
        gc.collect()
        cycle, wall, factor = self.clock.step(lambda: build(seed, root))
        total = wall * factor
        for op in {op.calls: op for op in cycle}.values():
            _, wall, factor = self.op(op)
            total += wall * factor
        return cycle, total

    def loop(self, cycle, seconds: float, tracer=None):
        """Whole cycles until `seconds` pass and MIN_OPS ops are timed.

        Returns one (kind, corrected seconds, passed) sample per op.
        """
        gc.collect()
        samples = []
        deadline = perf_counter() + seconds
        while True:
            for op in cycle:
                passed, wall, factor = self.op(op)
                samples.append((op.kind, wall * factor, passed))
                if tracer is not None:
                    tracer.take(1000 * factor)
            if perf_counter() >= deadline and len(samples) >= MIN_OPS:
                return samples


def _quantile(samples, q: float) -> float | None:
    """Quantile of the op times in ms; a failed op misses every limit."""
    times = [1000 * t if ok else math.inf for _, t, ok in samples]
    v = statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1]
    return None if v == math.inf else v


def _quantile_gaps(cycle, samples) -> list[str]:
    """Quantiles that sit near the share boundary of two op cost classes."""
    per_kind: dict[str, list[float]] = {}
    for kind, t, _ in samples:
        per_kind.setdefault(kind, []).append(t)
    shares = Counter(op.kind for op in cycle)
    cum, bounds = 0.0, []
    for kind in sorted(shares, key=lambda k: statistics.median(per_kind[k])):
        cum += shares[kind] / len(cycle)
        bounds.append(cum)
    return [
        f"p{q}" for q in (50, 90)
        if any(abs(q / 100 - b) < GAP_MARGIN for b in bounds[:-1])
    ]


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "facthist").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _mean(samples) -> float:
    return sum(t for _, t, _ in samples) / len(samples)


def _end_to_end(setups: list[float], samples) -> dict:
    completed = sum(1 for _, _, ok in samples if ok)
    return {
        "op_p50_ms": (_quantile(samples, 0.5), "ms"),
        "op_p90_ms": (_quantile(samples, 0.9), "ms"),
        "ops_per_s": (completed / sum(t for _, t, _ in samples), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (SRC / "facthist" / "__init__.py").is_file():
        print(f"error: no facthist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import facthist.cli as cli
    import kernel
    import spans
    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "facthist":
        print(f"error: imported facthist from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    clock = Clock(kernel.run_kernel, args.kernel_ms / 1000)
    runner = Runner(cli, clock)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            cycle, seconds = runner.setup(build, args.seed, Path(tmp))
            setups.append(seconds)
        if args.trace:
            plain = runner.loop(cycle, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = runner.loop(cycle, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            samples = plain + traced
            metrics = tracer.per_op()
            metrics["ref_kernel_ms"] = (1000 * statistics.median(clock.raw_kernels), "ms")
            metrics["trace_overhead"] = (_mean(traced) / _mean(plain), "ratio")
        else:
            samples = runner.loop(cycle, args.seconds)
            metrics = _end_to_end(setups, samples)

    failed = sum(1 for _, _, ok in samples if not ok)
    for line in runner.errors[:20]:
        print(f"failed op: {line}", file=sys.stderr)
    gaps = _quantile_gaps(cycle, samples)
    if gaps:
        print(f"warning: {', '.join(gaps)} near a cost-class boundary", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "kernel_nominal_ms": args.kernel_ms,
        "ref_kernel_ms": 1000 * statistics.median(clock.raw_kernels),
        "ops": len(samples),
        "cycles": len(samples) // len(cycle),
        "cycle": dict(Counter(op.kind for op in cycle)),
        "quantile_gaps": gaps,
    }
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": not runner.errors,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
