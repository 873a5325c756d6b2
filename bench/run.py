"""Benchmark of the weilforms verifier: one workload, one seed, one run.

    python3 bench/run.py --workload exact_rep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  The line before it records the environment and the
figures that are checked rather than gated (failed_frac, min_margin_bits,
the reference digest).  bench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from mpmath import betainc

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
MIN_CHECKS = 100          # so that at least ten samples lie beyond p90
STARTUP_REPEATS = 3
# a passing numeric check must keep at least (precision - this) bits of
# margin between its error plus truncation bound and its tolerance
MARGIN_SLACK_BITS = 48
# Timings are stated at a reference machine speed: the speed of the machine
# during a run is sampled by yardstick() every YARDSTICK_EVERY_S seconds, and
# every timing is scaled by YARDSTICK_REF_S / (mean yardstick time).  On a
# shared host the speed drifts by tens of percent between minutes, which
# would otherwise swamp the differences between two versions of the program.
YARDSTICK_REF_S = 0.001
YARDSTICK_EVERY_S = 0.1


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    """Import weilforms from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "weilforms" / "__init__.py").is_file():
        fail(f"no weilforms sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import weilforms
    import weilforms.cli  # noqa: F401

    if Path(weilforms.__file__).resolve().parent != (src / "weilforms").resolve():
        fail(f"imported weilforms from {weilforms.__file__}, not from {src}")


def child_env() -> dict:
    """Environment for weil subprocesses: this checkout's sources, default precision."""
    env = {k: v for k, v in os.environ.items() if k != "WEIL_PRECISION_BITS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_s() -> float:
    """Seconds a fresh interpreter spends importing weilforms.cli."""
    code = ("import time; t = time.perf_counter(); import weilforms.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def clear_caches() -> None:
    """Empty every lru_cache in weilforms, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "weilforms" or name.startswith("weilforms."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def environment() -> dict:
    import mpmath.libmp

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "weilforms").glob("*.py")))
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python computation on exact rationals,
    integers and dicts, the operations weilforms spends its time in."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 97] = table.get(i % 97, 0) + i * i
    return time.perf_counter() - t0


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights a
    Beta((n+1)p, (n+1)(1-p)) distribution gives the intervals
    [(i-1)/n, i/n].  It moves far less from run to run than the single
    order statistic nearest p when the latencies have gaps between check
    kinds.  Weights further than ten standard deviations from p are below
    1e-20 and are taken as zero.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    width = 10 * (p * (1 - p) / (n + 1)) ** 0.5
    lo, hi = max(0, int((p - width) * n)), min(n, int((p + width) * n) + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(lo, hi + 1)]
    return sum((cdf[k + 1] - cdf[k]) * xs[lo + k] for k in range(hi - lo))


def run_check(check, tracer=None):
    """Run one check; returns (latency_s, passed or None on error, evidence)."""
    t0 = time.perf_counter()
    try:
        passed, evidence = tracer.run_root(check.label, check.call) if tracer else check.call()
    except Exception:  # a failing check is counted, and the run goes on
        dt = time.perf_counter() - t0
        print(f"bench: check {check.label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, None, {}
    return time.perf_counter() - t0, passed, evidence


class Tally:
    """Latencies, verdict mismatches and margins of the checks run."""

    def __init__(self, margins: bool):
        self.latencies: list[float] = []
        self.yardsticks: list[float] = []
        self._last_yardstick = 0.0
        self.failed = 0
        self.margins = margins
        self.min_margin = None
        self.margin_violations = 0

    def run(self, checks, tracer=None) -> float:
        busy = 0.0
        for check in checks:
            dt, passed, evidence = run_check(check, tracer)
            self.latencies.append(dt)
            if time.perf_counter() - self._last_yardstick >= YARDSTICK_EVERY_S:
                self.yardsticks.append(yardstick())
                self._last_yardstick = time.perf_counter()
            busy += dt
            if passed is None or passed != check.expected:
                self.failed += 1
                if passed is not None:
                    print(f"bench: check {check.label!r} gave {passed}, "
                          f"expected {check.expected}", file=sys.stderr)
            elif passed and check.margin is not None and self.margins:
                bits = check.margin(evidence)
                if bits < check.prec - MARGIN_SLACK_BITS:
                    self.margin_violations += 1
                    print(f"bench: check {check.label!r} kept only {bits:.1f} bits of margin",
                          file=sys.stderr)
                if self.min_margin is None or bits < self.min_margin:
                    self.min_margin = bits
        return busy


def measure(pool, seconds: float, tally: Tally) -> int:
    """Run whole rounds until `seconds` have passed, MIN_CHECKS were made and
    every round of the pool ran once.  Returns the number of rounds."""
    start = time.perf_counter()
    done = 0
    while (done < len(pool) or len(tally.latencies) < MIN_CHECKS
           or time.perf_counter() - start < seconds):
        tally.run(pool[done % len(pool)])
        done += 1
    return done


def digest(workloads, name: str, seed: int, workdir: Path) -> str:
    """Digest of verdicts and exact details on the pool of `seed`."""
    spec = workloads.WORKLOADS[name]
    ctx = workloads.Context(ROOT, workdir, child_env(), in_process=True)
    records = []
    for check in (c for r in spec.build(random.Random(seed), ctx) for c in r):
        if check.m > spec.gate_max_m:
            continue
        _, passed, evidence = run_check(check)
        records.append([check.label, passed, evidence.get("detail")])
    blob = json.dumps(records, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def cli_startup_s() -> float:
    """Median wall time of a process that only imports weilforms.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import weilforms.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    os.environ.pop("WEIL_PRECISION_BITS", None)  # the program's default precision
    load_package()

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    is_cli = args.workload == "cli_roundtrip"
    scratch = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, scratch / "run", child_env(), in_process=bool(args.trace))
        # set-up = importing the package + generating inputs + warm-up, each
        # repeated (from a fresh interpreter and from cold caches) for a median
        imports, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_s())
            clear_caches()
            t0 = time.perf_counter()
            pool = wl.build(random.Random(args.seed), ctx)
            workloads.warm_caches(wl.indices)
            if is_cli and not ctx.in_process:
                workloads.warm_cli(ctx)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setup_times)

        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "environment": environment()}
        if args.trace:
            # one traced pass over the pool between two untraced ones, so
            # that drift in machine speed cancels out of the overhead
            tally = Tally(margins=False)
            untraced = sum(tally.run(r) for r in pool)
            tracer = tracing.Tracer()
            tracer.install(callers=[workloads])
            try:
                traced = sum(tally.run(r, tracer) for r in pool)
            finally:
                tracer.uninstall()
            untraced = (untraced + sum(tally.run(r) for r in pool)) / 2
            values = tracer.metrics()
            values["trace.overhead_pct"] = 100 * (traced / untraced - 1)
            values["cli.startup_s"] = cli_startup_s()
            names = spec["per_layer"]
            trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump(), indent=1) + "\n")
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            info["rounds"] = 3 * len(pool)
        else:
            tally = Tally(margins=True)
            info["rounds"] = measure(pool, args.seconds, tally)
            lat = tally.latencies
            raw = {
                "checks_per_s": len(lat) / sum(lat),
                "check_p50_ms": 1000 * hd_quantile(lat, 0.5),
                "check_p90_ms": 1000 * hd_quantile(lat, 0.9),
                "setup_s": setup_s,
            }
            scale = YARDSTICK_REF_S / statistics.fmean(tally.yardsticks)
            info["speed_scale"] = scale
            info["unscaled"] = raw
            values = {k: v / scale if k == "checks_per_s" else v * scale for k, v in raw.items()}
            values["peak_rss_mb"] = peak_rss_mb(is_cli)
            names = spec["end_to_end"]
        info["samples"] = len(tally.latencies)
        info["failed_frac"] = tally.failed / len(tally.latencies)
        correct = tally.failed == 0 and tally.margin_violations == 0
        if tally.min_margin is not None:
            info["min_margin_bits"] = tally.min_margin
        if wl.gate_max_m is not None and not args.trace:
            reference = json.loads((BENCH / "reference.json").read_text())
            got = digest(workloads, args.workload, reference["ref_seed"], scratch / "reference")
            info["digest"] = got
            info["digest_ok"] = got == reference["digests"].get(args.workload)
            correct = correct and info["digest_ok"]
            if not info["digest_ok"]:
                print(f"bench: digest {got} differs from reference.json", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(tally.latencies),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
