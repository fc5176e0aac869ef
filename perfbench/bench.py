"""Benchmark runner for cubeball: four workloads, each repetition in a fresh child.

    python3 perfbench/bench.py --workload verify-exhaustive --seed 1 --seconds 25 --trace 0
    python3 perfbench/bench.py --workload all --seed 0 --seconds 25 --out perfbench/results/x.json

One run starts repetitions of the workload one at a time, each in a new
interpreter (perfbench/rep.py), until ``--seconds`` have passed, and reports
medians over them, with times scaled to a nominal machine speed (see
REFERENCE_S).  A fresh process per repetition keeps one repetition's
lru_cache tables and peak RSS out of the next.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(setup_s, wall_s, peak_rss_mib).  With ``--trace 1`` repetitions run in
pairs, untraced then traced on the same inputs, and the last line reports
the per-layer metrics plus trace.overhead_s, the median over the pairs of
traced minus untraced wall time.  ``--workload all`` runs every workload
both ways, prints every end-to-end metric with its unit (including
raw_wall_s, edges_per_s, draw_us and failed_frac) and, with ``--out``,
writes a results file that records the environment.  Any wrong output makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from rep import PER_LAYER  # noqa: E402

WORKLOADS = ("verify-exhaustive", "verify-sampled", "audit", "selftest")
RUN_LIMIT_S = 170  # a run that takes longer than this is cut and fails


# Every reported time is scaled to the machine speed at which rep.reference_loop
# takes REFERENCE_S: it is multiplied by REFERENCE_S over that loop's time in
# the same child.  On a shared machine whose speed drifts by tens of percent
# within a minute, raw medians of one run differ from the next by more than
# any useful bound; the scaled ones do not.  Results files keep raw seconds.
REFERENCE_S = 0.05
TIME_UNITS = ("s", "us")


def scaled(rep: dict, seconds: float) -> float:
    return seconds * REFERENCE_S / rep["reference_s"]


def _layer(rep: dict, name: str, unit: str) -> float:
    value = rep["layers"][name]
    return scaled(rep, value) if unit in TIME_UNITS else value


class BenchError(Exception):
    """A repetition crashed, timed out or could not start."""


def _child(spec: dict, deadline: float) -> dict:
    # Bytecode is cached after the first child, so setup_s times a warm
    # import, as a user's second run sees it, whatever the caller's setting.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{spec['workload']} repetition passed the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{spec['workload']} repetition exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run: repetitions until ``seconds`` pass, then medians."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)
    base = {"workload": workload, "smoke": smoke}
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        spec = dict(base, seed=rng.getrandbits(32), trace=False)
        plain.append(_child(spec, deadline))
        if trace:
            traced.append(_child(dict(spec, trace=True), deadline))
        if time.perf_counter() - start >= seconds:
            break
    reps = plain + traced
    failures = [f for r in reps for f in r["failures"]]
    if trace:
        metrics = {
            name: (statistics.median(_layer(r, name, unit) for r in traced), unit)
            for name, unit in PER_LAYER
        }
        overhead = statistics.median(
            scaled(t, t["wall_s"]) - scaled(p, p["wall_s"]) for p, t in zip(plain, traced)
        )
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled(r, r["setup_s"]) for r in plain), "s"),
            "wall_s": (statistics.median(scaled(r, r["wall_s"]) for r in plain), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
        }
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repetitions": len(plain),
        "raw_wall_s_samples": [r["wall_s"] for r in plain],
        "reference_s_samples": [r["reference_s"] for r in plain],
        "work": plain[0]["work"],
        "failures": failures[:20],
    }


def result_line(res: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: res[k] for k in keys})


def derived(res: dict) -> dict[str, tuple[float, str]]:
    """End-to-end figures that follow from wall_s and the fixed work per repetition."""
    wall = res["metrics"]["wall_s"]["value"]
    out = {
        "raw_wall_s": (statistics.median(res["raw_wall_s_samples"]), "s"),
        "failed_frac": (res["failed"] / res["attempted"], "1"),
    }
    if "edges" in res["work"]:
        out["edges_per_s"] = (res["work"]["edges"] / wall, "1/s")
    if "draws" in res["work"]:
        out["draw_us"] = (wall / res["work"]["draws"] * 1e6, "us")
    return out


def environment(seed: int, seconds: float) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
    }


def _commit() -> str | None:
    """HEAD and whether src/ differs from it, when ROOT is a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()

    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or Path(top).resolve() != ROOT:
            return None
        dirty = git("status", "--porcelain", "--", "src")
        return git("rev-parse", "HEAD") + (" (src modified)" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    env = environment(seed, seconds)
    results = {}
    for name in WORKLOADS:
        results[name] = {
            "end_to_end": measure(name, seed, seconds, trace=False),
            "per_layer": measure(name, seed, seconds, trace=True),
        }
        e2e = results[name]["end_to_end"]
        rows = {k: (m["value"], m["unit"]) for k, m in e2e["metrics"].items()}
        rows.update(derived(e2e))
        e2e["derived"] = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
        for metric, (value, unit) in rows.items():
            print(f"{name:18} {metric:14} {value:14.6g} {unit}  (repetitions={e2e['repetitions']})")
        for res in results[name].values():
            for failure in res["failures"]:
                print(f"{name}: FAILED {failure}", file=sys.stderr)
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"environment": env, "workloads": results}, indent=1) + "\n")
    ok = all(r[k]["correct"] for r in results.values() for k in r)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write a results file here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubeball" / "__init__.py").is_file():
        print(f"bench: no src/cubeball under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(result_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
