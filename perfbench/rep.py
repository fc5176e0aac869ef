"""One repetition of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/rep.py '{"workload": "audit", "seed": 7, "trace": false, "smoke": false}'

The repetition imports ``cubeball`` from the checkout's ``src/``, draws its
inputs from ``seed``, runs the workload's calls in a timed region, checks
every result against values pinned at the commit the benchmark was written
for, and prints one JSON object as its last line of stdout.

With ``trace`` on, the public functions of the layers are wrapped from here
(``src/cubeball/`` is not changed), so each span's self time is charged to
its layer; afterwards the per-call probes time ``chains.position``,
``bijections.psi`` and ``bijections.psi_inverse`` on seeded vertices.
"""

from __future__ import annotations

import gc
import io
import json
import random
import re
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# Workload sizes.  SMOKE runs the same code at tiny n; it is for the
# benchmark's own tests and never for claims.
# verify-exhaustive uses n=18, not 20: at about 8 s a repetition, n=20 fits
# only three repetitions in a run, too few for a steady median on a noisy
# shared 2-CPU machine; n=18 fits about ten.
FULL = {
    "verify-exhaustive": {"n": 18, "probe_n": 18},
    "verify-sampled": {"n": 1024, "draws": 4000, "pin_draws": 200, "probe_n": 1024},
    "audit": {"pair_n": 12, "profile_n": 16, "probe_n": 16},
    "selftest": {"criteria": None, "probe_n": 16},
}
SMOKE = {
    "verify-exhaustive": {"n": 6, "probe_n": 6},
    "verify-sampled": {"n": 64, "draws": 50, "pin_draws": 50, "probe_n": 64},
    "audit": {"pair_n": 6, "profile_n": 8, "probe_n": 8},
    "selftest": {"criteria": (2, 5), "probe_n": 8},
}
PROBE_CALLS = {False: 1000, True: 20}  # keyed by smoke

# Per-layer metrics of a traced repetition, with units.  Spans ending in _s
# are self time (the span minus the spans nested in it), except the
# acceptance.cNN_s, which are the whole run_criterion(NN) call.
PER_LAYER = (
    ("chains.position_us", "us"),
    ("bijections.psi_us", "us"),
    ("bijections.psi_inverse_us", "us"),
    ("metrics.image_table_s", "s"),
    ("metrics.preimage_table_s", "s"),
    ("metrics.image_table_rss_mib", "MiB"),
    ("metrics.image_table_misses", "count"),
    ("metrics.forward_sweep_s", "s"),
    ("metrics.inverse_sweep_s", "s"),
    ("metrics.forward_edges", "count"),
    ("metrics.inverse_edges", "count"),
    ("metrics.sampled_sweep_s", "s"),
    ("metrics.pairwise_audit_s", "s"),
    ("metrics.transitivity_audit_s", "s"),
    ("metrics.audit_pairs", "count"),
    ("analysis.influence_profile_s", "s"),
    ("analysis.chain_count_enumerated_s", "s"),
    ("analysis.profile_histogram_s", "s"),
    *((f"acceptance.c{k:02d}_s", "s") for k in range(1, 14)),
    ("acceptance.failed", "count"),
    ("cli.run_s", "s"),
)

# ---- values pinned at the commit the benchmark was written for ----------

# (max_stretch, witness_vertex, witness_coordinate, avg_stretch,
#  edges_considered) of the psi sweeps, forward then inverse, keyed by n.
EXHAUSTIVE_PINS = {
    18: (
        ("4", "000000000000000100", "17", "118917/65536", "2359296"),
        ("5", "0000000110011111111", "10", "1956666/1014239", "2028478"),
    ),
    6: (
        ("4", "000100", "5", "27/16", "192"),
        ("4", "0100111", "3", "18/11", "154"),
    ),
}
EXHAUSTIVE_FIELDS = (
    "max_stretch", "witness_vertex", "witness_coordinate", "avg_stretch", "edges_considered",
)

# The full to_record() of forward_stretch_sampled(psi, n, pin_draws, seed=0).
_W1024 = (
    "fcbd04c340212ef7cca5a5a19e4d6e3c1846d424c17c627923c6612f4826867323a7711a"
    "8133287637ebdcd9e87a1613e443df789558867f5ba91faf7a024204f7c1bd874da5e709"
    "d4713d60c8a70639eb1167b367a9c3787c65c1e582e2e662f728b4fa42485e3a0a5d2f34"
    "6baa9455e3e70682c2094cac629f6fbed82c07cd"
)
SAMPLED_PINS = {
    (1024, 200): {
        "bijection": "psi", "direction": "fwd", "n": "1024", "mode": "sample",
        "max_stretch": "4",
        "witness_vertex": format(int(_W1024, 16), "01024b"),
        "witness_coordinate": "301",
        "avg_stretch": "353/200", "avg_stretch_dec": "1.765000",
        "edges_considered": "200", "averaging": "uniform (x,i) draws",
        "samples": "200", "seed": "0", "sample_variance": "47191/40000",
    },
    (64, 50): {
        "bijection": "psi", "direction": "fwd", "n": "64", "mode": "sample",
        "max_stretch": "4",
        "witness_vertex": "1100110010100101101001011010000110011110010011010110111000111100",
        "witness_coordinate": "33",
        "avg_stretch": "42/25", "avg_stretch_dec": "1.680000",
        "edges_considered": "50", "averaging": "uniform (x,i) draws",
        "samples": "50", "seed": "0", "sample_variance": "511/625",
    },
}

# pairwise_ratio_audit(psi, n): (pairs, min_ratio, max_ratio), keyed by n.
PAIRWISE_PINS = {12: (8386560, Fraction(1, 5), Fraction(4)), 6: (2016, Fraction(1, 4), Fraction(4))}
# sum of influence_profile(psi, n), equal to n times the average stretch.
INFLUENCE_SUM_PINS = {16: Fraction(59101, 2048), 8: Fraction(221, 16)}
SWAP_RATIO_WINDOW = (Fraction(1, 20), Fraction(20))


class Checks:
    """Correctness checks attempted and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _ball_point(rng: random.Random, n: int) -> int:
    """A uniform point of the Hamming ball in {0,1}^(n+1), weight above n/2."""
    z = rng.getrandbits(n + 1)
    return z if 2 * z.bit_count() > n else z ^ ((1 << (n + 1)) - 1)


# ---- workloads: inputs(size, rng), run(cb, size, inputs) and check(...) ----
# check() returns the fixed work of a repetition that derived figures use.


def _exhaustive_inputs(size, rng):
    return {}


def _exhaustive_run(cb, size, inputs):
    n = size["n"]
    image = cb.metrics.image_table(cb.PSI, n)
    preimage = cb.metrics.preimage_table(cb.PSI, n)  # raises unless bijective
    fwd = cb.metrics.forward_stretch_exhaustive(cb.PSI, n)
    inv = cb.metrics.inverse_stretch_exhaustive(cb.PSI, n)
    return image, preimage, fwd, inv


def _exhaustive_check(cb, size, inputs, result, checks):
    n = size["n"]
    image, preimage, fwd, inv = result
    checks.expect(len(image) == 1 << n, f"image table has {len(image)} entries")
    hit = sum(1 for x in preimage if x >= 0)
    checks.expect(hit == 1 << n, f"preimage table covers {hit} ball points, want 2^{n}")
    checks.expect(fwd.max_stretch <= 4, f"forward max {fwd.max_stretch} > 4")
    checks.expect(inv.max_stretch <= 5, f"inverse max {inv.max_stretch} > 5")
    for report, pin in zip((fwd, inv), EXHAUSTIVE_PINS[n]):
        rec = report.to_record()
        got = tuple(rec[k] for k in EXHAUSTIVE_FIELDS)
        checks.expect(got == pin, f"{rec['direction']} n={n}: got {got}, pinned {pin}")
    return {"edges": fwd.edges_considered + inv.edges_considered}


def _sampled_inputs(size, rng):
    return {"seed": rng.getrandbits(32)}


def _sampled_run(cb, size, inputs):
    return cb.metrics.forward_stretch_sampled(cb.PSI, size["n"], size["draws"], inputs["seed"])


def _sampled_check(cb, size, inputs, report, checks):
    n, draws = size["n"], size["draws"]
    checks.expect(
        (report.samples, report.seed, report.edges_considered) == (draws, inputs["seed"], draws),
        f"report carries samples={report.samples} seed={report.seed}",
    )
    checks.expect(
        1 <= report.avg_stretch <= report.max_stretch <= 4,
        f"sampled stretch avg {report.avg_stretch} max {report.max_stretch} outside [1, 4]",
    )
    checks.expect(report.sample_variance >= 0, f"negative variance {report.sample_variance}")
    pin_key = (n, size["pin_draws"])
    got = cb.metrics.forward_stretch_sampled(cb.PSI, n, size["pin_draws"], 0).to_record()
    checks.expect(got == SAMPLED_PINS[pin_key], f"seed-0 record at {pin_key} differs from the pin")
    return {"draws": draws}


def _audit_inputs(size, rng):
    n = size["pair_n"]
    x = _ball_point(rng, n)
    y = x
    while y == x:
        y = _ball_point(rng, n)
    return {"x": x, "y": y}


def _audit_run(cb, size, inputs):
    pn, qn = size["pair_n"], size["profile_n"]
    return (
        cb.metrics.pairwise_ratio_audit(cb.PSI, pn),
        cb.metrics.transitivity_ratio_audit(inputs["x"], inputs["y"], pn),
        cb.analysis.influence_profile(cb.PSI, qn),
        cb.analysis.chain_count_enumerated(qn),
        cb.analysis.unmarked_profile_histogram(qn),
    )


def _binom(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _audit_check(cb, size, inputs, result, checks):
    pn, qn = size["pair_n"], size["profile_n"]
    pairwise, swap, influences, chain_table, histogram = result
    got = (pairwise.pairs, pairwise.min_ratio, pairwise.max_ratio)
    checks.expect(got == PAIRWISE_PINS[pn], f"pairwise audit n={pn}: got {got}")
    checks.expect(swap.swaps_ok, f"swap of {inputs['x']:b} and {inputs['y']:b} does not exchange them")
    lo, hi = SWAP_RATIO_WINDOW
    checks.expect(
        lo <= swap.min_ratio <= swap.max_ratio <= hi,
        f"swap ratios [{swap.min_ratio}, {swap.max_ratio}] escape [{lo}, {hi}]",
    )
    size_ = 1 << pn
    checks.expect(swap.pairs == size_ * (size_ - 1) // 2, f"swap audit counted {swap.pairs} pairs")
    total = sum(influences, Fraction(0))
    checks.expect(total == INFLUENCE_SUM_PINS[qn], f"influence sum {total} at n={qn}")
    # Chain and profile counts against the closed forms, written out here.
    want_chains = {
        t: 0 if (t - qn) % 2 == 0 else _binom(qn, (qn - t + 1) // 2) - _binom(qn, (qn - t - 1) // 2)
        for t in range(1, qn + 2)
    }
    checks.expect(chain_table.entries == want_chains, f"chain counts at n={qn}")
    want_hist = {
        (a, b): _binom(qn, (qn - a - b) // 2) - _binom(qn, (qn - a - b - 2) // 2)
        for a in range(qn + 1)
        for b in range(qn + 1 - a)
        if (a + b - qn) % 2 == 0
    }
    checks.expect(histogram == want_hist, f"unmarked profile histogram at n={qn}")
    return {}


def _selftest_inputs(size, rng):
    return {}


def _selftest_run(cb, size, inputs):
    out = io.StringIO()
    code = cb.cli.run(["selftest"], stdout=out)
    return code, out.getvalue()


def _selftest_check(cb, size, inputs, result, checks):
    code, text = result
    checks.expect(code == 0, f"selftest exited {code}")
    want = [str(k) for k, _, _ in cb.acceptance.CRITERIA] + ["summary"]
    lines = text.splitlines()
    seen = [m.group(1) for m in map(re.compile(r"\bcriterion=(\w+)").search, lines) if m]
    checks.expect(seen == want, f"selftest reported criteria {seen}, want {want}")
    for line in lines:
        checks.expect(" status=PASS " in line, f"not a PASS: {line}")
    return {}


WORKLOADS = {
    "verify-exhaustive": (_exhaustive_inputs, _exhaustive_run, _exhaustive_check),
    "verify-sampled": (_sampled_inputs, _sampled_run, _sampled_check),
    "audit": (_audit_inputs, _audit_run, _audit_check),
    "selftest": (_selftest_inputs, _selftest_run, _selftest_check),
}


# ---- tracing ----------------------------------------------------------------


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Tracer:
    """Self time per layer from wrappers around the layers' public functions."""

    def __init__(self):
        self.values = defaultdict(float)
        self._inner: list[float] = []  # time spent in nested spans, per open span

    def wrap(self, fn, metric, after=None, rss_metric=None):
        def traced(*args, **kwargs):
            rss = _rss_mib() if rss_metric else 0.0
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                inner = self._inner.pop()
                if self._inner:
                    self._inner[-1] += took
            if metric:
                self.values[metric] += took - inner
            if rss_metric:
                self.values[rss_metric] += _rss_mib() - rss
            if after:
                after(self.values, args, result, took)
            return result

        return traced


def _count(metric, field):
    def after(values, args, result, took):
        values[metric] += getattr(result, field)

    return after


def _criterion(values, args, result, took):
    values[f"acceptance.c{args[0]:02d}_s"] += took
    values["acceptance.failed"] += not result.passed


# (module, function, self-time metric, after-call hook)
TRACED = (
    ("metrics", "image_table", "metrics.image_table_s", None),
    ("metrics", "preimage_table", "metrics.preimage_table_s", None),
    ("metrics", "forward_stretch_exhaustive", "metrics.forward_sweep_s",
     _count("metrics.forward_edges", "edges_considered")),
    ("metrics", "inverse_stretch_exhaustive", "metrics.inverse_sweep_s",
     _count("metrics.inverse_edges", "edges_considered")),
    ("metrics", "forward_stretch_sampled", "metrics.sampled_sweep_s", None),
    ("metrics", "pairwise_ratio_audit", "metrics.pairwise_audit_s", _count("metrics.audit_pairs", "pairs")),
    ("metrics", "transitivity_ratio_audit", "metrics.transitivity_audit_s",
     _count("metrics.audit_pairs", "pairs")),
    ("analysis", "influence_profile", "analysis.influence_profile_s", None),
    ("analysis", "chain_count_enumerated", "analysis.chain_count_enumerated_s", None),
    ("analysis", "unmarked_profile_histogram", "analysis.profile_histogram_s", None),
    ("acceptance", "run_criterion", None, _criterion),
    ("cli", "run", "cli.run_s", None),
)


def install(tracer: Tracer, cb) -> None:
    """Replace every module-level reference to a traced function by its wrapper."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cubeball"]
    for module, attr, metric, after in TRACED:
        orig = getattr(getattr(cb, module), attr)
        rss_metric = "metrics.image_table_rss_mib" if attr == "image_table" else None
        wrapped = tracer.wrap(orig, metric, after, rss_metric)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapped)


def _probe(fn, inputs) -> tuple[float, list]:
    start = time.perf_counter()
    out = [fn(x) for x in inputs]
    return (time.perf_counter() - start) / len(inputs) * 1e6, out


def probe_layers(cb, vertices, ball, checks) -> dict[str, float]:
    """Per-call µs of position, psi and psi_inverse, with round-trip checks."""
    position_us, positions = _probe(cb.chains.position, vertices)
    psi_us, images = _probe(cb.bijections.psi, vertices)
    psi_inverse_us, preimages = _probe(cb.bijections.psi_inverse, ball)
    for x, pos, img in list(zip(vertices, positions, images))[:50]:
        checks.expect(cb.chains.chain_member(pos.code, pos.j) == x, f"position of {x} misplaces it")
        checks.expect(cb.bijections.psi_inverse(img) == x, f"psi_inverse(psi({x})) != {x}")
    for z, x in list(zip(ball, preimages))[:50]:
        checks.expect(cb.bijections.psi(x).vector == z, f"psi(psi_inverse({z})) != {z}")
    return {
        "chains.position_us": position_us,
        "bijections.psi_us": psi_us,
        "bijections.psi_inverse_us": psi_inverse_us,
    }


# ---- one repetition -----------------------------------------------------------


def _setup(spec):
    """Import cubeball from the checkout and draw this repetition's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import cubeball
    from cubeball import acceptance, analysis, bijections, chains, cli, metrics
    from cubeball.bits import BitVector

    if Path(cubeball.__file__).resolve().parent != ROOT / "src" / "cubeball":
        raise ImportError(f"cubeball imported from {cubeball.__file__}, not the checkout")
    cb = SimpleNamespace(
        acceptance=acceptance, analysis=analysis, bijections=bijections, chains=chains,
        cli=cli, metrics=metrics, PSI=bijections.BijectionKind.PSI,
    )
    size = (SMOKE if spec["smoke"] else FULL)[spec["workload"]]
    if size.get("criteria"):
        acceptance.CRITERIA = tuple(c for c in acceptance.CRITERIA if c[0] in size["criteria"])
    rng = random.Random(spec["seed"])
    make_inputs = WORKLOADS[spec["workload"]][0]
    inputs = make_inputs(size, rng)
    pn, calls = size["probe_n"], PROBE_CALLS[spec["smoke"]]
    vertices = [BitVector(pn, rng.getrandbits(pn)) for _ in range(calls)]
    ball = [BitVector(pn + 1, _ball_point(rng, pn)) for _ in range(calls)]
    return cb, size, inputs, vertices, ball


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of list reads and integer bit work.

    bench.py divides every time a child measures by this loop's time in
    the same child, so that a shared machine's speed drift cancels out.
    """
    table = list(range(1 << 12))
    start = time.perf_counter()
    total = 0
    for _ in range(100):
        for v in range(1 << 12):
            total += (table[v] ^ table[v ^ 1]).bit_count()
    return time.perf_counter() - start


def repetition(spec) -> dict:
    """Set up, run the timed region, probe and check; times are raw seconds."""
    start = time.perf_counter()
    cb, size, inputs, vertices, ball = _setup(spec)
    setup_s = time.perf_counter() - start
    reference_s = [reference_loop()]
    _, run, check = WORKLOADS[spec["workload"]]
    image_table = cb.metrics.image_table  # unwrapped, for cache_info()
    caches = [  # the unwrapped lru_cache functions, cleared before the second sample
        fn for name, mod in list(sys.modules.items()) if name.split(".")[0] == "cubeball"
        for fn in vars(mod).values() if hasattr(fn, "cache_clear")
    ]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        install(tracer, cb)
    checks = Checks()

    start = time.perf_counter()
    result = run(cb, size, inputs)
    wall_s = time.perf_counter() - start
    peak_rss_mib = _rss_mib()

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": peak_rss_mib}
    if tracer:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(tracer.values)
        layers["metrics.image_table_misses"] = image_table.cache_info().misses
        layers.update(probe_layers(cb, vertices, ball, checks))
        out["layers"] = layers
    out["work"] = check(cb, size, inputs, result, checks)
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures

    # The second speed sample runs without the workload's tables on the heap,
    # so that the program's memory layout does not move the normaliser.
    del result
    for fn in caches:
        fn.cache_clear()
    gc.collect()
    reference_s.append(reference_loop())
    out["reference_s"] = sum(reference_s) / len(reference_s)
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    print(json.dumps(repetition(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
