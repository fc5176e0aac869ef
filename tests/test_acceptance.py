"""Runs every acceptance criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure); the same checklist backs the ``cubeball selftest`` command.
"""

import importlib
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cubeball
from cubeball import acceptance, analysis, bijections, cli, metrics
from cubeball.analysis import ChainCountTable
from cubeball.chains import ChainCode, MarkedString

_IDS = [f"{num:02d}_{name.replace(' ', '_').replace('-', '_')}"
        for num, name, _ in acceptance.CRITERIA]


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in acceptance.CRITERIA],
    ids=_IDS,
)
def test_criterion(number, name):
    result = acceptance.run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.number:02d} {result.name}: {status} ({result.detail})")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"


@pytest.fixture
def fresh_marks():
    """Criteria 11 and 12 share the cached planes of ``mark``; a test that
    patches ``mark`` must neither read nor leave behind another's."""
    acceptance._marked_planes.cache_clear()
    yield
    acceptance._marked_planes.cache_clear()


def _mark_with_flipped_bit(monkeypatch, bit):
    """Patch ``mark`` so that the marking of 000000010 has mask bit ``bit`` flipped."""
    real = acceptance.mark

    def faulty(x):
        ms = real(x)
        if (x.n, x.value) == (9, 0b000000010):
            return MarkedString(ms.vertex, ms.mask ^ 1 << bit)
        return ms

    monkeypatch.setattr(acceptance, "mark", faulty)


def test_dropped_mark_is_named_by_criteria_11_and_12(monkeypatch, fresh_marks):
    _mark_with_flipped_bit(monkeypatch, 0)  # forgets that coordinate 9 is marked
    c11, c12 = acceptance.run_criterion(11), acceptance.run_criterion(12)
    assert not c11.passed and c11.detail == "disagreement at x=000000010, i=9"
    assert not c12.passed and c12.detail == "pair-choice order changes the marking of 000000010"


def test_spurious_mark_is_named_by_criteria_11_and_12(monkeypatch, fresh_marks):
    _mark_with_flipped_bit(monkeypatch, 8)  # claims that coordinate 1 is marked
    c11, c12 = acceptance.run_criterion(11), acceptance.run_criterion(12)
    assert not c11.passed and c11.detail == "disagreement at x=000000010, i=1"
    assert not c12.passed and c12.detail == "pair-choice order changes the marking of 000000010"


def test_dyck_disagreement_is_named_at_the_first_vertex_then_coordinate(monkeypatch):
    real = analysis._dyck_planes

    def faulty(xs, full):  # wrong at (x=00110, i=4), (00110, 2) and (01001, 1)
        planes = real(xs, full)
        if len(xs) == 5:
            for v, i in ((6, 4), (6, 2), (9, 1)):
                planes[5 - i] ^= 1 << v
        return planes

    monkeypatch.setattr(analysis, "_dyck_planes", faulty)
    result = acceptance.run_criterion(11)
    assert not result.passed and result.detail == "disagreement at x=00110, i=2"


def test_split_disagreement_is_named_at_the_first_vertex_then_coordinate(monkeypatch):
    real = acceptance._split_planes

    def faulty(xs, full, i):  # wrong at (x=000101, i=4), (000101, 2) and (001001, 1)
        planes = real(xs, full, i)
        if len(xs) == 6 and i in (4, 2, 1):
            planes[0] ^= 1 << (9 if i == 1 else 5)
        return planes

    monkeypatch.setattr(acceptance, "_split_planes", faulty)
    result = acceptance.run_criterion(12)
    assert not result.passed and result.detail == "three-step marking differs at x=000101, i=2"


def test_criteria_11_and_12_mark_each_vertex_once(monkeypatch, fresh_marks):
    # like the flip probabilities' one-transpose test: the shared planes
    # are built once per n, and the per-vertex oracles are the tests' own
    # (tests/marking_oracle.py), so no module of the package can run them
    marked = []
    real = acceptance.mark
    monkeypatch.setattr(acceptance, "mark", lambda x: marked.append(x.n) or real(x))
    assert acceptance.run_criterion(11).passed
    assert acceptance.run_criterion(12).passed
    assert len(marked) == sum(1 << n for n in range(1, 15)) == 32766
    modules = [cubeball] + [importlib.import_module(f"cubeball.{info.name}")
                            for info in pkgutil.iter_modules(cubeball.__path__)]
    oracles = ("mark_reference", "mark_via_split", "dyck_marked_coordinates", "dyck_is_marked")
    assert [(m.__name__, name) for m in modules for name in oracles if hasattr(m, name)] == []


def test_marked_planes_keep_no_per_vertex_rows(fresh_marks):
    # 14 * 2^14 bytes is the n = 14 buffer of 14 ASCII digits per vertex
    # alone; the masks' array holds 2 bytes per vertex
    tracemalloc.start()
    try:
        acceptance._marked_planes(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 << 14, peak


def test_majority_mismatch_is_named_at_the_first_odd_n_then_vertex(monkeypatch):
    real = acceptance._majority_lanes

    def faulty(xs, full):  # wrong at x=01001 and x=00110 (n=5), and x=0000000 (n=7)
        lanes = real(xs, full)
        flips = {5: 1 << 9 | 1 << 6, 7: 1 << 0}.get(len(xs), 0)
        return lanes ^ flips

    monkeypatch.setattr(acceptance, "_majority_lanes", faulty)
    result = acceptance.run_criterion(10)
    assert not result.passed and result.detail == "mismatch at x=00110"


def test_criterion_10_evaluates_no_vertex_on_its_own(monkeypatch):
    # the per-vertex forms of the reduction are tied to its planes in
    # tests/test_analysis.py; the criterion itself must not run them
    def per_vertex(*args):
        raise AssertionError("criterion 10 evaluated one vertex")

    for module, name in ((analysis, "first_output_bit_of_reduction"),
                         (analysis, "majority_reduction"), (analysis, "majority"),
                         (analysis, "_psi_value"), (bijections, "_psi_value")):
        monkeypatch.setattr(module, name, per_vertex)
    kind = acceptance.PSI
    rule = bijections._MAPS[kind]._replace(forward=per_vertex)
    monkeypatch.setitem(bijections._MAPS, kind, rule)
    result = acceptance.run_criterion(10)
    assert result.passed, result.detail


def _returns(**fields):
    """A stand-in for a library call: whatever it is given, a record of ``fields``."""
    return lambda *args, **kwargs: SimpleNamespace(**fields)


def _raises(exc):
    def call(*args, **kwargs):
        raise exc

    return call


def _rerun_differs():
    """A stand-in for ``cli.run`` whose output changes from one run to the next."""
    runs = iter(range(10))
    return lambda argv, stdout: stdout.write(f"run {next(runs)}\n") and 0


_REAL = SimpleNamespace(
    chain_count_enumerated=analysis.chain_count_enumerated,
    flip_probability_exact=analysis.flip_probability_exact,
)

# (criterion, {(module, name): stand-in}, detail): each stand-in breaks the
# fact its criterion reads from that call, and the criterion names the break
_BROKEN = [
    pytest.param(1, {(metrics, "forward_stretch_exhaustive"): _returns(max_stretch=5)},
                 "forward max 5 at n=2", id="c01-forward"),
    pytest.param(1, {(metrics, "inverse_stretch_exhaustive"): _returns(max_stretch=6)},
                 "inverse max 6 at n=2", id="c01-inverse"),
    pytest.param(2, {(acceptance, "mark"): lambda x: MarkedString(x, 0)},
                 "marking of 01100110 got ()", id="c02-marking"),
    pytest.param(2, {(acceptance, "chain_code"): lambda x: ChainCode("________")},
                 "chain code of 01100110 got ________", id="c02-code"),
    pytest.param(2, {(acceptance, "chain_members"): lambda code: []},
                 "chain members got []", id="c02-members"),
    pytest.param(2, {(acceptance, "position"): _returns(k=3, j=4, ell=0)},
                 "position got (3, 4, 0)", id="c02-position"),
    pytest.param(2, {(metrics, "image_table"): lambda kind, n: [0] * (1 << n)},
                 "image of 1111 got 00000, want 11111", id="c02-image"),
    pytest.param(3, {(metrics, "forward_stretch_exhaustive"): _returns(max_stretch=4)},
                 "forward max 4 != 3 at n=4", id="c03-forward"),
    pytest.param(3, {(metrics, "forward_stretch_exhaustive"): _returns(max_stretch=3),
                     (metrics, "inverse_stretch_exhaustive"): _returns(avg_stretch=Fraction(2))},
                 "inverse avg 2 != pinned 16/9 at n=8", id="c03-inverse-pin"),
    pytest.param(3, {(metrics, "forward_stretch_exhaustive"): _returns(max_stretch=3),
                     (acceptance, "PHI_INVERSE_AVG"): {8: Fraction(2), 12: Fraction(3),
                                                       16: Fraction(2)},
                     (metrics, "inverse_stretch_exhaustive"): lambda kind, n: SimpleNamespace(
                         avg_stretch=acceptance.PHI_INVERSE_AVG[n])},
                 "|avg - 2| not non-increasing: "
                 "[Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)]", id="c03-drift"),
    pytest.param(4, {(metrics, "forward_stretch_exhaustive"): _returns(max_stretch=3)},
                 "max 3 != n at n=4", id="c04-max"),
    pytest.param(4, {(metrics, "forward_stretch_exhaustive"): lambda kind, n: SimpleNamespace(
                         max_stretch=n, avg_stretch=Fraction(1))},
                 "avg/sqrt(n) outside window at n=4: avg=1", id="c04-window"),
    pytest.param(5, {(metrics, "pairwise_ratio_audit"): _returns(pairs=1)},
                 "pair count 1", id="c05-pairs"),
    pytest.param(5, {(metrics, "pairwise_ratio_audit"): _returns(
                         pairs=32640, min_ratio=Fraction(1, 6), max_ratio=Fraction(4))},
                 "ratios [1/6, 4] escape [1/5, 4]", id="c05-ratios"),
    pytest.param(5, {(metrics, "pairwise_ratio_audit"): _raises(ZeroDivisionError("no pair"))},
                 "ZeroDivisionError: no pair", id="c05-crash"),
    pytest.param(6, {(metrics, "transitivity_ratio_audit"): _returns(swaps_ok=False)},
                 "trial 0: swap property failed", id="c06-swap"),
    pytest.param(6, {(metrics, "transitivity_ratio_audit"): _returns(
                         swaps_ok=True, min_ratio=Fraction(1, 21), max_ratio=Fraction(20))},
                 "trial 0: ratios [1/21, 20] escape [1/20, 20]", id="c06-ratios"),
    pytest.param(7, {(analysis, "chain_count_formula"): lambda n, t: -1},
                 "length 1 count mismatch at n=1", id="c07-formula"),
    pytest.param(7, {(analysis, "chain_count_enumerated"): lambda n: ChainCountTable(
                         n, {**_REAL.chain_count_enumerated(n).entries, n + 2: 1})},
                 "sum of t*M_t != 2^n at n=1", id="c07-total"),
    pytest.param(7, {(analysis, "unmarked_profile_count"): lambda n, a, b: -1},
                 "profile (0,1) mismatch at n=1", id="c07-profile"),
    pytest.param(7, {(analysis, "unmarked_profile_histogram"): lambda n: {(0, 0): 1}},
                 "parity-violating profile (0,0) seen at n=1", id="c07-parity"),
    pytest.param(7, {(analysis, "unmarked_zeros_count"): lambda n, a: -1},
                 "unmarked-zeros count mismatch at n=1, a=0", id="c07-zeros"),
    pytest.param(7, {(analysis, "chain_count_enumerated"): lambda n: ChainCountTable(
                         n, {**_REAL.chain_count_enumerated(n).entries, 0: 1})},
                 "n=4 chain table is not {1:2, 3:3, 5:1}", id="c07-n4"),
    pytest.param(8, {(analysis, "flip_probability_exact"): lambda n, i: Fraction(1)},
                 "exact 1 != counted 1/4 at n=2, i=1", id="c08-exact"),
    pytest.param(8, {(analysis, "flip_probability_exact"): lambda n, i: Fraction(3, 4)
                     if n == 16 else _REAL.flip_probability_exact(n, i)},
                 "probability 3/4 above 1/2 at n=16", id="c08-half"),
    pytest.param(8, {(analysis, "flip_probability_exact"): lambda n, i: Fraction(1, 2)
                     if n == 16 else _REAL.flip_probability_exact(n, i)},
                 "max probability * sqrt(16) = 2.000000 above pinned bound", id="c08-scaling"),
    pytest.param(9, {(analysis, "influence_profile"): lambda kind, n: [Fraction(0)],
                     (metrics, "forward_stretch_exhaustive"): _returns(avg_stretch=Fraction(1))},
                 "sum of influences 0 != n * avg 2 at n=2", id="c09-identity"),
    pytest.param(13, {(cli, "run"): lambda argv, stdout: 1},
                 "sample verify exited 1", id="c13-exit"),
    pytest.param(13, {(cli, "run"): _rerun_differs()},
                 "repeated sample runs differ", id="c13-rerun"),
]


@pytest.mark.parametrize("number,patches,detail", _BROKEN)
def test_broken_fact_fails_its_criterion_with_its_detail(monkeypatch, number, patches, detail):
    for (module, name), stand_in in patches.items():
        monkeypatch.setattr(module, name, stand_in)
    result = acceptance.run_criterion(number)
    assert (result.number, result.passed, result.detail) == (number, False, detail)


def test_an_unknown_criterion_is_refused():
    with pytest.raises(ValueError) as info:
        acceptance.run_criterion(99)
    assert type(info.value) is ValueError and str(info.value) == "no criterion 99"


def test_criterion_6_draws_again_when_a_swap_meets_itself(monkeypatch):
    draws = []

    class Repeating(random.Random):
        """Seeded as asked, but gives its first draw twice."""

        def getrandbits(self, k):
            draws.append(draws[0] if len(draws) == 1 else super().getrandbits(k))
            return draws[-1]

    monkeypatch.setattr(acceptance, "random", SimpleNamespace(Random=Repeating))
    result = acceptance.run_criterion(6)
    assert result.passed, result.detail
    # seed 20 itself never repeats a point: two draws per swap, and the one forced
    assert draws[0] == draws[1] and len(draws) == 2 * 20 + 1
