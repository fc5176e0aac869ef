"""Runs every acceptance criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure); the same checklist backs the ``cubeball selftest`` command.
"""

import importlib
import pkgutil

import pytest

import cubeball
from cubeball import acceptance, analysis, bijections
from cubeball.chains import MarkedString

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
    rule = bijections._MAPS[kind]._replace(value=per_vertex, forward=per_vertex)
    monkeypatch.setitem(bijections._MAPS, kind, rule)
    result = acceptance.run_criterion(10)
    assert result.passed, result.detail
