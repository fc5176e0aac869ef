"""The contract of the package's frozen records: constructor forms, repr,
equality, hash, immutability, copy and pickle, and their own checks."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubeball.acceptance import CriterionResult
from cubeball.analysis import BitAgreementStat, ChainCountTable
from cubeball.bijections import BallVector, BijectionKind
from cubeball.bits import BitVector, EdgeId
from cubeball.chains import ChainCode, ChainPosition, MarkedString
from cubeball.errors import LengthMismatchError
from cubeball.metrics import Direction, RatioAudit, StretchReport, SweepMode, TransitivityAudit

ROOT = Path(__file__).resolve().parent.parent
V = BitVector(4, 3)
V_REPR = "BitVector(n=4, value=3)"
PSI = BijectionKind.PSI

# (record class, fields by keyword in declaration order, exact repr)
RECORDS = [
    (BitVector, dict(n=4, value=3), V_REPR),
    (EdgeId, dict(vertex=V, coordinate=2), f"EdgeId(vertex={V_REPR}, coordinate=2)"),
    (MarkedString, dict(vertex=V, mask=15), f"MarkedString(vertex={V_REPR}, mask=15)"),
    (ChainCode, dict(symbols="__10"), "ChainCode(symbols='__10')"),
    (ChainPosition, dict(code=ChainCode("__10"), k=1, j=2, ell=1),
     "ChainPosition(code=ChainCode(symbols='__10'), k=1, j=2, ell=1)"),
    (BallVector, dict(vector=BitVector(5, 28)), "BallVector(vector=BitVector(n=5, value=28))"),
    (StretchReport,
     dict(kind=PSI, direction=Direction.FORWARD, n=4, mode=SweepMode.EXHAUSTIVE, max_stretch=4,
          max_witness=EdgeId(V, 2), avg_stretch=Fraction(13, 8), edges_considered=64,
          averaging="edges"),
     "StretchReport(kind=<BijectionKind.PSI: 'psi'>, direction=<Direction.FORWARD: 'fwd'>, n=4,"
     " mode=<SweepMode.EXHAUSTIVE: 'exhaustive'>, max_stretch=4,"
     f" max_witness=EdgeId(vertex={V_REPR}, coordinate=2), avg_stretch=Fraction(13, 8),"
     " edges_considered=64, averaging='edges', samples=None, seed=None, sample_variance=None)"),
    (RatioAudit,
     dict(kind=PSI, n=2, pairs=6, min_ratio=Fraction(1, 2), max_ratio=Fraction(2),
          min_witness=(BitVector(2, 0), BitVector(2, 3)),
          max_witness=(BitVector(2, 0), BitVector(2, 2))),
     "RatioAudit(kind=<BijectionKind.PSI: 'psi'>, n=2, pairs=6, min_ratio=Fraction(1, 2),"
     " max_ratio=Fraction(2, 1), min_witness=(BitVector(n=2, value=0), BitVector(n=2, value=3)),"
     " max_witness=(BitVector(n=2, value=0), BitVector(n=2, value=2)))"),
    (TransitivityAudit,
     dict(n=2, pairs=6, swaps_ok=True, min_ratio=Fraction(1, 2), max_ratio=Fraction(2)),
     "TransitivityAudit(n=2, pairs=6, swaps_ok=True, min_ratio=Fraction(1, 2),"
     " max_ratio=Fraction(2, 1))"),
    (ChainCountTable, dict(n=2, entries={1: 1, 3: 1}),
     "ChainCountTable(n=2, entries={1: 1, 3: 1})"),
    (BitAgreementStat, dict(n=4, i=1, disagree_count=6, probability=Fraction(3, 16)),
     "BitAgreementStat(n=4, i=1, disagree_count=6, probability=Fraction(3, 16))"),
    (CriterionResult, dict(number=2, name="worked", passed=True, detail="ok"),
     "CriterionResult(number=2, name='worked', passed=True, detail='ok')"),
]


@pytest.mark.parametrize("cls,fields,shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, shown):
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert repr(a) == repr(b) == shown
    assert a == b and not a != b
    assert a != values and values != a
    assert a.__eq__(values) is NotImplemented
    if cls is ChainCountTable:  # a dict field: unhashable, as a dataclass would be
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        # the hash of the field values in order, as a dataclass gives it
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in cls.__slots__))
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is fields[name]
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == shown


def test_stretch_report_defaults_to_no_sample_fields():
    fields = next(f for cls, f, _ in RECORDS if cls is StretchReport)
    report = StretchReport(**fields)
    assert (report.samples, report.seed, report.sample_variance) == (None, None, None)
    sampled = StretchReport(*fields.values(), 10, 1, Fraction(1, 3))
    assert (sampled.samples, sampled.seed, sampled.sample_variance) == (10, 1, Fraction(1, 3))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: BitVector(0, 0), ValueError, "length must be >= 1, got 0"),
        (lambda: BitVector(4, 16), ValueError, "value 16 out of range for length 4"),
        (lambda: BitVector(4, -1), ValueError, "value -1 out of range for length 4"),
        (lambda: BitVector(4, 1) ^ BitVector(5, 1), LengthMismatchError, "length 4 vs 5"),
        (lambda: MarkedString(V, 16), ValueError, "mask 16 out of range for length 4"),
        (lambda: MarkedString(V, -1), ValueError, "mask -1 out of range for length 4"),
    ],
    ids=["empty", "value-high", "value-negative", "xor-lengths", "mask-high", "mask-negative"],
)
def test_record_checks_give_exact_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_bit_vector_length_is_n():
    assert len(BitVector(4, 3)) == 4 and len(BitVector(1, 0)) == 1


def test_import_loads_neither_dataclasses_nor_inspect():
    # the difference of the two sets: some interpreters load inspect at start-up
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cubeball.cli, cubeball.acceptance\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    added = set(proc.stdout.split())
    assert "cubeball.acceptance" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})
