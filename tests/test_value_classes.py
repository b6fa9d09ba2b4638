"""Value semantics of the record classes: repr, equality, hashing, immutability, copies."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from blowup_genera.blowup_factor import YkHolReport, yk_hol
from blowup_genera.coefficients import Specialization, sample_specialization
from blowup_genera.genera import SeriesRequest
from blowup_genera.partitions import (
    BlowupFixedPoint,
    LatticeVector,
    Partition,
    PartitionTuple,
    enumerate_blowup_fixed_points,
)
from blowup_genera.qseries import QSeries
from blowup_genera.verify import CONVENTIONS, VerificationReport

SPEC_REPR = (
    "Specialization(t1=Fraction(14, 45), t2=Fraction(73, 7), "
    "e=(Fraction(13, 2), Fraction(5, 11)), seed=5)"
)

# (make, an unequal instance, its repr, a field) per frozen class; make() builds
# a new instance equal to the last on every call
FROZEN = {
    "Specialization": (
        lambda: sample_specialization(2, 5),
        # the same values drawn from another seed
        lambda: Specialization(F(14, 45), F(73, 7), (F(13, 2), F(5, 11)), 6),
        SPEC_REPR,
        "t1",
    ),
    "SeriesRequest": (
        lambda: SeriesRequest(2, 3, sample_specialization(2, 5), k=1),
        lambda: SeriesRequest(2, 3, sample_specialization(2, 5)),
        f"SeriesRequest(rank=2, max_n=3, spec={SPEC_REPR}, k=1, mode='equivariant')",
        "max_n",
    ),
    "PartitionTuple": (
        lambda: PartitionTuple((Partition((2, 1)), Partition(()))),
        lambda: PartitionTuple((Partition(()), Partition((2, 1)))),
        "PartitionTuple([2, 1], [])",
        "entries",
    ),
    "LatticeVector": (
        lambda: LatticeVector((1, 0)),
        lambda: LatticeVector((0, 1)),
        "LatticeVector([1, 0])",
        "entries",
    ),
    "BlowupFixedPoint": (
        lambda: BlowupFixedPoint(
            PartitionTuple((Partition(()), Partition(()))),
            PartitionTuple((Partition(()), Partition((1,)))),
            LatticeVector((1, 0)),
        ),
        lambda: enumerate_blowup_fixed_points(2, 1, 1)[0],
        "BlowupFixedPoint(PartitionTuple([], []), PartitionTuple([], [1]), LatticeVector([1, 0]))",
        "kvec",
    ),
    "YkHolReport": (
        lambda: yk_hol(2, 1, 3),
        lambda: YkHolReport(2, 1, 1, QSeries.monomial(F(1), 1, 4)),
        "YkHolReport(r=2, k=1, stated=0, main_at_y0=QSeries(O(q^4); q^1: 1))",
        "stated",
    ),
}


@pytest.mark.parametrize("make, other, text, field", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_record_is_a_value(make, other, text, field):
    a, b = make(), make()
    assert a is not b and repr(a) == repr(b) == text
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other() and a != text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other(), field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert repr(a) == text and a == b


# the field names of each frozen class, in declaration order
FIELDS = {
    "Specialization": ("t1", "t2", "e", "seed"),
    "SeriesRequest": ("rank", "max_n", "spec", "k", "mode"),
    "PartitionTuple": ("entries",),
    "LatticeVector": ("entries",),
    "BlowupFixedPoint": ("y_tuple", "z_tuple", "kvec"),
    "YkHolReport": ("r", "k", "stated", "main_at_y0"),
}


@pytest.mark.parametrize(
    "make, names", [(FROZEN[c][0], FIELDS[c]) for c in FROZEN], ids=FROZEN.keys()
)
def test_frozen_record_hashes_as_its_field_tuple(make, names):
    a = make()
    assert hash(a) == hash(tuple(getattr(a, name) for name in names))


def test_records_of_two_classes_never_compare_equal():
    p = Partition((1,))
    pt, lv = PartitionTuple((p,)), LatticeVector((p,))
    assert pt.entries == lv.entries and hash(pt) == hash(lv)
    assert pt != lv and lv != pt and not pt == lv
    assert pt.__eq__(lv) is NotImplemented and lv.__eq__(pt) is NotImplemented
    assert len({pt, lv}) == 2


def test_frozen_record_keeps_its_keywords_and_validation():
    spec = Specialization(t1=F(2), t2=F(-3, 4), e=(F(5),), seed=11)
    assert repr(spec) == (
        "Specialization(t1=Fraction(2, 1), t2=Fraction(-3, 4), e=(Fraction(5, 1),), seed=11)"
    )
    assert SeriesRequest(rank=1, max_n=0, spec=spec, k=0, mode="limit").mode == "limit"
    cases = [
        (lambda: Specialization(F(1), F(2), (F(3),), 0), "value 1 is forbidden"),
        (lambda: Specialization(F(2), F(2), (F(3),), 0), "pairwise distinct"),
        (lambda: SeriesRequest(0, 1, spec), "rank must be positive"),
        (lambda: SeriesRequest(1, -1, spec), "max_n must be nonnegative"),
        (lambda: SeriesRequest(1, 1, spec, mode="x"), "unknown mode 'x'"),
        (lambda: SeriesRequest(2, 1, spec), "specialization rank does not match"),
        (lambda: BlowupFixedPoint(PartitionTuple(()), PartitionTuple(()), LatticeVector((0,))),
         "tuple and vector ranks disagree"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_verification_report_is_an_immutable_value():
    a = VerificationReport("demo", {"r": 1}, True)
    b = VerificationReport(name="demo", params={"r": 1}, outcome=True)
    assert repr(a) == (
        f"VerificationReport(name='demo', params={{'r': 1}}, outcome=True, details=[], "
        f"conventions={CONVENTIONS!r}, timing_seconds=0.0)"
    )
    assert a == b and a != VerificationReport("demo", {"r": 1}, False)
    with pytest.raises(TypeError):
        hash(a)
    assert a.details is not b.details and a.conventions is not b.conventions
    assert a.conventions is not CONVENTIONS
    for name in VerificationReport._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, 1.5)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    a.details.append("x")
    a.conventions["extra"] = 1
    assert b.details == [] and b.conventions == CONVENTIONS and "extra" not in CONVENTIONS
    assert a != b
    full = VerificationReport("x", {}, False, ["d"], {"c": 2}, 1.5)
    assert repr(full) == (
        "VerificationReport(name='x', params={}, outcome=False, details=['d'], "
        "conventions={'c': 2}, timing_seconds=1.5)"
    )


COPIES = {"pickle": lambda a: pickle.loads(pickle.dumps(a)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}
RECORDS = {name: make for name, (make, *_rest) in FROZEN.items()}
RECORDS["VerificationReport"] = lambda: VerificationReport(
    "x", {"seeds": [5]}, False, ["d"], {"c": 2}, 1.5
)


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_survives_pickle_and_copy(make, duplicate):
    a = make()
    b = duplicate(a)
    assert b.__class__ is a.__class__ and b == a and repr(b) == repr(a)


def test_copied_specialization_starts_with_empty_memos():
    spec = sample_specialization(2, 5)
    spec.weight_memo["w"] = (2, 3)
    spec.pair_memo["equivariant"] = {}
    for duplicate in COPIES.values():
        twin = duplicate(spec)
        assert twin == spec and twin.weight_memo == {} and twin.pair_memo == {}
