"""Value semantics of the package's records: immutable, equal and hashing by
their fields, and the three with checks refuse bad fields however called."""

import pytest

from eaqmds import errata
from eaqmds.cli import CodeRecord
from eaqmds.cosets import CycContext
from eaqmds.eaqecc import EaqeccParams
from eaqmds.exceptions import UsageError
from eaqmds.families import FamilySpec, classify, verify_family_code
from eaqmds.primes import PrimePower


def _code():
    return verify_family_code(classify(23), 2)


# name -> (a fresh instance, its fields, whether it hashes); each factory
# builds a new object with the same field values on every call
RECORDS = {
    "CycContext": (lambda: CycContext(106, 23), ("n", "q"), True),
    "PrimePower": (lambda: PrimePower(3, 3, 27), ("p", "e", "q"), True),
    "FamilySpec": (lambda: classify(23), ("family_id", "q", "n", "m_max"), True),
    "EaqeccParams": (lambda: EaqeccParams(106, 33, 48, 21), ("n", "k", "d", "c"), True),
    "CodeRecord": (lambda: CodeRecord.from_family_code(_code()), CodeRecord._fields, True),
    # a DefiningSet or a dict among the fields makes these unhashable
    "FamilyCode": (_code, ("spec", "m", "defining_set", "verified", "errata_flags"), False),
    "ErrataEntry": (lambda: errata.errata_report(60)[0], ("entry_id", "title", "lines", "data"), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    make, fields, hashable = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in fields:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        assert getattr(a, field) is value
    assert a == b


def test_records_with_other_fields_differ():
    assert CycContext(106, 23) != CycContext(106, 3)
    assert PrimePower(2, 3, 8) != PrimePower(2, 5, 32)
    assert classify(23) != classify(27)
    assert EaqeccParams(106, 33, 48, 21) != EaqeccParams(106, 33, 48, 22)


PP23 = PrimePower(23, 1, 23)

# constructor, fields, the exception type and message the checks raise
BAD_FIELDS = [
    (CycContext, {"n": 0, "q": 2}, UsageError, "modulus must be positive, got 0"),
    (CycContext, {"n": 10, "q": 1}, UsageError, "q must be at least 2, got 1"),
    (CycContext, {"n": 10, "q": 5}, UsageError, "gcd(n=10, q=5) != 1"),
    (PrimePower, {"p": 4, "e": 1, "q": 4}, ValueError, "4 is not prime"),
    (PrimePower, {"p": 2, "e": 0, "q": 1}, ValueError, "exponent must be positive, got 0"),
    (PrimePower, {"p": 2, "e": 3, "q": 9}, ValueError, "9 != 2^3"),
    (
        FamilySpec,
        {"family_id": "q10k9", "q": PP23, "n": 106, "m_max": 2},
        ValueError,
        "unknown family 'q10k9'; expected one of ('q10k3', 'q10k7', 'e1mod4', 'e3mod4')",
    ),
    (
        FamilySpec,
        {"family_id": "q10k3", "q": PP23, "n": 105, "m_max": 2},
        ValueError,
        "n=105 is not (q^2+1)/5 for q=23",
    ),
    (
        FamilySpec,
        {"family_id": "q10k3", "q": PrimePower(5, 1, 5), "n": 5, "m_max": 0},
        ValueError,
        "n=5 is not (q^2+1)/5 for q=5",
    ),
]


# a good record of each checked class, for _replace to put bad fields into
GOOD = {CycContext: CycContext(106, 23), PrimePower: PP23, FamilySpec: classify(23)}

# every way to build a record from its fields: the constructor by position
# and by keyword, _make, and _replace on a good record
BUILDS = {
    "positional": lambda cls, fields: cls(*fields.values()),
    "keyword": lambda cls, fields: cls(**fields),
    "_make": lambda cls, fields: cls._make(fields.values()),
    "_replace": lambda cls, fields: GOOD[cls]._replace(**fields),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("cls, fields, exc_type, message", BAD_FIELDS)
def test_checked_records_refuse_bad_fields(cls, fields, exc_type, message, build):
    with pytest.raises(ValueError) as exc:
        BUILDS[build](cls, fields)
    assert (type(exc.value), str(exc.value)) == (exc_type, message)


def test_checked_records_accept_good_fields_by_keyword():
    assert CycContext(q=23, n=106) == CycContext(106, 23)
    assert PrimePower(q=27, e=3, p=3) == PrimePower.from_int(27)
    assert FamilySpec(m_max=2, n=106, q=PP23, family_id="q10k3") == classify(23)


def test_checked_records_replace_one_field_and_make_from_fields():
    assert CycContext(106, 23)._replace(q=3) == CycContext(106, 3)
    assert PrimePower._make([3, 3, 27]) == PrimePower.from_int(27)
    assert classify(23)._replace(m_max=1).m_max == 1
    assert type(CycContext._make((106, 23))) is CycContext
