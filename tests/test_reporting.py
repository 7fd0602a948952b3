"""The verdict records against plain frozen dataclasses of the same fields.

``Witness``, ``Verdict`` and ``LawReport`` write their instance dicts in their own
``__init__``; everything else is the dataclass's. Each is compared with a twin whose
``__init__`` the dataclass generates."""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any

import pytest

from modernsets import LawReport, Verdict, Witness


@dataclass(frozen=True)
class WitnessTwin:
    inputs: tuple
    lhs: Any
    rhs: Any
    note: str = ""


@dataclass(frozen=True)
class VerdictTwin:
    status: str
    mode: str | None = None
    witness: Any = None
    samples: int | None = None
    seed: int | None = None
    reason: str | None = None
    details: tuple = field(default=())


@dataclass(frozen=True)
class LawReportTwin:
    law: str
    verdict: Any


TWINS = {Witness: WitnessTwin, Verdict: VerdictTwin, LawReport: LawReportTwin}


def witness(twin=False):
    return (WitnessTwin if twin else Witness)(("m", "I"), "I", "m", note="x vee y = y vee x")


def fails(twin=False):
    return (VerdictTwin if twin else Verdict)("fails", witness=witness(twin))


# Each record built twice: by the record's class and by its twin, from the same arguments.
BUILDS = {
    "witness": witness,
    "witness-without-note": lambda twin=False: (WitnessTwin if twin else Witness)((), 0, 1),
    "fails": fails,
    "holds-exhaustive": lambda twin=False: (VerdictTwin if twin else Verdict)("holds", "exhaustive"),
    "holds-sampled": lambda twin=False: (VerdictTwin if twin else Verdict)("holds", "sampled", None, 1009, 3),
    "details": lambda twin=False: (VerdictTwin if twin else Verdict)(
        "holds", "exhaustive", details=(("universe-size", 2),)
    ),
    "not-applicable": lambda twin=False: (VerdictTwin if twin else Verdict)("not-applicable", reason="none"),
    "report": lambda twin=False: (LawReportTwin if twin else LawReport)("absorption", fails(twin)),
}


@pytest.mark.parametrize("name", BUILDS)
def test_a_record_acts_as_its_twin(name):
    record, twin = BUILDS[name](), BUILDS[name](twin=True)
    names = [f.name for f in dataclasses.fields(record)]
    assert names == [f.name for f in dataclasses.fields(twin)]
    assert [(f.default, f.compare, f.hash, f.repr) for f in dataclasses.fields(record)] == [
        (f.default, f.compare, f.hash, f.repr) for f in dataclasses.fields(twin)
    ]
    assert dataclasses.astuple(record) == dataclasses.astuple(twin)
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)
    assert repr(record) == repr(twin).replace("Twin", "")
    assert hash(record) == hash(twin)
    # equal fields give an equal record and hash; the twin is another class
    again = BUILDS[name]()
    assert again == record and hash(again) == hash(record)
    assert record != twin
    # replace gives what the twin's replace gives, field by field
    for f in dataclasses.fields(record):
        changed = dataclasses.replace(record, **{f.name: "changed"})
        assert type(changed) is type(record)
        assert dataclasses.astuple(changed) == dataclasses.astuple(dataclasses.replace(twin, **{f.name: "changed"}))
        assert changed != record


@pytest.mark.parametrize("name", BUILDS)
def test_a_record_stays_frozen(name):
    record = BUILDS[name]()
    for f in dataclasses.fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, "changed")
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert record == BUILDS[name]()


@pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)
def test_each_init_takes_the_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    empty = inspect.Parameter.empty
    assert [p.default for p in params] == [empty if f.default is dataclasses.MISSING else f.default for f in fields]
    twin = inspect.signature(TWINS[cls]).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [(p.name, p.kind, p.default) for p in twin]
    # every field given by keyword, in reverse order, lands in its own place
    values = {f.name: f"value of {f.name}" for f in fields}
    built = cls(**dict(reversed(values.items())))
    assert dataclasses.asdict(built) == values
    assert cls(*values.values()) == built


def test_only_a_bare_exhaustive_pass_is_shared():
    assert Verdict.holds_exhaustive() is Verdict.holds_exhaustive()
    assert dataclasses.astuple(Verdict.holds_exhaustive()) == dataclasses.astuple(VerdictTwin("holds", "exhaustive"))
    details = (("universe-size", 3),)
    given = Verdict.holds_exhaustive(details=details)
    assert given is not Verdict.holds_exhaustive() and given.details == details
    assert Verdict.holds_exhaustive(details=()) is not Verdict.holds_exhaustive()
    assert Verdict.holds_exhaustive().details == ()
    # a shared pass is replaced, never changed
    replaced = dataclasses.replace(Verdict.holds_exhaustive(), details=details)
    assert replaced == given and Verdict.holds_exhaustive().details == ()
