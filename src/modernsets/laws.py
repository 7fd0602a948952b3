"""Law checking for algebras and for families of sets over them.

A law is a named conjunction of equations in the operations wedge, vee and
(optionally) complement. Weak Boolean algebras promise none of them, which
is the point: each law is checked by evaluation and answered with a
tri-state verdict. Finite carriers are scanned exhaustively in declaration
order, so the first witness is stable; infinite carriers are probed on
every tuple of boundary elements first (the places laws break) and then on
seeded random samples, with the count and seed recorded in the verdict.

Families of sets are checked the same way, exhaustively when each infinite
point declares a deciding sub-carrier (:class:`~modernsets.algebra.Deciding`).
:func:`lift_check` runs both levels side by side: a law holds for all sets
over a family exactly when it holds in every per-point algebra, and a
per-point counterexample lifts to a set-level one by placing the failing
values at that point and O everywhere else. The report records whether the
two levels agreed.

Finite lattices are certified by the same registry and scanner: a lattice
names its meet and join ``wedge`` and ``vee``, so it is its own ops object,
and each certificate row is a registry law scanned over its elements. The
eight defining identities are registry equations too, each evaluated once
by :func:`check_wba_axioms` so that every violation is reported. Every
verdict, certificate row, ring condition (crisp restriction among them)
and noncommuting-pair search comes from one scanner, :func:`_verdict`,
over the tuples each check chooses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial
from itertools import chain, combinations, islice, product
from math import inf, prod
from operator import itemgetter, ne
from typing import Any, Callable, NamedTuple

from .algebra import AlgebraHandle, Element, _bound_codes, _carrier
from .errors import PreconditionError, StructuralError, UnknownLawError, require_count
from .expressions import _compile, _identifiers, _label, parse_expression
from .lattice import FiniteLattice, _PointTables
from .reporting import LawReport, Verdict, Witness, render_element
from .sets import (
    AlgebraFamily,
    ModernSet,
    Point,
    complement as set_complement,
    embed_crisp,
    empty_set,
    full_set,
    intersection,
    modern_set,
    union,
)

Equation = tuple[str, Callable]


@dataclass(frozen=True)
class Law:
    """Equations checked together under one name.

    ``equations`` entries are (label, fn) where fn(ops, *args) returns the
    two sides to compare; ``ops`` exposes wedge/vee/complement/zero/one.
    Registry laws are written once, as equation text in the expression
    language (:func:`_law`), and the labels, arity, ``needs_complement``
    and closures are all derived from that text.
    """

    name: str
    arity: int
    needs_complement: bool
    equations: tuple[Equation, ...]


_CONSTANTS = {"O": "o.zero", "I": "o.one"}


def _law(name: str, *equations: str) -> Law:
    """A law written as equation text in the expression language.

    Each side is parsed by :func:`parse_expression`, with ``O`` and ``I``
    the constants. The law's variables, in name order, are the arguments
    of every equation. Each closure is one lambda generated from the trees
    and compiled once, so a scan costs what a hand-written lambda does;
    only fixed strings and the parameter names ``a0, a1, ...`` reach its
    source.
    """
    trees = [tuple(map(parse_expression, text.split("="))) for text in equations]
    identifiers = set().union(*(_identifiers(side) for pair in trees for side in pair))
    variables = sorted(identifiers - _CONSTANTS.keys())
    params = [f"a{i}" for i in range(len(variables))]
    names = {**_CONSTANTS, **dict(zip(variables, params))}
    labels = [f"{_label(lhs)} = {_label(rhs)}" for lhs, rhs in trees]
    # An identifier is never followed by "(", so only a complement writes one.
    needs_complement = any("complement(" in label for label in labels)
    equations = tuple((label, _compile(pair, names, params)) for label, pair in zip(labels, trees))
    return Law(name, len(variables), needs_complement, equations)


LAWS: tuple[Law, ...] = (
    _law("commutative-wedge", r"x /\ y = y /\ x"),
    _law("commutative-vee", r"x \/ y = y \/ x"),
    _law("associative-wedge", r"x /\ (y /\ z) = (x /\ y) /\ z"),
    _law("associative-vee", r"x \/ (y \/ z) = (x \/ y) \/ z"),
    _law("absorption", r"x /\ (x \/ y) = x", r"x \/ (x /\ y) = x"),
    _law(
        "distributive",
        r"x \/ (y /\ z) = (x \/ y) /\ (x \/ z)",
        r"x /\ (y \/ z) = (x /\ y) \/ (x /\ z)",
    ),
    _law("idempotent-wedge", r"x /\ x = x"),
    _law("idempotent-vee", r"x \/ x = x"),
    _law("excluded-middle", r"x \/ ~x = I"),
    _law("non-contradiction", r"x /\ ~x = O"),
    _law(
        "de-morgan",
        r"~(x \/ y) = ~x /\ ~y",
        r"~(x /\ y) = ~x \/ ~y",
    ),
)

LAW_NAMES: tuple[str, ...] = tuple(law.name for law in LAWS)
_BY_NAME = {law.name: law for law in LAWS}


def get_law(name: str) -> Law:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(LAW_NAMES)
        raise UnknownLawError(f"unknown law {name!r}; known laws: {known}") from None


def _resolve(law: "Law | str") -> Law:
    return get_law(law) if isinstance(law, str) else law


def _verdict(ops, law: Law, tuples, seed: int | None = None) -> Verdict:
    """The first failing tuple, or a pass over all of ``tuples``.

    At each tuple the law's equations are tried in order, and the first
    one whose sides differ is the witness. Every scan runs here, or
    re-checks its first failing tuple here: a column scan
    (:func:`_column_verdict`) evaluates the equations of its failing slab
    once more to find that tuple, and a sampled scan a slab at a time
    (:func:`_slab_verdict`) finds it on codes. With no seed a pass is
    exhaustive; with a seed it is sampled, and the verdict records how
    many tuples were tried.
    """
    equations = law.equations
    checked = 0
    for checked, args in enumerate(tuples, 1):
        for label, fn in equations:
            lhs, rhs = fn(ops, *args)
            if lhs != rhs:
                return Verdict.fails(Witness(inputs=args, lhs=lhs, rhs=rhs, note=label))
    if seed is None:
        return Verdict.holds_exhaustive()
    return Verdict.holds_sampled(samples=checked, seed=seed)


def _scan(ops, law: Law, tuples) -> Witness | None:
    return _verdict(ops, law, tuples).witness


# ---------------------------------------------------------------------------
# Sampled scans, a slab of tuples at a time

# Tuples per slab of a sampled scan. A slab is drawn, and scanned on codes, at once, so
# one that fails early has drawn and evaluated the rest of it for nothing.
_DRAW_SLAB = 64

# Every law of a battery at one seed reads the same seeded values: tuple i of arity a
# is values a*i ... a*i + a - 1 of one stream. The _STREAMS streams read last keep their
# first _STREAM_VALUES values, enough for check_law's 1,000 default samples at arity 3.
# A scan that reads more draws a stream of its own and keeps only the slab it reads, as
# the sample count is uncapped. On the families benchmark (2-vCPU VM, Python 3.11), a
# memo of 4 streams raised peak_rss_mb by 0.54 MB (median of 12 runs), one of 32 by
# 2.6-2.9 MB (+10-11%, two runs), past the benchmark's 10% bound.
_STREAMS = 4
_STREAM_VALUES = 3000


class _Stream:
    """The values ``draw(rng)`` takes from ``random.Random(seed)``, drawn as far as scans read.

    A kept stream holds every value it has drawn, any other the values read last. A draw
    that raises ends the stream, and ``error`` holds what it raised.
    """

    __slots__ = ("draw", "rng", "keep", "values", "start", "error")

    def __init__(self, draw: Callable, seed: int, keep: bool):
        self.draw, self.rng, self.keep = draw, random.Random(seed), keep
        self.values, self.start, self.error = [], 0, None

    def read(self, lo: int, hi: int) -> list:
        """Values ``lo`` to ``hi - 1``, read in order; fewer when a draw raised."""
        if not self.keep:
            del self.values[:lo - self.start]
            self.start = lo
        values, draw, rng = self.values, self.draw, self.rng
        if self.error is None:
            try:
                for _ in range(hi - self.start - len(values)):
                    values.append(draw(rng))
            except BaseException as error:  # the generator stopped inside a draw
                self.error = error
                if not isinstance(error, Exception):
                    raise
        return values[lo - self.start:hi - self.start]


_streams: dict[tuple, _Stream] = {}


def _stream(key, draw: Callable, seed: int, count: int) -> _Stream:
    """The kept stream of ``(key, seed)`` when ``count`` values fit it, else a new unkept one.

    Only an int seed is kept: ``None`` seeds afresh each time, and a float can equal an
    int that seeds another stream. A stream that ended in an error is drawn again.
    """
    if count > _STREAM_VALUES or type(seed) is not int:
        return _Stream(draw, seed, False)
    stream = _streams.pop((key, seed), None)
    if stream is None or stream.error is not None:
        stream = _Stream(draw, seed, True)
    _streams[key, seed] = stream  # the newest last, so the first is the one read longest ago
    if len(_streams) > _STREAMS:
        del _streams[next(iter(_streams))]
    return stream


def _draws(draw: Callable, arity: int, samples: int, seed: int, key=None):
    """``samples`` seeded tuples of ``draw(rng)`` values, as slabs of at most ``_DRAW_SLAB``.

    Tuple i is values ``arity * i`` to ``arity * i + arity - 1`` of the stream of
    ``(key, seed)`` (:func:`_stream`; ``key`` defaults to ``draw``), and a slab is its
    argument columns. A draw that raises ends its slab, and the next one raises its error,
    so a scan meets it only after the tuples drawn before it.
    """
    stream = _stream(draw if key is None else key, draw, seed, arity * samples)
    end = arity * samples
    for lo in range(0, end, arity * _DRAW_SLAB):
        hi = min(lo + arity * _DRAW_SLAB, end)
        values = stream.read(lo, hi)
        if whole := len(values) - len(values) % arity:
            yield [values[j:whole:arity] for j in range(arity)]
        if len(values) < hi - lo:
            raise stream.error


def _batched(tuples):
    """``tuples`` as slabs of at most ``_DRAW_SLAB``, each its argument columns. An error
    ``tuples`` raises ends its slab, and the next one raises it, as in :func:`_draws`."""
    tuples = iter(tuples)
    while True:
        slab, error = [], None
        try:
            for args in islice(tuples, _DRAW_SLAB):
                slab.append(args)
        except Exception as raised:
            error = raised
        if slab:
            yield [*map(list, zip(*slab))]
        if error is not None:
            raise error
        if len(slab) < _DRAW_SLAB:
            return


class _CodeColumns:
    """A carrier's codes (:class:`~modernsets.algebra._Codes`) on a slab of tuples at once.

    A slab value is a list of codes, one per tuple, and each operation is one ``map`` of
    the code operation over such lists. ``zero`` and ``one`` are constant columns as long
    as the slab :meth:`failing` scans.
    """

    def __init__(self, codes):
        ops = codes.ops
        self._encode = codes.encode
        self._wedge, self._vee, self._complement = ops.wedge, ops.vee, ops.complement
        self._zero, self._one = [ops.zero], [ops.one]
        self._lanes = 0

    def encoded(self, columns: list) -> list[list] | None:
        """The codes of value ``columns``, or None when some value has none."""
        coded = [[*map(self._encode, column)] for column in columns]
        return None if any(None in column for column in coded) else coded

    def wedge(self, x: list, y: list) -> list:
        return [*map(self._wedge, x, y)]

    def vee(self, x: list, y: list) -> list:
        return [*map(self._vee, x, y)]

    def complement(self, x: list) -> list:
        return [*map(self._complement, x)]

    @property
    def zero(self) -> list:
        return self._zero * self._lanes

    @property
    def one(self) -> list:
        return self._one * self._lanes

    def failing(self, law: Law, columns: list[list]) -> int:
        """The first tuple of the slab ``columns`` where some equation's sides differ,
        else the slab's length."""
        self._lanes = first = len(columns[0])
        for _, fn in law.equations:
            lhs, rhs = fn(self, *columns)
            if lhs != rhs:
                first = min(first, [*map(ne, lhs, rhs)].index(True))
        return first


def _slab_verdict(slabs, failing: Callable[[list], int], recheck: Callable[[tuple], Verdict], seed: int) -> Verdict:
    """The first failing tuple of ``slabs``, or a sampled pass over all of them.

    ``failing(columns)`` gives the index of a slab's first failing tuple, or its length,
    and that tuple's verdict is ``recheck(args)``. A pass records how many were tried.
    """
    checked = 0
    for columns in slabs:
        at = failing(columns)
        if at < len(columns[0]):
            return recheck(tuple(column[at] for column in columns))
        checked += at
    return Verdict.holds_sampled(samples=checked, seed=seed)


def check_law(a: AlgebraHandle, law: "Law | str", samples: int = 1000, seed: int = 0) -> LawReport:
    """One law on one algebra.

    Finite carriers: exhaustive, declaration order (:func:`_carrier_verdict`).
    Infinite carriers: all tuples of boundary elements, then ``samples``
    seeded random tuples. A carrier with bound codes
    (:class:`~modernsets.algebra._Codes`) is scanned on them, a slab at a time
    (:class:`_CodeColumns`), and a failing tuple is decoded and re-checked on
    its values. A law with no variables is decided by one evaluation on any
    carrier.
    """
    require_count("samples", samples)
    law = _resolve(law)
    if law.needs_complement and a.complement is None:
        return LawReport(law.name, Verdict.not_applicable(
            f"algebra {a.name!r} declares no complement"
        ))
    if law.arity == 0:  # a closed law reads no element, so one evaluation decides it
        return LawReport(law.name, _verdict(a, law, [()]))
    if a.elements is not None:
        return LawReport(law.name, _carrier_verdict(a, law))
    boundary, codes = a.boundary, _bound_codes(a)
    if codes and None not in (coded := tuple(map(codes.encode, boundary))):
        slabs = chain(
            _batched(product(coded, repeat=law.arity)), _draws(codes.sample, law.arity, samples, seed)
        )
        return LawReport(law.name, _slab_verdict(
            slabs, partial(_CodeColumns(codes).failing, law),
            lambda args: _rechecked(a, law, tuple(map(codes.decode, args)), f"the codes of {a!r}"),
            seed,
        ))
    draws = () if a.sample is None else _draws(a.sample, law.arity, samples, seed)
    tuples = chain(product(boundary, repeat=law.arity), chain.from_iterable(zip(*slab) for slab in draws))
    return LawReport(law.name, _verdict(a, law, tuples, seed))


def check_all_laws(a: AlgebraHandle, samples: int = 1000, seed: int = 0) -> tuple[LawReport, ...]:
    """Every registered law, in registry order."""
    return tuple(check_law(a, law, samples=samples, seed=seed) for law in LAWS)


# ---------------------------------------------------------------------------
# The defining identities


class IdentityViolation(NamedTuple):
    identity: str
    inputs: tuple
    expected: Element | str
    actual: Element | str


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[IdentityViolation, ...]

    def describe(self) -> str:
        if self.passed:
            return "all weak-Boolean-algebra identities hold"
        lines = [f"{len(self.violations)} identity violation(s):"]
        for v in self.violations:
            lines.append(f"  {v.identity}: expected {v.expected}, got {v.actual}")
        return "\n".join(lines)


_WBA_LAW = _law(
    "weak-boolean-algebra",
    r"O /\ I = O", r"I /\ O = O", r"O /\ O = O", r"I /\ I = I",
    r"O \/ I = I", r"I \/ O = I", r"O \/ O = O", r"I \/ I = I",
)


def check_wba_axioms(a: AlgebraHandle) -> AxiomReport:
    """Evaluate the eight defining identities plus O != I.

    Each identity is one equation of the registry, evaluated once, so every
    violation is reported, not only the first. Its inputs are the O and I
    its left side names. Results falling outside the carrier raise
    StructuralError: that is a malformed algebra, not an identity violation.
    """
    violations: list[IdentityViolation] = []
    if a.zero == a.one:
        violations.append(
            IdentityViolation("O != I", (a.zero, a.one), "distinct O and I", "O = I")
        )
    named = {"O": a.zero, "I": a.one}
    for identity, fn in _WBA_LAW.equations:
        actual, expected = fn(a)
        operation = identity.split(" = ")[0]
        if not a.is_member(actual):
            raise StructuralError(
                f"algebra {a.name!r}: result of {operation} is outside the carrier: {actual!r}"
            )
        if actual != expected:
            inputs = tuple(named[t] for t in operation.split()[::2])
            violations.append(IdentityViolation(identity, inputs, expected, actual))
    return AxiomReport(passed=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Lattice certificates


def _joined(name: str, *parts: str) -> Law:
    """One law whose equations are those of the named registry laws, in order."""
    laws = [get_law(part) for part in parts]
    return Law(name, laws[0].arity, False, tuple(eq for law in laws for eq in law.equations))


_COMMUTATIVE_LAW = _joined("commutative", "commutative-wedge", "commutative-vee")
_ASSOCIATIVE_LAW = _joined("associative", "associative-wedge", "associative-vee")


def _frame(o, pair, y):
    """Frame law on a two-element family: (a vee b) wedge y, and the join of the meets."""
    a, b = pair
    return o.wedge(o.vee(a, b), y), o.vee(o.wedge(a, y), o.wedge(b, y))


# One equation, two routes, each keeping its own witness label.
_CHA_LAW = Law(
    "complete-heyting", 2, False,
    (("(vee family) wedge y = vee of (s wedge y)", _frame),),
)
# The frame law with the family's two elements as separate variables, so
# that it scans like any law of three variables.
_CHA_TRIPLE_LAW = Law(
    "complete-heyting", 3, False,
    ((_CHA_LAW.equations[0][0], lambda o, a, b, y: _frame(o, (a, b), y)),),
)
_SET_FRAME_LAW = Law(
    "set-frame", 2, False,
    (("(vee of collection) wedge B = vee of pairwise wedges", _frame),),
)


def check_distributive(lat: FiniteLattice) -> Verdict:
    """Both standard distributive laws, exhaustively.

    At each triple the join-over-meet form is tried first, so the reported
    witness for the diamond M3 is the classic (a, b, c) one.
    """
    return _carrier_verdict(lat, get_law("distributive"))


def check_cha(lat: FiniteLattice) -> Verdict:
    """Frame law: the join of a family meets y as the join of the meets.

    Only families of two distinct elements need scanning, in declaration
    order, and that decides the law for every finite family:

    * the empty family joins to bottom on both sides, and a one-element
      family {s} gives s wedge y on both sides, so neither can fail;
    * a family with a repeated element is a smaller family, so a failing
      pair {a, b} has a != b;
    * the law for all pairs is binary distributivity, and it gives the law
      for every finite family by induction: (a_1 vee ... vee a_k) wedge y is
      ((a_1 vee ... vee a_(k-1)) wedge y) vee (a_k wedge y). So on a finite
      lattice, distributive means frame (Johnstone, Stone Spaces, 1982).

    The first failing family in size order therefore has two elements, and
    the pair scan over ``(combinations(elements, 2), y)`` returns the same
    verdict and witness as enumerating every family. The pairs are scanned
    as the triples (a, b, y) of all elements, in row-major order, which
    runs on the lattice's index tables like every other law of three
    variables, and the first failing triple is the pair scan's witness:

    * a = b never fails, because meet and join are idempotent: both sides
      are a wedge y;
    * if (b, a, y) fails, then (a, b, y) fails too, because join commutes
      and the two sides are symmetric in a and b;
    * so the first failing triple in row-major order has a before b, and
      the triples with a before b come in the pair scan's order.

    That triple is re-checked as the pair ``((a, b), y)``. The details
    carry the binary-distributivity verdict computed independently; the two
    must agree, and tests hold us to that.
    """
    return _cha_verdict(lat, check_distributive(lat))


def _cha_verdict(lat: FiniteLattice, binary: Verdict) -> Verdict:
    verdict = _carrier_verdict(lat, _CHA_TRIPLE_LAW)
    if verdict.failed:
        a, b, y = verdict.witness.inputs
        verdict = _verdict(lat, _CHA_LAW, [((a, b), y)])
    return replace(verdict, details=(("binary-distributive", binary),))


def _complements(lat: FiniteLattice, x: str) -> tuple[int, int]:
    """How many y have x wedge y = bottom and x vee y = top (read off x's rows), and 1."""
    pairs = zip(lat.meet_table[x].values(), lat.join_table[x].values())
    return [*pairs].count((lat.bottom, lat.top)), 1


_BOOLEAN_LAW = Law("boolean-complemented", 1, False, (("number of complements of x = 1", _complements),))


def _boolean_verdict(lat: FiniteLattice) -> Verdict:
    """The Boolean row, a failing element's note giving its complement count."""
    verdict = _verdict(lat, _BOOLEAN_LAW, zip(lat.elements))
    if verdict.failed:
        (x,), count = verdict.witness.inputs, verdict.witness.lhs
        note = f"element {x!r} has {count} complement(s), expected 1"
        verdict = Verdict.fails(replace(verdict.witness, note=note))
    return verdict


@dataclass(eq=False)
class LatticeCertificate:
    """Bundle of exhaustive verdicts for one finite lattice."""

    lattice: FiniteLattice
    commutative: Verdict
    associative: Verdict
    absorption: Verdict
    distributive: Verdict
    cha: Verdict
    boolean_complemented: Verdict

    @property
    def entries(self) -> tuple[tuple[str, Verdict], ...]:
        return (
            ("commutative", self.commutative),
            ("associative", self.associative),
            ("absorption", self.absorption),
            ("distributive", self.distributive),
            ("complete-heyting", self.cha),
            ("boolean-complemented", self.boolean_complemented),
        )

    @property
    def witnesses(self) -> dict[str, Witness]:
        return {
            label: verdict.witness
            for label, verdict in self.entries
            if verdict.failed and verdict.witness is not None
        }

    def describe(self) -> str:
        lines = [f"lattice {self.lattice.name}: {len(self.lattice.elements)} elements"]
        for label, verdict in self.entries:
            lines.append(f"  {label}: {verdict.describe()}")
        return "\n".join(lines)


def check_lattice_laws(lat: FiniteLattice) -> LatticeCertificate:
    """Certify the standard laws; every check is exhaustive.

    Each row is a registry law scanned over the lattice itself
    (:func:`_carrier_verdict`); commutative and associative join the wedge
    and vee forms, tried in that order at each tuple. The lattice is
    scanned directly rather than through ``lattice_algebra``, so a
    one-element lattice is certified too. The Boolean check is reported
    not-applicable on non-distributive lattices rather than raising, so a
    certificate always completes.
    """
    distributive = check_distributive(lat)
    boolean = Verdict.not_applicable("lattice is not distributive")
    if distributive.holds:
        boolean = _boolean_verdict(lat)
    return LatticeCertificate(
        lat,
        commutative=_carrier_verdict(lat, _COMMUTATIVE_LAW),
        associative=_carrier_verdict(lat, _ASSOCIATIVE_LAW),
        absorption=_carrier_verdict(lat, get_law("absorption")),
        distributive=distributive,
        cha=_cha_verdict(lat, distributive),
        boolean_complemented=boolean,
    )


# ---------------------------------------------------------------------------
# Laws on families of sets


class _SetOps:
    """Adapter giving modern-set operations the algebra-ops attribute shape."""

    def __init__(self, family: AlgebraFamily):
        self.wedge = intersection
        self.vee = union
        self.zero = empty_set(family)
        self.one = full_set(family)
        if all(alg.complement is not None for alg in family.handles):
            self.complement = set_complement
        else:
            self.complement = None


def _carriers(family: AlgebraFamily) -> list[tuple[Element, ...]] | None:
    """Each point's elements, or the sub-carrier that decides it."""
    carriers = [_carrier(a) for a in family.handles]
    return None if None in carriers else carriers


def _set_count(family: AlgebraFamily) -> float:
    """How many sets the deciding carriers make; infinite when a point has none."""
    carriers = _carriers(family)
    return inf if carriers is None else prod(map(len, carriers))


def _all_sets(family: AlgebraFamily):
    for values in product(*_carriers(family)):
        yield ModernSet(family, values)


# Tuples per slab of a lane scan, at least. Smaller slabs slow passing
# scans (chain5@6 idempotent-wedge: 1.7 ms, 3.6 ms at 256); larger ones
# evaluate whole slabs past an early failure (m3@2 distributive: 0.5 ms,
# 1.2 ms at 4096, 4.0 ms at 16384) and gain passing scans at most 30%
# (chain5@2 distributive: 3.3 ms, 2.3 ms at 16384). Best of 7, 2-vCPU VM.
_SLAB_TUPLES = 1024


@cache
def _lane_groups(k: int) -> tuple[int, bytes, tuple[bytes, ...]]:
    """For a point of 17 to 42 elements: rows per group ``m``, the lane map
    ``v -> v % m``, and for each group after the first the lane mask that is
    0xFF where ``v // m`` is that group."""
    m = 256 // k
    masks = tuple(
        bytes(0xFF if v // m == h else 0 for v in range(256)) for h in range(1, -(-k // m))
    )
    return m, bytes(v % m for v in range(256)), masks


def _grouped_lanes(k: int, cells: list[int]) -> Callable[[bytes, bytes], bytes]:
    """A table op on byte lanes at a point of 17 to 42 elements, ``m`` rows a group."""
    m, low, masks = _lane_groups(k)
    first, *later = (bytes(cells[h:h + m * k]).ljust(256, b"\0") for h in range(0, k * k, m * k))
    groups = tuple(zip(later, masks))

    def op(x: bytes, y: bytes) -> bytes:
        n = len(x)
        cell = (
            int.from_bytes(x.translate(low), "little") * k + int.from_bytes(y, "little")
        ).to_bytes(n, "little")
        r = int.from_bytes(cell.translate(first), "little")
        for table, mask in groups:
            found = int.from_bytes(cell.translate(table), "little")
            r ^= (r ^ found) & int.from_bytes(x.translate(mask), "little")
        return r.to_bytes(n, "little")

    return op


def _point_ops(k: int, tables: _PointTables) -> tuple[type, Callable, Callable, Callable]:
    """One point's column type, wedge, vee and complement on columns of element indices.

    A point of at most 42 elements holds its columns as ``bytes``, one lane
    per tuple, and a complement is one ``translate``. At most 16 elements,
    a table op makes every tuple's cell index ``x * k + y`` with one
    big-integer product and sum (no lane carries into the next, as each
    index is below k * k <= 256), and one ``translate`` looks them all up.
    At 17 to 42 elements the rows are cut into groups of ``m = 256 // k``
    (:func:`_grouped_lanes`): the cell index ``(x % m) * k + y`` stays below
    256, one ``translate`` per group looks it up in that group's rows, and
    each later group's lane mask keeps the lanes whose ``x`` lies there.
    That takes 11-17 ns a tuple at k = 17-20, 15-31 ns at 24-32 and 21-34 ns at
    33-42 (7 groups at most), against 30-57 ns by row lookup. A point of 43 to 256
    elements holds lists and looks each tuple up in its ``k`` rows, at 30-59 ns a
    tuple, where groups take 34-38 ns at k = 43-44 (9 groups), 38-49 at 47-48, 66-119
    at 64 and 255-501 at 128 (1,200 lanes, best of 7, three runs, 2-vCPU VM).
    """
    if k > 42:
        def rows(cells: list[int]) -> Callable[[list[int], list[int]], list[int]]:
            table = [cells[i * k:(i + 1) * k] for i in range(k)]
            return lambda x, y: [table[i][j] for i, j in zip(x, y)]

        complement = tables.complement
        return list, rows(tables.wedge), rows(tables.vee), lambda x: [complement[i] for i in x]

    if k * k <= 256:
        def lanes(cells: list[int]) -> Callable[[bytes, bytes], bytes]:
            table = bytes(cells).ljust(256, b"\0")
            return lambda x, y: (
                (int.from_bytes(x, "little") * k + int.from_bytes(y, "little"))
                .to_bytes(len(x), "little")
                .translate(table)
            )
    else:
        lanes = partial(_grouped_lanes, k)

    complement = bytes(tables.complement).ljust(256, b"\0")
    return bytes, lanes(tables.wedge), lanes(tables.vee), lambda x: x.translate(complement)


def _digits(k: int, run: int, lo: int, hi: int) -> bytes:
    """The bytes ``(t // run) % k`` for ``t`` in ``range(lo, hi)``.

    Built from the runs of equal digits the window touches, or, when it
    touches more than ``k``, from one period of them repeated.
    """
    first, last = lo // run, (hi - 1) // run
    if last - first < k:
        return b"".join(
            bytes([d % k]) * (min(d * run + run, hi) - max(d * run, lo))
            for d in range(first, last + 1)
        )
    period = b"".join(bytes([d]) * run for d in range(k))
    start = lo % len(period)
    return (period * -(-(start + hi - lo) // len(period)))[start:start + hi - lo]


def _slabs(radices: tuple[int, ...], kinds: tuple[type, ...], arity: int, slab_tuples: int):
    """Every ``arity``-tuple of values numbered over ``radices`` in row-major order, a slab
    at a time: each argument's columns, of ``kinds``, over as many consecutive first
    arguments as make ``slab_tuples`` tuples or more (the last slab may hold fewer)."""
    n = prod(radices)
    block = n ** (arity - 1)
    step = min(-(-slab_tuples // block), n)
    # how many consecutive numbers share their index at each carrier
    places = [prod(radices[p + 1:]) for p in range(len(radices))]

    def value(run: int, lo: int, hi: int) -> tuple:
        """The columns of the values numbered ``t // run`` for ``t`` in ``range(lo, hi)``."""
        return tuple(
            kind(_digits(k, place * run, lo, hi)) for kind, k, place in zip(kinds, radices, places)
        )

    # the later arguments run through one block per first; full slabs share one copy
    rest = [value(n ** j, 0, block) for j in reversed(range(arity - 1))]
    repeated = [tuple(x * step for x in v) for v in rest]
    for start in range(0, n, step):
        count = min(step, n - start)
        if count < step:
            repeated = [tuple(x * count for x in v) for v in rest]
        yield (value(block, start * block, (start + count) * block), *repeated)


# A scan's slabs depend on its shape alone, so scans of one shape, such as a
# certificate's rows, share them: a scan whose columns are all bytes and whose
# argument bytes (arity x tuples x carriers) are at most _PLAN_BYTES keeps its slabs,
# for 64 shapes at most (2 MB). List columns (over 42 elements) and larger scans stream.
_PLAN_BYTES = 32 * 1024


@lru_cache(maxsize=64)
def _slab_plan(radices: tuple[int, ...], kinds: tuple[type, ...], arity: int, slab_tuples: int) -> tuple:
    """The slabs of :func:`_slabs`, built once for every scan of that shape."""
    return tuple(_slabs(radices, kinds, arity, slab_tuples))


class _ColumnOps:
    """Operations on a slab of tuples at once, over finite carriers and their tables.

    Tuples of values, one per carrier, are numbered as mixed-radix numbers
    whose digits are element indices, carrier 0 most significant, so
    ``range(size)`` runs through them in the order of ``product(*carriers)``:
    the sets of a family in :func:`_all_sets` order, or the elements of a
    single carrier. A slab value holds, for each carrier, the column of the
    indices its tuples have there, and each operation runs carrier by
    carrier on whole columns (:func:`_point_ops`). ``zero`` and ``one`` are
    constant columns as long as the slab :meth:`slabs` yielded last, built
    when an equation reads them, and are valid for that slab only.
    """

    def __init__(self, carriers: list[tuple[Element, ...]], tables: list[_PointTables]):
        self._tables = tables
        self._carriers = carriers
        self._radices = tuple(map(len, carriers))
        for k, t in zip(self._radices, tables):
            t.columns = t.columns or _point_ops(k, t)  # compiled by the first scan of ``t``
        self._column, self._wedge, self._vee, self._complement = zip(*(t.columns for t in tables))

    def wedge(self, a: tuple, b: tuple) -> tuple:
        return tuple(op(x, y) for op, x, y in zip(self._wedge, a, b))

    def vee(self, a: tuple, b: tuple) -> tuple:
        return tuple(op(x, y) for op, x, y in zip(self._vee, a, b))

    def complement(self, a: tuple) -> tuple:
        return tuple(op(x) for op, x in zip(self._complement, a))

    def slabs(self, arity: int):
        """The slabs of :func:`_slabs` over these carriers, kept when all
        columns are bytes and the scan fits ``_PLAN_BYTES``, else streamed."""
        kinds = self._column
        shape = (self._radices, kinds, arity, _SLAB_TUPLES)
        kept = all(kind is bytes for kind in kinds) and (
            arity * prod(self._radices) ** arity * len(kinds) <= _PLAN_BYTES
        )
        for slab in _slab_plan(*shape) if kept else _slabs(*shape):
            self._lanes = len(slab[0][0])
            yield slab

    @property
    def zero(self) -> tuple:
        return tuple(kind(bytes([t.zero])) * self._lanes for kind, t in zip(self._column, self._tables))

    @property
    def one(self) -> tuple:
        return tuple(kind(bytes([t.one])) * self._lanes for kind, t in zip(self._column, self._tables))

    def decode(self, value: tuple, at: int) -> tuple[Element, ...]:
        """The values, one per carrier, that tuple ``at`` of a slab value stands for."""
        return tuple(c[column[at]] for c, column in zip(self._carriers, value))


def _column_verdict(owner, ops, law: Law, carriers, tables, argument: Callable) -> Verdict:
    """Every ``law.arity``-tuple of ``product(*carriers)``, a slab of index columns at a time.

    Only the first failing tuple is decoded, each argument's values passed
    through ``argument``, and re-checked through ``ops``, so the witness,
    its label and any error come from ``ops`` as a scan over the values
    would give them. ``owner`` is named if the re-check passes.
    """
    columns = _ColumnOps(carriers, tables)
    found = _scan(columns, law, columns.slabs(law.arity))
    if found is None:
        return Verdict.holds_exhaustive()
    # An equation after the one reported may fail earlier in the slab, so the
    # first failing tuple is the lowest byte where any equation's sides differ
    # on any carrier (the list column of a point of 43 to 256 elements reads
    # as bytes too, its indices being below 256). The slab generator is
    # paused here, so zero and one still fit the slab.
    slab = found.inputs
    differ = 0
    for _, fn in law.equations:
        for x, y in zip(*fn(columns, *slab)):
            differ |= int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
    at = ((differ & -differ).bit_length() - 1) // 8
    args = tuple(argument(columns.decode(value, at)) for value in slab)
    return _rechecked(ops, law, args, f"the compiled tables of {owner!r}")


def _rechecked(ops, law: Law, args: tuple, route: str) -> Verdict:
    """The failure a scan through ``ops`` finds at ``args``, which ``route`` found failing."""
    witness = _scan(ops, law, (args,))
    if witness is None:
        raise StructuralError(
            f"law {law.name!r} fails on {route} but not on the "
            f"inputs ({', '.join(map(render_element, args))}); "
            f"its operations do not give the same result twice"
        )
    return Verdict.fails(witness)


# Scans of fewer tuples run on the values, where the kernel costs more to
# set up than it saves (distributive on chain3, 27 tuples: 0.035 ms on the
# elements, 0.044 ms on columns; on chain4, 64 tuples: 0.080 ms and
# 0.042 ms; compiling either takes 0.01 ms; best of 7, 2-vCPU VM). A
# 3-element algebra thus never compiles for its own laws. A set operation
# costs about ten times more, and family scans break even near 8 tuples.
_MIN_COLUMN_TUPLES = 64
_MIN_SET_COLUMN_TUPLES = 8


def _columns_pay(largest: int, values: int, arity: int, least: int) -> bool:
    """``least`` or more ``arity``-tuples of ``values`` values, over carriers byte columns hold."""
    return largest <= 256 and values ** arity >= least


def _carrier_verdict(ops: AlgebraHandle | FiniteLattice, law: Law) -> Verdict:
    """Every ``law.arity``-tuple of a finite algebra's or lattice's elements, in row-major order.

    A one-carrier column scan (:func:`_column_verdict`) when the scan pays
    (:func:`_columns_pay`) and the tables of ``ops`` compile, else ``ops``
    evaluated on the elements.
    """
    elements, arity = ops.elements, law.arity
    k = len(elements)
    if _columns_pay(k, k, arity, _MIN_COLUMN_TUPLES):
        tables = ops._tables_with_complement if law.needs_complement else ops._tables
        if tables is not None:
            return _column_verdict(ops, ops, law, [elements], [tables], itemgetter(0))
    return _verdict(ops, law, product(elements, repeat=arity))


def _exhaustive_verdict(family: AlgebraFamily, ops: _SetOps, law: Law) -> Verdict:
    """All tuples of sets over the deciding carriers, in declaration order.

    On columns of element indices (:func:`_column_verdict`) when the scan
    pays (:func:`_columns_pay`) and every point compiles, else set by set,
    drawn one at a time at arity 1.
    """
    carriers = _carriers(family)
    if _columns_pay(max(map(len, carriers)), _set_count(family), law.arity, _MIN_SET_COLUMN_TUPLES):
        tables = [a._tables_with_complement if law.needs_complement else a._tables for a in family.handles]
        if None not in tables:
            return _column_verdict(family, ops, law, carriers, tables, partial(ModernSet, family))
    sets = _all_sets(family)
    return _verdict(ops, law, zip(sets) if law.arity == 1 else product(sets, repeat=law.arity))


def _checked(alg: AlgebraHandle) -> AlgebraHandle:
    """``alg`` with each operation raising when its result leaves the carrier."""
    def checked(op: Callable | None) -> Callable | None:
        def run(*args):
            if alg.is_member(result := op(*args)):
                return result
            raise StructuralError(f"a result left the carrier of {alg.name!r}")
        return op and run

    return replace(alg, wedge=checked(alg.wedge), vee=checked(alg.vee), complement=checked(alg.complement))


def _sampled_verdict(family: AlgebraFamily, ops: _SetOps, law: Law, slabs, seed: int) -> Verdict:
    """:func:`_verdict` through ``ops`` over ``slabs`` of tuples of sets, evaluated point by point.

    A point with bound codes (:class:`~modernsets.algebra._Codes`) whose values in a
    slab all have codes evaluates the slab on them (:class:`_CodeColumns`). Every
    other point goes tuple by tuple, up to the first tuple that failed on codes, on
    its checked operations (:func:`_checked`), a finite handle skipping values it
    has passed. The first tuple that fails, leaves a carrier or raises is
    re-checked as sets.
    """
    points = _per_handle(family, lambda alg: (
        _bound_codes(alg) and _CodeColumns(alg._codes), _checked(alg), set() if alg.finite else None
    )).values()

    def holds(view: AlgebraHandle, passed: set | None, values: tuple) -> bool:
        if passed is not None and values in passed:
            return True
        try:
            for _, fn in law.equations:
                lhs, rhs = fn(view, *values)
                if not (lhs is rhs or lhs == rhs):
                    return False
        except Exception:  # the re-check raises what the sets raise, or names the route
            return False
        if passed is not None:
            passed.add(values)
        return True

    def failing(columns: list[list[ModernSet]]) -> int:
        first, by_tuple = len(columns[0]), []
        # each point's argument columns: the values the sets of each column have there
        at_points = zip(*(zip(*(s._values for s in column)) for column in columns))
        for (coded, view, passed), values in zip(points, at_points):
            if coded and (codes := coded.encoded(values)):
                first = min(first, coded.failing(law, codes))
            else:
                by_tuple.append((view, passed, [*zip(*values)]))
        for at in range(first if by_tuple else 0):
            if not all(holds(view, passed, tuples[at]) for view, passed, tuples in by_tuple):
                return at
        return first

    return _slab_verdict(slabs, failing, lambda args: _rechecked(ops, law, args, f"the points of {family!r}"), seed)


def _set_drawer(family: AlgebraFamily) -> Callable[[random.Random], ModernSet]:
    """One random set per call: ``rng.choice(elements)`` at a finite point, else its ``sample``.

    ``choice`` runs inline, as ``Random`` runs it: the first ``getrandbits(n.bit_length())`` below n.
    """
    sizes = [len(alg.elements) if alg.finite else 0 for alg in family.handles]
    points = [(alg, alg.elements, n, n.bit_length()) for alg, n in zip(family.handles, sizes)]

    def draw(rng: random.Random) -> ModernSet:
        getrandbits = rng.getrandbits
        values = []
        for alg, elements, n, k in points:
            if n:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                values.append(elements[r])
            elif alg.sample is not None:
                values.append(alg.sample(rng))
            else:
                raise PreconditionError(f"algebra {alg.name!r} cannot be sampled")
        return ModernSet(family, tuple(values))

    return draw


# A family is scanned exhaustively up to _MAX_EXHAUSTIVE tuples, else on at most
# _FORCED_CAP forced tuples (_PER_POINT_CAP per point) and then seeded draws.
_MAX_EXHAUSTIVE = 50_000
_FORCED_CAP = 20_000
_PER_POINT_CAP = 1000


def _forced_tuples(family: AlgebraFamily, arity: int):
    """Deterministic tuples every sampled family check must try.

    All empty/full combinations, then for each point all tuples of spikes
    at that same point (capped per point). Same-point spike tuples are the
    lifted images of per-point counterexample tuples, so a law failing at
    a boundary value of any single point cannot slip past this stage.
    """
    bounds = (empty_set(family), full_set(family))
    yield from product(bounds, repeat=arity)
    for x in family.universe.points:
        alg = family.algebra_at(x)
        values = alg.elements if alg.elements is not None else alg.boundary
        spikes = [lift_point_value(family, x, v) for v in values]
        yield from islice(product(spikes, repeat=arity), _PER_POINT_CAP)


def _per_handle(family: AlgebraFamily, answer: Callable) -> dict[Point, Any]:
    """``answer(alg)`` at each point, computed once per handle, in point order.

    Points sharing a handle share its answer: every answer here is
    deterministic (a seeded or exhaustive scan), so repeating it would find
    the same.
    """
    memo: dict[AlgebraHandle, Any] = {}
    for alg in family.handles:
        if alg not in memo:
            memo[alg] = answer(alg)
    return {x: memo[alg] for x, alg in zip(family.universe.points, family.handles)}


def lift_point_value(family: AlgebraFamily, point: Point, value: Element) -> ModernSet:
    """The set holding ``value`` at ``point`` and O at every other point."""
    membership = {x: family.algebra_at(x).zero for x in family.universe.points}
    membership[point] = value
    return modern_set(family, membership)


def lift_point_witness(family: AlgebraFamily, point: Point, witness: Witness) -> tuple[ModernSet, ...]:
    """Lift a per-point counterexample to sets: spike each input at the point."""
    return tuple(lift_point_value(family, point, v) for v in witness.inputs)


def check_family_law(
    family: AlgebraFamily,
    law: "Law | str",
    samples: int = 200,
    seed: int = 0,
) -> LawReport:
    """One law over all modern sets of a family.

    Exhaustive when every point is finite or declares a deciding
    sub-carrier (:class:`~modernsets.algebra.Deciding`), and the tuple
    count stays within ``_MAX_EXHAUSTIVE``; otherwise forced spike tuples
    (capped at ``_FORCED_CAP``) followed by seeded random sets. A pass on
    deciding sub-carriers names their reasons in its details; a failure
    reports the forced stage's first failing tuple, as the sampled route
    does, unless a cap cut that stage short.

    Both scans, :func:`_exhaustive_verdict` and :func:`_sampled_verdict`,
    report the witness, or raise the error, that a scan of the sets would.
    """
    require_count("samples", samples)
    law = _resolve(law)
    ops = _SetOps(family)
    if law.needs_complement and ops.complement is None:
        missing = next(
            x
            for x in family.universe.points
            if family.algebra_at(x).complement is None
        )
        return LawReport(law.name, Verdict.not_applicable(
            f"algebra at point {missing!r} declares no complement"
        ))
    if law.arity == 0:  # a closed law reads no set, so one evaluation decides it
        return LawReport(law.name, _verdict(ops, law, [()]))
    if _set_count(family) ** law.arity <= _MAX_EXHAUSTIVE:
        verdict = _exhaustive_verdict(family, ops, law)
        reasons = dict.fromkeys(a.deciding.reason for a in family.handles if not a.finite)
        if not reasons:
            return LawReport(law.name, verdict)
        if verdict.holds:
            details = (("deciding-carrier", "; ".join(reasons)),)
            return LawReport(law.name, replace(verdict, details=details))
        forced = _verdict(ops, law, islice(_forced_tuples(family, law.arity), _FORCED_CAP))
        return LawReport(law.name, forced if forced.failed else verdict)
    slabs = chain(
        _batched(islice(_forced_tuples(family, law.arity), _FORCED_CAP)),
        _draws(_set_drawer(family), law.arity, samples, seed, key=family),
    )
    return LawReport(law.name, _sampled_verdict(family, ops, law, slabs, seed))


@dataclass(frozen=True)
class LiftReport:
    """Side-by-side verdicts: the family of sets vs each per-point algebra.

    ``consistent`` records the biconditional: the set-level law holds
    exactly when every per-point law holds (compared only when both levels
    were applicable).
    """

    law: str
    family_verdict: Verdict
    per_point: dict[Point, Verdict]
    consistent: bool

    def describe(self) -> str:
        lines = [f"law {self.law}:"]
        lines.append(f"  family of sets: {self.family_verdict.describe()}")
        for point, verdict in self.per_point.items():
            lines.append(f"  at point {point!r}: {verdict.describe()}")
        lines.append(f"  levels agree: {'yes' if self.consistent else 'NO'}")
        return "\n".join(lines)


def lift_check(
    family: AlgebraFamily,
    law: "Law | str",
    samples: int = 200,
    seed: int = 0,
) -> LiftReport:
    """Check a law pointwise and on the family of sets, and compare.

    Sampled verdicts at either level can disagree by chance, so before
    declaring an inconsistency the counterexample is transported across
    levels: a per-point witness is spiked into sets and re-checked on the
    family, and a family witness is restricted to each point. Only a
    disagreement that survives both transports is reported.
    """
    law = _resolve(law)
    per_point = _per_handle(family, lambda alg: check_law(alg, law, samples=samples, seed=seed).verdict)
    family_verdict = check_family_law(family, law, samples=samples, seed=seed).verdict
    if family_verdict.applicable:
        failing_points = [x for x, v in per_point.items() if v.failed]
        if family_verdict.holds and failing_points:
            ops = _SetOps(family)
            for x in failing_points:
                lifted = lift_point_witness(family, x, per_point[x].witness)
                witness = _scan(ops, law, (lifted,))
                if witness is not None:
                    family_verdict = Verdict.fails(witness)
                    break
        elif family_verdict.failed and not failing_points:
            for x in family.universe.points:
                alg = family.algebra_at(x)
                args = tuple(s.value_at(x) for s in family_verdict.witness.inputs)
                witness = _scan(alg, law, (args,))
                if witness is not None:
                    per_point[x] = Verdict.fails(witness)
                    break

    if not family_verdict.applicable:
        consistent = True
    else:
        all_points_hold = all(v.holds for v in per_point.values())
        consistent = family_verdict.holds == all_points_hold
    return LiftReport(
        law=law.name,
        family_verdict=family_verdict,
        per_point=per_point,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Crisp restriction


def verify_crisp_restriction(family: AlgebraFamily, universe_size_cap: int = 4) -> LawReport:
    """Check that crisp sets over the family behave as ordinary subsets.

    Every subset of the universe is embedded (I on members, O off) and
    numbered by its bitmask. Two scans over the masks, through the set
    operations, read each result back as the mask it embeds: a pair's
    union and intersection must give ``a | b`` and ``a & b``, and then,
    where every point declares a complement, a complement gives ``full ^ a``.
    So a point with O = I, where two subsets share an embedding, fails too.

    No law over triples needs checking after that. Once every pair agrees
    with ``|`` and ``&``, the crisp sets under union and intersection are
    the subsets under ``|`` and ``&``, so associativity, absorption and both
    distributive laws hold because they hold for Python integers; a triple
    scan could not fail.
    """
    points = family.universe.points
    n = len(points)
    if n > universe_size_cap:
        raise PreconditionError(
            f"crisp restriction check enumerates all 2^|X| subsets; "
            f"|X| = {n} exceeds the cap {universe_size_cap}"
        )
    masks = range(1 << n)
    full = masks[-1]
    crisp = [embed_crisp(family, [p for i, p in enumerate(points) if a >> i & 1]) for a in masks]
    # A shared embedding reads back as its largest mask.
    mask_of = {s: a for a, s in enumerate(crisp)}.get
    pairs = Law("crisp-pairs", 2, False, (
        ("union", lambda o, a, b: (mask_of(o.vee(crisp[a], crisp[b])), a | b)),
        ("intersection", lambda o, a, b: (mask_of(o.wedge(crisp[a], crisp[b])), a & b)),
    ))
    complements = Law("crisp-complement", 1, False, (
        ("complement", lambda o, a: (mask_of(o.complement(crisp[a])), full ^ a)),
    ))

    ops = _SetOps(family)
    has_complement = ops.complement is not None
    found = _scan(ops, pairs, product(masks, repeat=2))
    if found is None and has_complement:
        found = _scan(ops, complements, zip(masks))
    if found is None:
        details = (
            ("universe-size", n),
            ("crisp-sets", 1 << n),
            ("complement-checked", has_complement),
        )
        return LawReport("crisp-restriction", Verdict.holds_exhaustive(details=details))

    def subset(mask: int | None) -> str:
        if mask is None:
            return "non-crisp"
        return "{" + ", ".join(repr(p) for i, p in enumerate(points) if mask >> i & 1) + "}"

    op, inputs = found.note, tuple(map(subset, found.inputs))
    if found.lhs is None and op != "complement":
        witness = Witness(inputs, "non-crisp", "crisp", f"{op} left the crisp sets")
    else:
        witness = Witness(
            inputs, subset(found.lhs), subset(found.rhs), f"{op} disagrees with subset {op}"
        )
    return LawReport("crisp-restriction", Verdict.fails(witness))


# ---------------------------------------------------------------------------
# Generalized-fuzzy ring of sets


@dataclass(frozen=True)
class GfRingReport:
    """Four conditions for the sets over a family to form a ring of sets.

    ``cross_validated`` is a direct set-level frame-law check run when the
    family is small enough; ``routes_agree`` compares it with the per-point
    route and is None when the direct route was skipped.
    """

    cha_per_point: dict[Point, Verdict]
    powerset_embeds: Verdict
    crisp_ops_coincide: Verdict
    bounds_absorb: Verdict
    cross_validated: Verdict
    routes_agree: bool | None
    passed: bool

    def describe(self) -> str:
        lines = ["generalized-fuzzy ring conditions:"]
        worst = "holds" if all(v.holds for v in self.cha_per_point.values()) else "fails"
        lines.append(f"  1. complete Heyting at every point: {worst}")
        for point, verdict in self.cha_per_point.items():
            lines.append(f"       {point!r}: {verdict.describe()}")
        lines.append(f"  2. powerset embeds: {self.powerset_embeds.describe()}")
        lines.append(f"  3. crisp operations coincide: {self.crisp_ops_coincide.describe()}")
        lines.append(f"  4. bounds absorb: {self.bounds_absorb.describe()}")
        lines.append(f"  direct frame-law route: {self.cross_validated.describe()}")
        if self.routes_agree is not None:
            lines.append(f"  routes agree: {'yes' if self.routes_agree else 'NO'}")
        lines.append(f"  overall: {'passed' if self.passed else 'failed'}")
        return "\n".join(lines)


def check_gf_ring_conditions(
    family: AlgebraFamily,
    samples: int = 100,
    seed: int = 0,
    universe_size_cap: int = 4,
) -> GfRingReport:
    """Check the four ring-of-sets conditions for a family.

    Every point must have a lattice (:attr:`AlgebraHandle.lattice`), on
    which the frame law is checked. Anything else (matrix algebras, tables
    that are no lattice) has no order to check, so the check refuses with
    PreconditionError rather than guessing. Bounds absorption is a family
    law, checked by :func:`check_family_law`.
    """
    require_count("samples", samples)
    points = family.universe.points
    if len(points) > universe_size_cap:
        raise PreconditionError(
            f"|X| = {len(points)} exceeds the cap {universe_size_cap}"
        )

    def frame_law(alg: AlgebraHandle) -> Verdict:
        if alg.lattice is not None:
            return check_cha(alg.lattice)
        x = points[family.handles.index(alg)]
        raise PreconditionError(
            f"algebra {alg.name!r} at point {x!r} is not lattice-backed; "
            f"the ring-of-sets conditions need a per-point order"
        )

    cha_per_point = _per_handle(family, frame_law)

    # Two embeddings are equal exactly when they differ only at points
    # where O = I, so the first collision in mask order is (0, 1 << i) for
    # the first such point i.
    degenerate = next((i for i, alg in enumerate(family.handles) if alg.zero == alg.one), None)
    if degenerate is None:
        powerset_embeds = Verdict.holds_exhaustive(details=(("subsets", 1 << len(points)),))
    else:
        powerset_embeds = Verdict.fails(Witness(
            inputs=(0, 1 << degenerate),
            lhs="equal embeddings",
            rhs="distinct embeddings",
            note="two different subsets embed to the same set",
        ))

    crisp_ops_coincide = verify_crisp_restriction(family, universe_size_cap).verdict

    bounds_absorb = check_family_law(family, _BOUNDS_LAW, samples, seed).verdict

    small = len(points) <= 2 and all(
        alg.finite and len(alg.elements) <= 4 for alg in family.handles
    )
    if small:
        cross_validated = _direct_frame_law(family)
        per_point_predicts = all(v.holds for v in cha_per_point.values())
        routes_agree = cross_validated.holds == per_point_predicts
    else:
        cross_validated = Verdict.not_applicable(
            "direct route runs only for families with at most 2 points and carriers of at most 4 elements"
        )
        routes_agree = None

    passed = (
        all(v.holds for v in cha_per_point.values())
        and powerset_embeds.holds
        and crisp_ops_coincide.holds
        and bounds_absorb.holds
        and routes_agree is not False
    )
    return GfRingReport(
        cha_per_point=cha_per_point,
        powerset_embeds=powerset_embeds,
        crisp_ops_coincide=crisp_ops_coincide,
        bounds_absorb=bounds_absorb,
        cross_validated=cross_validated,
        routes_agree=routes_agree,
        passed=passed,
    )


_BOUNDS_LAW = Law(
    "bounds-absorb", 1, False,
    (
        ("A vee X = X", lambda o, a: (o.vee(a, o.one), o.one)),
        ("A wedge empty = empty", lambda o, a: (o.wedge(a, o.zero), o.zero)),
    ),
)


def _direct_frame_law(family: AlgebraFamily) -> Verdict:
    """Frame law stated on sets: (vee of A_i) wedge B = vee of (A_i wedge B).

    Only collections of two distinct sets are scanned. The caller runs this
    on lattice-backed points only, where the sets form a lattice under
    union and intersection, so the argument in `check_cha` applies: empty
    and one-set collections cannot fail, binary distributivity gives every
    larger collection, and the first failing collection in size order is
    a pair.
    """
    sets = list(_all_sets(family))
    return _verdict(_SetOps(family), _SET_FRAME_LAW, product(combinations(sets, 2), sets))


# ---------------------------------------------------------------------------
# Witness search


def find_noncommuting_witness(
    a: AlgebraHandle, op: str = "wedge", budget: int = 1000, seed: int = 0
) -> Witness | None:
    """First ordered pair (x, y) with op(x, y) != op(y, x), or None.

    The commutative law of ``op``, relabelled, checked by :func:`check_law`:
    finite carriers exhaustively in declaration order, infinite ones on
    every pair of boundary elements and then ``budget`` seeded random pairs.
    """
    if op not in ("wedge", "vee"):
        raise ValueError(f"op must be 'wedge' or 'vee', got {op!r}")
    require_count("budget", budget)
    law = get_law(f"commutative-{op}")
    law = replace(law, equations=((f"{op}(x, y) = {op}(y, x)", law.equations[0][1]),))
    return check_law(a, law, samples=budget, seed=seed).verdict.witness


# ---------------------------------------------------------------------------
# Family classification


LEVELS: tuple[str, ...] = (
    "modern",
    "L-fuzzy",
    "generalized-fuzzy",
    "fuzzy-like",
    "classical",
)


@dataclass(frozen=True)
class FamilyClassification:
    """Most specific level of the hierarchy that fits every point."""

    level: str
    per_point: dict[Point, str] = field(compare=False)

    def describe(self) -> str:
        lines = [f"classification: {self.level}"]
        for point, evidence in self.per_point.items():
            lines.append(f"  {point!r}: {evidence}")
        return "\n".join(lines)


def _point_level(alg: AlgebraHandle) -> tuple[str, str]:
    """The most specific level one point reaches on its own, and the evidence.

    A two-element lattice has the Boolean tables on {O, I}, so the point is
    classical when its complement also swaps O and I.
    """
    lat, comp = alg.lattice, alg.complement
    if lat is not None and len(lat) == 2 and comp is not None and (
        (comp(alg.zero), comp(alg.one)) == (alg.one, alg.zero)
    ):
        return "classical", "two-element Boolean algebra"
    if lat is None:
        return "modern", f"algebra {alg.name!r} (no backing order)"
    if not alg.finite:
        return "fuzzy-like", alg.deciding.evidence
    if check_cha(lat).holds:
        return "generalized-fuzzy", f"lattice {lat.name!r} (complete Heyting)"
    return "L-fuzzy", f"lattice {lat.name!r} (not complete Heyting)"


def classify_family(family: AlgebraFamily) -> FamilyClassification:
    """Most specific fit: classical, fuzzy-like, generalized-fuzzy, L-fuzzy, modern.

    classical needs every point classical; fuzzy-like needs every point to
    be an infinite algebra with a lattice, which it has on its deciding
    sub-carrier; generalized-fuzzy needs an order-backed complete Heyting
    algebra at every point (classical and fuzzy points qualify); L-fuzzy
    needs order backing but not the frame law; anything else is plain
    modern. A point is order-backed when it has a lattice
    (:attr:`AlgebraHandle.lattice`), so an algebra written as tables lands
    where the same lattice built from covers does.
    """
    levels = _per_handle(family, _point_level)
    per_point = {x: evidence for x, (_, evidence) in levels.items()}
    ranks = {LEVELS.index(level) for level, _ in levels.values()}
    # Classical and fuzzy-like points together share only generalized-fuzzy.
    rank = ranks.pop() if len(ranks) == 1 else min(*ranks, LEVELS.index("generalized-fuzzy"))
    return FamilyClassification(level=LEVELS[rank], per_point=per_point)
