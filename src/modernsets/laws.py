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
and noncommuting-pair search scans the tuples its check chooses. Small
single-carrier scans run on the values (:func:`_verdict`), each law on one
loop generated from it on first use: a registry law's loop inlines its
equations, and any other law shares the loop of its arity and number of
equations. The larger scans, and every family and sampled scan, run a slab
of tuples at a time on one column kernel (:func:`_slab_verdict`), with each
point held as element indices, integer codes or values, and re-check only
their first failing tuple on the values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, partial
from itertools import chain, islice, product
from math import inf, prod
from operator import itemgetter, ne
from typing import Any, Callable, Iterator, NamedTuple

from .algebra import AlgebraHandle, Element, _bound_codes, _carrier
from .errors import PreconditionError, StructuralError, UnknownLawError, require_count
from .expressions import Expression, _compile, _identifiers, _label, _source, parse_expression
from .lattice import FiniteLattice, _PointTables
from .reporting import LawReport, Verdict, Witness, render_element
from .sets import (
    AlgebraFamily,
    ModernSet,
    Point,
    complement as set_complement,
    embed_crisp,
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
    and closures are all derived from that text; such a law keeps the
    parsed sides of each equation in ``_trees``, which ``replace`` does not
    carry over. Every law is scanned by one loop derived from it
    (:func:`_verdict`), generated on first use.
    """

    name: str
    arity: int
    needs_complement: bool
    equations: tuple[Equation, ...]
    _trees: tuple[tuple[Expression, Expression], ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @cached_property
    def _loop(self) -> Callable:
        if self._trees is None:
            return _shape_loop(self.arity, len(self.equations))
        return _tree_loop(self._trees)


_CONSTANTS = {"O": "o.zero", "I": "o.one"}


def _variables(trees) -> list[str]:
    """The variables of a law's equation sides, in name order: its arguments."""
    identifiers = set().union(*(_identifiers(side) for pair in trees for side in pair))
    return sorted(identifiers - _CONSTANTS.keys())


def _law(name: str, *equations: str) -> Law:
    """A law written as equation text in the expression language.

    Each side is parsed by :func:`parse_expression`, with ``O`` and ``I``
    the constants. The law's variables, in name order, are the arguments
    of every equation. Each closure is one lambda generated from the trees
    and compiled once, so a scan costs what a hand-written lambda does;
    only fixed strings and the parameter names ``a0, a1, ...`` reach its
    source.
    """
    trees = tuple(tuple(map(parse_expression, text.split("="))) for text in equations)
    variables = _variables(trees)
    params = [f"a{i}" for i in range(len(variables))]
    names = {**_CONSTANTS, **dict(zip(variables, params))}
    labels = [f"{_label(lhs)} = {_label(rhs)}" for lhs, rhs in trees]
    # An identifier is never followed by "(", so only a complement writes one.
    needs_complement = any("complement(" in label for label in labels)
    equations = tuple((label, _compile(pair, names, params)) for label, pair in zip(labels, trees))
    return _with_trees(Law(name, len(variables), needs_complement, equations), trees)


def _with_trees(law: Law, trees: tuple) -> Law:
    object.__setattr__(law, "_trees", trees)  # not an init field, so that replace drops it
    return law


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


def _verdict(ops, law: Law, tuples) -> Verdict:
    """The first failing tuple, or an exhaustive pass over all of ``tuples``.

    At each tuple the law's equations are tried in order, and the first
    one whose sides differ is the witness. The scan runs the law's loop
    (:attr:`Law._loop`), and builds a witness only for the failing tuple.
    Small single-carrier scans run here. The column kernel
    (:func:`_slab_verdict`), which runs every other scan, finds its first
    failing tuple as the lowest lane where some equation differs and
    re-checks it here, and scans here any slab it cannot evaluate.
    """
    if (found := law._loop(ops, tuples, law.equations)) is None:
        return Verdict.holds_exhaustive()
    args, lhs, rhs, i = found
    return Verdict.fails(Witness(args, lhs, rhs, law.equations[i][0]))


# A scan loop ``scan(o, tuples, equations)`` gives the first tuple of ``tuples`` where the
# two sides of some equation differ, as ``(args, lhs, rhs, index of the equation)``, else
# None. It unpacks each tuple into the law's variables ``a0, a1, ...``, tries the equations
# in order, and reads the operations it calls from ``o`` at the first tuple, so a scan of no
# tuples reads none. A registry law's loop is generated from its trees, each equation
# inlined as its lambda's source with the operations as locals (:func:`_tree_loop`); any
# other law shares the loop of its shape, which calls its functions (:func:`_shape_loop`).
# Each equation is evaluated as its function is, call for call, so a raising operation
# raises at the same tuple and call.
_OPERATIONS = ("wedge", "vee", "complement", "zero", "one")


def _generated_loop(arity: int, bind: str, pairs: list[str]) -> Callable:
    """The scan loop whose first tuple runs ``bind`` and whose equation ``i`` evaluates
    ``pairs[i]`` to its two sides; only fixed strings and integers reach its source."""
    body = [f"        [{', '.join(f'a{i}' for i in range(arity))}] = args"]
    for i, pair in enumerate(pairs):
        body += [f"        lhs, rhs = {pair}", "        if lhs != rhs:", f"            return args, lhs, rhs, {i}"]
    lines = [
        "def scan(o, tuples, equations):",
        "    tuples = iter(tuples)",
        "    for args in tuples:",
        f"        {bind}",
        *body,
        "        break",
        "    for args in tuples:",
        *body,
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["scan"]


def _tree_loop(trees: tuple) -> Callable:
    """The scan loop of a registry law, generated from its ``trees`` (:attr:`Law._trees`)."""
    variables = _variables(trees)
    names = {"O": "zero", "I": "one", **{v: f"a{i}" for i, v in enumerate(variables)}}
    pairs = [", ".join(_source(side, names, "") for side in pair) for pair in trees]
    words = set(" ".join(pairs).replace("(", " ").replace(")", " ").replace(",", " ").split())
    used = [op for op in _OPERATIONS if op in words]
    bind = f"{', '.join(used)} = {', '.join(f'o.{op}' for op in used)}" if used else "pass"
    return _generated_loop(len(variables), bind, pairs)


@cache
def _shape_loop(arity: int, count: int) -> Callable:
    """The scan loop that laws of ``arity`` variables and ``count`` equations share, calling
    each equation's function; generated once per shape."""
    params = "".join(f", a{i}" for i in range(arity))
    bind = f"[{', '.join(f'(_, f{i})' for i in range(count))}] = equations"
    return _generated_loop(arity, bind, [f"f{i}(o{params})" for i in range(count)])


def _scan(ops, law: Law, tuples) -> Witness | None:
    return _verdict(ops, law, tuples).witness


# ---------------------------------------------------------------------------
# Sampled scans, a slab of tuples at a time

# Tuples per slab of a sampled scan. A slab is drawn, and scanned on codes, at once, so
# one that fails early has drawn and evaluated the rest of it for nothing.
_DRAW_SLAB = 64

# Every law of a battery at one seed reads the same seeded values: tuple i of arity a
# is values a*i ... a*i + a - 1 of one stream. The _STREAMS streams read last keep their
# first _STREAM_VALUES draws, one per point of a value: enough for check_law's 1,000
# default samples at arity 3, and for 200 samples of a 3-point family at arity 3.
# A scan that reads more draws a stream of its own and keeps only the slab it reads, as
# the sample count is uncapped. On the families benchmark (2-vCPU VM, Python 3.11), a
# memo of 4 streams raised peak_rss_mb by 0.54 MB (median of 12 runs), one of 32 by
# 2.6-2.9 MB (+10-11%, two runs), past the benchmark's 10% bound.
# A kept stream also keeps the argument columns of the slabs scans built from it, with
# their boundary or forced tuples, under a key naming all they depend on (_kept), so
# every later law of that arity replays them: those of _SLAB_KEYS keys, each of a scan
# of at most _KEPT_TUPLES tuples. A stream evicted or drawn again drops them, as their
# builds hold the stream: left to the cycle collector, they took the families
# benchmark's peak_rss_mb from 26.1 to 28.6 MB (one run). A family's draws are made a
# slab at a time (_slab_draw). Families verdicts_per_s rose 11.3% at the median, and
# peak_rss_mb 0.7% (10 pairs, 2-vCPU VM, Python 3.11, BENCH_37.json). Kept whole, the
# forced stage of chain50 at 20 points held 18.7 MB of slabs for one battery.
_STREAMS = 4
_STREAM_VALUES = 3000
_SLAB_KEYS = 6
_KEPT_TUPLES = 3000


@lru_cache(maxsize=64)
def _slab_draw(sizes: tuple[int, ...]) -> Callable:
    """``draw(samplers, rng, count, values)``: append to ``values`` the draws of ``count``
    values of a family whose points have ``sizes`` elements (0 at an infinite point), each
    value's draws in point order. A finite point of n elements draws an element's index as
    ``rng.choice`` does, the first ``getrandbits(n.bit_length())`` below n; an infinite
    one calls the next of ``samplers`` on ``rng``. A value's draws are appended once all
    its points have drawn. Generated once per shape, from integers only.
    """
    lines = ["def draw(samplers, rng, count, values):", "    getrandbits, append = rng.getrandbits, values.append"]
    if infinite := [i for i, n in enumerate(sizes) if not n]:
        lines.append(f"    ({''.join(f's{i}, ' for i in infinite)}) = samplers")
    lines.append("    for _ in range(count):")
    for i, n in enumerate(sizes):
        if n:
            k = n.bit_length()
            lines += [f"        v{i} = getrandbits({k})", f"        while v{i} >= {n}:", f"            v{i} = getrandbits({k})"]
        else:
            lines.append(f"        v{i} = s{i}(rng)")
    lines += [f"        append(v{i})" for i in range(len(sizes))]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["draw"]


class _Stream:
    """The values :func:`_slab_draw` draws for a shape ``(sizes, samplers)`` from
    ``random.Random(seed)``, drawn as far as scans read; ``values`` holds each value's
    draws, ``points`` of them, one after the other.

    A kept stream holds every value it has drawn, and in ``slabs`` the slabs scans built
    from it (:func:`_kept`); any other holds only the values read last. A draw that raises
    ends the stream, and ``error`` holds what it raised.
    """

    __slots__ = ("draw", "points", "seed", "rng", "keep", "values", "start", "error", "slabs")

    def __init__(self, shape: tuple[tuple[int, ...], tuple], seed: int, keep: bool):
        sizes, samplers = shape
        self.draw, self.points, self.seed, self.rng = partial(_slab_draw(sizes), samplers), len(sizes), seed, None
        self.keep, self.values, self.start, self.error, self.slabs = keep, [], 0, None, {}

    def read(self, lo: int, hi: int) -> list:
        """The draws of values ``lo`` to ``hi - 1``, read in order; fewer when a draw raised."""
        points = self.points
        if not self.keep:
            del self.values[:(lo - self.start) * points]
            self.start = lo
        values = self.values
        if self.error is None and (count := hi - self.start - len(values) // points) > 0:
            self.rng = self.rng or random.Random(self.seed)  # seeded at the first draw
            try:
                self.draw(self.rng, count, values)
            except BaseException as error:  # the generator stopped inside a draw
                self.error = error
                if not isinstance(error, Exception):
                    raise
        return values[(lo - self.start) * points:(hi - self.start) * points]


_streams: dict[tuple, _Stream] = {}


def _stream(key, seed: int, count: int, shape: Callable[[], tuple]) -> _Stream:
    """The kept stream of ``(key, seed)`` when ``count`` draws fit it, else a new unkept
    one, of the draw ``shape()`` gives.

    Only an int seed is kept: ``None`` seeds afresh each time, and a float can equal an
    int that seeds another stream. A stream that ended in an error is drawn again. One
    evicted or drawn again drops its slabs, whose builds hold it, so that no cycle is
    left for the collector.
    """
    if count > _STREAM_VALUES or type(seed) is not int:
        return _Stream(shape(), seed, False)
    stream = _streams.pop((key, seed), None)
    if stream is not None and stream.error is not None:
        stream.slabs.clear()
        stream = None
    _streams[key, seed] = stream = stream or _Stream(shape(), seed, True)  # the newest last
    if len(_streams) > _STREAMS:
        _streams.pop(next(iter(_streams))).slabs.clear()
    return stream


def _draws(stream: _Stream, arity: int, samples: int):
    """``samples`` tuples of ``stream``'s values, as slabs of at most ``_DRAW_SLAB``.

    Tuple i is values ``arity * i`` to ``arity * i + arity - 1``, and a slab holds, for each
    argument, each point's column of draws. A draw that raises ends its slab, and the next
    one raises its error, so a scan meets it only after the tuples drawn before it.
    """
    points, end = stream.points, arity * samples
    for lo in range(0, end, arity * _DRAW_SLAB):
        hi = min(lo + arity * _DRAW_SLAB, end)
        drawn = stream.read(lo, hi)
        if whole := len(drawn) // points // arity * arity * points:  # the draws of whole tuples
            step = arity * points
            yield [[drawn[j * points + p:whole:step] for p in range(points)] for j in range(arity)]
        if len(drawn) < (hi - lo) * points:
            raise stream.error


class _Replay:
    """The slabs a sampled scan's ``build`` has yielded, kept for later scans (:func:`_kept`);
    ``build`` is None once it has ended, and ``error`` what it raised, if anything."""

    __slots__ = ("slabs", "build", "error")

    def __init__(self, build: Iterator):
        self.slabs, self.build, self.error = [], build, None


def _kept(stream: _Stream | None, key: tuple, tuples: int, build: Callable[[], Iterator]) -> Iterator:
    """The slabs of ``build()``, at most ``tuples`` tuples, kept on a kept ``stream`` under
    ``key`` as far as scans read them, and replayed to every later scan with that key.

    ``key`` names everything the slabs depend on. An ``Exception`` the build raises is kept
    and raised again at the same slab; any other ``BaseException`` leaves no slab behind.
    An unkept stream, or none, keeps nothing, nor does a scan of over ``_KEPT_TUPLES``
    tuples; a stream keeps the slabs of ``_SLAB_KEYS`` keys, the newest.
    """
    if stream is None or not stream.keep or tuples > _KEPT_TUPLES:
        yield from build()
        return
    if (kept := stream.slabs.get(key)) is None:
        if len(stream.slabs) == _SLAB_KEYS:
            del stream.slabs[next(iter(stream.slabs))]
        kept = stream.slabs[key] = _Replay(build())
    slabs, at = kept.slabs, 0
    while at < len(slabs) or kept.build is not None:
        if at == len(slabs):
            try:
                slabs.append(next(kept.build))
            except StopIteration:
                kept.build = None
                break
            except Exception as error:
                kept.build, kept.error = None, error
                raise
            except BaseException:
                stream.slabs.pop(key, None)
                raise
        yield slabs[at]
        at += 1
    if kept.error is not None:
        raise kept.error


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


def _boundary_slabs(column: list, arity: int):
    """check_law's boundary tuples, ``product(column, repeat=arity)``, as slabs of at most
    ``_DRAW_SLAB``, each argument a one-point column."""
    tuples = product(column, repeat=arity)
    while slab := [*islice(tuples, _DRAW_SLAB)]:
        yield [([*c],) for c in zip(*slab)]


def _forced_slabs(encoders: list, family: AlgebraFamily, arity: int):
    """The forced stage of a sampled family scan (:func:`_forced_tuples`, at most
    ``_FORCED_CAP`` tuples) as slabs (:func:`_batched`), each argument its points' columns.

    Each set is encoded once per build, at each point by its ``encoders`` entry, in the
    first slab that reaches its number, and each column is looked up from those codes by
    its argument's set numbers (:func:`_looked_up`).
    """
    sets: list[tuple] = []
    codes, lookups = [None] * len(encoders), []
    for slab in _batched(islice(_forced_tuples(family, arity, sets), _FORCED_CAP)):
        if (top := max(map(max, slab)) + 1) > (done := len(codes[0] or ())):
            columns = [make(values) for make, values in zip(encoders, zip(*sets[done:top]))]
            codes = [c if old is None else old + c for old, c in zip(codes, columns)]
            lookups = [*map(_looked_up, codes)]
        yield [tuple(look(numbers) for look in lookups) for numbers in slab]


def _looked_up(codes: bytes | list) -> Callable[[list[int]], bytes | list]:
    """The column of the ``codes`` of a list of set numbers: one ``translate`` of bytes
    while the numbers fit a byte, else a lookup per lane."""
    if type(codes) is bytes and len(codes) <= 256:
        table = codes.ljust(256, b"\0")
        return lambda numbers: bytes(numbers).translate(table)
    return lambda numbers: type(codes)(map(codes.__getitem__, numbers))


def _sampled_slabs(forced, makers: list, stream: _Stream | None, arity: int, samples: int):
    """A sampled scan's slabs, each the tuple of its points' columns for every argument:
    the ``forced`` slabs, then ``samples`` tuples of ``stream``'s draws (:func:`_draws`;
    none without a stream), each point's column made by its ``makers`` entry."""
    if stream is None:
        return forced
    draws = _draws(stream, arity, samples)
    return chain(forced, ([tuple(make(c) for make, c in zip(makers, arg)) for arg in slab] for slab in draws))


def _slab_verdict(
    ops, law: Law, columns: "_ColumnOps", slabs, route: str, seed: int | None = None, record=None
) -> Verdict:
    """The first failing tuple of ``slabs``, or a pass over all of them.

    A slab is its argument columns, which ``columns`` scans (:meth:`_ColumnOps.failing`).
    Only the first failing tuple is decoded and re-checked through ``ops``
    (:func:`_rechecked`). A slab whose columns raise is decoded and scanned through
    ``ops``, so the witness, error and count are those of a scan through ``ops``. With a
    seed a pass is sampled and counts the tuples tried, else it is exhaustive. ``record``,
    the record of the one table the columns read, gains what they proved (:func:`_prove`)
    when every slab ran on them.
    """
    checked = 0
    for slab in slabs:
        try:
            at = columns.failing(law, slab)
        except Exception:
            record = None  # a slab scanned through ops proves nothing of the tables
            verdict = _verdict(ops, law, [columns.decoded(slab, i) for i in range(columns.lanes)])
            if verdict.failed:
                return verdict
            at = columns.lanes
        if at < columns.lanes:
            if record is not None:
                _prove(record, law, checked + at, columns.equation)
            return _rechecked(ops, law, columns.decoded(slab, at), route)
        checked += at
    if record is not None:
        _prove(record, law, checked)
    return Verdict.holds_exhaustive() if seed is None else Verdict.holds_sampled(samples=checked, seed=seed)


def _rechecked(ops, law: Law, args: tuple, route: str) -> Verdict:
    """``law`` failing at ``args`` through ``ops``, as it does on ``route``; an error
    naming ``route`` if it passes there."""
    if (witness := _scan(ops, law, (args,))) is None:
        raise StructuralError(
            f"law {law.name!r} fails on {route} but not on the "
            f"inputs ({', '.join(map(render_element, args))}); "
            f"its operations do not give the same result twice"
        )
    return Verdict.fails(witness)


def check_law(a: AlgebraHandle, law: "Law | str", samples: int = 1000, seed: int = 0) -> LawReport:
    """One law on one algebra.

    Finite carriers: exhaustive, declaration order (:func:`_carrier_verdict`).
    Infinite carriers: all tuples of boundary elements, then ``samples``
    seeded random tuples, a slab at a time (:func:`_slab_verdict`), on the
    carrier's codes where it has them (:func:`~modernsets.algebra._bound_codes`),
    else on its values. A failing tuple is decoded and re-checked on its values.
    The slabs are kept on the sampler's stream (:func:`_kept`) under a key naming
    the handle, whose boundary they hold, as handles of one sampler share its streams.
    A law with no variables is decided by one evaluation on any carrier.
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
    codes = _bound_codes(a)
    point, sample, arity = _coded(codes) if codes else _mapped(a), (codes or a).sample, law.arity
    stream = sample and _stream(sample, seed, arity * samples, lambda: ((0,), (sample,)))
    key, tuples = (a, arity, samples, codes is not None), len(a.boundary) ** arity + samples
    slabs = _kept(stream, key, tuples, lambda: _sampled_slabs(
        _boundary_slabs(point.encoded(a.boundary), arity), [point.column], stream, arity, samples,
    ))
    return LawReport(law.name, _slab_verdict(
        a, law, _ColumnOps([point], itemgetter(0)), slabs, f"the {'codes' if codes else 'values'} of {a!r}", seed,
    ))


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
    law = Law(name, laws[0].arity, False, tuple(eq for law in laws for eq in law.equations))
    return _with_trees(law, tuple(tree for law in laws for tree in law._trees))


_COMMUTATIVE_LAW = _joined("commutative", "commutative-wedge", "commutative-vee")
_ASSOCIATIVE_LAW = _joined("associative", "associative-wedge", "associative-vee")


# The frame law with the family's two elements as separate variables, so
# that it scans like any law of three variables.
_CHA_TRIPLE_LAW = _law("complete-heyting", r"(x \/ y) /\ z = (x /\ z) \/ (y /\ z)")


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

    That triple's witness is given as the pair ``((a, b), y)``: its sides,
    ``(a vee b) wedge y`` and ``(a wedge y) vee (b wedge y)``, are the pair's,
    already re-checked on the lattice. The details carry the
    binary-distributivity verdict computed independently; the two must
    agree, and tests hold us to that.

    Both scans read the record of the lattice's compiled tables
    (:func:`_carrier_verdict`), so once a certificate or an earlier call has
    scanned them, neither scans again. That is exact: a recorded pass was
    proved on those very tables, and a recorded failure is re-checked on the
    lattice, so the verdicts and witnesses are those of a fresh scan.
    """
    binary = check_distributive(lat)
    verdict = _as_pair(_carrier_verdict(lat, _CHA_TRIPLE_LAW), "(vee family) wedge y = vee of (s wedge y)")
    return replace(verdict, details=(("binary-distributive", binary),))


def _as_pair(verdict: Verdict, note: str) -> Verdict:
    """A frame-law triple scan's verdict, a failing (a, b, y) given as the pair ((a, b), y)."""
    if verdict.failed:
        a, b, y = verdict.witness.inputs
        verdict = Verdict.fails(replace(verdict.witness, inputs=((a, b), y), note=note))
    return verdict


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
        cha=check_cha(lat),
        boolean_complemented=boolean,
    )


# ---------------------------------------------------------------------------
# Laws on families of sets


class _SetOps:
    """Adapter giving modern-set operations the algebra-ops attribute shape."""

    def __init__(self, family: AlgebraFamily):
        self.wedge = intersection
        self.vee = union
        self.zero, self.one = family._bounds
        if all(alg.complement is not None for alg in family.handles):
            self.complement = set_complement
        else:
            self.complement = None


def _carriers(family: AlgebraFamily) -> list[tuple[Element, ...]] | None:
    """Each point's elements, or the sub-carrier that decides it."""
    carriers = [_carrier(a) for a in family.handles]
    return None if None in carriers else carriers


def _set_count(carriers: list[tuple[Element, ...]] | None) -> float:
    """How many sets the deciding carriers (:func:`_carriers`) make; infinite when a point has none."""
    return inf if carriers is None else prod(map(len, carriers))


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

        return list, rows(tables.wedge), rows(tables.vee), _complement_lanes(list, tables.complement)

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
    return bytes, lanes(tables.wedge), lanes(tables.vee), _complement_lanes(bytes, tables.complement)


def _complement_lanes(kind: type, cells: list[int]) -> Callable:
    """A complement table on columns of ``kind``: one ``translate`` of bytes, else a lookup per lane."""
    if kind is list:
        return lambda x: [cells[i] for i in x]
    table = bytes(cells).ljust(256, b"\0")
    return lambda x: x.translate(table)


def _compiled(k: int, tables: _PointTables) -> tuple[type, Callable, Callable, Callable]:
    """:func:`_point_ops` of ``tables``, kept from their first scan; tables based on a
    lattice's (``base``) take its wedge and vee and compile only their complement."""
    if tables.columns is None and tables.base is None:
        tables.columns = _point_ops(k, tables)
    elif tables.columns is None:
        kind, wedge, vee, _ = _compiled(k, tables.base)
        tables.columns = kind, wedge, vee, _complement_lanes(kind, tables.complement)
    return tables.columns


def _digits(k: int, run: int, lo: int, hi: int) -> bytes | list[int]:
    """The digits ``(t // run) % k`` for ``t`` in ``range(lo, hi)``, as bytes, or as a
    list when ``k`` is over 256.

    Built from the runs of equal digits the window touches, or, when it
    touches more than ``k``, from one period of them repeated.
    """
    unit, join = (bytes, b"".join) if k <= 256 else (list, lambda runs: [*chain.from_iterable(runs)])
    first, last = lo // run, (hi - 1) // run
    if last - first < k:
        return join(
            unit([d % k]) * (min(d * run + run, hi) - max(d * run, lo))
            for d in range(first, last + 1)
        )
    period = join(unit([d]) * run for d in range(k))
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


class _Lanes(NamedTuple):
    """One point's operations on columns, one lane per tuple of a slab. ``column`` makes
    a column of a scan's draws, ``encoded`` one of values (raising when one has no lane),
    and ``decode`` gives one lane's value; ``zero`` and ``one`` are one-lane columns.
    ``table`` is ``(k, tables)`` at a compiled point of ``k`` elements (:func:`_law_table`)."""

    wedge: Callable
    vee: Callable
    complement: Callable | None
    zero: Any
    one: Any
    column: Callable
    encoded: Callable
    decode: Callable
    table: tuple[int, _PointTables] | None = None


def _indexed(carrier: tuple[Element, ...], tables: _PointTables) -> _Lanes:
    """Lanes of element indices over a finite carrier's compiled tables (:func:`_compiled`)."""
    kind, wedge, vee, complement = _compiled(len(carrier), tables)
    index = {e: i for i, e in enumerate(carrier)}.__getitem__
    return _Lanes(
        wedge, vee, complement, kind((tables.zero,)), kind((tables.one,)),
        kind, lambda values: kind(map(index, values)), carrier.__getitem__,
        (len(carrier), tables),
    )


def _mapped(ops, column: Callable = list, encoded: Callable = list) -> _Lanes:
    """Lanes of lists of values, each operation of ``ops`` (a handle's, acting on one
    value) one ``map`` over them."""
    wedge, vee, complement = ops.wedge, ops.vee, ops.complement
    return _Lanes(
        lambda x, y: [*map(wedge, x, y)], lambda x, y: [*map(vee, x, y)],
        complement and (lambda x: [*map(complement, x)]), [ops.zero], [ops.one], column, encoded, lambda v: v,
    )


def _coded(codes) -> _Lanes:
    """Lanes of lists of a carrier's codes, on which the column operations of its
    :class:`~modernsets.algebra._Codes` act directly."""
    def encoded(values) -> list:
        if None in (column := [*map(codes.encode, values)]):
            raise ValueError("a value has no code")
        return column

    ops = codes.ops
    return _Lanes(ops.wedge, ops.vee, ops.complement, [ops.zero], [ops.one], list, encoded, codes.decode)


def _first_difference(x, y) -> int:
    """The first lane where two different columns differ."""
    if type(x) is bytes:
        differ = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
        return ((differ & -differ).bit_length() - 1) // 8
    return [*map(ne, x, y)].index(True)


class _ColumnOps:
    """Operations on a slab of tuples at once: a slab value holds a column per point, in
    its lanes (:class:`_Lanes`), and each operation runs point by point on whole columns,
    or :meth:`failing` looks each point's tuples up in its law tables. ``zero`` and ``one``
    fit the slab :meth:`failing` scanned last. ``argument`` makes an argument of a decoded
    tuple from its values, one per point."""

    def __init__(self, points: list[_Lanes], argument: Callable):
        self._wedge, self._vee, self._complement, self._zero, self._one, *_ = zip(*points)
        *_, self._decode, self._tables = zip(*points)
        self._argument = argument

    def wedge(self, a: tuple, b: tuple) -> tuple:
        return tuple(op(x, y) for op, x, y in zip(self._wedge, a, b))

    def vee(self, a: tuple, b: tuple) -> tuple:
        return tuple(op(x, y) for op, x, y in zip(self._vee, a, b))

    def complement(self, a: tuple) -> tuple:
        return tuple(op(x) for op, x in zip(self._complement, a))

    @property
    def zero(self) -> tuple:
        return tuple(z * self.lanes for z in self._zero)

    @property
    def one(self) -> tuple:
        return tuple(o * self.lanes for o in self._one)

    def failing(self, law: Law, slab: list[tuple]) -> int:
        """The lowest lane of ``slab`` where the sides of some equation differ at some
        point, else its number of lanes; ``equation`` is then the index of the first
        equation that differs there. The operations are pointwise, so where every point can
        be looked up (:func:`_lookable`; only sampled scans, whose draws have no numbering,
        come here so), each point's tuple index ``sum(x_j * k ** (arity - 1 - j))`` is made
        from the argument columns and looked up in its law tables (:func:`_first_marked`).
        """
        self.lanes = first = len(slab[0][0])
        arity, points = law.arity, self._tables
        if _lookable(points, arity):
            indices = [sum(
                int.from_bytes(arg[i], "little") * k ** (arity - 1 - j) for j, arg in enumerate(slab)
            ).to_bytes(self.lanes, "little") for i, (k, _) in enumerate(points)]
            first, self.equation = _first_marked(_law_tables(points, law), indices)
            return first
        for i, (_, fn) in enumerate(law.equations):
            for x, y in zip(*fn(self, *slab)):
                if x != y and (lane := _first_difference(x, y)) < first:
                    first, self.equation = lane, i
        return first

    def decoded(self, slab: list[tuple], at: int) -> tuple:
        """Tuple ``at`` of ``slab``, each argument made from its decoded values."""
        decodes, argument = self._decode, self._argument
        return tuple(argument(tuple(d(column[at]) for d, column in zip(decodes, value))) for value in slab)


def _lookable(points: tuple, arity: int) -> bool:
    """Whether a scan over ``points`` (each ``_Lanes.table``) looks its tuples up in law tables:
    two points or more, two variables or more, every point's ``k ** arity`` tuples in a byte."""
    return arity > 1 and len(points) > 1 and all(p and p[0] ** arity <= 256 for p in points)


def _law_tables(points: tuple, law: Law) -> list[list[bytes]]:
    """Each equation's law table (:func:`_law_table`) at each point, equation by equation."""
    return [[_law_table(k, tables, fn, law.arity) for k, tables in points] for _, fn in law.equations]


def _first_marked(tables: list[list[bytes]], indices: list[bytes]) -> tuple[int, int | None]:
    """The lowest lane where some equation's law table marks a point's tuple index in
    ``indices`` and the first equation marking it there, else the lanes and None."""
    first, equation = len(indices[0]), None
    for e, row in enumerate(tables):
        for table, index in zip(row, indices):
            if (lane := index.translate(table).find(1, 0, first)) >= 0:
                first, equation = lane, e
    return first, equation


def _law_table(k: int, tables: _PointTables, fn: Callable, arity: int) -> bytes:
    """For each ``arity``-tuple of a point's element indices in row-major order, 1 where
    the sides of ``fn`` differ on ``tables``, else 0, padded to a ``translate`` table that
    maps a tuple's index (:func:`_index_blocks`, :meth:`_ColumnOps.failing`) to its mark: one
    evaluation of the compiled lanes, kept in ``tables.lookup`` when ``fn`` can be weakly
    referenced. An equation that raises there raises here, every time."""
    lookup = tables.lookup
    try:
        entry = lookup.get(fn)
    except TypeError:
        entry, lookup = None, {}
    if entry is None or entry[0] != arity:
        ops = _ColumnOps([_indexed(range(k), tables)], None)
        ops.lanes = k ** arity
        (slab,) = _slabs((k,), (bytes,), arity, ops.lanes)
        (lhs,), (rhs,) = fn(ops, *slab)
        lookup[fn] = entry = arity, bytes(map(ne, lhs, rhs)).ljust(256, b"\0")
    return entry[1]


# Index blocks depend on a scan's shape alone, so 64 shapes keep theirs. An entry holds n
# digits and k * n ** (arity - 1) bytes, at most half the n ** arity tuples, as a looked-up
# scan has 2 points or more of 2 elements or more: 25,000 bytes under a _MAX_EXHAUSTIVE
# of 50,000, so 1.6 MB for all 64.
@lru_cache(maxsize=64)
def _index_blocks(k: int, place: int, n: int, arity: int) -> tuple[bytes, tuple[bytes, ...]]:
    """At a point of ``k`` elements, the digit ``(x // place) % k`` of each of ``n`` sets
    ``x``, and for each digit ``d``, the point's tuple indices of the block of row-major
    ``arity``-tuples whose first set has digit ``d``: those of the later sets, built once,
    shifted by ``d * k ** (arity - 1)`` in one ``translate``."""
    digits = _digits(k, place, 0, n)
    shifted = [bytes([d]) for d in range(k)]
    for m in range(1, arity):
        rest = b"".join(map(shifted.__getitem__, digits))
        shifted = [rest.translate(bytes(range(d * k ** m, 256)).ljust(256, b"\0")) for d in range(k)]
    return digits, tuple(shifted)


def _numbered_verdict(route: str, ops, law: Law, radices: tuple, points, argument: Callable) -> Verdict | None:
    """:func:`_column_verdict` over points that are looked up, with no argument column: a
    slab of first sets joins their index blocks (:func:`_index_blocks`) at each point. The
    first failing tuple is decoded from its number and re-checked through ``ops``. None
    when a law table raises, so that the slabs are scanned through ``ops`` instead."""
    try:
        tables = _law_tables(tuple(p.table for p in points), law)
    except Exception:
        return None
    n, arity, places = prod(radices), law.arity, [prod(radices[p + 1:]) for p in range(len(radices))]
    block = n ** (arity - 1)
    step = min(-(-_SLAB_TUPLES // block), n)
    blocks = [_index_blocks(k, place, n, arity) for k, place in zip(radices, places)]
    for start in range(0, n, step):
        indices = [b"".join(map(shifted.__getitem__, digits[start:start + step])) for digits, shifted in blocks]
        at, _ = _first_marked(tables, indices)
        if at < len(indices[0]):
            t = start * block + at
            return _rechecked(ops, law, tuple(
                argument(tuple(p.decode(x // place % k) for p, k, place in zip(points, radices, places)))
                for x in (t // n ** j % n for j in reversed(range(arity)))
            ), route)
    return Verdict.holds_exhaustive()


def _column_verdict(route: str, ops, law: Law, carriers, points, argument: Callable, record=None) -> Verdict:
    """Every ``law.arity``-tuple of ``product(*carriers)``, each carrier on its ``points``'
    lanes, a slab of columns at a time.

    A tuple of values, one per carrier, is numbered as a mixed-radix number of element
    indices, carrier 0 most significant, so the slabs (:func:`_slabs`, each column made
    from its index digits by its lanes' ``column``, kept when they are bytes and fit
    ``_PLAN_BYTES``) run in the order of ``product(*carriers)``. The first failing tuple is
    re-checked through ``ops`` (:func:`_slab_verdict`, which adds to ``record``), its
    arguments made by ``argument``; ``route`` is named if the re-check passes. Tuples that
    are looked up (:func:`_lookable`) are scanned by their numbers (:func:`_numbered_verdict`).
    """
    radices, kinds, arity = tuple(map(len, carriers)), tuple(p.column for p in points), law.arity
    if _lookable(tuple(p.table for p in points), arity) and (
        verdict := _numbered_verdict(route, ops, law, radices, points, argument)
    ) is not None:
        return verdict
    kept = all(kind is bytes for kind in kinds) and arity * len(kinds) * prod(radices) ** arity <= _PLAN_BYTES
    slabs = (_slab_plan if kept else _slabs)(radices, kinds, arity, _SLAB_TUPLES)
    return _slab_verdict(ops, law, _ColumnOps(points, argument), slabs, route, record=record)


# Single-carrier scans of fewer tuples run on the values, on the law's generated loop,
# and a 3-element algebra never compiles its tables for its own laws. With the tables
# and lanes already built, the two routes meet near 27-36 tuples: distributive on
# chain3, 27 tuples, 0.026 ms on the elements and 0.024 ms on columns; absorption on
# chain6, 36 pairs, 0.014 and 0.010 ms; on chain4, 64 tuples, 0.079 and 0.023 ms; pairs
# of 9-16 tuples 0.004-0.007 ms on the elements, 0.008-0.011 ms on columns (best of 7,
# 2-vCPU VM, Python 3.11).
_MIN_COLUMN_TUPLES = 64


def _carrier_verdict(ops: AlgebraHandle | FiniteLattice, law: Law) -> Verdict:
    """Every ``law.arity``-tuple of a finite algebra's or lattice's elements, in row-major order.

    A one-carrier column scan (:func:`_column_verdict`) when it has at least
    ``_MIN_COLUMN_TUPLES`` tuples over at most 256 elements and the tables of
    ``ops`` compile, else ``ops`` evaluated on the elements.

    Each equation is scanned once per compiled carrier. The tables' record
    (``_PointTables.scanned``) holds, for each equation function scanned on them,
    ``(arity, n, fails)``: the first n tuples pass that equation and, if ``fails``,
    tuple n fails it. Let m be the least failing n (k ** arity if none fails). When
    every equation of ``law`` has an entry with n >= m, the law is answered without a
    scan: it holds when m = k ** arity, and otherwise tuple m is decoded and re-checked
    through ``ops`` (:func:`_rechecked`), as a scan's first failing tuple would be.
    Else the law is scanned, and the record gains what the scan proved (:func:`_prove`).
    This is exact. The columns read only the tables, so a scan gives the same lanes
    whichever ``ops`` share them; a pass never evaluates ``ops``; a failure is still
    re-checked on the live operations; and a scan that fell back to ``ops`` for any slab
    records nothing. So every verdict, witness and error is a fresh scan's.
    """
    elements, arity = ops.elements, law.arity
    k = len(elements)
    if k <= 256 and k ** arity >= _MIN_COLUMN_TUPLES:
        tables = ops._tables_with_complement if law.needs_complement else ops._tables
        if tables is not None:
            route, first = f"the compiled tables of {ops!r}", _recorded(tables.scanned, law, k ** arity)
            if first is None:
                points = [_indexed(elements, tables)]
                return _column_verdict(route, ops, law, [elements], points, itemgetter(0), tables.scanned)
            if first == k ** arity:
                return Verdict.holds_exhaustive()
            args = tuple(elements[first // k ** p % k] for p in reversed(range(arity)))
            return _rechecked(ops, law, args, route)
    return _verdict(ops, law, product(elements, repeat=arity))


def _recorded(record, law: Law, total: int) -> int | None:
    """The first of the ``total`` tuples that fails ``law`` by ``record`` (``total`` when
    none does), or None when some equation has no entry of ``law``'s arity reaching it."""
    try:
        entries = [record.get(fn) for _, fn in law.equations]
    except TypeError:  # a function that cannot be weakly referenced has no entry
        return None
    if any(entry is None or entry[0] != law.arity for entry in entries):
        return None
    first = min((n for _, n, fails in entries if fails), default=total)
    return first if all(n >= first for _, n, _ in entries) else None


def _prove(record, law: Law, n: int, failing: int | None = None) -> None:
    """Add to ``record`` that the first ``n`` tuples pass every equation of ``law`` and,
    unless ``failing`` is None, that tuple n fails the equation of that index. An entry
    is never lowered; one of another arity is replaced."""
    for i, (_, fn) in enumerate(law.equations):
        entry = (law.arity, n, i == failing)
        try:
            old = record.get(fn)
            record[fn] = entry if old is None or old[0] != entry[0] else max(old, entry)
        except TypeError:
            pass


def _exhaustive_verdict(
    family: AlgebraFamily, ops: _SetOps, law: Law, carriers: list[tuple[Element, ...]]
) -> Verdict:
    """All tuples of sets over the deciding ``carriers`` (:func:`_carriers`), in declaration
    order, on the column kernel (:func:`_column_verdict`), each point on its lanes
    (:func:`_point_lanes`).
    Where every point can be looked up, each tuple is looked up in each point's law tables
    by its number, with no argument column (:func:`_numbered_verdict`).
    """
    points = [_point_lanes(alg, law, exhaustive=True) for alg in family.handles]
    route = f"the points of {family!r}"
    return _column_verdict(route, ops, law, carriers, points, partial(ModernSet, family))


def _checked(alg: AlgebraHandle) -> AlgebraHandle:
    """``alg`` with each operation raising when its result leaves the carrier."""
    def checked(op: Callable | None) -> Callable | None:
        def run(*args):
            if alg.is_member(result := op(*args)):
                return result
            raise StructuralError(f"a result left the carrier of {alg.name!r}")
        return op and run

    return replace(alg, wedge=checked(alg.wedge), vee=checked(alg.vee), complement=checked(alg.complement))


def _point_lanes(alg: AlgebraHandle, law: Law, exhaustive: bool = False) -> _Lanes:
    """A family point's lanes in a scan of ``law``, built once per handle, route and
    complement flag and kept on the handle (``AlgebraHandle._lanes``). In an exhaustive
    scan, or at a finite point, element indices over its carrier (:func:`_carrier`) where
    its tables compile (at most 256 elements), else carrier values made from index digits;
    at an infinite point of a sampled scan, its codes, else its values. Values run under
    :func:`_checked` operations."""
    route = (exhaustive or alg.finite, law.needs_complement)
    if (lanes := alg._lanes.get(route)) is not None:
        return lanes
    if not (exhaustive or alg.finite):
        codes = _bound_codes(alg)
        lanes = _coded(codes) if codes else _mapped(_checked(alg))
    else:
        elements = _carrier(alg)
        tables = len(elements) <= 256 and (alg._tables_with_complement if law.needs_complement else alg._tables)
        if tables:
            lanes = _indexed(elements, tables)
        else:
            lanes = _mapped(_checked(alg), lambda drawn: [*map(elements.__getitem__, drawn)])
    alg._lanes[route] = lanes
    return lanes


def _sampled_verdict(family: AlgebraFamily, ops: _SetOps, law: Law, samples: int, seed: int) -> Verdict:
    """The forced tuples of sets (:func:`_forced_tuples`), then ``samples`` tuples of the
    family's draws (:func:`_point_draws`), each point on its lanes (:func:`_point_lanes`),
    scanned a slab at a time (:func:`_slab_verdict`). The slabs are kept on the family's
    stream (:func:`_kept`) for every later law of the arity. Their key names the family,
    which fixes each point's values and draws, the caps of the forced stage, and whether
    each point's lanes hold element indices, which fixes how its columns hold them.
    """
    points, arity = [_point_lanes(alg, law) for alg in family.handles], law.arity
    stream = _stream(family, seed, arity * samples * len(points), partial(_point_draws, family))
    key = (family, arity, samples, _FORCED_CAP, _PER_POINT_CAP, tuple(p.table is not None for p in points))
    slabs = _kept(stream, key, _forced_count(family, arity) + samples, lambda: _sampled_slabs(
        _forced_slabs([p.encoded for p in points], family, arity),
        [p.column for p in points], stream, arity, samples,
    ))
    return _slab_verdict(
        ops, law, _ColumnOps(points, partial(ModernSet, family)), slabs, f"the points of {family!r}", seed,
    )


def _point_draws(family: AlgebraFamily) -> tuple[tuple[int, ...], tuple[Callable, ...]]:
    """The shape of the family's draw (:func:`_slab_draw`): each point's size, 0 at an
    infinite point, and each infinite point's sampler, the code ``_Codes.sample`` draws
    where the point has codes, else the point's ``sample``, else an error that it cannot
    be sampled. A finite point draws an element's index."""
    def unsampled(alg: AlgebraHandle, rng: random.Random):
        raise PreconditionError(f"algebra {alg.name!r} cannot be sampled")

    sizes = tuple(len(alg.elements) if alg.finite else 0 for alg in family.handles)
    samplers = tuple(
        (_bound_codes(alg) or alg).sample or partial(unsampled, alg) for alg in family.handles if not alg.finite
    )
    return sizes, samplers


# A family is scanned exhaustively up to _MAX_EXHAUSTIVE tuples, else on at most
# _FORCED_CAP forced tuples (_PER_POINT_CAP per point) and then seeded draws.
_MAX_EXHAUSTIVE = 50_000
_FORCED_CAP = 20_000
_PER_POINT_CAP = 1000


def _forced_tuples(family: AlgebraFamily, arity: int, sets: list | None = None):
    """Deterministic tuples every sampled family check must try, each set as its number
    in ``sets`` (a new list by default), to which the stage appends each set's values as
    it builds the set.

    All empty/full combinations, then for each point all tuples of spikes
    at that same point (capped per point). Same-point spike tuples are the
    lifted images of per-point counterexample tuples, so a law failing at
    a boundary value of any single point cannot slip past this stage.
    """
    sets = [] if sets is None else sets
    sets += (s._values for s in family._bounds)
    yield from product(range(2), repeat=arity)
    for x in family.universe.points:
        alg = family.algebra_at(x)
        values = alg.elements if alg.elements is not None else alg.boundary
        start = len(sets)
        sets += (lift_point_value(family, x, v)._values for v in values)
        yield from islice(product(range(start, len(sets)), repeat=arity), _PER_POINT_CAP)


def _forced_count(family: AlgebraFamily, arity: int) -> int:
    """How many tuples the forced stage tries (:func:`_forced_tuples`), under its caps."""
    spikes = (len(alg.elements if alg.elements is not None else alg.boundary) ** arity for alg in family.handles)
    return min(2 ** arity + sum(min(n, _PER_POINT_CAP) for n in spikes), _FORCED_CAP)


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
    carriers = _carriers(family)
    if _set_count(carriers) ** law.arity <= _MAX_EXHAUSTIVE:
        verdict = _exhaustive_verdict(family, ops, law, carriers)
        reasons = dict.fromkeys(a.deciding.reason for a in family.handles if not a.finite)
        if not reasons:
            return LawReport(law.name, verdict)
        if verdict.holds:
            details = (("deciding-carrier", "; ".join(reasons)),)
            return LawReport(law.name, replace(verdict, details=details))
        scanned = _sampled_verdict(family, ops, law, 0, seed)
        return LawReport(law.name, scanned if scanned.failed else verdict)
    return LawReport(law.name, _sampled_verdict(family, ops, law, samples, seed))


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


def verify_crisp_restriction(family: AlgebraFamily) -> LawReport:
    """Check that crisp sets over the family behave as ordinary subsets.

    A subset is embedded (I on members, O off) and numbered by its bitmask,
    point i on bit i. Two scans over masks, through the set operations, read
    each result back point by point, I first, then O, else not crisp: a pair's
    union and intersection must give ``a | b`` and ``a & b``, and then, where
    every point declares a complement, a complement gives ``full ^ a``. So a
    point with O = I, where subsets share an embedding, reads back as the
    larger mask and fails too.

    Only the 3|X| + 1 pairs from {∅, {x}}² for each point x are scanned, in
    row-major order, and they give the verdict, witness and error of a scan of
    all 4^|X| pairs:

    * at point x_i a pair (a, b) meets only the cell (a_i, b_i) of that
      point's vee and wedge on {O, I}. Call a cell bad when a result there
      reads back wrongly, is not crisp, leaves the carrier, or raises; a pair
      fails or raises exactly when it meets a bad cell;
    * if some point has a bad cell with first argument O, the first failing
      a is ∅, and b is ∅ or the first {x_j} whose (O, I) cell is bad;
    * otherwise a is {x_i} for the first point with a bad cell, and b is ∅
      or {x_i}.

    So the full scan's first failure lies among these pairs, after the same
    passing ones. If none fails, no cell is bad and no pair of the 4^|X|
    fails. The complement stage scans ∅ and the one-point sets by the same
    argument on the cells O and I; the details still count every crisp set.

    No law over triples needs checking after that: once every pair agrees
    with ``|`` and ``&``, associativity, absorption and both distributive
    laws hold on the crisp sets because they hold for Python integers.
    """
    points, handles = family.universe.points, family.handles
    n = len(points)
    full = (1 << n) - 1
    crisp = {0: embed_crisp(family, ()), **{1 << i: embed_crisp(family, (p,)) for i, p in enumerate(points)}}

    def mask_of(s: ModernSet) -> int | None:
        bits = [1 if alg.one == v else 0 if alg.zero == v else None for alg, v in zip(handles, s._values)]
        return None if None in bits else sum(bit << i for i, bit in enumerate(bits))

    pairs = Law("crisp-pairs", 2, False, (
        ("union", lambda o, a, b: (mask_of(o.vee(crisp[a], crisp[b])), a | b)),
        ("intersection", lambda o, a, b: (mask_of(o.wedge(crisp[a], crisp[b])), a & b)),
    ))
    complements = Law("crisp-complement", 1, False, (
        ("complement", lambda o, a: (mask_of(o.complement(crisp[a])), full ^ a)),
    ))

    ops = _SetOps(family)
    has_complement = ops.complement is not None
    found = _scan(ops, pairs, sorted({(a, b) for i in range(n) for a in (0, 1 << i) for b in (0, 1 << i)}))
    if found is None and has_complement:
        found = _scan(ops, complements, zip(crisp))
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

    crisp_ops_coincide = verify_crisp_restriction(family).verdict

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

    Only collections of two distinct sets are scanned: the caller runs this
    on lattice-backed points only, where the sets form a lattice under union
    and intersection, so by the argument in :func:`check_cha` the first
    failing collection in size order is a pair. The family scan
    (:func:`_exhaustive_verdict`) scans the triples (a, b, y) of sets, and
    the first failing one is the first failing pair ``((a, b), y)`` of
    ``product(combinations(sets, 2), sets)``: a = b never fails
    (idempotence), and (b, a, y) fails iff (a, b, y) does (union commutes).
    Its witness is given as that pair, whose sides it has already re-checked
    through the set operations.
    """
    verdict = _exhaustive_verdict(family, _SetOps(family), _CHA_TRIPLE_LAW, _carriers(family))
    return _as_pair(verdict, "(vee of collection) wedge B = vee of pairwise wedges")


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
