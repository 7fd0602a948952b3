"""Independent oracle for the benchmark.

Nothing here calls the law engine of modernsets. The eleven law equations
are restated below, and a naive evaluator scans integer-indexed operation
tables in declaration order, so it yields each law's truth and its first
witness exactly as the package must report them. Lattices get their meet
and join rebuilt naively from the order that their covers generate, and
the unit interval and the 2x2 matrices get their own arithmetic.

A separate re-check evaluates a witness from scratch through the raw
``wedge``/``vee``/``complement`` of the algebra handles that produced it,
never through ``union`` or ``check_law``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

# (name, arity, needs_complement, ((label, fn(ops, *args) -> (lhs, rhs)), ...))
LAWS = (
    ("commutative-wedge", 2, False, (
        ("x wedge y = y wedge x", lambda o, x, y: (o.w(x, y), o.w(y, x))),
    )),
    ("commutative-vee", 2, False, (
        ("x vee y = y vee x", lambda o, x, y: (o.v(x, y), o.v(y, x))),
    )),
    ("associative-wedge", 3, False, (
        ("x wedge (y wedge z) = (x wedge y) wedge z",
         lambda o, x, y, z: (o.w(x, o.w(y, z)), o.w(o.w(x, y), z))),
    )),
    ("associative-vee", 3, False, (
        ("x vee (y vee z) = (x vee y) vee z",
         lambda o, x, y, z: (o.v(x, o.v(y, z)), o.v(o.v(x, y), z))),
    )),
    ("absorption", 2, False, (
        ("x wedge (x vee y) = x", lambda o, x, y: (o.w(x, o.v(x, y)), x)),
        ("x vee (x wedge y) = x", lambda o, x, y: (o.v(x, o.w(x, y)), x)),
    )),
    ("distributive", 3, False, (
        ("x vee (y wedge z) = (x vee y) wedge (x vee z)",
         lambda o, x, y, z: (o.v(x, o.w(y, z)), o.w(o.v(x, y), o.v(x, z)))),
        ("x wedge (y vee z) = (x wedge y) vee (x wedge z)",
         lambda o, x, y, z: (o.w(x, o.v(y, z)), o.v(o.w(x, y), o.w(x, z)))),
    )),
    ("idempotent-wedge", 1, False, (
        ("x wedge x = x", lambda o, x: (o.w(x, x), x)),
    )),
    ("idempotent-vee", 1, False, (
        ("x vee x = x", lambda o, x: (o.v(x, x), x)),
    )),
    ("excluded-middle", 1, True, (
        ("x vee complement(x) = I", lambda o, x: (o.v(x, o.c(x)), o.one)),
    )),
    ("non-contradiction", 1, True, (
        ("x wedge complement(x) = O", lambda o, x: (o.w(x, o.c(x)), o.zero)),
    )),
    ("de-morgan", 2, True, (
        ("complement(x vee y) = complement(x) wedge complement(y)",
         lambda o, x, y: (o.c(o.v(x, y)), o.w(o.c(x), o.c(y)))),
        ("complement(x wedge y) = complement(x) vee complement(y)",
         lambda o, x, y: (o.c(o.w(x, y)), o.v(o.c(x), o.c(y)))),
    )),
)
LAW_NAMES = tuple(law[0] for law in LAWS)
BY_NAME = {law[0]: law for law in LAWS}
EQUATION = {label: fn for law in LAWS for label, fn in law[3]}
NEEDS_COMPLEMENT = {law[0]: law[2] for law in LAWS}


# ---------------------------------------------------------------------------
# Rendering, restated from the package's documented output format


def render(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return "[" + ",".join("[" + ",".join(render(e) for e in row) + "]" for row in value) + "]"
    return str(value)


def fails_line(label, inputs, lhs, rhs) -> str:
    ins = ", ".join(render(v) for v in inputs)
    return f"fails: {label}: inputs ({ins}) give {render(lhs)} != {render(rhs)}"


HOLDS_EXHAUSTIVE = "holds (exhaustive)"


# ---------------------------------------------------------------------------
# Finite algebras as integer tables


class Table:
    """Finite algebra over indices 0..n-1 of ``tokens`` (declaration order)."""

    def __init__(self, name, tokens, wedge, vee, complement, zero, one):
        self.name = name
        self.tokens = tuple(tokens)
        self.wedge = wedge  # list of lists of indices
        self.vee = vee
        self.complement = complement  # list of indices, or None
        self.zero = zero
        self.one = one
        self.ops = SimpleNamespace(
            w=lambda x, y: wedge[x][y],
            v=lambda x, y: vee[x][y],
            c=(lambda x: complement[x]) if complement is not None else None,
            zero=zero,
            one=one,
        )

    def first_witness(self, law_name):
        """(label, inputs, lhs, rhs) in tokens, or None when the law holds."""
        _, arity, _, equations = BY_NAME[law_name]
        ops, tok = self.ops, self.tokens
        for args in product(range(len(tok)), repeat=arity):
            for label, fn in equations:
                lhs, rhs = fn(ops, *args)
                if lhs != rhs:
                    return label, tuple(tok[a] for a in args), tok[lhs], tok[rhs]
        return None

    def law_line(self, law_name) -> str:
        """The verdict line check_law must print for this algebra."""
        if NEEDS_COMPLEMENT[law_name] and self.complement is None:
            return f"not applicable (algebra {self.name!r} declares no complement)"
        witness = self.first_witness(law_name)
        return HOLDS_EXHAUSTIVE if witness is None else fails_line(*witness)

    def holds(self, law_name) -> bool | None:
        """Truth of the law; None when it needs a complement that is missing."""
        if NEEDS_COMPLEMENT[law_name] and self.complement is None:
            return None
        return self.first_witness(law_name) is None

    def identities_hold(self) -> bool:
        """The eight O/I identities and O != I."""
        o, i = self.zero, self.one
        w, v = self.wedge, self.vee
        return o != i and (w[o][i], w[i][o], w[o][o], w[i][i]) == (o, o, o, i) and (
            v[o][i], v[i][o], v[o][o], v[i][i]) == (i, i, o, i)

    def first_noncommuting(self, op):
        t = self.wedge if op == "wedge" else self.vee
        for x, y in product(range(len(self.tokens)), repeat=2):
            if t[x][y] != t[y][x]:
                tok = self.tokens
                return f"{op}(x, y) = {op}(y, x)", (tok[x], tok[y]), tok[t[x][y]], tok[t[y][x]]
        return None


CENSUS_TOKENS = ("O", "m", "I")
# The five wedge/vee entries the eight identities leave free, as index pairs.
CENSUS_FREE = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))


def census_tables(index: int):
    """Wedge and vee index tables of census algebra ``index`` in [0, 3**10)."""
    digits = [(index // 3 ** k) % 3 for k in range(10)]
    tables = []
    for half in (digits[:5], digits[5:]):
        t = [[None] * 3 for _ in range(3)]
        for (x, y), d in zip(CENSUS_FREE, half):
            t[x][y] = d
        tables.append(t)
    wedge, vee = tables
    wedge[0][2] = wedge[2][0] = wedge[0][0] = 0
    wedge[2][2] = 2
    vee[0][2] = vee[2][0] = vee[2][2] = 2
    vee[0][0] = 0
    return wedge, vee


CENSUS_COMPLEMENT = [2, 1, 0]  # O <-> I, m fixed: the one involution swapping O and I


def census_table(name, index, with_complement) -> Table:
    wedge, vee = census_tables(index)
    return Table(name, CENSUS_TOKENS, wedge, vee,
                 CENSUS_COMPLEMENT if with_complement else None, 0, 2)


# ---------------------------------------------------------------------------
# Lattices rebuilt naively from their covers


class NaiveLattice:
    """Order from the transitive closure of the covers; meet and join by search."""

    def __init__(self, name, tokens, covers):
        self.name = name
        self.tokens = tuple(tokens)
        n = len(self.tokens)
        idx = {t: i for i, t in enumerate(self.tokens)}
        above = [set() for _ in range(n)]
        for lo, up in covers:
            above[idx[lo]].add(idx[up])
        leq = []
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                for j in above[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            leq.append(seen)
        self.leq = leq  # leq[i] = indices j with i <= j

        def glb(i, j):
            lower = [k for k in range(n) if i in leq[k] and j in leq[k]]
            (best,) = [g for g in lower if all(g in leq[k] for k in lower)]
            return best

        def lub(i, j):
            upper = [k for k in range(n) if k in leq[i] and k in leq[j]]
            (best,) = [g for g in upper if all(k in leq[g] for k in upper)]
            return best

        self.meet = [[glb(i, j) for j in range(n)] for i in range(n)]
        self.join = [[lub(i, j) for j in range(n)] for i in range(n)]
        (self.bottom,) = [i for i in range(n) if len(leq[i]) == n]
        (self.top,) = [i for i in range(n) if all(i in leq[k] for k in range(n))]
        self.table = Table(name, self.tokens, self.meet, self.join, None, self.bottom, self.top)
        self.distributive = self.table.holds("distributive")

    def frame_witness_line(self):
        """First frame-law failure, or None.

        Families of size 0 and 1 satisfy the frame law in every lattice, and
        on families of size 2 it is binary distributivity, so a lattice fails
        it exactly when it is not distributive, first at a pair.
        """
        if self.distributive:
            return None
        tok, m, j = self.tokens, self.meet, self.join
        n = len(tok)
        for a in range(n):
            for b in range(a + 1, n):
                for y in range(n):
                    lhs = m[j[a][b]][y]
                    rhs = j[m[a][y]][m[b][y]]
                    if lhs != rhs:
                        return (f"fails: (vee family) wedge y = vee of (s wedge y): inputs "
                                f"({(tok[a], tok[b])}, {tok[y]}) give {tok[lhs]} != {tok[rhs]}")
        raise AssertionError("non-distributive lattice without a failing pair")

    def boolean_line(self):
        if not self.distributive:
            return "not applicable (lattice is not distributive)"
        n = len(self.tokens)
        for x in range(n):
            count = sum(
                1 for y in range(n)
                if self.meet[x][y] == self.bottom and self.join[x][y] == self.top
            )
            if count != 1:
                t = self.tokens[x]
                return (f"fails: element {t!r} has {count} complement(s), expected 1: "
                        f"inputs ({t}) give {count} != 1")
        return HOLDS_EXHAUSTIVE

    def certificate_lines(self):
        """The lines LatticeCertificate.describe() must print."""
        t = self.table

        def scan(laws):
            eqs = [eq for name in laws for eq in BY_NAME[name][3]]
            arity = BY_NAME[laws[0]][1]
            for args in product(range(len(self.tokens)), repeat=arity):
                for label, fn in eqs:
                    lhs, rhs = fn(t.ops, *args)
                    if lhs != rhs:
                        tok = self.tokens
                        return fails_line(label, tuple(tok[a] for a in args), tok[lhs], tok[rhs])
            return HOLDS_EXHAUSTIVE

        frame = self.frame_witness_line()
        return [
            f"lattice {self.name}: {len(self.tokens)} elements",
            f"  commutative: {scan(('commutative-wedge', 'commutative-vee'))}",
            f"  associative: {scan(('associative-wedge', 'associative-vee'))}",
            f"  absorption: {scan(('absorption',))}",
            f"  distributive: {t.law_line('distributive')}",
            f"  complete-heyting: {frame or HOLDS_EXHAUSTIVE}",
            f"  boolean-complemented: {self.boolean_line()}",
        ]


# ---------------------------------------------------------------------------
# Infinite carriers: their own arithmetic, boundary pools and law profiles


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_normalize(a):
    n = len(a)
    q = a[0][0]
    scalar = all(a[i][j] == (q if i == j else 0) for i in range(n) for j in range(n))
    if scalar and q.denominator == 1 and q >= 1:
        return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    return a


def _unit(n, i, j):
    return tuple(tuple(Fraction(int((r, c) == (i, j))) for c in range(n)) for r in range(n))


_F0, _F1 = Fraction(0), Fraction(1)
_MAT2_ZERO = ((_F0, _F0), (_F0, _F0))
_MAT2_ONE = ((_F1, _F0), (_F0, _F1))

# Each infinite carrier: its ops, the boundary pool the package documents as
# scanned first, and the laws known to hold on it. A law outside that set is
# false; when no boundary tuple shows it, a sampled "holds" is a sampling
# miss, counted but not an error.
INFINITE = {
    "fuzzy": SimpleNamespace(
        ops=SimpleNamespace(w=min, v=max, c=lambda x: 1 - x, zero=_F0, one=_F1),
        boundary=(_F0, _F1, Fraction(1, 2)),
        true_laws=frozenset(LAW_NAMES) - {"excluded-middle", "non-contradiction"},
        has_complement=True,
    ),
    "mat2": SimpleNamespace(
        ops=SimpleNamespace(
            w=lambda x, y: mat_normalize(_mat_mul(x, y)),
            v=lambda x, y: mat_normalize(_mat_add(x, y)),
            c=None, zero=_MAT2_ZERO, one=_MAT2_ONE,
        ),
        boundary=(_MAT2_ZERO, _MAT2_ONE, _unit(2, 0, 1), _unit(2, 1, 0)),
        true_laws=frozenset({"commutative-vee"}),
        has_complement=False,
    ),
}


def boundary_witness(kind, law_name):
    """First failing boundary tuple of an infinite carrier, or None."""
    carrier = INFINITE[kind]
    _, arity, _, equations = BY_NAME[law_name]
    for args in product(carrier.boundary, repeat=arity):
        for label, fn in equations:
            lhs, rhs = fn(carrier.ops, *args)
            if lhs != rhs:
                return label, args, lhs, rhs
    return None


def noncommuting_boundary_line(kind, op):
    """First noncommuting pair over the boundary pool, as the CLI prints it."""
    carrier = INFINITE[kind]
    f = carrier.ops.w if op == "wedge" else carrier.ops.v
    for x in carrier.boundary:
        for y in carrier.boundary:
            if f(x, y) != f(y, x):
                return fails_line(f"{op}(x, y) = {op}(y, x)", (x, y), f(x, y), f(y, x))[len("fails: "):]
    return None


# ---------------------------------------------------------------------------
# Witness re-check through the raw operations of the handles


def handle_ops(h):
    return SimpleNamespace(w=h.wedge, v=h.vee, c=h.complement, zero=h.zero, one=h.one)


def pointwise_ops(handles: dict):
    """Set operations computed point by point from raw handle operations."""
    return SimpleNamespace(
        w=lambda a, b: {x: h.wedge(a[x], b[x]) for x, h in handles.items()},
        v=lambda a, b: {x: h.vee(a[x], b[x]) for x, h in handles.items()},
        c=lambda a: {x: h.complement(a[x]) for x, h in handles.items()},
        zero={x: h.zero for x, h in handles.items()},
        one={x: h.one for x, h in handles.items()},
    )


def recheck(ops, witness, convert=lambda v: v) -> bool:
    """Does the witness reproduce: its equation gives exactly its two unequal sides?"""
    fn = EQUATION.get(witness.note)
    if fn is None:
        return False
    lhs, rhs = fn(ops, *(convert(v) for v in witness.inputs))
    return lhs == convert(witness.lhs) and rhs == convert(witness.rhs) and lhs != rhs
