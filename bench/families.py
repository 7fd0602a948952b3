"""families: seeded 1-3-point families over eight shipped algebras.

Algebras: classical2, chain3, chain5, pow2, m3, n5, fuzzy and mat2. One
block holds one family for each multiset of carrier sizes (2, 3, 4, 5,
the unit interval, the matrices) on 1-3 points: 83 families, the 5-slots
filled by chain5, m3 and n5 in turn. The seed draws the point order and
names, the sample seeds and the job order, so runs with different seeds
do the same amount of work on different inputs. Each job runs ``lift_check`` for all
11 laws, ``classify_family``, ``verify_crisp_restriction`` and, where
every point is order-backed, ``check_gf_ring_conditions`` (elsewhere its
refusal is the expected answer). This is the ``sets`` layer's workload:
it mixes exhaustive and sampled regimes and both infinite carriers, so
``matrix`` and ``Fraction`` costs show here too.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from modernsets import (
    AlgebraFamily,
    LAW_NAMES,
    PreconditionError,
    Universe,
    chain_algebra,
    classical_algebra,
    classify_family,
    check_gf_ring_conditions,
    complement,
    fuzzy_algebra,
    intersection,
    lattice_algebra,
    lift_check,
    m3_lattice,
    matrix_algebra,
    modern_set,
    n5_lattice,
    powerset_lattice,
    union,
    verify_crisp_restriction,
)

import oracle
from common import Workload, NS, US, Check, per_call

SLOTS = {"2": ("classical2",), "3": ("chain3",), "4": ("pow2",),
         "5": ("chain5", "m3", "n5"), "F": ("fuzzy",), "M": ("mat2",)}
CLASSES = [c for k in (1, 2, 3) for c in combinations_with_replacement(sorted(SLOTS), k)]
POINT_NAMES = ("p", "q", "r", "s", "t", "u", "v", "w")


def shipped_algebras():
    return {
        "classical2": classical_algebra(),
        "chain3": chain_algebra(3),
        "chain5": chain_algebra(5),
        "pow2": lattice_algebra(powerset_lattice(2)),
        "m3": lattice_algebra(m3_lattice()),
        "n5": lattice_algebra(n5_lattice()),
        "fuzzy": fuzzy_algebra(),
        "mat2": matrix_algebra(2),
    }


SETUP_CODE = (
    "import modernsets as ms\n"
    "ms.classical_algebra(); ms.chain_algebra(3); ms.chain_algebra(5)\n"
    "ms.lattice_algebra(ms.powerset_lattice(2)); ms.lattice_algebra(ms.m3_lattice())\n"
    "ms.lattice_algebra(ms.n5_lattice()); ms.fuzzy_algebra(); ms.matrix_algebra(2)"
)


class PointOracle:
    """What the oracle knows about one shipped algebra."""

    @classmethod
    def of_table(cls, table, kind, lattice=None):
        """A finite algebra the benchmark defined itself (census tables, file lattices)."""
        po = cls.__new__(cls)
        po.name, po.table, po.kind, po.lattice = table.name, table, kind, lattice
        po.infinite = None
        po.has_complement = table.complement is not None
        return po

    def __init__(self, handle):
        self.name = handle.name
        self.infinite = oracle.INFINITE.get(handle.name)
        self.lattice = None
        if self.infinite is None:
            lat = handle.lattice
            self.lattice = oracle.NaiveLattice(handle.name, lat.elements, lat.covers)
            comp = None
            if handle.complement is not None:
                # Chains declare the order-reversing complement: rank r <-> n + 1 - r.
                n = len(lat.elements)
                rank = [sum(1 for k in range(n) if i in self.lattice.leq[k]) for i in range(n)]
                comp = [rank.index(n + 1 - rank[i]) for i in range(n)]
            nl = self.lattice
            self.table = oracle.Table(handle.name, nl.tokens, nl.meet, nl.join, comp, nl.bottom, nl.top)
            self.has_complement = comp is not None
        else:
            self.has_complement = self.infinite.has_complement
        if handle.name == "classical2":
            self.kind = "classical"
        elif handle.name == "fuzzy":
            self.kind = "fuzzy"
        elif self.lattice is not None:
            self.kind = "cha" if self.lattice.distributive else "lattice"
        else:
            self.kind = "none"

    def truth(self, law):
        """True/False, or None when the law needs a complement this algebra lacks."""
        if oracle.NEEDS_COMPLEMENT[law] and not self.has_complement:
            return None
        if self.infinite is None:
            return self.table.holds(law)
        return law in self.infinite.true_laws


def expected_level(kinds):
    if all(k == "classical" for k in kinds):
        return "classical"
    if all(k == "fuzzy" for k in kinds):
        return "fuzzy-like"
    if all(k in ("classical", "fuzzy", "cha") for k in kinds):
        return "generalized-fuzzy"
    if all(k != "none" for k in kinds):
        return "L-fuzzy"
    return "modern"


def check_point_verdict(c, what, v, handle, po, law):
    """A per-point verdict: exact where the oracle can scan, re-checked otherwise."""
    if v.failed:
        c.recheck(what, oracle.recheck(oracle.handle_ops(handle), v.witness))
    if po.truth(law) is None:
        c.expect(what, v.describe(), f"not applicable (algebra {po.name!r} declares no complement)")
    elif po.infinite is None:
        c.expect(what, v.describe(), po.table.law_line(law))
    elif (bw := oracle.boundary_witness(po.name, law)) is not None:
        c.expect(what, v.describe(), oracle.fails_line(*bw))
    elif v.holds and law not in po.infinite.true_laws:
        c.sampled_misses += 1


def check_lift(c, what, report, family, points, law):
    handles = {x: family.algebra_at(x) for x in family.universe.points}
    truths = []
    for x, v in report.per_point.items():
        c.verdict(v)
        check_point_verdict(c, f"{what} at {x}", v, handles[x], points[x], law)
        truths.append(points[x].truth(law))
    fv = report.family_verdict
    c.verdict(fv)
    if None in truths:
        missing = next(x for x in family.universe.points if points[x].truth(law) is None)
        c.expect(what, fv.describe(), f"not applicable (algebra at point {missing!r} declares no complement)")
    else:
        truth = all(truths)  # Birkhoff: identities hold on a product iff on every factor
        if fv.failed:
            c.recheck(what, oracle.recheck(oracle.pointwise_ops(handles), fv.witness,
                                           lambda s: dict(s.membership)))
            c.expect(f"{what} truth", False, truth)
        elif fv.holds and fv.mode == "exhaustive":
            c.expect(f"{what} truth", True, truth)
        elif fv.holds and not truth:
            c.sampled_misses += 1
    c.expect(f"{what} levels agree", report.consistent, True)


class Families(Workload):
    name = "families"
    prefix_blocks = 1
    setup_code = SETUP_CODE

    def __init__(self, root, seed):
        self.rng = random.Random(seed)
        self.algebras = shipped_algebras()
        self.points = {name: PointOracle(h) for name, h in self.algebras.items()}

    def blocks(self):
        rng = self.rng
        while True:
            block, fives = [], 0
            for cls in CLASSES:
                names = []
                for slot in cls:
                    # Rotating, not drawing, the 5-element algebras keeps the
                    # work per block the same for every seed.
                    names.append(SLOTS[slot][fives % 3] if slot == "5" else SLOTS[slot][0])
                    fives += slot == "5"
                rng.shuffle(names)
                points = tuple(rng.sample(POINT_NAMES, len(names)))
                block.append(("+".join(names), points, tuple(names), rng.randrange(1 << 16)))
            rng.shuffle(block)
            yield block

    def family(self, job):
        name, points, names, _ = job
        return AlgebraFamily(Universe(points), {x: self.algebras[a] for x, a in zip(points, names)},
                             name=name)

    def run(self, job, api):
        name, points, names, seed = job
        family = api.call("sets.AlgebraFamily", AlgebraFamily, Universe(points),
                          {x: self.algebras[a] for x, a in zip(points, names)}, name=name)
        lifts = [api.call("laws.lift_check", lift_check, family, law, seed=seed) for law in LAW_NAMES]
        classification = api.call("laws.classify_family", classify_family, family)
        crisp = api.call("sets.verify_crisp_restriction", verify_crisp_restriction, family)
        try:
            gf = api.call("laws.check_gf_ring_conditions", check_gf_ring_conditions, family, seed=seed)
        except PreconditionError as exc:
            gf = exc
        lines = []
        for r in (*lifts, classification, crisp):
            lines += api.call("reporting.describe", r.describe).splitlines()
        if isinstance(gf, PreconditionError):
            lines.append(f"refused: {gf}")
        else:
            lines += api.call("reporting.describe", gf.describe).splitlines()
        return family, lifts, classification, crisp, gf, lines

    def check(self, job, result):
        c = Check()
        name, points, names, _ = job
        if isinstance(result, Exception):
            c.error(name, result)
            return c
        family, lifts, classification, crisp, gf, lines = result
        c.lines = lines
        po = {x: self.points[a] for x, a in zip(points, names)}
        c.expect(f"{name} law order", tuple(r.law for r in lifts), LAW_NAMES)
        for report in lifts:
            check_lift(c, f"{name} {report.law}", report, family, po, report.law)
        kinds = [p.kind for p in po.values()]
        c.outcome()
        c.expect(f"{name} classification", classification.level, expected_level(kinds))
        c.verdict(crisp.verdict)
        c.expect(f"{name} crisp", crisp.describe(), "crisp-restriction: holds (exhaustive)")
        c.outcome()
        if "none" in kinds:
            c.expect(f"{name} gfcheck refusal", isinstance(gf, PreconditionError), True)
        elif c.expect(f"{name} gfcheck ran", isinstance(gf, PreconditionError), False):
            c.expect(f"{name} gfcheck passed", gf.passed,
                     all(k in ("classical", "fuzzy", "cha") for k in kinds))
            for x, v in gf.cha_per_point.items():
                lat = po[x].lattice
                if lat is not None:
                    c.expect(f"{name} cha at {x}", v.describe(),
                             lat.frame_witness_line() or oracle.HOLDS_EXHAUSTIVE)
        return c

    def probes(self, jobs):
        rng = random.Random(0)
        finite = [h for h in self.algebras.values() if h.elements is not None]
        tokens = [(f, x, y) for h in finite for x in h.elements for y in h.elements
                  for f in (h.wedge, h.vee)]
        fz, mat = self.algebras["fuzzy"], self.algebras["mat2"]
        fractions = list(fz.boundary) + [fz.sample(rng) for _ in range(40)]
        matrices = list(mat.boundary) + [mat.sample(rng) for _ in range(20)]
        unions, meets, comps, builds = [], [], [], []
        for job in jobs[:40]:
            family = self.family(job)
            values = []
            for _ in range(6):
                membership = {}
                for x in family.universe.points:
                    h = family.algebra_at(x)
                    membership[x] = rng.choice(h.elements) if h.elements else h.sample(rng)
                values.append(membership)
            builds += [(modern_set, family, m) for m in values]
            sets = [modern_set(family, m) for m in values]
            unions += [(union, a, b) for a in sets for b in sets]
            meets += [(intersection, a, b) for a in sets for b in sets]
            if all(family.algebra_at(x).complement is not None for x in family.universe.points):
                comps += [(complement, a) for a in sets]
        return {
            "algebra.token_op_ns": per_call(tokens, NS),
            "algebra.fraction_op_ns": per_call(
                [(f, x, y) for x in fractions for y in fractions for f in (fz.wedge, fz.vee)], NS),
            "matrix.op_us": per_call(
                [(f, x, y) for x in matrices for y in matrices for f in (mat.wedge, mat.vee)], US),
            "matrix.is_member_us": per_call([(mat.is_member, x) for x in matrices], US),
            "sets.union_us": per_call(unions, US),
            "sets.intersection_us": per_call(meets, US),
            "sets.complement_us": per_call(comps, US),
            "sets.modern_set_us": per_call(builds, US),
        }
