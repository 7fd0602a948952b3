"""lattices: seeded random lattices plus M3, N5, pow3 and pow4.

Each block holds 7 closure systems (intersection-closed families of
8-20 subsets of a 6-element set), which are mostly non-distributive and
fail fast, and 9 down-set lattices of random posets (6-14 elements):
these are distributive, so ``check_cha`` runs its full enumeration. Every block holds the same sizes, so runs with different
seeds do comparable work. This isolates ``lattice`` certification and the
``check_cha`` cliff; ``sets`` does almost no work.
"""

from __future__ import annotations

import random

from modernsets import (
    check_all_laws,
    check_gf_ring_conditions,
    check_lattice_laws,
    constant_family,
    lattice_algebra,
    lattice_from_hasse,
    m3_lattice,
    n5_lattice,
    powerset_lattice,
)

import oracle
from census import check_reports
from common import Workload, NS, Check, per_call

# Many sizes, so the job times of a block spread evenly and its median
# does not fall into a gap between two kinds of lattice. Closure systems
# stop at 20 elements: now and then one is distributive, and then
# ``check_cha`` enumerates it in full, which at 24 elements already takes
# about 20 s and at 45 would take minutes. The cliff is loaded on purpose
# by the down-set lattices and pow4.
CLOSURE_SIZES = (8, 10, 12, 14, 16, 18, 20)
DOWNSET_SIZES = (6, 7, 8, 9, 10, 11, 12, 13, 14)
GROUND = 6


def closure_system(rng, size):
    """Masks of an intersection-closed family of subsets of GROUND points,
    holding the full set, with exactly ``size`` members."""
    full = (1 << GROUND) - 1
    while True:
        family = {full}
        for _ in range(2000):
            s = rng.randrange(1 << GROUND)
            grown = family | {s & a for a in family}
            if len(grown) <= size:
                family = grown
            if len(family) == size:
                return sorted(family)


def downset_lattice(rng, size):
    """Masks of the down-sets of a random poset, exactly ``size`` of them."""
    while True:
        k = rng.randint(3, 7)
        if not k + 1 <= size <= 1 << k:
            continue
        p = rng.choice((0.15, 0.3, 0.45, 0.6))
        below = [0] * k  # below[j]: mask of the i < j
        for j in range(k):
            for i in range(j):
                if rng.random() < p:
                    below[j] |= 1 << i | below[i]
        downs = [
            s for s in range(1 << k)
            if all(not s >> j & 1 or below[j] & s == below[j] for j in range(k))
        ]
        if len(downs) == size:
            return downs


def hasse(rng, masks, prefix):
    """Tokens in a seeded declaration order, and the covers of inclusion."""
    order = list(masks)
    rng.shuffle(order)
    token = {m: f"{prefix}{i}" for i, m in enumerate(order)}
    covers = []
    for a in order:
        for b in order:
            if a != b and a & b == a and not any(
                c not in (a, b) and a & c == a and c & b == c for c in order
            ):
                covers.append((token[a], token[b]))
    return tuple(token[m] for m in order), tuple(covers)


class Lattices(Workload):
    name = "lattices"
    prefix_blocks = 4
    setup_code = (
        "import modernsets as ms\n"
        "ms.m3_lattice(); ms.n5_lattice(); ms.powerset_lattice(3); ms.powerset_lattice(4)"
    )

    def __init__(self, root, seed):
        self.rng = random.Random(seed)
        self.shipped = [m3_lattice(), n5_lattice(), powerset_lattice(3), powerset_lattice(4)]

    def blocks(self):
        rng = self.rng
        while True:
            specs = [(lat.name, lat.elements, lat.covers) for lat in self.shipped]
            for size in CLOSURE_SIZES:
                specs.append((f"closure{size}", *hasse(rng, closure_system(rng, size), "k")))
            for size in DOWNSET_SIZES:
                specs.append((f"downset{size}", *hasse(rng, downset_lattice(rng, size), "d")))
            rng.shuffle(specs)
            yield [
                (name, elements, covers, rng.randrange(1 << 16),
                 oracle.NaiveLattice(name, elements, covers))
                for name, elements, covers in specs
            ]

    def run(self, job, api):
        name, elements, covers, seed, _ = job
        lat = api.call("lattice.lattice_from_hasse", lattice_from_hasse, name, elements, covers)
        cert = api.call("lattice.check_lattice_laws", check_lattice_laws, lat)
        alg = api.call("instances.lattice_algebra", lattice_algebra, lat)
        reports = api.call("laws.check_all_laws", check_all_laws, alg)
        gf = None
        if cert.distributive.holds:
            family = api.call("sets.constant_family", constant_family, ("p", "q"), alg)
            gf = api.call("laws.check_gf_ring_conditions", check_gf_ring_conditions, family, seed=seed)
        lines = api.call("reporting.describe", cert.describe).splitlines()
        lines += [api.call("reporting.describe", r.describe) for r in reports]
        if gf is not None:
            lines += api.call("reporting.describe", gf.describe).splitlines()
        return lat, cert, alg, reports, gf, lines

    def check(self, job, result):
        c = Check()
        name, elements, _, _, naive = job
        if isinstance(result, Exception):
            c.error(name, result)
            return c
        lat, cert, alg, reports, gf, lines = result
        c.lines = lines
        tok = naive.tokens
        for i, x in enumerate(tok):
            for j, y in enumerate(tok):
                if not (c.expect(f"{name} meet({x}, {y})", lat.meet(x, y), tok[naive.meet[i][j]])
                        and c.expect(f"{name} join({x}, {y})", lat.join(x, y), tok[naive.join[i][j]])):
                    break
        for label, verdict in cert.entries:
            c.verdict(verdict)
            if verdict.failed and label in ("commutative", "associative", "absorption", "distributive"):
                c.recheck(f"{name} {label}", oracle.recheck(oracle.handle_ops(alg), verdict.witness))
        for got, want in zip(cert.describe().splitlines(), naive.certificate_lines()):
            c.expect(f"{name} certificate", got, want)
        binary = dict(cert.cha.details).get("binary-distributive")
        c.expect(f"{name} cha cross-check", binary.holds if binary else None, naive.distributive)
        check_reports(c, name, reports, naive.table, alg)
        if naive.distributive and c.expect(f"{name} gfcheck ran", gf is not None, True):
            for verdict in (*gf.cha_per_point.values(), gf.powerset_embeds, gf.crisp_ops_coincide,
                            gf.bounds_absorb, gf.cross_validated):
                c.verdict(verdict)
                c.expect(f"{name} gf verdict", verdict.failed, False)
            c.expect(f"{name} gf passed", gf.passed, True)
        return c

    def probes(self, jobs):
        meets, ops = [], []
        for name, elements, covers, _, _ in jobs[:24]:
            lat = lattice_from_hasse(name, elements, covers)
            alg = lattice_algebra(lat)
            for x in elements:
                for y in elements:
                    meets.append((lat.meet, x, y))
                    ops.append((alg.wedge, x, y))
                    ops.append((alg.vee, x, y))
        return {"lattice.meet_ns": per_call(meets, NS), "algebra.token_op_ns": per_call(ops, NS)}
