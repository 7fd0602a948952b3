"""census3: a seeded draw from the 3-element weak Boolean algebras.

Every wedge and vee table on {O, m, I} that the eight identities allow:
five free entries per table, so 3**5 * 3**5 = 59,049 algebras. Half of
the draws carry the one involutive complement (O <-> I, m fixed), so the
complement laws run too. Many tiny exhaustive jobs on token tables: the
per-call overhead of ``algebra`` and the ``laws`` scanner dominates, and
``sets`` and ``lattice`` do no work.
"""

from __future__ import annotations

import random

from modernsets import FiniteAlgebraTable, LAW_NAMES, check_all_laws, check_wba_axioms

import oracle
from common import Workload, NS, Check, per_call

BLOCK = 1000


class Census(Workload):
    name = "census3"
    prefix_blocks = 2
    setup_code = "import modernsets"

    def __init__(self, root, seed):
        self.rng = random.Random(seed)

    def blocks(self):
        tok = oracle.CENSUS_TOKENS
        while True:
            block = []
            for _ in range(BLOCK):
                index = self.rng.randrange(3 ** 10)
                with_complement = self.rng.random() < 0.5
                wedge, vee = oracle.census_tables(index)
                name = f"c{index}" + ("n" if with_complement else "")
                job = (
                    name,
                    index,
                    with_complement,
                    {(tok[x], tok[y]): tok[wedge[x][y]] for x in range(3) for y in range(3)},
                    {(tok[x], tok[y]): tok[vee[x][y]] for x in range(3) for y in range(3)},
                    {t: tok[c] for t, c in zip(tok, oracle.CENSUS_COMPLEMENT)} if with_complement else None,
                )
                block.append(job)
            yield block

    def run(self, job, api):
        name, _, _, wedge, vee, complement = job
        table = api.call("algebra.FiniteAlgebraTable", FiniteAlgebraTable,
                         name, oracle.CENSUS_TOKENS, "O", "I", wedge, vee, complement)
        handle = api.call("algebra.as_handle", table.as_handle)
        axioms = api.call("algebra.check_wba_axioms", check_wba_axioms, handle)
        reports = api.call("laws.check_all_laws", check_all_laws, handle)
        lines = [api.call("reporting.describe", axioms.describe)]
        lines += [api.call("reporting.describe", r.describe) for r in reports]
        return handle, axioms, reports, lines

    def check(self, job, result):
        c = Check()
        if isinstance(result, Exception):
            c.error(job[0], result)
            return c
        handle, axioms, reports, lines = result
        name, index, with_complement = job[:3]
        c.lines = lines
        table = oracle.census_table(name, index, with_complement)
        c.outcome()
        c.expect(f"{name} axioms", axioms.passed, table.identities_hold())
        check_reports(c, name, reports, table, handle)
        return c

    def probes(self, jobs):
        pairs = []
        for name, _, _, wedge, vee, complement in jobs[:200]:
            h = FiniteAlgebraTable(name, oracle.CENSUS_TOKENS, "O", "I", wedge, vee, complement).as_handle()
            for x in h.elements:
                for y in h.elements:
                    pairs.append((h.wedge, x, y))
                    pairs.append((h.vee, x, y))
        return {"algebra.token_op_ns": per_call(pairs, NS)}


def check_reports(c: Check, name, reports, table, handle):
    """check_all_laws output against the oracle table, witnesses re-checked."""
    c.expect(f"{name} law order", tuple(r.law for r in reports), LAW_NAMES)
    ops = oracle.handle_ops(handle)
    for report in reports:
        v = report.verdict
        c.verdict(v)
        c.expect(f"{name} {report.law}", v.describe(), table.law_line(report.law))
        if v.failed:
            c.recheck(f"{name} {report.law}", oracle.recheck(ops, v.witness))
