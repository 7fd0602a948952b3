"""cli: sequential ``python -m modernsets`` processes over a seeded mix.

Set-up writes definition files holding census tables, random lattices,
families and sets. Each block then runs the same 15 kinds of command with
seeded arguments: ``laws``, ``validate``, ``lift``, ``gfcheck``, ``eval``,
``witness`` and ``oracle``, one ``laws`` on the matrix carrier mat2, and
documented exit-2 input errors (a malformed file, a syntax error, a
refusal, an unknown name). This is the only workload that exercises
``cli``, ``fileformat``, ``expressions`` and process start, which is what
every CLI user pays on every call. Exit codes and output lines are checked
against the oracle.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from modernsets import (
    LAW_NAMES,
    check_all_laws,
    complement,
    eval_expression,
    intersection,
    load_file,
    modern_set,
    parse_expression,
    union,
)
from modernsets.cli import builtin_workspace

import oracle
from common import MS, NS, US, Check, Workload, child_env, per_call, timed_in_child, wall_of_child
from families import PointOracle, shipped_algebras
from lattices import closure_system, downset_lattice, hasse

SUBCOMMANDS = ("laws", "validate", "lift", "gfcheck", "eval", "witness", "oracle")
ORDERED_BUILTINS = ("classical2", "chain3", "chain5", "pow2", "m3", "n5", "fuzzy")
N_CENSUS, N_VALIDATE = 16, 4
BAD_KINDS = ("missing-row", "unknown-cover", "outside-carrier", "cycle")


def census_block(name, index, with_complement):
    wedge, vee = oracle.census_tables(index)
    tok = oracle.CENSUS_TOKENS
    lines = [f"algebra {name}", "elements O m I", "zero O", "one I", "wedge"]
    lines += [f"{tok[x]} {tok[y]} {tok[wedge[x][y]]}" for x in range(3) for y in range(3)]
    lines.append("vee")
    lines += [f"{tok[x]} {tok[y]} {tok[vee[x][y]]}" for x in range(3) for y in range(3)]
    if with_complement:
        lines += ["complement", "O I", "m m", "I O"]
    return lines + ["end"]


def lattice_block(name, tokens, covers):
    return [f"lattice {name}", "elements " + " ".join(tokens)] + [
        f"cover {lo} {up}" for lo, up in covers] + ["end"]


def literal(value, point):
    if point.infinite is None:
        return point.table.tokens[value]
    return oracle.render(value)


def parse_value(text):
    """An element as the CLI renders it: a matrix, a rational, or a token."""
    if text.startswith("[["):
        return tuple(tuple(Fraction(e) for e in row.split(",")) for row in text[2:-2].split("],["))
    try:
        return Fraction(text)
    except ValueError:
        return text


def parse_fails(line):
    """(label, inputs, lhs, rhs) from 'fails: <label>: inputs (...) give <lhs> != <rhs>'."""
    label, rest = line[len("fails: "):].split(": inputs (", 1)
    inputs, sides = rest.split(") give ", 1)
    lhs, rhs = sides.split(" != ")
    return label, tuple(parse_value(v) for v in inputs.split(", ")), parse_value(lhs), parse_value(rhs)


class Cli(Workload):
    name = "cli"
    prefix_blocks = 4

    def __init__(self, root, seed):
        self.root = Path(root)
        self.rng = rng = random.Random(seed)
        self.workdir = Path(".bench_work") / f"cli-seed{seed}"
        shutil.rmtree(self.root / self.workdir, ignore_errors=True)
        (self.root / self.workdir).mkdir(parents=True)
        self.points = {name: PointOracle(h) for name, h in shipped_algebras().items()}

        census = []
        for i in range(N_CENSUS):
            index, with_complement = rng.randrange(3 ** 10), i % 2 == 0
            name = f"c{i}"
            census.append((name, index, with_complement))
            table = oracle.census_table(name, index, with_complement)
            self.points[name] = PointOracle.of_table(table, "none")
        self.census = [c[0] for c in census]
        self.write("census.def", [line for c in census for line in census_block(*c)])

        lattices = []
        for i, (make, size) in enumerate([(closure_system, s) for s in (6, 8, 10)]
                                         + [(downset_lattice, s) for s in (5, 6, 8)]):
            name = f"L{i}"
            tokens, covers = hasse(rng, make(rng, size), "e")
            lattices.append((name, tokens, covers))
            nl = oracle.NaiveLattice(name, tokens, covers)
            self.points[name] = PointOracle.of_table(nl.table, "cha" if nl.distributive else "lattice", nl)
        self.lattices = [lat[0] for lat in lattices]
        self.write("lattices.def", [line for lat in lattices for line in lattice_block(*lat)])

        ordered = list(ORDERED_BUILTINS) + self.lattices
        with_comp = [c[0] for c in census if c[2]]
        shapes = [  # (family, algebras at p, q, r)
            # Small enough that every F0 law is checked exhaustively.
            ("F0", [rng.choice(("classical2", "chain3")), rng.choice(("pow2", "m3", "n5", "chain5"))]),
            ("F1", [rng.choice(ordered) for _ in range(3)]),
            ("F2", [rng.choice(self.census), "mat2"]),
            ("F3", [rng.choice(with_comp)]),
            ("F4", [rng.choice(self.census), rng.choice(self.lattices), "fuzzy"]),
        ]
        self.families = {}  # name -> (point names, algebra names, {set name: values})
        lines = []
        for fam, algebras in shapes:
            pts = ("p", "q", "r")[: len(algebras)]
            lines += [f"family {fam}", "universe " + " ".join(pts)]
            lines += [f"assign {x} {a}" for x, a in zip(pts, algebras)] + ["end"]
            sets = {}
            for j in range(3):
                sname = f"S{fam[1:]}_{j}"
                values = [self.random_value(self.points[a]) for a in algebras]
                sets[sname] = values
                lines.append(f"set {sname} over {fam}")
                lines += [f"{x} {literal(v, self.points[a])}" for x, a, v in zip(pts, algebras, values)]
                lines.append("end")
            self.families[fam] = (pts, algebras, sets)
        self.write("families.def", lines)
        self.def_files = [str(self.workdir / f) for f in ("census.def", "lattices.def", "families.def")]
        self.loads = [a for path in self.def_files for a in ("--load", path)]

        self.validate_files = []
        for i in range(N_VALIDATE):
            a, b = f"v{i}a", f"v{i}b"
            lname, fname, sname = f"v{i}L", f"v{i}F", f"v{i}S"
            ia, ib = rng.randrange(3 ** 10), rng.randrange(3 ** 10)
            tokens, covers = hasse(rng, downset_lattice(rng, 5) if i % 2 else closure_system(rng, 7), "e")
            nl = oracle.NaiveLattice(lname, tokens, covers)
            text = census_block(a, ia, True) + census_block(b, ib, False) + lattice_block(lname, tokens, covers)
            text += [f"family {fname}", "universe p q", f"assign p {a}", f"assign q {lname}", "end",
                     f"set {sname} over {fname}", f"p {rng.choice(oracle.CENSUS_TOKENS)}",
                     f"q {rng.choice(tokens)}", "end"]
            expected = [f"algebra {a}: all weak-Boolean-algebra identities hold",
                        f"algebra {b}: all weak-Boolean-algebra identities hold",
                        *nl.certificate_lines(),
                        f"family {fname}: 2 point(s), every point assigned",
                        f"set {sname}: every value in its point's carrier"]
            self.validate_files.append((self.write(f"v{i}.def", text), expected))

        self.bad_files = []
        for i, kind in enumerate(BAD_KINDS):
            text = census_block(f"b{i}", rng.randrange(3 ** 10), False)
            if kind == "missing-row":
                del text[5 + rng.randrange(9)]
            elif kind == "unknown-cover":
                text += ["lattice bl", "elements a b c", "cover a b", "cover b zz", "end"]
            elif kind == "outside-carrier":
                text += ["family bf", "universe p", f"assign p b{i}", "end",
                         "set bs over bf", "p zz", "end"]
            else:
                text += ["lattice bl", "elements a b c", "cover a b", "cover b c", "cover c a", "end"]
            self.bad_files.append((self.write(f"bad{i}.def", text), kind))

    def write(self, filename, lines):
        path = self.workdir / filename
        (self.root / path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def random_value(self, point):
        if point.infinite is None:
            return self.rng.randrange(len(point.table.tokens))
        if point.name == "fuzzy":
            d = self.rng.randint(1, 12)
            return Fraction(self.rng.randint(0, d), d)
        m = tuple(tuple(Fraction(self.rng.randint(-2, 2)) for _ in range(2)) for _ in range(2))
        return oracle.mat_normalize(m)

    @property
    def setup_code(self):
        return ("import modernsets.cli as cli\n"
                "w = cli.builtin_workspace()\n"
                f"for path in {self.def_files!r}:\n"
                "    cli.load_file(path, w)")

    def close(self):
        shutil.rmtree(self.root / self.workdir, ignore_errors=True)
        try:
            (self.root / self.workdir).parent.rmdir()
        except OSError:
            pass

    # -- the mix -------------------------------------------------------------

    def expression(self, names, depth, with_complement):
        """(source text, tree) of a random fully parenthesized set expression."""
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            name = rng.choice(names)
            text, tree = name, ("set", name)
        else:
            op = rng.choice(("\\/", "/\\", "∨", "∧"))
            (lt, ltree), (rt, rtree) = (self.expression(names, depth - 1, with_complement)
                                        for _ in range(2))
            text, tree = f"({lt} {op} {rt})", ("vee" if op in ("\\/", "∨") else "wedge", ltree, rtree)
        if with_complement and rng.random() < 0.3:
            text, tree = rng.choice(("~", "¬")) + text, ("complement", tree)
        return text, tree

    def evaluate(self, fam, tree):
        """Per-point values of an expression tree, from the oracle's own operations."""
        pts, algebras, sets = self.families[fam]
        if tree[0] == "set":
            return sets[tree[1]]
        operands = [self.evaluate(fam, t) for t in tree[1:]]
        result = []
        for i, a in enumerate(algebras):
            point = self.points[a]
            ops = point.table.ops if point.infinite is None else point.infinite.ops
            op = {"vee": ops.v, "wedge": ops.w, "complement": ops.c}[tree[0]]
            result.append(op(*(values[i] for values in operands)))
        return result

    def blocks(self):
        rng = self.rng
        fams = list(self.families)
        builtins = list(shipped_algebras())
        for index in itertools.count():
            block = []
            c = rng.choice(self.census)
            block.append(("laws", ["laws", c, *self.loads], c))
            lat = rng.choice(self.lattices)
            block.append(("laws", ["laws", lat, *self.loads], lat))
            block.append(("laws", ["laws", "mat2", "--seed", str(rng.randrange(1 << 16))], "mat2"))
            path, expected = rng.choice(self.validate_files)
            block.append(("validate", ["validate", path], expected))
            path, kind = rng.choice(self.bad_files)
            block.append(("validate_bad", ["validate", path], kind))
            # Families, laws and algebras of the lift jobs rotate with the
            # block, so the exhaustive share of a prefix is the same for
            # every seed.
            fam, law = ("F0", "F2", "F3")[index % 3], LAW_NAMES[3 * index % 11]
            block.append(("lift", ["lift", fam, law, "--seed", str(rng.randrange(1 << 16)), *self.loads],
                          (self.families[fam][0], self.families[fam][1], law)))
            alg, n, law = builtins[3 * index % 8], rng.randint(1, 2), LAW_NAMES[(3 * index + 1) % 11]
            block.append(("lift", ["lift", f"{alg}@{n}", law],
                          (tuple(f"x{i}" for i in range(1, n + 1)), [alg] * n, law)))
            fam = rng.choice(("F0", "F1"))
            block.append(("gfcheck", ["gfcheck", fam, *self.loads], self.families[fam][1]))
            refused = rng.choice(("mat2", rng.choice(self.census)))
            block.append(("refused", ["gfcheck", f"{refused}@2", *self.loads],
                          f"error: algebra {refused!r} at point 'x1' is not lattice-backed; "
                          f"the ring-of-sets conditions need a per-point order"))
            fam = rng.choice(fams)
            pts, algebras, sets = self.families[fam]
            with_comp = all(self.points[a].has_complement for a in algebras)
            expr, tree = self.expression(list(sets), 3, with_comp)
            block.append(("eval", ["eval", fam, expr, *self.loads], (fam, tree)))
            if rng.random() < 0.5:
                src = expr + " \\/"
                message = f"error: expected an identifier, '~', or '(' (column {len(src)})"
            else:
                i = rng.choice([i for i in range(len(expr) + 1)
                                if expr[i - 1:i + 1] not in ("\\/", "/\\")])
                src = expr[:i] + "$" + expr[i:]
                message = f"error: unexpected character '$' (column {i + 1})"
            block.append(("refused", ["eval", fam, src, *self.loads], message))
            c, op = rng.choice(self.census), rng.choice(("wedge", "vee"))
            block.append(("witness", ["witness", c, op, *self.loads], (c, op)))
            block.append(("witness", ["witness", "mat2", op], ("mat2", op)))
            block.append(("oracle", ["oracle", rng.choice(fams), *self.loads], None))
            k = rng.randrange(1000)
            block.append(("refused", ["laws", f"nosuch{k}"], f"error: unknown algebra 'nosuch{k}'"))
            rng.shuffle(block)
            yield block

    def run(self, job, api):
        kind, argv, _ = job
        return api.call(f"cli.process.{argv[0]}", subprocess.run,
                        [sys.executable, "-m", "modernsets", *argv], cwd=self.root,
                        env=child_env(self.root), capture_output=True, text=True, timeout=60)

    # -- checks --------------------------------------------------------------

    def check(self, job, result):
        c = Check()
        kind, argv, payload = job
        what = " ".join(argv[:3])
        if isinstance(result, Exception):
            c.error(what, result)
            return c
        out, err = result.stdout.splitlines(), result.stderr.splitlines()
        c.lines = [f"$ {' '.join(argv)}", f"exit {result.returncode}", *out, *err]
        if "Traceback" in result.stderr:
            c.mismatch(what, "a traceback", "no traceback")
            return c
        getattr(self, f"check_{kind}")(c, what, payload, result.returncode, out, err)
        return c

    def expect_lines(self, c, what, out, expected):
        c.expect(f"{what} line count", len(out), len(expected))
        for got, want in zip(out, expected):
            c.expect(what, got, want)

    def point_line(self, c, what, point, law, text):
        """One per-point verdict as printed; exact where the oracle can scan."""
        c.verdict_text(text)
        if point.truth(law) is None:
            c.expect(what, text, f"not applicable (algebra {point.name!r} declares no complement)")
        elif point.infinite is None:
            c.expect(what, text, point.table.law_line(law))
        elif (bw := oracle.boundary_witness(point.name, law)) is not None:
            c.expect(what, text, oracle.fails_line(*bw))
        elif text.startswith("fails: "):
            label, inputs, lhs, rhs = parse_fails(text)
            fn = oracle.EQUATION.get(label)
            ok = fn is not None and fn(point.infinite.ops, *inputs) == (lhs, rhs) and lhs != rhs
            c.recheck(what, ok)
        elif law not in point.infinite.true_laws:
            c.sampled_misses += 1

    def check_laws(self, c, what, name, code, out, err):
        point = self.points[name]
        c.expect(f"{what} header", out[:1], [f"algebra {name}:"])
        c.expect(f"{what} line count", len(out), 1 + len(LAW_NAMES))
        failed = False
        for law, line in zip(LAW_NAMES, out[1:]):
            prefix = f"  {law}: "
            if c.expect(what, line[:len(prefix)], prefix):
                self.point_line(c, f"{what} {law}", point, law, line[len(prefix):])
                failed |= line[len(prefix):].startswith("fails: ")
        c.expect(f"{what} exit", code, 1 if failed else 0)

    def check_validate(self, c, what, expected, code, out, err):
        self.expect_lines(c, what, out, expected)
        for line in out:
            label, _, verdict = line.partition(": ")
            if line.startswith("  "):
                c.verdict_text(verdict)
            else:
                c.outcome()
        c.expect(f"{what} exit", code, 0)

    def check_validate_bad(self, c, what, kind, code, out, err):
        c.outcome()
        if kind == "cycle":
            c.expect(f"{what} exit", code, 1)
            c.expect(what, len(out) == 1 and out[0].startswith("invalid: lattice 'bl': cycle through"), True)
            return
        needle = {"missing-row": "wedge table missing row", "unknown-cover": "unknown element 'zz' in cover",
                  "outside-carrier": "is not in the carrier"}[kind]
        c.expect(f"{what} exit", code, 2)
        c.expect(what, len(err) == 1 and err[0].startswith("error: ") and needle in err[0], True)

    def check_lift(self, c, what, payload, code, out, err):
        pts, algebras, law = payload
        points = [self.points[a] for a in algebras]
        c.expect(f"{what} line count", len(out), 3 + len(pts))
        if len(out) != 3 + len(pts):
            return
        c.expect(what, out[0], f"law {law}:")
        for x, point, line in zip(pts, points, out[2:]):
            prefix = f"  at point {x!r}: "
            if c.expect(what, line[:len(prefix)], prefix):
                self.point_line(c, f"{what} at {x}", point, law, line[len(prefix):])
        prefix = "  family of sets: "
        fv = out[1][len(prefix):]
        c.expect(what, out[1][:len(prefix)], prefix)
        c.verdict_text(fv)
        truths = [p.truth(law) for p in points]
        if None in truths:
            missing = pts[truths.index(None)]
            c.expect(what, fv, f"not applicable (algebra at point {missing!r} declares no complement)")
        elif fv == oracle.HOLDS_EXHAUSTIVE or fv.startswith("fails: "):
            c.expect(f"{what} truth", fv == oracle.HOLDS_EXHAUSTIVE, all(truths))
        elif not all(truths):
            c.sampled_misses += 1
        c.expect(what, out[-1], "  levels agree: yes")
        c.expect(f"{what} exit", code, 1 if fv.startswith("fails: ") else 0)

    def check_gfcheck(self, c, what, algebras, code, out, err):
        c.outcome()
        passed = all(self.points[a].kind in ("classical", "fuzzy", "cha") for a in algebras)
        c.expect(what, out[-1:], ["  overall: " + ("passed" if passed else "failed")])
        c.expect(f"{what} exit", code, 0 if passed else 1)

    def check_refused(self, c, what, message, code, out, err):
        c.outcome()
        c.expect(f"{what} exit", code, 2)
        c.expect(what, err, [message])

    def check_eval(self, c, what, payload, code, out, err):
        c.outcome()
        fam, tree = payload
        pts, algebras, _ = self.families[fam]
        values = self.evaluate(fam, tree)
        self.expect_lines(c, what, out, [f"{x} {literal(v, self.points[a])}"
                                         for x, a, v in zip(pts, algebras, values)])
        c.expect(f"{what} exit", code, 0)

    def check_witness(self, c, what, payload, code, out, err):
        c.outcome()
        name, op = payload
        point = self.points[name]
        if point.infinite is None:
            found = point.table.first_noncommuting(op)
            text = oracle.fails_line(*found)[len("fails: "):] if found else None
        else:
            text = oracle.noncommuting_boundary_line(name, op)
        if text is None:
            text = f"no noncommuting pair for {op} found (budget=1000, seed=0)"
        c.expect(what, out, [f"algebra {name}: {text}"])
        c.expect(f"{what} exit", code, 0)

    def check_oracle(self, c, what, payload, code, out, err):
        c.verdict_text(out[0].partition(": ")[2] if out else "")
        c.expect(what, out, ["crisp-restriction: holds (exhaustive)"])
        c.expect(f"{what} exit", code, 0)

    # -- per-layer measurements of the traced run ------------------------------

    def workspace(self):
        """A builtin workspace with the definition files loaded; and the load time."""
        ws = builtin_workspace()
        start = perf_counter()
        for path in self.def_files:
            load_file(str(self.root / path), ws)
        return ws, perf_counter() - start

    def probes(self, jobs):
        ws, _ = self.workspace()
        tokens = [(f, x, y) for c in self.census for h in (ws.algebras[c],)
                  for x in h.elements for y in h.elements for f in (h.wedge, h.vee)]
        meets = [(lat.meet, x, y) for lat in ws.lattices.values() if lat.name in self.lattices
                 for x in lat.elements for y in lat.elements]
        fz, mat = ws.algebras["fuzzy"], ws.algebras["mat2"]
        carried = {h.name: [] for h in (fz, mat)}
        for s in ws.sets.values():
            for x in s.family.universe.points:
                h = s.family.algebra_at(x)
                if h.name in carried:
                    carried[h.name].append(s.value_at(x))
        fractions = list(fz.boundary) + carried["fuzzy"]
        matrices = list(mat.boundary) + carried["mat2"]
        unions, meets_s, comps, builds = [], [], [], []
        for family in ws.families.values():
            sets = [s for s in ws.sets.values() if s.family is family]
            unions += [(union, a, b) for a in sets for b in sets]
            meets_s += [(intersection, a, b) for a in sets for b in sets]
            builds += [(modern_set, family, dict(s.membership)) for s in sets]
            if all(family.algebra_at(x).complement is not None for x in family.universe.points):
                comps += [(complement, a) for a in sets]
        exprs = [job[1][2] for job in jobs if job[0] == "eval"]
        trees = [parse_expression(e) for e in exprs]
        reports = [r for c in self.census for r in check_all_laws(ws.algebras[c])]
        return {
            "algebra.token_op_ns": per_call(tokens, NS),
            "algebra.fraction_op_ns": per_call(
                [(f, x, y) for x in fractions for y in fractions for f in (fz.wedge, fz.vee)], NS),
            "matrix.op_us": per_call(
                [(f, x, y) for x in matrices for y in matrices for f in (mat.wedge, mat.vee)], US),
            "matrix.is_member_us": per_call([(mat.is_member, x) for x in matrices], US),
            "lattice.meet_ns": per_call(meets, NS),
            "sets.union_us": per_call(unions, US),
            "sets.intersection_us": per_call(meets_s, US),
            "sets.complement_us": per_call(comps, US),
            "sets.modern_set_us": per_call(builds, US),
            "expressions.parse_us": per_call([(parse_expression, e) for e in exprs], US),
            "expressions.eval_us": per_call([(eval_expression, ws.sets, t) for t in trees], US),
            "reporting.describe_us": per_call([(type(r).describe, r) for r in reports], US),
        }

    def trace_extra(self, tracer):
        durations = {sub: [] for sub in SUBCOMMANDS}
        for name, start, end, _, _ in tracer.spans:
            durations[name.rsplit(".", 1)[1]].append(end - start)
        metrics = {f"cli.process_ms.{sub}": statistics.median(d) * MS if d else 0.0
                   for sub, d in durations.items()}
        interpreter = statistics.median(wall_of_child(self.root, "pass") for _ in range(5))
        imported = statistics.median(wall_of_child(self.root, "import modernsets.cli") for _ in range(5))
        workspace = statistics.median(
            timed_in_child(self.root, "import modernsets.cli as cli", "cli.builtin_workspace()")
            for _ in range(5))
        load = statistics.median(self.workspace()[1] for _ in range(10))
        metrics.update({
            "cli.interpreter_ms": interpreter * MS,
            "cli.import_ms": (imported - interpreter) * MS,
            "cli.workspace_ms": workspace * MS,
            "fileformat.load_ms": load * MS,
        })
        return metrics

