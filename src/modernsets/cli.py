"""Command-line front end.

Subcommands:

    validate <file>          parse a definition file, check algebra axioms,
                             certify lattices
    laws <algebra>           run the full law battery on one algebra
    classify <family>        place a family in the set-theory hierarchy
    lift <family> <law>      compare the law on sets vs per-point algebras
    gfcheck <family>         ring-of-generalized-fuzzy-subsets conditions
    eval <family> "<expr>"   evaluate a set expression, print the result
    witness <algebra> <op>   search for a noncommuting pair
    oracle <family>          crisp sets vs ordinary set algebra

Exit codes: 0 when checks pass or evaluation succeeds, 1 when a law or
axiom fails (the witness is printed), 2 for input errors, 141 (128 +
SIGPIPE, printing nothing more) when stdout is closed early. Every subcommand
accepts repeated ``--load <file>`` options; built-in algebras (classical2,
fuzzy, chain3, chain5, mat2, mat3) and lattices (m3, n5, pow1, pow2, pow3)
are always available by name, and ``<algebra>@<n>`` names the family
assigning that algebra to each of n points x1..xn. Output is deterministic
for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import AlgebraHandle
from .errors import ModernSetError, NotALatticeError, NotAPosetError
from .expressions import eval_expression, parse_expression
from .fileformat import Workspace, load_file
from .instances import (
    chain_algebra,
    classical_algebra,
    fuzzy_algebra,
    matrix_algebra,
)
from .lattice import m3_lattice, n5_lattice, powerset_lattice
from .laws import (
    LAW_NAMES,
    check_all_laws,
    check_gf_ring_conditions,
    check_lattice_laws,
    check_wba_axioms,
    classify_family,
    find_noncommuting_witness,
    get_law,
    lift_check,
    verify_crisp_restriction,
)
from .reporting import render_element
from .sets import AlgebraFamily, constant_family


def builtin_workspace() -> Workspace:
    """Workspace preloaded with the shipped algebras and lattices."""
    w = Workspace()
    for algebra in (
        classical_algebra(),
        fuzzy_algebra(),
        chain_algebra(3),
        chain_algebra(5),
        matrix_algebra(2),
        matrix_algebra(3),
    ):
        w.add_algebra(algebra.name, algebra)
    w.add_lattice("m3", m3_lattice())
    w.add_lattice("n5", n5_lattice())
    for n in (1, 2, 3):
        w.add_lattice(f"pow{n}", powerset_lattice(n))
    return w


def _resolve_algebra(workspace: Workspace, name: str) -> AlgebraHandle:
    algebra = workspace.resolve_algebra(name)
    if algebra is None:
        raise ModernSetError(f"unknown algebra {name!r}")
    return algebra


def _resolve_family(workspace: Workspace, text: str) -> AlgebraFamily:
    if text in workspace.families:
        return workspace.families[text]
    base, sep, count = text.rpartition("@")
    if sep:
        algebra = workspace.resolve_algebra(base)
        if algebra is not None and count.isascii() and count.isdigit() and 1 <= int(count) <= 8:
            points = tuple(f"x{i}" for i in range(1, int(count) + 1))
            return constant_family(points, algebra, name=text)
    raise ModernSetError(f"unknown family {text!r}")


def _cmd_validate(args, workspace: Workspace) -> int:
    kinds = (workspace.algebras, workspace.lattices, workspace.families, workspace.sets)
    before = [set(names) for names in kinds]
    try:
        load_file(args.file, workspace)
    except (NotAPosetError, NotALatticeError) as exc:
        print(f"invalid: {exc}")
        return 1
    algebras, lattices, families, sets = (
        [name for name in names if name not in old] for names, old in zip(kinds, before)
    )
    failed = False
    for name in algebras:
        report = check_wba_axioms(workspace.algebras[name])
        print(f"algebra {name}: {report.describe()}")
        failed |= not report.passed
    for name in lattices:
        print(check_lattice_laws(workspace.lattices[name]).describe())
    for name in families:
        print(f"family {name}: {len(workspace.families[name].universe)} point(s), every point assigned")
    for name in sets:
        print(f"set {name}: every value in its point's carrier")
    if not (algebras or lattices or families or sets):
        print("nothing defined")
    return 1 if failed else 0


def _cmd_laws(args, workspace: Workspace) -> int:
    algebra = _resolve_algebra(workspace, args.algebra)
    reports = check_all_laws(algebra, samples=args.samples, seed=args.seed)
    print(f"algebra {algebra.name}:")
    for report in reports:
        print(f"  {report.describe()}")
    return 1 if any(r.verdict.failed for r in reports) else 0


def _cmd_classify(args, workspace: Workspace) -> int:
    family = _resolve_family(workspace, args.family)
    print(classify_family(family).describe())
    return 0


def _cmd_lift(args, workspace: Workspace) -> int:
    family = _resolve_family(workspace, args.family)
    report = lift_check(family, get_law(args.law), samples=args.samples, seed=args.seed)
    print(report.describe())
    return 1 if report.family_verdict.failed or not report.consistent else 0


def _cmd_gfcheck(args, workspace: Workspace) -> int:
    family = _resolve_family(workspace, args.family)
    report = check_gf_ring_conditions(family, samples=args.samples, seed=args.seed)
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_eval(args, workspace: Workspace) -> int:
    family = _resolve_family(workspace, args.family)
    result = eval_expression(workspace.sets, parse_expression(args.expr))
    if not result.family.compatible(family):
        raise ModernSetError(f"expression evaluates over a different family than {args.family!r}")
    try:
        rows = [f"{x} {render_element(result.value_at(x))}" for x in family.universe.points]
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        print(f"error: the result is too large to print: {exc}", file=sys.stderr)
        return 2
    print("\n".join(rows))
    return 0


def _cmd_witness(args, workspace: Workspace) -> int:
    algebra = _resolve_algebra(workspace, args.algebra)
    witness = find_noncommuting_witness(algebra, args.op, budget=args.budget, seed=args.seed)
    if witness is None:
        print(
            f"algebra {algebra.name}: no noncommuting pair for {args.op} found "
            f"(budget={args.budget}, seed={args.seed})"
        )
    else:
        print(f"algebra {algebra.name}: {witness.describe()}")
    return 0


def _cmd_oracle(args, workspace: Workspace) -> int:
    family = _resolve_family(workspace, args.family)
    report = verify_crisp_restriction(family)
    print(report.describe())
    return 0 if report.verdict.holds else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help fails on a closed stdout as other output does.

    From Python 3.11 on, ``argparse`` drops an ``OSError`` raised while it
    writes help, so help into a closed pipe would exit 0; here it raises,
    and :func:`run_command` exits 141. Subcommand parsers take this class too.
    """

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modernsets",
        description="Check lattice laws for set algebras with per-point membership values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--load",
            action="append",
            default=[],
            metavar="FILE",
            help="definition file to load (repeatable)",
        )
        p.set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, "check a definition file")
    p.add_argument("file", help="definition file to validate")

    p = command("laws", _cmd_laws, "run every law on one algebra")
    p.add_argument("algebra", help="algebra (or lattice) name")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command("classify", _cmd_classify, "classify a family in the hierarchy")
    p.add_argument("family", help="family name, or <algebra>@<n>")

    p = command("lift", _cmd_lift, "law on sets vs per-point algebras")
    p.add_argument("family", help="family name, or <algebra>@<n>")
    p.add_argument("law", help="law name: " + ", ".join(LAW_NAMES))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = command("gfcheck", _cmd_gfcheck, "ring-of-generalized-fuzzy-subsets conditions")
    p.add_argument("family", help="family name, or <algebra>@<n>")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = command("eval", _cmd_eval, "evaluate a set expression")
    p.add_argument("family", help="family the result must live over")
    p.add_argument("expr", help="expression over loaded set names")

    p = command("witness", _cmd_witness, "search for a noncommuting pair")
    p.add_argument("algebra", help="algebra (or lattice) name")
    p.add_argument("op", choices=("wedge", "vee"))
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command("oracle", _cmd_oracle, "crisp sets vs ordinary set algebra")
    p.add_argument("family", help="family name, or <algebra>@<n>")

    return parser


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after help, or a usage error on stderr
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
        else:
            workspace = builtin_workspace()
            for path in args.load:
                load_file(path, workspace)
            code = args.handler(args, workspace)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ModernSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
