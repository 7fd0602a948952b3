import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from textwrap import dedent

import pytest

from modernsets import LAW_NAMES
from modernsets.cli import run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BROKEN_ALGEBRA = dedent(
    """
    algebra broken
    elements O I
    zero O
    one I
    wedge
    O O O
    O I O
    I O O
    I I I
    vee
    O O O
    O I O
    I O I
    I I I
    end
    """
)

FUZZY_SETS = dedent(
    """
    family fam
    universe p q
    assign p fuzzy
    assign q fuzzy
    end

    set A over fam
    p 1/2
    q 3/10
    end

    set B over fam
    p 1/4
    q 7/10
    end
    """
)

BIG_MATRIX_SET = dedent(
    """
    family fb
    universe x
    assign x mat2
    end

    set A over fb
    x [[1e1000,0],[0,1]]
    end
    """
)


class TestLaws:
    def test_classical_all_hold(self, capsys):
        code, out, err = run(capsys, "laws", "classical2")
        assert code == 0
        assert err == ""
        assert out.count("holds") == 11

    def test_chain3_reports_failures(self, capsys):
        code, out, _ = run(capsys, "laws", "chain3")
        assert code == 1
        assert "excluded-middle" in out
        assert "fails" in out

    def test_lattice_name_is_accepted(self, capsys):
        code, out, _ = run(capsys, "laws", "m3")
        assert code == 1  # distributivity fails on the diamond
        assert "inputs (a, b, c)" in out
        assert "not applicable" in out  # no complement on the wrapper

    def test_unknown_algebra(self, capsys):
        code, _, err = run(capsys, "laws", "nosuch")
        assert code == 2
        assert "nosuch" in err

    def test_samples_flag(self, capsys):
        code, out, _ = run(capsys, "laws", "fuzzy", "--samples", "50", "--seed", "3")
        assert code == 1  # excluded middle fails
        assert "seed=3" in out

    @pytest.mark.parametrize("argv", [
        ("laws", "fuzzy", "--samples", "-5"),
        ("lift", "fuzzy@2", "absorption", "--samples", "-5"),
        ("gfcheck", "chain3@2", "--samples", "-5"),
        ("witness", "mat2", "wedge", "--budget", "-5"),
    ])
    def test_negative_counts_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        option = argv[-2].lstrip("-")
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be non-negative, got -5\n"


class TestValidate:
    def test_broken_algebra_names_identity(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(BROKEN_ALGEBRA, encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "O vee I = I" in out

    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.alg"
        path.write_text(
            BROKEN_ALGEBRA.replace("O I O\nI O I", "O I I\nI O I"), encoding="utf-8"
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "broken" in out

    def test_lattice_certificate_is_printed(self, capsys, tmp_path):
        path = tmp_path / "lat.def"
        path.write_text(
            "lattice diamond\nelements 0 a b c 1\ncover 0 a\ncover 0 b\ncover 0 c\n"
            "cover a 1\ncover b 1\ncover c 1\nend\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "distributive: fails" in out

    def test_cyclic_lattice(self, capsys, tmp_path):
        path = tmp_path / "loop.def"
        path.write_text(
            "lattice loop\nelements a b\ncover a b\ncover b a\nend\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "invalid" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/defs.txt")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "p_literal, m_literal, line, message",
        [
            ("1/0", "[[0,0],[0,0]]", 7, "not a rational number: '1/0'"),
            ("1/2", "[[1/0, 1], [0, 0]]", 8, "not a rational number: '1/0'"),
            ("1e10000000", "[[0,0],[0,0]]", 7, "exponent in '1e10000000' is beyond 1000"),
            ("1/2", "[[0,1],[1e-10000000,0]]", 8, "exponent in '1e-10000000' is beyond 1000"),
        ],
    )
    def test_bad_rational_literals_are_input_errors(
        self, capsys, tmp_path, p_literal, m_literal, line, message
    ):
        path = tmp_path / "f.def"
        path.write_text(
            "family f\nuniverse p m\nassign p fuzzy\nassign m mat2\nend\n"
            f"set S over f\np {p_literal}\nm {m_literal}\nend\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize(
        "argv", [("validate", "{path}"), ("laws", "chain3", "--load", "{path}")]
    )
    def test_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "f.def"
        path.write_bytes("lattice x\nelements 0 1  # café\nend\n".encode("latin-1"))
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text (byte 0xe9)\n"

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "lattices.def"
        path.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "lattices.def").read_bytes())
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "validate-lattices.out").read_text(encoding="utf-8")
        # a bad byte after the mark is still named
        path.write_bytes(b"\xef\xbb\xbflattice x  # caf\xe9\nelements 0 1\nend\n")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text (byte 0xe9)\n"

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.def"
        path.write_text("algebra a\nelements F T\nelements F T\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert str(path) in err


class TestClassify:
    def test_builtin_shorthand(self, capsys):
        code, out, _ = run(capsys, "classify", "mat2@2")
        assert code == 0
        assert "modern" in out

    def test_levels(self, capsys):
        for family, level in [
            ("classical2@2", "classical"),
            ("fuzzy@2", "fuzzy-like"),
            ("chain3@2", "generalized-fuzzy"),
            ("m3@2", "L-fuzzy"),
        ]:
            code, out, _ = run(capsys, "classify", family)
            assert code == 0
            assert level in out

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "classify", "nosuchfam")
        assert code == 2
        assert "nosuchfam" in err

    @pytest.mark.parametrize(
        "family",
        ["fuzzy@99", "fuzzy@\u00b2", "chain3@\u0663"],
        ids=["fuzzy@99", "superscript-two", "arabic-indic-three"],
    )
    def test_bad_shorthand_count(self, capsys, family):
        # counts are ASCII digits 1-8: a superscript two or an Arabic-Indic
        # three is refused, not parsed or crashed on
        code, out, err = run(capsys, "classify", family)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown family {family!r}\n"


class TestLift:
    def test_failing_law(self, capsys):
        code, out, _ = run(capsys, "lift", "fuzzy@2", "excluded-middle")
        assert code == 1
        assert "levels agree: yes" in out

    def test_holding_law(self, capsys):
        code, out, _ = run(capsys, "lift", "classical2@3", "commutative-wedge")
        assert code == 0
        assert "levels agree: yes" in out

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "lift", "fuzzy@2", "nosuchlaw")
        assert code == 2
        assert err == f"error: unknown law 'nosuchlaw'; known laws: {', '.join(LAW_NAMES)}\n"


class TestGfCheck:
    def test_powerset_passes(self, capsys):
        code, out, _ = run(capsys, "gfcheck", "pow2@2")
        assert code == 0
        assert "overall: passed" in out

    def test_m3_fails(self, capsys):
        code, out, _ = run(capsys, "gfcheck", "m3@1")
        assert code == 1
        assert "overall: failed" in out

    def test_matrix_family_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "gfcheck", "mat2@1")
        assert code == 2
        assert "error" in err


class TestEval:
    def test_evaluates_loaded_sets(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(FUZZY_SETS, encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--load", str(path), "fam", "A \\/ B"
        )
        assert code == 0
        assert "p 1/2" in out
        assert "q 7/10" in out

    def test_complement_and_parens(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(FUZZY_SETS, encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--load", str(path), "fam", "~(A /\\ B)"
        )
        assert code == 0
        assert "p 3/4" in out

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(FUZZY_SETS, encoding="utf-8")
        code, _, err = run(capsys, "eval", "--load", str(path), "fam", "A \\/")
        assert code == 2
        assert "column" in err

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(FUZZY_SETS, encoding="utf-8")
        code, out, err = run(capsys, "eval", "--load", str(path), "fam", "~" * 5000 + "A")
        assert code == 2
        assert out == ""
        assert err == "error: expression nests deeper than 100 levels (column 101)\n"

    def test_unbound_name(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(FUZZY_SETS, encoding="utf-8")
        code, _, err = run(capsys, "eval", "--load", str(path), "fam", "A \\/ Z")
        assert code == 2
        assert "'Z'" in err

    def test_result_must_live_over_named_family(self, capsys, tmp_path):
        path = tmp_path / "sets.def"
        path.write_text(
            FUZZY_SETS
            + "family other\nuniverse z\nassign z fuzzy\nend\n"
            + "set C over other\nz 1\nend\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "eval", "--load", str(path), "other", "A")
        assert code == 2

    def test_result_too_large_to_print(self, capsys, tmp_path):
        # each /\ adds about a thousand digits to the top-left entry
        path = tmp_path / "big.def"
        path.write_text(BIG_MATRIX_SET, encoding="utf-8")
        code, out, err = run(capsys, "eval", "--load", str(path), "fb", "A /\\ A /\\ A /\\ A /\\ A")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the result is too large to print")
        assert err.count("\n") == 1


class TestWitness:
    def test_matrix_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "mat2", "wedge")
        assert code == 0
        assert "[[0,1],[0,0]]" in out
        assert "[[0,0],[1,0]]" in out

    def test_zero_budget_still_scans_the_boundary(self, capsys):
        # the boundary pairs come before the budget of random pairs
        code, out, _ = run(capsys, "witness", "mat2", "wedge", "--budget", "0")
        assert code == 0
        assert out == (GOLDEN / "witness-mat2-wedge.out").read_text()

    def test_commutative_case(self, capsys):
        code, out, _ = run(capsys, "witness", "classical2", "wedge")
        assert code == 0
        assert "no noncommuting" in out
        assert "budget=" in out

    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "witness", "mat3", "wedge", "--seed", "4")
        code2, out2, _ = run(capsys, "witness", "mat3", "wedge", "--seed", "4")
        assert (code1, out1) == (code2, out2)


class TestOracle:
    def test_classical_family(self, capsys):
        code, out, _ = run(capsys, "oracle", "classical2@2")
        assert code == 0
        assert "holds" in out

    def test_universe_cap(self, capsys):
        code, _, err = run(capsys, "oracle", "fuzzy@5")
        assert code == 2
        code, out, _ = run(capsys, "oracle", "fuzzy@5", "--max-universe", "5")
        assert code == 0

    @pytest.mark.parametrize("command", ["oracle", "gfcheck"])
    def test_universe_cap_has_a_ceiling(self, capsys, command):
        # 4^8 pairs of crisp sets over eight matrix points take seconds
        code, out, err = run(capsys, command, "mat3@8", "--max-universe", "8")
        assert code == 2
        assert out == ""
        assert "argument --max-universe: invalid choice: 8" in err

    def test_negative_control(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(BROKEN_ALGEBRA, encoding="utf-8")
        code, out, _ = run(
            capsys, "oracle", "broken@1", "--load", str(path)
        )
        assert code == 1
        assert "fails" in out


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "laws" in out
        assert "gfcheck" in out

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_output_is_reproducible(self, capsys):
        runs = [run(capsys, "laws", "mat2", "--samples", "60") for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_141_quietly(self, unbuffered):
        assert into_closed_stdout(["laws", "chain3"], unbuffered) == (141, b"")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["laws", "--help"]], ids=["top", "subcommand"])
    def test_help_into_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        # argparse from 3.11 on swallows the EPIPE of an unbuffered help write
        assert into_closed_stdout(argv, unbuffered) == (141, b"")


def into_closed_stdout(argv, unbuffered):
    """Exit status and stderr of ``python -m modernsets *argv`` run with stdout
    on a pipe whose read end is already closed, so the first write
    (unbuffered) or the flush (buffered) meets EPIPE."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "modernsets", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    return result.returncode, result.stderr


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
GOLDEN_CASES = [
    ("validate-lattices", ("validate", str(GOLDEN / "lattices.def"))),
    ("validate-wide-lattices", ("validate", str(GOLDEN / "wide-lattices.def"))),
    *(
        (f"laws-{name}", ("laws", name))
        for name in (
            "classical2", "fuzzy", "chain3", "chain5", "mat2", "mat3",
            "m3", "n5", "pow1", "pow2", "pow3",
        )
    ),
    ("lift-m3-distributive", ("lift", "m3@2", "distributive")),
    ("lift-fuzzy-distributive", ("lift", "fuzzy@2", "distributive")),
    ("lift-mat2-associative-wedge", ("lift", "mat2@2", "associative-wedge", "--seed", "0")),
    # chain3, fuzzy and mat2: counting from 1, the family witness is tuple 160, draw 34
    # after 126 forced tuples, in the third slab of the sampled scan
    (
        "lift-mixed-associative-wedge",
        ("lift", "mixed", "associative-wedge", "--load", str(GOLDEN / "mixed.def"), "--seed", "0"),
    ),
    ("gfcheck-pow2", ("gfcheck", "pow2@2")),
    ("gfcheck-fuzzy", ("gfcheck", "fuzzy@2")),
    ("classify-chain3", ("classify", "chain3@2")),
    ("classify-m3", ("classify", "m3@2")),
    ("classify-classical2", ("classify", "classical2@3")),
    ("classify-fuzzy", ("classify", "fuzzy@2")),
    ("classify-mat2", ("classify", "mat2@1")),
    ("oracle-chain3", ("oracle", "chain3@3")),
    ("witness-mat2-wedge", ("witness", "mat2", "wedge")),
]


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_golden_transcript(capsys, name, argv):
    """Stdout and exit code match the recorded transcript byte for byte."""
    code, out, err = run(capsys, *argv)
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == GOLDEN_EXIT_CODES[name]
    assert err == ""


def test_golden_transcript_covers_every_recording():
    recorded = {path.stem for path in GOLDEN.glob("*.out")}
    assert recorded == {name for name, _ in GOLDEN_CASES} == set(GOLDEN_EXIT_CODES)


REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = {path.stem for path in (GOLDEN / "demos").glob("*.out")}
    assert recorded == {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_transcript(demo):
    """Each demo, run as a script, prints its recorded output byte for byte."""
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=60, check=False
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / "demos" / f"{demo.stem}.out").read_bytes()


# ---------------------------------------------------------------------------
# Fuzzing definition-file text

FUZZ_SETS = dedent(
    """
    family mixed
    universe p q m n
    assign p fuzzy
    assign q fuzzy
    assign m mat2
    assign n mat2
    end

    set A over mixed
    p 5e-000001
    q 3e-000001
    m [[1/10,2e-000001],[-3/20,1e000000]]
    n [[1e-000001,1e000000],[1/100,4e-000001]]
    end

    set B over mixed
    p 1/20
    q 25E-000002
    m [[5e-000001,1/10],[7e-000001,-1/30]]
    n [[7/10,-1/2],[-1e000000,4e-000001]]
    end
    """
)
FUZZ_BASE = (GOLDEN / "lattices.def").read_text(encoding="utf-8") + FUZZ_SETS
FUZZ_ALPHABET = "0123456789/eE-+.,[]_ #x"
FUZZ_CASES = 400
# A case parses a file of about seventy lines and certifies six-element
# lattices: milliseconds. A literal that expands into a million-digit
# integer takes longer than this.
FUZZ_CASE_SECONDS = 1.0


def _mutate(line, rng):
    """One character inserted, deleted, or swapped with its neighbour."""
    kind = rng.choice(("insert", "delete", "swap"))
    if kind == "insert" or len(line) < 2:
        i = rng.randint(0, len(line))
        return line[:i] + rng.choice(FUZZ_ALPHABET) + line[i:]
    i = rng.randrange(len(line) - 1)
    if kind == "delete":
        return line[:i] + line[i + 1:]
    return line[:i] + line[i + 1] + line[i] + line[i + 2:]


def fuzz_mutants(seed=2024, cases=FUZZ_CASES):
    """Mutated copies of FUZZ_BASE, each with one to three lines edited once.

    Three in four edited lines are set rows, whose rational literals carry
    six-digit exponents and denominators with a leading digit: one edit can
    make an exponent in the millions or a zero denominator.
    """
    rng = random.Random(seed)
    lines = FUZZ_BASE.split("\n")
    literal_rows = [i for i, line in enumerate(lines) if line[:2] in ("p ", "q ", "m ", "n ")]
    for _ in range(cases):
        targets = set()
        want = rng.randint(1, 3)
        while len(targets) < want:
            pool = literal_rows if rng.random() < 0.75 else range(len(lines))
            targets.add(rng.choice(pool))
        mutated = list(lines)
        for i in sorted(targets):
            mutated[i] = _mutate(mutated[i], rng)
        yield "\n".join(mutated)


def test_validate_survives_mutated_definition_files(capsys, tmp_path):
    path = tmp_path / "mutant.def"
    codes = set()
    for text in fuzz_mutants():
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code = run_command(["validate", str(path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        assert "Traceback" not in err, text
        assert elapsed < FUZZ_CASE_SECONDS, text
        codes.add(code)
    # the mutants reach both the accepting and the rejecting paths
    assert {0, 2} <= codes


ARGV_SHAPES = {
    "validate": ("junk",),
    "laws": ("algebra",),
    "classify": ("family",),
    "lift": ("family", "law"),
    "gfcheck": ("family",),
    "eval": ("family", "junk"),
    "witness": ("algebra", "op"),
    "oracle": ("family",),
}
ARGV_BUILTINS = ("classical2", "fuzzy", "chain3", "chain5", "mat2", "mat3", "m3", "n5", "pow1", "pow2", "pow3")
ARGV_FLAGS = ("--samples", "--seed", "--budget", "--max-universe", "--load", "--help", "-h")
ARGV_JUNK = ("", "-", "--", "@", "x@", "@3", "chain3@", "nosuch", "--nosuch", "x1", "A \\/ B", "~", "1e9")
ARGV_CASES = 300


def _argv_token(rng, kind):
    if kind == "algebra":
        return rng.choice(ARGV_BUILTINS)
    if kind == "family":
        return f"{rng.choice(ARGV_BUILTINS)}@{rng.randint(-3, 20)}"
    if kind == "law":
        return rng.choice(LAW_NAMES)
    if kind == "op":
        return rng.choice(("wedge", "vee"))
    if kind == "int":
        return str(rng.randint(-3, 20))
    if kind == "flag":
        return rng.choice(ARGV_FLAGS)
    return rng.choice(ARGV_JUNK)


def fuzz_argvs(seed=2025, cases=ARGV_CASES):
    """Argument lists shaped like each subcommand, with up to two tokens replaced.

    Each list has the subcommand's positionals, then up to three flags, each
    with a small integer; then up to two positions get a token of any kind.
    """
    rng = random.Random(seed)
    kinds = ("algebra", "family", "law", "op", "int", "flag", "junk")
    for _ in range(cases):
        command = rng.choice(tuple(ARGV_SHAPES))
        argv = [command] + [_argv_token(rng, kind) for kind in ARGV_SHAPES[command]]
        for _ in range(rng.randint(0, 3)):
            argv += [_argv_token(rng, "flag"), _argv_token(rng, "int")]
        for _ in range(rng.randint(0, 2)):
            argv[rng.randrange(len(argv))] = _argv_token(rng, rng.choice(kinds))
        yield argv


def test_run_command_survives_random_argv(capsys):
    codes = set()
    for argv in fuzz_argvs():
        start = time.perf_counter()
        code = run_command(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.out + captured.err, argv
        assert elapsed < FUZZ_CASE_SECONDS, argv
        codes.add(code)
    # the lists reach passing, failing and refused runs
    assert codes == {0, 1, 2}


# ---------------------------------------------------------------------------
# Order by evaluation: chain3 written as tables, and mutants of it

C3T_TOKENS = ("O", "m", "I")
C3T_TABLES = {
    "wedge": {(x, y): min(x, y, key=C3T_TOKENS.index) for x in C3T_TOKENS for y in C3T_TOKENS},
    "vee": {(x, y): max(x, y, key=C3T_TOKENS.index) for x in C3T_TOKENS for y in C3T_TOKENS},
    "complement": {"O": "I", "m": "m", "I": "O"},
}


def c3t_block(tables):
    """An ``algebra c3t`` block declaring ``tables``."""
    lines = ["algebra c3t", "elements O m I", "zero O", "one I"]
    for section, table in tables.items():
        lines.append(section)
        for key, result in table.items():
            lines.append(" ".join((*key, result) if section != "complement" else (key, result)))
    return "\n".join(lines + ["end", ""])


def c3t_mutants(seed=2026, cases=200):
    """Copies of the chain3 tables with one to three cells set to another token."""
    rng = random.Random(seed)
    cells = [(section, key) for section, table in C3T_TABLES.items() for key in table]
    for _ in range(cases):
        tables = {section: dict(table) for section, table in C3T_TABLES.items()}
        for section, key in rng.sample(cells, rng.randint(1, 3)):
            old = tables[section][key]
            tables[section][key] = rng.choice([t for t in C3T_TOKENS if t != old])
        yield tables


def test_table_written_chain3_acts_like_chain3(capsys, tmp_path):
    path = tmp_path / "c3t.def"
    path.write_text(c3t_block(C3T_TABLES), encoding="utf-8")
    outs = {}
    for command in ("classify", "gfcheck"):
        code, outs[command], err = run(capsys, command, "c3t@2", "--load", str(path))
        builtin_code, builtin_out, _ = run(capsys, command, "chain3@2")
        expected = builtin_out.replace("chain3", "c3t")
        assert (code, outs[command], err) == (builtin_code, expected, "")
    assert outs["classify"].startswith("classification: generalized-fuzzy\n")
    assert "lattice 'c3t' (complete Heyting)" in outs["classify"]
    assert outs["gfcheck"].endswith("overall: passed\n")


def test_classify_follows_the_tables_of_mutated_c3t(capsys, tmp_path, lattice_oracle):
    path = tmp_path / "c3t.def"
    backed_seen = set()
    for tables in c3t_mutants():
        path.write_text(c3t_block(tables), encoding="utf-8")
        backed = lattice_oracle(C3T_TOKENS, tables["wedge"], tables["vee"], "O", "I")
        codes, outs = {}, {}
        for argv in (
            ["validate", str(path)],
            ["classify", "c3t@2", "--load", str(path)],
            ["gfcheck", "c3t@2", "--load", str(path)],
        ):
            start = time.perf_counter()
            code = run_command(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code in (0, 1, 2), (argv, tables)
            assert "Traceback" not in captured.out + captured.err, (argv, tables)
            assert elapsed < FUZZ_CASE_SECONDS, (argv, tables)
            codes[argv[0]], outs[argv[0]] = code, captured.out
        level = outs["classify"].split("\n", 1)[0]
        ordered = level in ("classification: generalized-fuzzy", "classification: L-fuzzy")
        assert ordered == backed, tables
        # gfcheck refuses exactly the tables that are no lattice
        assert (codes["gfcheck"] != 2) == backed, tables
        backed_seen.add(backed)
    assert backed_seen == {True, False}
