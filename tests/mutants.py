"""Mutants of the scan routes and of ``validate`` and its definition-file reader,
each with the tests that must catch it. The law-table lookups of family scans are
guarded on both of their routes: an exhaustive scan's, which numbers its tuples, and a
sampled scan's, which makes each tuple's index from its drawn arguments.

Each entry names a source file under ``src/``, a text that occurs in it exactly once,
the text that replaces it, and the tests expected to fail on the result. For each
entry ``src/`` is copied to a temporary directory, the edit is applied there, and only
the named tests run, with ``-x``, against that copy. The run fails when a mutant
survives (its tests pass), when its old text no longer occurs exactly once, or when
pytest cannot run the named tests. A change to a guarded route updates this list.

Run from anywhere, with pytest installed::

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


LAWS = "modernsets/laws.py"
CLI = "modernsets/cli.py"
FILEFORMAT = "modernsets/fileformat.py"
STREAMS = "tests/test_laws.py::TestSharedStreams"
TABLES = "tests/test_laws.py::TestLawTables"
FRAME = "tests/test_laws.py::TestGfRingConditions::test_direct_frame_law_matches_the_pair_scan"
SCANS = "tests/test_laws.py::TestFamilyScanReference"
SAMPLED = "tests/test_laws.py::TestPointwiseSampledScan::test_mixed_families_match_a_set_scan"
VALIDATE = "tests/test_cli.py::TestValidate"
MESSAGES = "tests/test_fileformat.py::test_reader_messages_name_source_and_line"

MUTANTS = [
    Mutant(
        "_slab_verdict re-raises a raising slab instead of rescanning it",
        LAWS,
        "            record = None  # a slab scanned through ops proves nothing of the tables\n",
        "            raise\n",
        (f"{STREAMS}::test_a_slab_whose_operations_raise_is_scanned_again",),
    ),
    Mutant(
        "the fallback through ops keeps the record",
        LAWS,
        "            record = None  # a slab scanned through ops proves nothing of the tables\n",
        "            pass\n",
        ("tests/test_lattice.py::test_a_scan_through_the_operations_records_nothing",),
    ),
    Mutant(
        "_prove lowers an entry",
        LAWS,
        "record[fn] = entry if old is None or old[0] != entry[0] else max(old, entry)",
        "record[fn] = entry",
        ("tests/test_lattice.py::test_laws_sharing_equations_answer_as_fresh_scans",),
    ),
    Mutant(
        "_recorded reads an entry of another arity",
        LAWS,
        "if any(entry is None or entry[0] != law.arity for entry in entries):",
        "if any(entry is None for entry in entries):",
        ("tests/test_lattice.py::test_one_function_at_two_arities_reads_no_entry_of_the_other",),
    ),
    Mutant(
        "a failing deciding-carrier scan keeps its own witness",
        LAWS,
        "return LawReport(law.name, scanned if scanned.failed else verdict)",
        "return LawReport(law.name, verdict)",
        (
            "tests/test_cli.py::test_golden_transcript[lift-fuzzy-excluded-middle]",
            "tests/test_laws.py::test_scan_witness_stands_when_a_cap_cuts_the_forced_stage_short",
            "tests/test_laws.py::test_a_failing_forced_stage_is_the_family_verdict",
        ),
    ),
    Mutant(
        "_forced_tuples yields the spikes before the bounds",
        LAWS,
        "    yield from product(bounds, repeat=arity)\n"
        "    for x in family.universe.points:\n"
        "        alg = family.algebra_at(x)\n"
        "        values = alg.elements if alg.elements is not None else alg.boundary\n"
        "        spikes = [lift_point_value(family, x, v)._values for v in values]\n"
        "        yield from islice(product(spikes, repeat=arity), _PER_POINT_CAP)\n",
        "    for x in family.universe.points:\n"
        "        alg = family.algebra_at(x)\n"
        "        values = alg.elements if alg.elements is not None else alg.boundary\n"
        "        spikes = [lift_point_value(family, x, v)._values for v in values]\n"
        "        yield from islice(product(spikes, repeat=arity), _PER_POINT_CAP)\n"
        "    yield from product(bounds, repeat=arity)\n",
        ("tests/test_laws.py::test_the_forced_stage_tries_the_bounds_before_the_spikes",),
    ),
    Mutant(
        "_batched raises its deferred error before yielding the tuples ahead of it",
        LAWS,
        "        if slab:\n"
        "            yield [*map(list, zip(*slab))]\n"
        "        if error is not None:\n"
        "            raise error\n",
        "        if error is not None:\n"
        "            raise error\n"
        "        if slab:\n"
        "            yield [*map(list, zip(*slab))]\n",
        (f"{STREAMS}::test_a_forced_tuple_that_cannot_be_built_is_met_after_the_tuples_before_it",),
    ),
    Mutant(
        "every point of a sampled scan takes the first handle's lanes",
        LAWS,
        "points = [*_per_handle(family, partial(_point_lanes, law=law)).values()]",
        "points = [_point_lanes(family.handles[0], law)] * len(family.handles)",
        ("tests/test_laws.py::TestPointwiseSampledScan::test_mixed_families_match_a_set_scan",),
    ),
    Mutant(
        "the law-table lookup drops the last point",
        LAWS,
        "        for table, index in zip(row, indices):\n",
        "        for table, index in zip(row[:-1], indices):\n",
        (
            f"{TABLES}::test_registry_laws_match_the_object_path[classical2+m3]",
            f"{TABLES}::test_registry_laws_match_the_object_path[chain3+n5]",
            f"{SAMPLED}[names9]",
        ),
    ),
    Mutant(
        "the tuple index of a sampled slab weighs the arguments in reverse",
        LAWS,
        'int.from_bytes(arg[i], "little") * k ** (arity - 1 - j)',
        'int.from_bytes(arg[i], "little") * k ** j',
        (f"{SAMPLED}[names9]", f"{TABLES}::test_the_first_equation_to_fail_at_the_first_lane_is_noted"),
    ),
    Mutant(
        "the index blocks weigh each argument one power of k too low, the first k ** (arity - 2)",
        LAWS,
        "rest.translate(bytes(range(d * k ** m, 256))",
        "rest.translate(bytes(range(d * k ** (m - 1), 256))",
        (
            f"{TABLES}::test_registry_laws_match_the_object_path[classical2+m3]",
            f"{TABLES}::test_registry_laws_match_the_object_path[chain3+n5]",
        ),
    ),
    Mutant(
        "the decode of a looked-up failing tuple drops a point's place",
        LAWS,
        "p.decode(x // place % k)",
        "p.decode(x % k)",
        (
            f"{TABLES}::test_registry_laws_match_the_object_path[classical2+n5]",
            f"{TABLES}::test_registry_laws_match_the_object_path[n5+chain3]",
        ),
    ),
    Mutant(
        "a law table that raises ends the looked-up scan instead of its slabs scanning through ops",
        LAWS,
        "        tables = _law_tables(tuple(p.table for p in points), law)\n"
        "    except Exception:\n"
        "        return None\n",
        "        tables = _law_tables(tuple(p.table for p in points), law)\n"
        "    except Exception:\n"
        "        raise\n",
        (f"{TABLES}::test_an_equation_that_raises_on_the_law_tables_answers_as_a_set_scan",),
    ),
    Mutant(
        "a complement law's table is built on the lattice's tables, which hold no complement",
        LAWS,
        "        (len(carrier), tables),\n",
        "        (len(carrier), tables.base or tables),\n",
        (f"{TABLES}::test_complement_laws_read_the_complement_on_lattice_backed_points",),
    ),
    Mutant(
        "the direct frame-law route keeps the triple witness",
        LAWS,
        '    return _as_pair(verdict, "(vee of collection) wedge B = vee of pairwise wedges")\n',
        "    return verdict\n",
        (f"{FRAME}[classical2+m3]", f"{FRAME}[n5]"),
    ),
    Mutant(
        "an exhaustive scan puts an infinite point on its codes, not its deciding carrier",
        LAWS,
        "    if not (exhaustive or alg.finite):\n",
        "    if not alg.finite:\n",
        (
            f"{TABLES}::test_registry_laws_match_the_object_path[fuzzy+classical2]",
            f"{TABLES}::test_registry_laws_match_the_object_path[chain3+fuzzy]",
        ),
    ),
    Mutant(
        "value lanes run the raw operations, so a result leaving the carrier goes unseen",
        LAWS,
        "    return _mapped(_checked(alg), lambda drawn: [*map(elements.__getitem__, drawn)])\n",
        "    return _mapped(alg, lambda drawn: [*map(elements.__getitem__, drawn)])\n",
        (f"{SCANS}::test_registry_laws_match_the_set_scan[leaving]",),
    ),
    Mutant(
        "index digits over 256 elements are not taken modulo the carrier",
        LAWS,
        "unit([d % k])",
        "unit([d % k if k <= 256 else d])",
        (f"{SCANS}::test_points_of_more_than_256_elements_run_on_their_values[100]",),
    ),
    Mutant(
        "validate reports every name, the built-in and --load-ed ones too",
        CLI,
        "[name for name in names if name not in old]",
        "[*names]",
        (
            f"{VALIDATE}::test_a_file_of_comments_defines_nothing",
            f"{VALIDATE}::test_loaded_names_are_not_reported",
        ),
    ),
    Mutant(
        "a repeated block name reaches the workspace's error, which names no line",
        FILEFORMAT,
        "    if fields[1] in names:\n"
        "        raise cursor.error(f\"{kind} {fields[1]!r} is already defined\", lineno)\n",
        "",
        (
            f"{MESSAGES}[algebra-twice]",
            f"{MESSAGES}[lattice-in-workspace]",
            f"{MESSAGES}[family-twice]",
        ),
    ),
]


def pytest(src: Path, tests) -> subprocess.CompletedProcess:
    """The named tests, run with ``-x`` against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )


def run(mutant: Mutant, scratch: Path) -> str | None:
    """Why ``mutant`` fails the run, or None when its tests catch it."""
    src = scratch / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"its old text occurs {text.count(mutant.old)} times in src/{mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    result = pytest(src, mutant.tests)
    if result.returncode == 1:
        return None
    if result.returncode == 0:
        return "it survives its tests"
    return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"


def main() -> int:
    # a test that fails on the unmutated source would catch every mutant
    tests = dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests)
    result = pytest(REPO / "src", tests)
    if result.returncode != 0:
        print(f"the guarding tests fail on the unmutated source:\n{result.stdout}{result.stderr}")
        return 1
    failures = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as scratch:
            reason = run(mutant, Path(scratch))
        print(f"{'caught' if reason is None else 'FAILED'}: {mutant.what}" + (f": {reason}" if reason else ""))
        failures += reason is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
