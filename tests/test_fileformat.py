from fractions import Fraction
from itertools import product
from textwrap import dedent

import pytest

from modernsets import (
    FileFormatError,
    NotALatticeError,
    NotAPosetError,
    RationalMatrix,
    Workspace,
    check_wba_axioms,
    load_file,
    load_text,
    matrix_algebra,
    parse_matrix_literal,
)
from modernsets.fileformat import MAX_EXPONENT

BOOL_BLOCK = dedent(
    """
    # a two-element Boolean algebra, written out in full
    algebra bool2
    elements F T
    zero F
    one T
    wedge
    F F F
    F T F
    T F F
    T T T
    vee
    F F F
    F T T
    T F T
    T T T
    complement
    F T
    T F
    end
    """
)

M3_BLOCK = dedent(
    """
    lattice diamond
    elements 0 a b c 1
    cover 0 a
    cover 0 b
    cover 0 c
    cover a 1
    cover b 1
    cover c 1
    end
    """
)


class TestAlgebraBlocks:
    def test_round_trip(self):
        ws = load_text(BOOL_BLOCK)
        a = ws.algebras["bool2"]
        assert a.elements == ("F", "T")
        assert a.zero == "F"
        assert a.one == "T"
        assert a.wedge("T", "T") == "T"
        assert a.vee("F", "T") == "T"
        assert a.complement("F") == "T"
        assert check_wba_axioms(a).passed

    def test_complement_is_optional(self):
        ws = load_text(BOOL_BLOCK.replace("complement\nF T\nT F\n", ""))
        assert ws.algebras["bool2"].complement is None

    def test_missing_end(self):
        with pytest.raises(FileFormatError) as err:
            load_text("algebra a\nelements F T\nzero F\none T\nwedge\nF F F\n")
        assert "end" in str(err.value)

    def test_row_width(self):
        bad = BOOL_BLOCK.replace("F F F\nF T F", "F F\nF T F", 1)
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert err.value.line == 8

    def test_unknown_token_in_row(self):
        bad = BOOL_BLOCK.replace("T T T\nvee", "T T X\nvee")
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert "'X'" in str(err.value)

    def test_duplicate_row(self):
        bad = BOOL_BLOCK.replace("F T F\nT F F", "F T F\nF T F")
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert "duplicate" in str(err.value)

    def test_missing_zero_directive(self):
        bad = BOOL_BLOCK.replace("zero F\n", "")
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert "zero" in str(err.value)

    def test_partial_table(self):
        bad = BOOL_BLOCK.replace("T T T\nvee", "vee", 1)
        with pytest.raises(FileFormatError):
            load_text(bad)

    def test_reserved_word_as_element(self):
        bad = BOOL_BLOCK.replace("elements F T", "elements end T")
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert "reserved" in str(err.value)

    def test_line_numbers_are_reported(self):
        # the duplicate elements directive sits on line 4 of the block text
        bad = "algebra a\nelements F T\nelements F T\nzero F\none T\nwedge\nend\n"
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert err.value.line == 3
        assert ":3:" in str(err.value)


class TestLatticeBlocks:
    def test_valid_lattice(self):
        ws = load_text(M3_BLOCK)
        lat = ws.lattices["diamond"]
        assert lat.bottom == "0"
        assert lat.top == "1"
        assert lat.meet("a", "b") == "0"
        assert lat.join("a", "b") == "1"

    def test_cycle_raises_the_domain_error(self):
        text = dedent(
            """
            lattice loop
            elements a b
            cover a b
            cover b a
            end
            """
        )
        with pytest.raises(NotAPosetError):
            load_text(text)

    def test_missing_join_raises_the_domain_error(self):
        text = dedent(
            """
            lattice vee
            elements 0 a b
            cover 0 a
            cover 0 b
            end
            """
        )
        with pytest.raises(NotALatticeError):
            load_text(text)

    def test_unknown_cover_token(self):
        bad = M3_BLOCK.replace("cover 0 a", "cover 0 z")
        with pytest.raises(FileFormatError) as err:
            load_text(bad)
        assert "'z'" in str(err.value)


class TestFamilyBlocks:
    def test_family_over_algebra_and_lattice(self):
        text = BOOL_BLOCK + M3_BLOCK + dedent(
            """
            family mixed
            universe x y
            assign x bool2
            assign y diamond
            end
            """
        )
        ws = load_text(text)
        fam = ws.families["mixed"]
        assert fam.algebra_at("x").name == "bool2"
        derived, declared = fam.algebra_at("y").lattice, ws.lattices["diamond"]
        assert derived.elements == declared.elements
        for x, y in product(declared.elements, repeat=2):
            assert derived.meet(x, y) == declared.meet(x, y)
            assert derived.join(x, y) == declared.join(x, y)
        assert (derived.bottom, derived.top) == (declared.bottom, declared.top)

    def test_lattice_wrappers_are_shared(self):
        text = M3_BLOCK + dedent(
            """
            family one
            universe x
            assign x diamond
            end

            family two
            universe x
            assign x diamond
            end
            """
        )
        ws = load_text(text)
        a = ws.families["one"].algebra_at("x")
        b = ws.families["two"].algebra_at("x")
        assert a is b
        assert ws.families["one"].compatible(ws.families["two"])

    def test_unknown_algebra(self):
        text = dedent(
            """
            family f
            universe x
            assign x nosuch
            end
            """
        )
        with pytest.raises(FileFormatError) as err:
            load_text(text)
        assert "unknown algebra or lattice" in str(err.value)

    def test_unknown_point(self):
        text = BOOL_BLOCK + dedent(
            """
            family f
            universe x
            assign y bool2
            end
            """
        )
        with pytest.raises(FileFormatError) as err:
            load_text(text)
        assert "'y'" in str(err.value)

    def test_uncovered_point(self):
        text = BOOL_BLOCK + dedent(
            """
            family f
            universe x y
            assign x bool2
            end
            """
        )
        with pytest.raises(FileFormatError) as err:
            load_text(text)
        assert "'y'" in str(err.value)

    def test_duplicate_assign(self):
        text = BOOL_BLOCK + dedent(
            """
            family f
            universe x
            assign x bool2
            assign x bool2
            end
            """
        )
        with pytest.raises(FileFormatError):
            load_text(text)


FUZZY_FAMILY = dedent(
    """
    family fam
    universe p q
    assign p fuzzy
    assign q fuzzy
    end
    """
)


def fuzzy_workspace():
    from modernsets import fuzzy_algebra

    ws = Workspace()
    ws.add_algebra("fuzzy", fuzzy_algebra())
    return ws


class TestSetBlocks:
    def test_rational_literals(self):
        ws = load_text(FUZZY_FAMILY + "set A over fam\np 1/2\nq 3/10\nend\n", workspace=fuzzy_workspace())
        a = ws.sets["A"]
        assert a.value_at("p") == Fraction(1, 2)
        assert a.value_at("q") == Fraction(3, 10)

    def test_finite_tokens(self):
        text = BOOL_BLOCK + dedent(
            """
            family f
            universe x
            assign x bool2
            end

            set S over f
            x T
            end
            """
        )
        assert load_text(text).sets["S"].value_at("x") == "T"

    def test_matrix_literals_tolerate_spaces(self):
        from modernsets import matrix_algebra

        ws = Workspace()
        ws.add_algebra("mat2", matrix_algebra(2))
        text = dedent(
            """
            family f
            universe x
            assign x mat2
            end

            set M over f
            x [[0, 1], [0, 0]]
            end
            """
        )
        got = load_text(text, workspace=ws).sets["M"].value_at("x")
        assert got == RationalMatrix([[0, 1], [0, 0]])

    def test_value_outside_carrier(self):
        with pytest.raises(FileFormatError) as err:
            load_text(
                FUZZY_FAMILY + "set A over fam\np 3/2\nq 0\nend\n",
                workspace=fuzzy_workspace(),
            )
        assert err.value.line is not None

    def test_bad_literal(self):
        with pytest.raises(FileFormatError):
            load_text(
                FUZZY_FAMILY + "set A over fam\np one-half\nq 0\nend\n",
                workspace=fuzzy_workspace(),
            )

    def test_unknown_family(self):
        with pytest.raises(FileFormatError) as err:
            load_text("set A over nosuch\nend\n")
        assert "nosuch" in str(err.value)

    def test_unknown_point(self):
        with pytest.raises(FileFormatError):
            load_text(
                FUZZY_FAMILY + "set A over fam\nz 1/2\nend\n",
                workspace=fuzzy_workspace(),
            )

    def test_duplicate_point(self):
        with pytest.raises(FileFormatError):
            load_text(
                FUZZY_FAMILY + "set A over fam\np 1/2\np 1/2\nq 0\nend\n",
                workspace=fuzzy_workspace(),
            )

    def test_missing_point(self):
        with pytest.raises(FileFormatError) as err:
            load_text(
                FUZZY_FAMILY + "set A over fam\np 1/2\nend\n",
                workspace=fuzzy_workspace(),
            )
        assert "'q'" in str(err.value)


MIXED_FAMILY = dedent(
    """
    family mixed
    universe p m
    assign p fuzzy
    assign m mat2
    end
    """
)


def mixed_load(p_literal, m_literal):
    """Load a one-set file over a fuzzy point p and a mat2 point m."""
    from modernsets import fuzzy_algebra

    ws = Workspace()
    ws.add_algebra("fuzzy", fuzzy_algebra())
    ws.add_algebra("mat2", matrix_algebra(2))
    text = MIXED_FAMILY + f"set A over mixed\np {p_literal}\nm {m_literal}\nend\n"
    return load_text(text, workspace=ws)


class TestRationalLiterals:
    # the set rows are lines 8 (p) and 9 (m) of the mixed file

    def test_exponents_within_the_bound(self):
        a = mixed_load("25e-2", f"[[1e{MAX_EXPONENT},0],[0,2E-{MAX_EXPONENT}]]").sets["A"]
        assert a.value_at("p") == Fraction(1, 4)
        assert a.value_at("m") == RationalMatrix(
            [[10**MAX_EXPONENT, 0], [0, Fraction(2, 10**MAX_EXPONENT)]]
        )
        assert mixed_load(f"5e-{MAX_EXPONENT}", "[[0,0],[0,0]]").sets["A"].value_at("p") == (
            Fraction(5, 10**MAX_EXPONENT)
        )

    @pytest.mark.parametrize(
        "p_literal, m_literal, line, message",
        [
            ("1/0", "[[0,0],[0,0]]", 8, "not a rational number: '1/0'"),
            ("1/2", "[[1/0, 1], [0, 0]]", 9, "not a rational number: '1/0'"),
            ("1/2", "[[0,1],[-3/00,0]]", 9, "not a rational number: '-3/00'"),
            ("1e-10000000", "[[0,0],[0,0]]", 8, "exponent in '1e-10000000' is beyond"),
            (f"1e-{MAX_EXPONENT + 1}", "[[0,0],[0,0]]", 8, "is beyond"),
            ("1/2", "[[1e10000000,0],[0,0]]", 9, "exponent in '1e10000000' is beyond"),
            ("1/2", "[[0,0],[0,5E+0010000000]]", 9, "is beyond"),
            ("1/2", "[[0,0],[0,1_0e1_000_000]]", 9, "is beyond"),
            ("1e", "[[0,0],[0,0]]", 8, "not a rational number: '1e'"),
            ("1/2", "[[0,1e99e99],[0,0]]", 9, "not a rational number: '1e99e99'"),
        ],
    )
    def test_bad_rationals_are_format_errors(self, p_literal, m_literal, line, message):
        with pytest.raises(FileFormatError) as err:
            mixed_load(p_literal, m_literal)
        assert err.value.line == line
        assert message in str(err.value)

    def test_parse_matrix_literal_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_matrix_literal("[[1/0,0],[0,0]]")
        with pytest.raises(ValueError, match="beyond"):
            parse_matrix_literal("[[1e10000000,0],[0,0]]")


class TestWorkspaceAndFiles:
    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + BOOL_BLOCK + "\n# trailing\n"
        assert "bool2" in load_text(text).algebras

    def test_inline_comments(self):
        text = BOOL_BLOCK.replace("zero F", "zero F  # the bottom")
        assert load_text(text).algebras["bool2"].zero == "F"

    def test_unknown_block_keyword(self):
        with pytest.raises(FileFormatError) as err:
            load_text("frobnicate x\nend\n")
        assert "frobnicate" in str(err.value)

    def test_duplicate_names_rejected(self):
        with pytest.raises(FileFormatError):
            load_text(BOOL_BLOCK + BOOL_BLOCK)

    def test_load_file_reports_path(self, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text("algebra a\nelements F T\nelements F T\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_file(str(path))
        assert err.value.source == str(path)
        assert str(path) in str(err.value)

    def test_load_file_round_trip(self, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text(BOOL_BLOCK + M3_BLOCK, encoding="utf-8")
        ws = load_file(str(path))
        assert "bool2" in ws.algebras
        assert "diamond" in ws.lattices

    def test_resolve_algebra_memoizes_lattice_wrapper(self):
        ws = load_text(M3_BLOCK)
        first = ws.resolve_algebra("diamond")
        second = ws.resolve_algebra("diamond")
        assert first is second
        assert ws.resolve_algebra("nosuch") is None


CHAIN = "lattice c\nelements 0 1\ncover 0 1\nend\n"
FAMILY = "family f\nuniverse p\nassign p c\nend\n"
SET = "set s over f\np 1\nend\n"


@pytest.mark.parametrize(
    "preload, text, message",
    [
        pytest.param(
            None, BOOL_BLOCK + BOOL_BLOCK, "<input>:23: algebra 'bool2' is already defined",
            id="algebra-twice",
        ),
        pytest.param(
            None, CHAIN + CHAIN, "<input>:5: lattice 'c' is already defined", id="lattice-twice"
        ),
        pytest.param(
            None, CHAIN + FAMILY + FAMILY, "<input>:9: family 'f' is already defined", id="family-twice"
        ),
        pytest.param(
            None, CHAIN + FAMILY + SET + SET, "<input>:12: set 's' is already defined", id="set-twice"
        ),
        pytest.param(
            BOOL_BLOCK, BOOL_BLOCK, "<input>:3: algebra 'bool2' is already defined",
            id="algebra-in-workspace",
        ),
        pytest.param(
            CHAIN, "\n" + CHAIN, "<input>:2: lattice 'c' is already defined", id="lattice-in-workspace"
        ),
        pytest.param(
            CHAIN + FAMILY, FAMILY, "<input>:1: family 'f' is already defined", id="family-in-workspace"
        ),
        pytest.param(
            CHAIN + FAMILY + SET, SET, "<input>:1: set 's' is already defined", id="set-in-workspace"
        ),
        pytest.param(
            None, "lattice e\nelements 0\nend\nfamily f\nuniverse p\nassign p e\nend\n",
            "<input>:6: lattice 'e' has a single element; an algebra needs O != I",
            id="one-element-lattice-assigned",
        ),
        *(
            pytest.param(None, header, f"<input>:1: '{kind}' header takes exactly one name", id=header)
            for kind in ("algebra", "lattice", "family")
            for header in (kind, f"{kind} a b")
        ),
        pytest.param(
            None,
            "# a comment\nfrobnicate x\nend\n",
            "<input>:2: expected 'algebra', 'lattice', 'family', or 'set', got 'frobnicate'",
            id="unknown-keyword",
        ),
        pytest.param(
            None, BOOL_BLOCK.replace("zero F\n", "zero F\nzero T\n"), "<input>:6: 'zero' given twice",
            id="zero-twice",
        ),
        pytest.param(
            None, BOOL_BLOCK.replace("one T\n", "one T\none F\n"), "<input>:7: 'one' given twice",
            id="one-twice",
        ),
        pytest.param(
            None, BOOL_BLOCK.replace("zero F\n", "zero F T\n"), "<input>:5: 'zero' takes exactly one token",
            id="zero-two-tokens",
        ),
        pytest.param(
            None, BOOL_BLOCK.replace("one T\n", "one\n"), "<input>:6: 'one' takes exactly one token",
            id="one-no-token",
        ),
        pytest.param(
            None, "algebra a\nzero F\none T\nend\n", "<input>:4: algebra 'a': missing 'elements'",
            id="missing-elements",
        ),
        pytest.param(
            None, "algebra a\nelements F T\none T\nend\n", "<input>:4: algebra 'a': missing 'zero'",
            id="missing-zero",
        ),
        pytest.param(
            None, "algebra a\nelements F T\nzero F\nend\n", "<input>:4: algebra 'a': missing 'one'",
            id="missing-one",
        ),
        # with several directives missing, the first of elements, zero, one is named
        pytest.param(
            None, "algebra a\nelements F T\n\nend\n", "<input>:4: algebra 'a': missing 'zero'",
            id="missing-zero-and-one",
        ),
        pytest.param(
            None, "algebra a\none T\nend\n", "<input>:3: algebra 'a': missing 'elements'",
            id="missing-elements-and-zero",
        ),
    ],
)
def test_reader_messages_name_source_and_line(preload, text, message):
    workspace = None if preload is None else load_text(preload)
    with pytest.raises(FileFormatError) as err:
        load_text(text, workspace)
    assert str(err.value) == message


class TestMatrixLiteral:
    def test_valid(self):
        assert parse_matrix_literal("[[0,1],[0,0]]") == RationalMatrix([[0, 1], [0, 0]])
        assert parse_matrix_literal("[[1/2,0],[0,1/2]]") == RationalMatrix(
            [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        )

    def test_ragged(self):
        with pytest.raises((ValueError, Exception)):
            parse_matrix_literal("[[0,1],[0]]")

    def test_not_a_matrix(self):
        with pytest.raises(ValueError):
            parse_matrix_literal("0,1")
        with pytest.raises(ValueError):
            parse_matrix_literal("[[a,b],[c,d]]")
