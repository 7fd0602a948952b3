"""Line-oriented definition files for algebras, lattices, families, and sets.

Files are UTF-8 text; ``#`` starts a comment; blank lines are ignored. Four
block kinds, each closed by ``end``:

    algebra <name>              lattice <name>
    elements <tok> ...          elements <tok> ...
    zero <tok>                  cover <lower> <upper>
    one <tok>                   end
    wedge
    <lhs> <rhs> <result>        family <name>
    ...                         universe <pt> ...
    vee                         assign <pt> <algebra-or-lattice>
    <lhs> <rhs> <result>        end
    ...
    complement                  set <name> over <family>
    <elem> <image>              <pt> <element-literal>
    ...                         end
    end

Operation tables must be total; missing rows are errors, not defaults.
Set element literals follow the point's algebra: a bare token for finite
carriers, a rational like ``3/10`` for the unit interval, or a row-major
matrix like ``[[0,1],[0,0]]`` with rational entries. A rational may use a
decimal exponent (``25e-2``) of at most ``MAX_EXPONENT``. Malformed input
raises FileFormatError carrying source and line; a file that parses but
describes bad mathematics (a cyclic cover set, say) raises the matching
domain error instead.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraHandle, FiniteAlgebraTable
from .errors import DomainError, FileFormatError, ShapeError, StructuralError
from .instances import lattice_algebra
from .lattice import FiniteLattice, lattice_from_hasse
from .matrix import RationalMatrix
from .sets import AlgebraFamily, ModernSet, Universe, modern_set

# Fraction expands 1e10000000 into a ten-million-digit integer, and its
# parse time grows faster than the exponent, so larger exponents are refused.
MAX_EXPONENT = 1000

_RESERVED = frozenset({
    "algebra", "lattice", "family", "set", "over", "elements", "zero", "one",
    "wedge", "vee", "complement", "cover", "universe", "assign", "end",
})


class Workspace:
    """Named objects loaded from definition files, one namespace per kind."""

    def __init__(self):
        self.algebras: dict[str, AlgebraHandle] = {}
        self.lattices: dict[str, FiniteLattice] = {}
        self.families: dict[str, AlgebraFamily] = {}
        self.sets: dict[str, ModernSet] = {}
        self._lattice_algebras: dict[str, AlgebraHandle] = {}

    def add_algebra(self, name: str, algebra: AlgebraHandle) -> None:
        self._add("algebra", self.algebras, name, algebra)

    def add_lattice(self, name: str, lattice: FiniteLattice) -> None:
        self._add("lattice", self.lattices, name, lattice)

    def add_family(self, name: str, family: AlgebraFamily) -> None:
        self._add("family", self.families, name, family)

    def add_set(self, name: str, s: ModernSet) -> None:
        self._add("set", self.sets, name, s)

    @staticmethod
    def _add(kind: str, names: dict, name: str, value) -> None:
        if name in names:
            raise StructuralError(f"{kind} {name!r} is already defined")
        names[name] = value

    def resolve_algebra(self, name: str) -> AlgebraHandle | None:
        """An algebra by name, wrapping a same-named lattice if needed.

        Lattice wrappers are memoized so every reference to one lattice
        yields the identical algebra object; families built from the same
        names stay compatible.
        """
        if name in self.algebras:
            return self.algebras[name]
        if name in self.lattices:
            if name not in self._lattice_algebras:
                self._lattice_algebras[name] = lattice_algebra(self.lattices[name])
            return self._lattice_algebras[name]
        return None


class _Cursor:
    def __init__(self, text: str, source: str):
        self.lines = text.splitlines()
        self.source = source
        self.pos = 0

    def next_content(self) -> tuple[int, list[str]] | None:
        """Next non-blank line as (lineno, fields), comments stripped."""
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.pos, stripped.split()
        return None

    def error(self, message: str, line: int) -> FileFormatError:
        return FileFormatError(message, source=self.source, line=line)


def load_file(path: str, workspace: Workspace | None = None) -> Workspace:
    """Parse one definition file into a workspace (a fresh one by default)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write one
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after any byte-order mark
        raise FileFormatError(f"not UTF-8 text (byte {exc.object[exc.start]:#04x})", path) from None
    return load_text(text, workspace, source=path)


def load_text(
    text: str, workspace: Workspace | None = None, source: str = "<input>"
) -> Workspace:
    """Parse definition text into a workspace. See the module docstring."""
    if workspace is None:
        workspace = Workspace()
    cursor = _Cursor(text, source)
    while (entry := cursor.next_content()) is not None:
        lineno, fields = entry
        if fields[0] not in _READERS:
            raise cursor.error(
                f"expected 'algebra', 'lattice', 'family', or 'set', got {fields[0]!r}", lineno
            )
        _READERS[fields[0]](cursor, lineno, fields, workspace)
    return workspace


def _body(cursor: _Cursor, kind: str, name: str):
    """Each line of a block as (lineno, fields), up to and consuming its ``end``."""
    while (entry := cursor.next_content()) is not None:
        if entry[1][0] == "end":
            return
        yield entry
    raise cursor.error(f"{kind} {name!r}: missing 'end'", len(cursor.lines))


def _fresh_name(cursor: _Cursor, lineno: int, fields: list[str], names: dict, kind: str) -> str:
    """The one name in a block header, refused when ``names`` already holds it."""
    if len(fields) != 2:
        raise cursor.error(f"'{kind}' header takes exactly one name", lineno)
    if fields[1] in names:
        raise cursor.error(f"{kind} {fields[1]!r} is already defined", lineno)
    return fields[1]


def _read_tokens(cursor, lineno, fields):
    tokens = fields[1:]
    if not tokens:
        raise cursor.error("'elements' needs at least one token", lineno)
    for t in tokens:
        if t in _RESERVED:
            raise cursor.error(f"{t!r} is a reserved word and cannot be an element", lineno)
    if len(set(tokens)) != len(tokens):
        raise cursor.error("duplicate element tokens", lineno)
    return tuple(tokens)


def _read_algebra(cursor: _Cursor, header_line: int, fields: list[str], workspace: Workspace):
    name = _fresh_name(cursor, header_line, fields, workspace.algebras, "algebra")
    elements: tuple[str, ...] | None = None
    bounds: dict[str, str] = {}
    tables: dict[str, dict] = {"wedge": {}, "vee": {}, "complement": {}}
    seen_sections: set[str] = set()
    mode: str | None = None
    for lineno, fields in _body(cursor, "algebra", name):
        keyword = fields[0]
        if keyword == "elements":
            if elements is not None:
                raise cursor.error("'elements' given twice", lineno)
            elements = _read_tokens(cursor, lineno, fields)
            mode = None
        elif keyword in ("zero", "one"):
            if len(fields) != 2:
                raise cursor.error(f"'{keyword}' takes exactly one token", lineno)
            if keyword in bounds:
                raise cursor.error(f"'{keyword}' given twice", lineno)
            bounds[keyword] = fields[1]
            mode = None
        elif keyword in ("wedge", "vee", "complement"):
            if len(fields) != 1:
                raise cursor.error(f"'{keyword}' header takes no arguments", lineno)
            if keyword in seen_sections:
                raise cursor.error(f"'{keyword}' section given twice", lineno)
            seen_sections.add(keyword)
            mode = keyword
        else:
            if mode is None:
                raise cursor.error(
                    f"unexpected line {keyword!r}: rows must follow a "
                    f"'wedge', 'vee', or 'complement' header",
                    lineno,
                )
            if elements is None:
                raise cursor.error("'elements' must come before table rows", lineno)
            want = 2 if mode == "complement" else 3
            if len(fields) != want:
                raise cursor.error(
                    f"{mode} row needs exactly {want} tokens, got {len(fields)}", lineno
                )
            for t in fields:
                if t not in elements:
                    raise cursor.error(f"unknown element {t!r} in {mode} row", lineno)
            key = fields[0] if mode == "complement" else (fields[0], fields[1])
            if key in tables[mode]:
                raise cursor.error(f"duplicate {mode} row for {key!r}", lineno)
            tables[mode][key] = fields[-1]
    if elements is None or len(bounds) < 2:
        missing = "elements" if elements is None else ("zero" if "zero" not in bounds else "one")
        raise cursor.error(f"algebra {name!r}: missing '{missing}'", cursor.pos)
    for section in ("wedge", "vee"):
        if section not in seen_sections:
            raise cursor.error(f"algebra {name!r}: missing '{section}' table", cursor.pos)
    try:
        table = FiniteAlgebraTable(
            name=name,
            elements=elements,
            zero_token=bounds["zero"],
            one_token=bounds["one"],
            wedge_table=tables["wedge"],
            vee_table=tables["vee"],
            complement_table=tables["complement"] if "complement" in seen_sections else None,
        )
    except StructuralError as exc:
        raise cursor.error(str(exc), cursor.pos) from exc
    workspace.add_algebra(name, table.as_handle())


def _read_lattice(cursor: _Cursor, header_line: int, fields: list[str], workspace: Workspace):
    name = _fresh_name(cursor, header_line, fields, workspace.lattices, "lattice")
    elements: tuple[str, ...] | None = None
    covers: list[tuple[str, str]] = []
    for lineno, fields in _body(cursor, "lattice", name):
        keyword = fields[0]
        if keyword == "elements":
            if elements is not None:
                raise cursor.error("'elements' given twice", lineno)
            elements = _read_tokens(cursor, lineno, fields)
        elif keyword == "cover":
            if len(fields) != 3:
                raise cursor.error("'cover' takes exactly two tokens", lineno)
            if elements is None:
                raise cursor.error("'elements' must come before 'cover' rows", lineno)
            for t in fields[1:]:
                if t not in elements:
                    raise cursor.error(f"unknown element {t!r} in cover", lineno)
            covers.append((fields[1], fields[2]))
        else:
            raise cursor.error(
                f"expected 'elements', 'cover', or 'end', got {keyword!r}", lineno
            )
    if elements is None:
        raise cursor.error(f"lattice {name!r}: missing 'elements'", cursor.pos)
    # Bad mathematics (cycles, missing bounds) propagates as its own error.
    workspace.add_lattice(name, lattice_from_hasse(name, elements, covers))


def _read_family(cursor: _Cursor, header_line: int, fields: list[str], workspace: Workspace):
    name = _fresh_name(cursor, header_line, fields, workspace.families, "family")
    points: tuple[str, ...] | None = None
    assignment: dict[str, AlgebraHandle] = {}
    for lineno, fields in _body(cursor, "family", name):
        keyword = fields[0]
        if keyword == "universe":
            if points is not None:
                raise cursor.error("'universe' given twice", lineno)
            if len(fields) < 2:
                raise cursor.error("'universe' needs at least one point", lineno)
            points = tuple(fields[1:])
            if len(set(points)) != len(points):
                raise cursor.error("duplicate universe points", lineno)
        elif keyword == "assign":
            if len(fields) != 3:
                raise cursor.error("'assign' takes a point and an algebra name", lineno)
            if points is None:
                raise cursor.error("'universe' must come before 'assign' rows", lineno)
            point, algebra_name = fields[1], fields[2]
            if point not in points:
                raise cursor.error(f"unknown point {point!r} in assign", lineno)
            if point in assignment:
                raise cursor.error(f"point {point!r} assigned twice", lineno)
            try:
                algebra = workspace.resolve_algebra(algebra_name)
            except StructuralError as exc:  # a one-element lattice makes no algebra
                raise cursor.error(str(exc), lineno) from exc
            if algebra is None:
                raise cursor.error(
                    f"unknown algebra or lattice {algebra_name!r}", lineno
                )
            assignment[point] = algebra
        else:
            raise cursor.error(
                f"expected 'universe', 'assign', or 'end', got {keyword!r}", lineno
            )
    if points is None:
        raise cursor.error(f"family {name!r}: missing 'universe'", cursor.pos)
    for point in points:
        if point not in assignment:
            raise cursor.error(
                f"family {name!r}: no algebra assigned at point {point!r}", cursor.pos
            )
    workspace.add_family(name, AlgebraFamily(Universe(points), assignment, name=name))


def _parse_rational(text: str) -> Fraction:
    """A rational literal like 3/10, 0.25 or 25e-2, as an exact Fraction."""
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            oversized = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            oversized = False  # not an exponent; Fraction rejects the literal
        if oversized:
            raise ValueError(f"exponent in {text!r} is beyond {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_matrix_literal(text: str) -> RationalMatrix:
    """Row-major matrix literal like [[0,1],[1/2,0]] with rational entries."""
    compact = "".join(text.split())
    if not (compact.startswith("[[") and compact.endswith("]]")):
        raise ValueError(f"matrix literal must look like [[a,b],[c,d]], got {text!r}")
    rows = []
    for row_text in compact[2:-2].split("],["):
        entries = row_text.split(",")
        if any(not e for e in entries):
            raise ValueError(f"empty entry in matrix literal {text!r}")
        rows.append([_parse_rational(e) for e in entries])
    return RationalMatrix(rows)


def _parse_element_literal(cursor, lineno, algebra: AlgebraHandle, text: str):
    if algebra.finite:
        if len(text.split()) != 1:
            raise cursor.error(f"expected a single token, got {text!r}", lineno)
        return text
    if isinstance(algebra.zero, Fraction):
        try:
            return _parse_rational(text)
        except ValueError as exc:
            raise cursor.error(str(exc), lineno) from exc
    if isinstance(algebra.zero, RationalMatrix):
        try:
            return parse_matrix_literal(text)
        except (ValueError, ShapeError) as exc:
            raise cursor.error(str(exc), lineno) from exc
    raise cursor.error(f"cannot parse literals for algebra {algebra.name!r}", lineno)


def _read_set(cursor: _Cursor, header_line: int, fields: list[str], workspace: Workspace):
    if len(fields) != 4 or fields[2] != "over":
        raise cursor.error("'set' header must be: set <name> over <family>", header_line)
    name, family_name = fields[1], fields[3]
    if name in workspace.sets:
        raise cursor.error(f"set {name!r} is already defined", header_line)
    if family_name not in workspace.families:
        raise cursor.error(f"unknown family {family_name!r}", header_line)
    family = workspace.families[family_name]
    membership = {}
    for lineno, fields in _body(cursor, "set", name):
        point = fields[0]
        if point not in family.universe:
            raise cursor.error(f"unknown point {point!r} in set row", lineno)
        if point in membership:
            raise cursor.error(f"point {point!r} given twice", lineno)
        if len(fields) < 2:
            raise cursor.error(f"missing membership value for point {point!r}", lineno)
        literal = " ".join(fields[1:])
        algebra = family.algebra_at(point)
        membership[point] = _parse_element_literal(cursor, lineno, algebra, literal)
    try:
        built = modern_set(family, membership)
    except DomainError as exc:
        raise cursor.error(str(exc), cursor.pos) from exc
    workspace.add_set(name, built)


_READERS = {"algebra": _read_algebra, "lattice": _read_lattice, "family": _read_family, "set": _read_set}
