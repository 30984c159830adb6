"""The manifest language: a line-oriented sectioned description of one
verification job.

``[section]`` headers group ``key = value`` entries; ``#`` starts a
comment; blank lines separate nothing.  Polynomials and forms are string
literals in the calculus grammar; matrix-valued data uses dotted numbered
keys (``metric.2 = 0, 1``) with comma-separated entries, sparse tables
default to zero; one reader, `_indexed`, checks the indices of every dotted
key and rejects indices given twice.  Exactly one of the ``[bracket]`` and
``[builder]`` sections must be present.

The schema `SCHEMA` declares every section and each of its keys once (see
`Section` and `Key`); `parse_manifest` chooses the builder, then reads every
section through the schema in one loop.  `BLOCKS` are the optional blocks
beyond the builder; `check_tasks` names a missing block or builder kind.

The builder table `BUILDERS` declares each way of building the structure
once: the rank of the bundle it builds, a check of what no key expresses,
and how its spec (the keys of the sections it reads) builds the bundle, the
algebroid and the rest of the task context.  ``kind = ...`` in
``[builder]`` names an entry; an explicit ``[bundle]`` + ``[bracket]`` pair
is the entry under None, which no kind can name.  A builder section that
the chosen builder does not read is an error at its header.

All syntax errors carry a line and column.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .algebroid import PreCourantAlgebroid, zero_table
from .bundle import CourantBundle, standard_bundle
from .construct import (
    DissectionData,
    double,
    from_connection_beta,
    from_dissection,
    from_twisted_action,
    make_twisted_action,
    quadratic_lie_algebra,
)
from .deform import apply_deformation, twist_deformation
from .errors import ConstructionError, ParseError, TaskError
from .exterior import KForm
from .parsing import parse_form, parse_int, parse_poly, parse_scalar
from .poly import Chart, Poly
from .tasks import TASKS, BuildContext


class _Entry:
    __slots__ = ("key", "value", "line", "value_col")

    def __init__(self, key: str, value: str, line: int, value_col: int):
        self.key = key
        self.value = value
        self.line = line
        self.value_col = value_col


class _Section(list):
    """The entries of one section, with the line of its header."""

    __slots__ = ("line",)

    def __init__(self, line: int):
        super().__init__()
        self.line = line


# a parsed builder spec: plain data keyed by name
Spec = Dict[str, object]
Sections = Dict[str, _Section]


class Manifest:
    """A parsed manifest.  The keys of [meta] and [chart] are attributes
    (seed, trials, max_degree, tasks and chart), set by `parse_manifest`."""

    __slots__ = (
        "name", "chart", "tasks", "seed", "trials", "max_degree", "builder_kind", "spec", "blocks"
    )

    def __init__(self, name: str):
        self.name = name
        # the key of the builder in BUILDERS (None for [bundle] + [bracket]) and its spec
        self.builder_kind: Optional[str] = None
        self.spec: Spec = {}
        # block of BLOCKS -> its list of rows or its form, for the blocks given
        self.blocks: Dict[str, object] = {}


def _split_sections(text: str) -> Sections:
    sections: Sections = {}
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(lineno, len(line), "closing ']' in section header")
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                raise ParseError(
                    lineno, line.index("[") + 2, f"one of {', '.join(SCHEMA)}", name
                )
            if name in sections:
                raise ParseError(lineno, 1, f"unique section [{name}]", "duplicate")
            current = sections[name] = _Section(lineno)
            continue
        if current is None:
            raise ParseError(lineno, 1, "a [section] header before entries")
        if "=" not in line:
            raise ParseError(lineno, len(line) + 1, "'=' in entry")
        key, value = line.split("=", 1)
        lead = len(value) - len(value.lstrip())
        entry = _Entry(key.strip(), value.strip(), lineno, line.index("=") + 2 + lead)
        if any(e.key == entry.key for e in current):
            raise ParseError(lineno, 1, f"unique key {entry.key!r}", "duplicate")
        current.append(entry)
    return sections


def _first_line(entries: _Section) -> int:
    """The line of the first entry, or of the header when there is none."""
    return entries[0].line if entries else entries.line


def _read_row(entry: _Entry, length: int, chart: Optional[Chart] = None) -> List:
    """The comma-separated entries of a row: polynomials over the chart, or
    numbers when no chart is given."""
    parts = entry.value.split(",")
    if len(parts) != length:
        noun = "numbers" if chart is None else "entries"
        raise ParseError(
            entry.line,
            entry.value_col,
            f"{length} comma-separated {noun} for {entry.key!r}",
            f"{len(parts)} entries",
        )
    out = []
    col = entry.value_col
    for part in parts:
        if chart is None:
            out.append(parse_scalar(part, entry.line, col))
        else:
            out.append(parse_poly(chart, part, entry.line, col))
        col += len(part) + 1
    return out


def _key_indices(entry: _Entry, prefix: str, count: int) -> Tuple[int, ...]:
    parts = entry.key.split(".")
    if parts[0] != prefix or len(parts) != count + 1:
        raise ParseError(
            entry.line, 1, f"key of the form {prefix}.{'.'.join(['N'] * count)}", entry.key
        )
    try:
        return tuple(parse_int(p, 1) - 1 for p in parts[1:])
    except ParseError:
        raise ParseError(entry.line, 1, "1-based integer key indices", entry.key) from None


def _indexed(
    given: List[_Entry], prefix: str, count: int, parse_row, fits, expected: str, pairs=""
) -> Dict[Tuple[int, ...], object]:
    """The rows of the entries given, prefix.I... with count 1-based
    indices, keyed by their 0-based index tuples.  Indices that fits refuses
    are an error naming expected, and so are I >= J if pairs is "upper";
    so are indices given before, and if pairs is "skew", as the build fills
    in the transpose and the diagonal, I = J and a transpose given before."""
    rows: Dict[Tuple[int, ...], object] = {}
    for e in given:
        idx = _key_indices(e, prefix, count)
        if not fits(*idx) or pairs == "upper" and idx[0] >= idx[1]:
            raise ParseError(e.line, 1, expected, e.key)
        if pairs == "skew" and idx[0] == idx[1]:
            raise ParseError(e.line, 1, f"{prefix}.I.J with I != J", e.key)
        same = (idx, idx[::-1]) if pairs == "skew" else (idx,)
        if any(s in rows for s in same):
            names = [".".join([prefix, *(str(i + 1) for i in s)]) for s in same]
            raise ParseError(e.line, 1, f"a single entry for {' or '.join(names)}", e.key)
        rows[idx] = parse_row(e)
    return rows


def _missing_rows(rows: Dict[Tuple[int], object], count: int) -> str:
    """The 1-based rows up to count that rows, all of whose 1-tuple keys are
    below count, lacks: the first five, then "..." if there are more."""
    # the first five missing rows lie below len(rows) + 5
    first = [i + 1 for i in range(min(count, len(rows) + 5)) if (i,) not in rows][:5]
    more = ", ..." if count - len(rows) > 5 else ""
    return f"[{', '.join(map(str, first))}{more}]" if first else ""


class Key(NamedTuple):
    """One key of a section, such as rank, metric.N or t.N.N, read by
    `read(r, name, key, given)` from the entries under its name (the part
    before the first dot), or from its one entry if it has no `row` parser.
    `size` is an integer's minimum, a form's degree, or the size names of a
    row count or of a table's index bounds; `pairs`, "skew" or "upper", is
    a table's rule for index pairs (see `_indexed`).  An absent key is an
    error if required, reported with `expected`, and else takes `default`;
    `expected` is also the template, over the names of `_Reader`, of an
    index out of range, and the name of a matrix that `_nondegenerate`
    reads.  `by` names the kinds that read a [builder] key;
    `into` renames the key's value."""

    read: Callable
    size: object = None
    row: Optional[Callable] = None
    pairs: str = ""
    required: bool = False
    default: object = None
    expected: str = ""
    by: Optional[Tuple[Optional[str], ...]] = None
    into: Optional[str] = None


class Section(NamedTuple):
    """One section: its keys in the order read, the builder kinds that read
    it (None for any manifest), and the template of the text an unknown key
    is reported with (by default the keys)."""

    keys: Dict[str, Key]
    by: Optional[Tuple[Optional[str], ...]] = None
    unknown: str = ""


class _Reader:
    """One read: the manifest so far, the first entry under each key by its
    value's name, and the section read.  Indexing gives a size or template
    name: the chart dimension, the bundle's rank, or a spec value read
    before, such as dim or the builder kind."""

    __slots__ = ("m", "where", "section", "entries")

    def __init__(self, m: Manifest):
        self.m = m
        self.where: Dict[str, Optional[_Entry]] = {}

    def __getitem__(self, name: str):
        if name == "chart":
            return self.m.chart.dim
        if name == "rank":
            return BUILDERS[self.m.builder_kind].rank(self.m.spec, self.m.chart)
        return self.m.spec[name]


def _entry(r: _Reader, name: str, key: Key, given: List[_Entry]) -> Optional[_Entry]:
    """The one entry of a key, or None if it is absent and not required."""
    if given:
        return given[0]
    if key.required:
        article = "an" if name[0] in "aeiou" else "a"
        expected = key.expected or f"{article} {name!r} entry in [{r.section}]"
        raise ParseError(_first_line(r.entries), 1, expected)
    return None


def _int(r: _Reader, name: str, key: Key, e: Optional[_Entry]) -> int:
    return key.default if e is None else parse_int(e.value, key.size, e.line, e.value_col)


def _flag(r: _Reader, name: str, key: Key, e: Optional[_Entry]) -> bool:
    if e is not None and e.value not in ("true", "false"):
        raise ParseError(e.line, e.value_col, "true or false", e.value)
    return e is not None and e.value == "true"


def _vars(r: _Reader, name: str, key: Key, e: _Entry) -> Chart:
    try:
        return Chart(e.value.split())
    except ValueError as exc:
        raise ParseError(e.line, e.value_col, str(exc)) from None


def _tasks(r: _Reader, name: str, key: Key, e: Optional[_Entry]) -> List[str]:
    return [t.strip() for t in e.value.split(",") if t.strip()] if e else []


def _kind(r: _Reader, name: str, key: Key, e: _Entry) -> str:
    if e.value not in BUILDERS:
        kinds = ", ".join(k for k in BUILDERS if k is not None)
        raise ParseError(e.line, e.value_col, f"builder kind among {kinds}", e.value)
    return e.value


def _form(r: _Reader, name: str, key: Key, e: Optional[_Entry]) -> KForm:
    """A form of degree size; an absent optional form is zero."""
    if e is None:
        return KForm.zero(r.m.chart, key.size)
    form = parse_form(r.m.chart, e.value, e.line, e.value_col)
    if form.degree != key.size:
        raise ParseError(e.line, e.value_col, f"a {key.size}-form literal")
    return form


def _rows(r: _Reader, name: str, key: Key, given: List[_Entry]) -> Optional[List]:
    """Rows name.1 .. name.n, n the size, or None for an optional key with
    no row.  Missing rows are reported at the last row given, or at the
    section header if none is."""
    if not (given or key.required):
        return None
    n = r[key.size]
    expected = f"row index between 1 and {n}" if n else f"no {name} row"
    rows = _indexed(given, name, 1, lambda e: key.row(r, e), lambda i: i < n, expected)
    missing = _missing_rows(rows, n)
    if missing:
        last = max([r.entries.line] + [e.line for e in given])
        raise ParseError(last, 1, f"rows {missing} of {name!r}")
    return [rows[(i,)] for i in range(n)]


def _nondegenerate(r: _Reader, name: str, key: Key, given: List[_Entry]) -> Optional[List]:
    """The rows of a constant matrix, read as `_rows` reads them, that must be
    a nondegenerate symmetric form, as the construction requires; one that
    is not is an error at its first row given, naming the matrix by
    `expected`."""
    rows = _rows(r, name, key, given)
    if rows is not None:
        try:
            linalg.symmetric_inverse(rows, name)
        except ConstructionError as exc:
            quality = "nonsingular" if exc.code.endswith("-singular") else "symmetric"
            expected = f"a {quality} {key.expected} in [{r.section}]"
            raise ParseError(given[0].line, 1, expected) from None
    return rows


def _contiguous(r: _Reader, name: str, key: Key, given: List[_Entry]) -> List:
    """Rows name.1 .. name.N, N the largest index given; a gap is an error at the first row."""
    first = _entry(r, name, key, given)
    rows = _indexed(given, name, 1, lambda e: key.row(r, e), lambda i: True, "")
    count = max(rows)[0] + 1
    missing = _missing_rows(rows, count)
    if missing:
        raise ParseError(first.line, 1, f"contiguous {name} rows", missing)
    return [rows[(i,)] for i in range(count)]


def _table(r: _Reader, name: str, key: Key, given: List[_Entry]) -> Dict:
    """The sparse table name.I.J..., its rows keyed by 0-based index tuples."""
    bounds = [r[size] for size in key.size]
    return _indexed(
        given, name, len(bounds), lambda e: key.row(r, e),
        lambda *idx: all(map(int.__lt__, idx, bounds)), key.expected.format_map(r), key.pairs,
    )


def _row(size: str, polys: bool = True) -> Callable:
    """The parser of a row of size polynomials over the chart, or numbers."""
    return lambda r, e: _read_row(e, r[size], r.m.chart if polys else None)


# --- the builders: each builds the task context from a manifest -------------


def _build_bracket(m: Manifest) -> BuildContext:
    s = m.spec
    bundle = CourantBundle(m.chart, s["rank"], s["metric"], s["anchor"])
    table = zero_table(bundle)
    for (i, j), coeffs in s["brackets"].items():
        table[i][j] = bundle.section(coeffs)
    return BuildContext(m, PreCourantAlgebroid(bundle, table))


def _build_standard(m: Manifest) -> BuildContext:
    bundle = standard_bundle(m.chart)
    return BuildContext(m, PreCourantAlgebroid(bundle, zero_table(bundle)))


def _build_twisted_exact(m: Manifest) -> BuildContext:
    bundle = standard_bundle(m.chart)
    base = PreCourantAlgebroid(bundle, zero_table(bundle))
    omega = twist_deformation(bundle, m.spec["h"])
    return BuildContext(m, apply_deformation(base, omega))


def _build_connection_beta(m: Manifest) -> BuildContext:
    s = m.spec
    r = s["rank"]
    bundle = CourantBundle(m.chart, r, s["metric"], s["anchor"])
    zsec = bundle.zero_section()
    # gamma.M.A lists the frame coefficients of the section nabla_M u_A
    nabla = [[zsec] * r for _ in range(m.chart.dim)]
    for (mm, a), coeffs in s["gamma"].items():
        nabla[mm][a] = bundle.section(coeffs)
    beta = [[zsec for _ in range(r)] for _ in range(r)]
    for (i, j), coeffs in s["beta"].items():
        beta[i][j] = bundle.section(coeffs)
        if (j, i) not in s["beta"]:
            beta[j][i] = -beta[i][j]
    return BuildContext(m, from_connection_beta(bundle, nabla, beta))


def _check_algebra(s: Spec, where: Dict[str, _Entry]) -> None:
    """[algebra] gives pairing.N rows unless double = true, and none if so
    (the double builds its own pairing)."""
    pairing = where.get("pairing")
    if pairing and s["double"]:
        raise ParseError(
            pairing.line, 1, "no pairing.N rows in [algebra] when double = true", pairing.key
        )
    if not (pairing or s["double"]):
        raise ParseError(where["dim"].line, 1, "pairing.N rows in [algebra] unless double = true")


def _build_twisted_action(m: Manifest) -> BuildContext:
    s = m.spec
    algebra = quadratic_lie_algebra(s["dim"], s["brackets"], s["pairing"])
    base = None
    if s["double"]:
        base, algebra = algebra, double(algebra)
    points = m.blocks.get("points", [(0,) * m.chart.dim])
    action = make_twisted_action(algebra, m.chart, s["rho"], s["k"], points)
    algebroid = from_twisted_action(action)
    return BuildContext(m, algebroid, algebra, base, action)


def _build_dissection(m: Manifest) -> BuildContext:
    s, chart = m.spec, m.chart
    g = s["aux_rank"]
    zero = Poly.zero(chart)
    # gamma.M.N is row N of the connection matrix along x_M
    gamma = [[[zero] * g for _ in range(g)] for _ in range(chart.dim)]
    for (mm, row), coeffs in s["gamma"].items():
        gamma[mm][row] = list(coeffs)
    dissection = DissectionData(
        chart, g, s["aux_pairing"], gamma, s["curvature"], s["psi"], s["fiber_table"]
    )
    algebroid = from_dissection(dissection)
    return BuildContext(m, algebroid, dissection=dissection)


class Builder(NamedTuple):
    """One way to build the structure a manifest describes: the rank of the
    bundle it builds, the build of the task context from a manifest, and a
    check of the spec that no key expresses, given the entries."""

    rank: Callable[[Spec, Chart], int]
    build: Callable[[Manifest], BuildContext]
    check: Callable[[Spec, Dict[str, _Entry]], None] = lambda s, where: None


# builder kind -> Builder; the key None is the explicit [bundle] + [bracket]
# pair, which `kind = ...` cannot name
BUILDERS: Dict[Optional[str], Builder] = {
    None: Builder(lambda s, chart: s["rank"], _build_bracket),
    "standard": Builder(lambda s, chart: 2 * chart.dim, _build_standard),
    "twisted_exact": Builder(lambda s, chart: 2 * chart.dim, _build_twisted_exact),
    "connection_beta": Builder(lambda s, chart: s["rank"], _build_connection_beta),
    "twisted_action": Builder(lambda s, chart: 2 * s["dim"] if s["double"] else s["dim"],
                              _build_twisted_action, _check_algebra),
    "dissection": Builder(lambda s, chart: 2 * chart.dim + s["aux_rank"], _build_dissection),
}


def _rows_block(block: str, key: str, row: Callable) -> Tuple[str, Section]:
    """The block of the rows key.1 .. key.N, from 1 without a gap."""
    rows = Key(_contiguous, row=row, required=True, expected=f"{key}.N rows in [{block}]")
    return block, Section({key + ".N": rows}, unknown=f"key of the form {key}.N")


def _form_block(block: str, key: str, degree: int) -> Tuple[str, Section]:
    """The block of the single form entry key."""
    text = f"a single {key!r} entry in [{block}]"
    return block, Section({key: Key(_form, degree, required=True, expected=text)}, unknown=text)


# the optional blocks beyond the builder, each read into Manifest.blocks by
# its name: [lift] and [complement] rows have the rank of the bundle the
# builder builds, and a point has one coordinate per chart variable.  A
# block without a row or entry is an error at its header.
BLOCKS: Dict[str, Section] = dict([
    _rows_block("lift", "sigma", _row("rank")),
    _rows_block("complement", "c", _row("rank")),
    _rows_block("points", "p", lambda r, e: tuple(_read_row(e, r["chart"]))),
    _form_block("deform", "h", 3),
    _form_block("bfield", "beta", 2),
    _form_block("pontryagin", "h", 3),
])

SCHEMA: Dict[str, Section] = {
    "meta": Section({
        "seed": Key(_int, 0, default=0),
        "trials": Key(_int, 1, default=16),
        "max_degree": Key(_int, 0, default=2),
        "tasks": Key(_tasks),
    }),
    "chart": Section({"vars": Key(_vars, required=True, into="chart")}),
    "bundle": Section({
        "rank": Key(_int, 1, required=True),
        "metric.N": Key(_nondegenerate, "rank", _row("rank", polys=False), required=True,
                        expected="metric"),
        "anchor.N": Key(_rows, "rank", _row("chart"), required=True),
    }, by=(None, "connection_beta")),
    "bracket": Section({
        "t.N.N": Key(_table, ("rank", "rank"), _row("rank"), into="brackets",
                     expected="frame indices between 1 and {rank}"),
    }, by=(None,), unknown="key of the form t.N.N"),
    # (direction, frame) and (frame, frame) -> coefficients
    "builder": Section({
        "kind": Key(_kind, required=True),
        "h": Key(_form, 3, required=True, expected="an 'h' entry for twisted_exact",
                 by=("twisted_exact",)),
        "gamma.M.N": Key(_table, ("chart", "rank"), _row("rank"), by=("connection_beta",),
                         expected="gamma.direction.frame in range"),
        "beta.I.J": Key(_table, ("rank", "rank"), _row("rank"), by=("connection_beta",),
                        expected="frame indices between 1 and {rank}"),
    }, by=tuple(k for k in BUILDERS if k is not None), unknown="entries of builder {kind}"),
    "algebra": Section({
        "dim": Key(_int, 1, required=True),
        "double": Key(_flag),
        "bracket.I.J": Key(_table, ("dim", "dim"), _row("dim", polys=False), pairs="skew",
                           into="brackets", expected="basis indices between 1 and {dim}"),
        "pairing.N": Key(_nondegenerate, "dim", _row("dim", polys=False), expected="pairing"),
    }, by=("twisted_action",)),
    # the action of the algebra, or of its double: one row per basis vector
    "action": Section({
        "rho.N": Key(_rows, "rank", _row("chart"), required=True),
        "k.I.J": Key(_table, ("rank", "rank"), _row("rank"), pairs="skew",
                     expected="basis indices between 1 and {rank}"),
    }, by=("twisted_action",)),
    # index pairs -> auxiliary coefficients
    "dissection": Section({
        "aux_rank": Key(_int, 0, required=True),
        "pairing.N": Key(_nondegenerate, "aux_rank", _row("aux_rank", polys=False),
                         required=True, expected="auxiliary pairing", into="aux_pairing"),
        "gamma.M.N": Key(_table, ("chart", "aux_rank"), _row("aux_rank"),
                         expected="gamma.direction.row in range"),
        "r.I.J": Key(_table, ("chart", "chart"), _row("aux_rank"), pairs="upper",
                     into="curvature", expected="r.I.J with I < J <= {chart}"),
        "psi": Key(_form, 3),
        "gbracket.I.J": Key(_table, ("aux_rank", "aux_rank"), _row("aux_rank"), pairs="upper",
                            into="fiber_table", expected="gbracket.I.J with I < J <= {aux_rank}"),
    }, by=("dissection",)),
    **BLOCKS,
}

# the smallest value of each integer setting, in [meta] and as a CLI override
META_MINIMUM = {k: key.size for k, key in SCHEMA["meta"].keys.items() if key.read is _int}


def _read_key(r: _Reader, pattern: str) -> object:
    """Read a key of the section being read into the manifest: a block's key
    is the block, a [meta] or [chart] key an attribute, any other a spec field."""
    key = SCHEMA[r.section].keys[pattern]
    name = pattern.split(".")[0]
    given = [e for e in r.entries if e.key.split(".")[0] == name]
    r.where[key.into or name] = given[0] if given else None
    # a key with a row parser reads every entry given, any other key its one
    value = key.read(r, name, key, given if key.row else _entry(r, name, key, given))
    if r.section in BLOCKS:
        r.m.blocks[r.section] = value
    elif SCHEMA[r.section].by:
        r.m.spec[key.into or name] = value
    else:
        setattr(r.m, key.into or name, value)
    return value


def _choose_builder(r: _Reader, sections: Sections) -> Optional[str]:
    """The builder kind (None for [bracket]), once the manifest is known to
    give the sections that it reads and no other builder section."""
    has_bracket = "bracket" in sections
    if has_bracket == ("builder" in sections):
        # both at the header given second, neither at the top
        line = max(sections["bracket"].line, sections["builder"].line) if has_bracket else 1
        raise ParseError(
            line, 1, "exactly one of [bracket] and [builder]", "both" if has_bracket else "neither"
        )
    if not has_bracket:
        r.section, r.entries = "builder", sections["builder"]
        r.m.builder_kind = _read_key(r, "kind")
    kind = r.m.builder_kind
    missing = [s for s in SCHEMA if kind in (SCHEMA[s].by or ()) and s not in sections]
    if missing and kind is None:
        raise ParseError(
            _first_line(sections["bracket"]), 1, "a [bundle] section when [bracket] is used"
        )
    if missing:
        e = r.where["kind"]
        raise ParseError(e.line, e.value_col, f"a section [{missing[0]}] for builder {kind}")
    for s, entries in sections.items():
        if SCHEMA[s].by and kind not in SCHEMA[s].by:
            reader = "a [bracket] table" if kind is None else f"builder {kind}"
            raise ParseError(entries.line, 1, f"a section read by {reader}", f"[{s}]")
    return kind


def parse_manifest(text: str, name: str = "manifest") -> Manifest:
    """Read every section through SCHEMA, in its order, once the builder is
    chosen; then run the builder's check and check the task list."""
    sections = _split_sections(text)
    if "chart" not in sections:
        raise ParseError(1, 1, "a [chart] section")
    r = _Reader(Manifest(name))
    kind = _choose_builder(r, sections)
    for section, declared in SCHEMA.items():
        entries = sections.get(section)
        if declared.by and kind not in declared.by or entries is None and section in BLOCKS:
            continue
        # an absent [meta] takes its defaults
        r.section, r.entries = section, _Section(0) if entries is None else entries
        keys = [k for k, key in declared.keys.items() if key.by is None or kind in key.by]
        # a dotted key such as metric.N stands for every key metric.... (its
        # reader checks the indices)
        allowed = {k.partition(".")[:2] for k in keys}
        for e in r.entries:
            if e.key.partition(".")[:2] not in allowed:
                listed = f"{', '.join(keys[:-1])} or {keys[-1]}" if len(keys) > 1 else keys[0]
                raise ParseError(e.line, 1, declared.unknown.format_map(r) or listed, e.key)
        for pattern in keys:
            _read_key(r, pattern)
    m = r.m
    BUILDERS[kind].check(m.spec, r.where)
    try:
        check_tasks(m, m.tasks)
    except TaskError as exc:
        # the task names, which --help lists, would not fit on one short line
        expected = f"{exc.missing} for task" if exc.missing else "a task that --help lists"
        e = r.where["tasks"]
        raise ParseError(e.line, e.value_col, expected, exc.task) from None
    return m


def check_tasks(m: Manifest, names: Sequence[str]) -> None:
    """Raise TaskError at the first name that is unknown, or that needs a
    block of BLOCKS or a builder kind that m lacks."""
    for name in names:
        if name not in TASKS:
            raise TaskError(name)
        for need in TASKS[name].needs:
            if need in BLOCKS:
                if need not in m.blocks:
                    raise TaskError(name, f"a [{need}] block")
            elif need != m.builder_kind:
                raise TaskError(name, f"a [builder] of kind {need}")
