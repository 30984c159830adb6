"""The manifest language: a line-oriented sectioned description of one
verification job.

``[section]`` headers group ``key = value`` entries; ``#`` starts a
comment; blank lines separate nothing.  Polynomials and forms are string
literals in the calculus grammar; matrix-valued data uses dotted numbered
keys (``metric.2 = 0, 1``) with comma-separated entries, sparse tables
default to zero; one reader, `_indexed`, checks the indices of every dotted
key and rejects indices given twice.  Exactly one of the ``[bracket]`` and
``[builder]`` sections must be present.

The block table `BLOCKS` declares each optional block beyond the builder
once; one loop parses them all into `Manifest.blocks`, and `check_tasks`
names a missing block or builder kind from the two tables.

The builder table `BUILDERS` declares each way of building the structure
once: the sections it reads, its ``[builder]`` keys, how they parse into
one plain spec that holds the rank of the bundle it builds, and how the spec
builds the bundle, the algebroid and the rest of the task context.
``kind = ...`` in ``[builder]`` names an entry; an explicit ``[bundle]`` +
``[bracket]`` pair is the entry under None, which no kind can name.  A
builder section that the chosen builder does not read is an error at its
header.

All syntax errors carry a line and column.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from .errors import ParseError, SingularMetricError, TaskError
from .exterior import KForm
from .parsing import parse_form, parse_int, parse_poly, parse_scalar
from .poly import Chart, Poly
from .tasks import TASKS, BuildContext

# the smallest value of each integer setting, in [meta] and as a CLI override
META_MINIMUM = {"seed": 0, "trials": 1, "max_degree": 0}

# the optional blocks beyond the builder: block -> (the key of its rows,
# prefix.N, or of its single form entry; what a row holds, "rank"
# coefficients of the built bundle or a "point" of the chart, or the degree
# of the form).  A block without a row or entry is an error at its header.
BLOCKS: Dict[str, Tuple[str, Union[str, int]]] = {
    "lift": ("sigma", "rank"),
    "complement": ("c", "rank"),
    "points": ("p", "point"),
    "deform": ("h", 3),
    "bfield": ("beta", 2),
    "pontryagin": ("h", 3),
}

_SECTIONS = (
    "meta", "chart", "bundle", "bracket", "builder", "algebra", "action", "dissection", *BLOCKS
)


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
    __slots__ = (
        "name", "chart", "tasks", "seed", "trials", "max_degree", "builder_kind", "spec", "blocks"
    )

    def __init__(
        self,
        name: str,
        chart: Chart,
        tasks: List[str],
        seed: int = 0,
        trials: int = 16,
        max_degree: int = 2,
        # the key of the builder in BUILDERS (None for [bundle] + [bracket]) and its spec
        builder_kind: Optional[str] = None,
        spec: Optional[Spec] = None,
    ):
        self.name = name
        self.chart = chart
        self.tasks = tasks
        self.seed = seed
        self.trials = trials
        self.max_degree = max_degree
        self.builder_kind = builder_kind
        self.spec = spec
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
            if name not in _SECTIONS:
                raise ParseError(
                    lineno, line.index("[") + 2, f"one of {', '.join(_SECTIONS)}", name
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


def _lookup(entries: List[_Entry], key: str) -> Optional[_Entry]:
    return next((e for e in entries if e.key == key), None)


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


def _parse_int(entry: _Entry, minimum: int) -> int:
    return parse_int(entry.value, minimum, entry.line, entry.value_col)


def _required_int(entries: _Section, key: str, section: str, minimum: int) -> int:
    """The integer entry key of a section, which must be given."""
    entry = _lookup(entries, key)
    if entry is None:
        article = "an" if key[0] in "aeiou" else "a"
        raise ParseError(_first_line(entries), 1, f"{article} {key!r} entry in [{section}]")
    return _parse_int(entry, minimum)


def _check_keys(entries: List[_Entry], keys: Sequence[str], expected: str = "") -> None:
    """Reject the first entry whose key is none of keys, where a dotted key
    such as metric.N stands for every key metric.... (its table reader checks
    the indices); the error names expected, or else the keys."""
    allowed = {k.partition(".")[:2] for k in keys}
    for e in entries:
        if e.key.partition(".")[:2] not in allowed:
            raise ParseError(
                e.line, 1, expected or f"{', '.join(keys[:-1])} or {keys[-1]}", e.key
            )


def _prefixed(entries: List[_Entry], prefix: str) -> List[_Entry]:
    return [e for e in entries if e.key.startswith(prefix + ".")]


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
    entries: List[_Entry], prefix: str, count: int, parse_row, fits, expected: str, skew=False
) -> Dict[Tuple[int, ...], object]:
    """The rows of the entries prefix.I... with count 1-based indices, keyed
    by their 0-based index tuples.  Indices that fits refuses are an error
    naming expected; so are indices given before, or, in a skew table whose
    transpose the build fills in, their transpose."""
    rows: Dict[Tuple[int, ...], object] = {}
    for e in _prefixed(entries, prefix):
        idx = _key_indices(e, prefix, count)
        if not fits(*idx):
            raise ParseError(e.line, 1, expected, e.key)
        same = (idx, idx[::-1]) if skew else (idx,)
        if any(s in rows for s in same):
            names = dict.fromkeys(".".join([prefix, *(str(i + 1) for i in s)]) for s in same)
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


def _numbered_rows(section: _Section, prefix: str, n_rows: int, parse_row) -> List:
    """Rows prefix.1 .. prefix.n_rows of a section.  Missing rows are
    reported at the last row given, or at the section header if none is."""
    expected = f"row index between 1 and {n_rows}" if n_rows else f"no {prefix} row"
    rows = _indexed(section, prefix, 1, parse_row, lambda i: i < n_rows, expected)
    missing = _missing_rows(rows, n_rows)
    if missing:
        last = max([section.line] + [e.line for e in _prefixed(section, prefix)])
        raise ParseError(last, 1, f"rows {missing} of {prefix!r}")
    return [rows[(i,)] for i in range(n_rows)]


def _contiguous_rows(section: _Section, prefix: str, parse_row) -> List:
    """Rows prefix.1 .. prefix.N of a nonempty section in index order, N the
    largest index given.  A gap is reported at the first entry."""
    _check_keys(section, (f"{prefix}.N",), f"key of the form {prefix}.N")
    rows = _indexed(section, prefix, 1, parse_row, lambda i: True, "")
    count = max(rows)[0] + 1
    missing = _missing_rows(rows, count)
    if missing:
        raise ParseError(section[0].line, 1, f"contiguous {prefix} rows", missing)
    return [rows[(i,)] for i in range(count)]


def _parse_form_entry(chart: Chart, e: _Entry, degree: int) -> KForm:
    form = parse_form(chart, e.value, e.line, e.value_col)
    if form.degree != degree:
        raise ParseError(e.line, e.value_col, f"a {degree}-form literal")
    return form


# --- the builders: each parses its sections into a spec, and builds it ------
# A parser takes the chart, the sections and the [builder] kind entry (None
# for the [bracket] entry) and returns a spec that holds the rank of the
# bundle it builds; a build function takes the parsed manifest.


def _parse_bundle(chart: Chart, entries: _Section) -> Spec:
    rank = _required_int(entries, "rank", "bundle", 1)
    _check_keys(entries, ("rank", "metric.N", "anchor.N"))
    metric = _numbered_rows(entries, "metric", rank, lambda e: _read_row(e, rank))
    anchor = _numbered_rows(entries, "anchor", rank, lambda e: _read_row(e, chart.dim, chart))
    return dict(rank=rank, metric=metric, anchor=anchor)


def _parse_bracket(chart: Chart, sections: Sections, kind_entry: None) -> Spec:
    spec = _parse_bundle(chart, sections["bundle"])
    rank = spec["rank"]
    entries = sections["bracket"]
    _check_keys(entries, ("t.N.N",), "key of the form t.N.N")
    table = _indexed(
        entries, "t", 2, lambda e: _read_row(e, rank, chart), lambda i, j: max(i, j) < rank,
        f"frame indices between 1 and {rank}",
    )
    return dict(spec, brackets=table)


def _build_bracket(m: Manifest) -> BuildContext:
    s = m.spec
    bundle = CourantBundle(m.chart, s["rank"], s["metric"], s["anchor"])
    table = zero_table(bundle)
    for (i, j), coeffs in s["brackets"].items():
        table[i][j] = bundle.section(coeffs)
    return BuildContext(m, bundle, PreCourantAlgebroid(bundle, table))


def _parse_standard(chart: Chart, sections: Sections, kind_entry: _Entry) -> Spec:
    return {"rank": 2 * chart.dim}


def _build_standard(m: Manifest) -> BuildContext:
    bundle = standard_bundle(m.chart)
    return BuildContext(m, bundle, PreCourantAlgebroid(bundle, zero_table(bundle)))


def _parse_twisted_exact(chart: Chart, sections: Sections, kind_entry: _Entry) -> Spec:
    h = _lookup(sections["builder"], "h")
    if h is None:
        raise ParseError(kind_entry.line, 1, "an 'h' entry for twisted_exact")
    return {"rank": 2 * chart.dim, "h": _parse_form_entry(chart, h, 3)}


def _build_twisted_exact(m: Manifest) -> BuildContext:
    bundle = standard_bundle(m.chart)
    base = PreCourantAlgebroid(bundle, zero_table(bundle))
    omega = twist_deformation(bundle, m.spec["h"])
    return BuildContext(m, bundle, apply_deformation(base, omega))


def _parse_connection_beta(chart: Chart, sections: Sections, kind_entry: _Entry) -> Spec:
    spec = _parse_bundle(chart, sections["bundle"])
    rank = spec["rank"]
    entries = sections["builder"]

    def row(e: _Entry) -> List[Poly]:
        return _read_row(e, rank, chart)

    # (direction, frame) and (frame, frame) -> coefficients
    gamma = _indexed(
        entries, "gamma", 2, row, lambda mm, a: mm < chart.dim and a < rank,
        "gamma.direction.frame in range",
    )
    beta = _indexed(
        entries, "beta", 2, row, lambda i, j: max(i, j) < rank,
        f"frame indices between 1 and {rank}",
    )
    return dict(spec, gamma=gamma, beta=beta)


def _build_connection_beta(m: Manifest) -> BuildContext:
    s = m.spec
    r = s["rank"]
    bundle = CourantBundle(m.chart, r, s["metric"], s["anchor"])
    zero = Poly.zero(m.chart)
    # gamma.M.A lists the frame coefficients of nabla_M u_A: column A of gamma[M]
    gamma = [[[zero] * r for _ in range(r)] for _ in range(m.chart.dim)]
    for (mm, a), coeffs in s["gamma"].items():
        for bb in range(r):
            gamma[mm][bb][a] = coeffs[bb]
    zsec = bundle.zero_section()
    beta = [[zsec for _ in range(r)] for _ in range(r)]
    for (i, j), coeffs in s["beta"].items():
        beta[i][j] = bundle.section(coeffs)
        if (j, i) not in s["beta"]:
            beta[j][i] = -beta[i][j]
    return BuildContext(m, bundle, from_connection_beta(bundle, gamma, beta))


def _parse_twisted_action(chart: Chart, sections: Sections, kind_entry: _Entry) -> Spec:
    entries = sections["algebra"]
    dim = _required_int(entries, "dim", "algebra", 1)
    _check_keys(entries, ("dim", "double", "bracket.I.J", "pairing.N"))
    flag = _lookup(entries, "double")
    if flag is not None and flag.value not in ("true", "false"):
        raise ParseError(flag.line, flag.value_col, "true or false", flag.value)
    doubled = flag is not None and flag.value == "true"
    brackets = _indexed(
        entries, "bracket", 2, lambda e: _read_row(e, dim), lambda i, j: max(i, j) < dim,
        f"basis indices between 1 and {dim}", skew=True,
    )
    pairing_entries = _prefixed(entries, "pairing")
    if pairing_entries and doubled:
        raise ParseError(
            pairing_entries[0].line, 1,
            "no pairing.N rows in [algebra] when double = true", pairing_entries[0].key,
        )
    pairing = None
    if pairing_entries:
        pairing = _numbered_rows(entries, "pairing", dim, lambda e: _read_row(e, dim))
    elif not doubled:
        raise ParseError(
            _lookup(entries, "dim").line, 1, "pairing.N rows in [algebra] unless double = true"
        )

    # the action of the algebra, or of its double: one row per basis vector
    rank = 2 * dim if doubled else dim
    entries = sections["action"]
    _check_keys(entries, ("rho.N", "k.I.J"))
    rho = _numbered_rows(entries, "rho", rank, lambda e: _read_row(e, chart.dim, chart))
    k = _indexed(
        entries, "k", 2, lambda e: _read_row(e, rank, chart), lambda i, j: max(i, j) < rank,
        f"basis indices between 1 and {rank}", skew=True,
    )
    return dict(
        rank=rank, dim=dim, double=doubled, brackets=brackets, pairing=pairing, rho=rho, k=k
    )


def _build_twisted_action(m: Manifest) -> BuildContext:
    s = m.spec
    algebra = quadratic_lie_algebra(s["dim"], s["brackets"], s["pairing"])
    base = None
    if s["double"]:
        base, algebra = algebra, double(algebra)
    points = m.blocks.get("points", [(0,) * m.chart.dim])
    action = make_twisted_action(algebra, m.chart, s["rho"], s["k"], points)
    algebroid = from_twisted_action(action)
    return BuildContext(m, algebroid.bundle, algebroid, algebra, base, action)


def _parse_dissection(chart: Chart, sections: Sections, kind_entry: _Entry) -> Spec:
    entries = sections["dissection"]
    g = _required_int(entries, "aux_rank", "dissection", 0)
    _check_keys(entries, ("aux_rank", "pairing.N", "gamma.M.N", "r.I.J", "psi", "gbracket.I.J"))

    def row(e: _Entry) -> List[Poly]:
        return _read_row(e, g, chart)

    # index pairs -> auxiliary coefficients
    gamma = _indexed(
        entries, "gamma", 2, row, lambda mm, n: mm < chart.dim and n < g,
        "gamma.direction.row in range",
    )
    curvature = _indexed(
        entries, "r", 2, row, lambda i, j: i < j < chart.dim, f"r.I.J with I < J <= {chart.dim}"
    )
    fiber_table = _indexed(
        entries, "gbracket", 2, row, lambda i, j: i < j < g, f"gbracket.I.J with I < J <= {g}"
    )
    psi_entry = _lookup(entries, "psi")
    psi = KForm.zero(chart, 3) if psi_entry is None else _parse_form_entry(chart, psi_entry, 3)
    pairing = _numbered_rows(entries, "pairing", g, lambda e: _read_row(e, g))
    if not linalg.is_symmetric(pairing):
        raise ParseError(
            _prefixed(entries, "pairing")[0].line, 1,
            "a symmetric auxiliary pairing in [dissection]",
        )
    try:
        linalg.invert(pairing)
    except SingularMetricError:
        raise ParseError(
            _prefixed(entries, "pairing")[0].line, 1,
            "a nonsingular auxiliary pairing in [dissection]",
        ) from None
    return dict(
        rank=2 * chart.dim + g, aux_rank=g, aux_pairing=pairing, gamma=gamma,
        curvature=curvature, psi=psi, fiber_table=fiber_table,
    )


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
    return BuildContext(m, algebroid.bundle, algebroid, dissection=dissection)


class Builder:
    """One way to build the structure a manifest describes: the sections it
    reads besides [builder], the [builder] keys it reads besides the kind, the
    parser of its spec, and the build of the task context from a manifest."""

    __slots__ = ("reads", "keys", "parse", "build")

    def __init__(
        self,
        reads: Tuple[str, ...],
        keys: Tuple[str, ...],
        parse: Callable[[Chart, Sections, Optional[_Entry]], Spec],
        build: Callable[[Manifest], BuildContext],
    ):
        self.reads = reads
        self.keys = keys
        self.parse = parse
        self.build = build


# builder kind -> Builder; the key None is the explicit [bundle] + [bracket]
# pair, which `kind = ...` cannot name
BUILDERS: Dict[Optional[str], Builder] = {
    None: Builder(("bundle", "bracket"), (), _parse_bracket, _build_bracket),
    "standard": Builder((), (), _parse_standard, _build_standard),
    "twisted_exact": Builder((), ("h",), _parse_twisted_exact, _build_twisted_exact),
    "connection_beta": Builder(
        ("bundle",), ("gamma.M.N", "beta.I.J"), _parse_connection_beta, _build_connection_beta
    ),
    "twisted_action": Builder(
        ("algebra", "action"), (), _parse_twisted_action, _build_twisted_action
    ),
    "dissection": Builder(("dissection",), (), _parse_dissection, _build_dissection),
}

# the sections that some builder reads
_BUILDER_SECTIONS = {name for b in BUILDERS.values() for name in b.reads}


def _parse_builder(chart: Chart, sections: Sections) -> Tuple[Optional[str], Spec]:
    """The builder kind (None for [bracket]) and its spec."""
    has_bracket = "bracket" in sections
    if has_bracket == ("builder" in sections):
        raise ParseError(
            _first_line(next(iter(sections.values()))), 1,
            "exactly one of [bracket] and [builder]", "both" if has_bracket else "neither",
        )
    kind = kind_entry = None
    if not has_bracket:
        entries = sections["builder"]
        kind_entry = _lookup(entries, "kind")
        if kind_entry is None:
            raise ParseError(_first_line(entries), 1, "a 'kind' entry in [builder]")
        kind = kind_entry.value
        if kind not in BUILDERS:
            kinds = ", ".join(k for k in BUILDERS if k is not None)
            raise ParseError(
                kind_entry.line, kind_entry.value_col, f"builder kind among {kinds}", kind
            )
    builder = BUILDERS[kind]
    missing = [name for name in builder.reads if name not in sections]
    if missing and kind is None:
        raise ParseError(
            _first_line(sections["bracket"]), 1, "a [bundle] section when [bracket] is used"
        )
    if missing:
        raise ParseError(
            kind_entry.line, kind_entry.value_col, f"a section [{missing[0]}] for builder {kind}"
        )
    for name, entries in sections.items():
        if name in _BUILDER_SECTIONS and name not in builder.reads:
            reader = "a [bracket] table" if kind is None else f"builder {kind}"
            raise ParseError(entries.line, 1, f"a section read by {reader}", f"[{name}]")
    if kind is not None:
        _check_keys(sections["builder"], ("kind", *builder.keys), f"entries of builder {kind}")
    return kind, builder.parse(chart, sections, kind_entry)


def parse_manifest(text: str, name: str = "manifest") -> Manifest:
    sections = _split_sections(text)

    def section(key: str) -> List[_Entry]:
        return sections.get(key, [])

    # chart
    chart_entries = section("chart")
    if not chart_entries:
        raise ParseError(1, 1, "a [chart] section")
    _check_keys(chart_entries, ("vars",), "vars")
    vars_entry = _lookup(chart_entries, "vars")
    try:
        chart = Chart(vars_entry.value.split())
    except ValueError as exc:
        raise ParseError(vars_entry.line, vars_entry.value_col, str(exc)) from None

    # meta
    meta = section("meta")
    _check_keys(meta, (*META_MINIMUM, "tasks"))
    settings = {e.key: _parse_int(e, META_MINIMUM[e.key]) for e in meta if e.key in META_MINIMUM}
    tasks_entry = _lookup(meta, "tasks")
    tasks = [t.strip() for t in tasks_entry.value.split(",") if t.strip()] if tasks_entry else []

    kind, spec = _parse_builder(chart, sections)
    m = Manifest(name=name, chart=chart, tasks=tasks, builder_kind=kind, spec=spec, **settings)

    # [lift] and [complement] rows have the rank of the bundle the builder
    # builds; a point has one coordinate per chart variable
    read_row = {
        "rank": lambda e: _read_row(e, spec["rank"], chart),
        "point": lambda e: tuple(_read_row(e, chart.dim)),
    }
    for block, (key, holds) in BLOCKS.items():
        entries = sections.get(block)
        if entries is None:
            continue
        what = f"{key}.N rows" if holds in read_row else f"a single {key!r} entry"
        if not entries:
            raise ParseError(entries.line, 1, f"{what} in [{block}]")
        if holds in read_row:
            m.blocks[block] = _contiguous_rows(entries, key, read_row[holds])
        elif len(entries) > 1 or entries[0].key != key:
            raise ParseError(entries[0].line, 1, f"{what} in [{block}]")
        else:
            m.blocks[block] = _parse_form_entry(chart, entries[0], holds)

    try:
        check_tasks(m, m.tasks)
    except TaskError as exc:
        expected = (
            f"{exc.missing} for task" if exc.missing else f"task among {', '.join(TASKS)}"
        )
        raise ParseError(tasks_entry.line, tasks_entry.value_col, expected, exc.task) from None
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
