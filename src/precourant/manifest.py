"""The manifest language: a line-oriented sectioned description of one
verification job.

``[section]`` headers group ``key = value`` entries; ``#`` starts a
comment; blank lines separate nothing.  Polynomials and forms are string
literals in the calculus grammar; matrix-valued data uses dotted numbered
keys (``metric.2 = 0, 1``) with comma-separated entries, sparse tables
default to zero.  Exactly one of the ``[bracket]`` and ``[builder]``
sections must be present.

All syntax errors carry a line and column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .errors import ParseError, SingularMetricError, TaskError
from .exterior import KForm
from .parsing import parse_form, parse_poly, parse_scalar
from .poly import Chart, Poly
from .tasks import TASKS, check_tasks

# the smallest value of each integer setting, in [meta] and as a CLI override
META_MINIMUM = {"seed": 0, "trials": 1, "max_degree": 0}

BUILDER_KINDS = (
    "standard",
    "twisted_exact",
    "connection_beta",
    "twisted_action",
    "dissection",
)

# the sections a builder kind reads its data from
BUILDER_SECTIONS = {
    "connection_beta": ("bundle",),
    "twisted_action": ("algebra", "action"),
    "dissection": ("dissection",),
}

_SECTIONS = (
    "meta",
    "chart",
    "bundle",
    "bracket",
    "builder",
    "algebra",
    "action",
    "dissection",
    "lift",
    "complement",
    "points",
    "deform",
    "bfield",
    "pontryagin",
)


class _Entry:
    __slots__ = ("key", "value", "line", "value_col")

    def __init__(self, key: str, value: str, line: int, value_col: int):
        self.key = key
        self.value = value
        self.line = line
        self.value_col = value_col


class Manifest:
    __slots__ = (
        "name", "chart", "tasks", "seed", "trials", "max_degree",
        "rank", "metric", "anchor", "bracket_entries",
        "builder_kind", "builder_h", "gamma_entries", "beta_entries",
        "algebra_dim", "algebra_double", "algebra_brackets", "algebra_pairing",
        "action_rho", "action_k",
        "aux_rank", "aux_pairing", "diss_gamma", "diss_r", "diss_psi", "diss_gbracket",
        "lift", "complement", "points", "deform_h", "bfield_beta", "pontryagin_h",
    )

    def __init__(
        self,
        name: str,
        chart: Chart,
        tasks: List[str],
        seed: int = 0,
        trials: int = 16,
        max_degree: int = 2,
        # explicit bundle data
        rank: Optional[int] = None,
        metric: Optional[List[List[Fraction]]] = None,
        anchor: Optional[List[List[Poly]]] = None,
        bracket_entries: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        # builder data; a dict or list left out starts empty
        builder_kind: Optional[str] = None,
        builder_h: Optional[KForm] = None,
        gamma_entries: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        beta_entries: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        algebra_dim: Optional[int] = None,
        algebra_double: bool = False,
        algebra_brackets: Optional[Dict[Tuple[int, int], List[Fraction]]] = None,
        algebra_pairing: Optional[List[List[Fraction]]] = None,
        action_rho: Optional[List[List[Poly]]] = None,
        action_k: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        aux_rank: Optional[int] = None,
        aux_pairing: Optional[List[List[Fraction]]] = None,
        diss_gamma: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        diss_r: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        diss_psi: Optional[KForm] = None,
        diss_gbracket: Optional[Dict[Tuple[int, int], List[Poly]]] = None,
        # auxiliary blocks
        lift: Optional[List[List[Poly]]] = None,
        complement: Optional[List[List[Poly]]] = None,
        points: Optional[List[Tuple[Fraction, ...]]] = None,
        deform_h: Optional[KForm] = None,
        bfield_beta: Optional[KForm] = None,
        pontryagin_h: Optional[KForm] = None,
    ):
        self.name = name
        self.chart = chart
        self.tasks = tasks
        self.seed = seed
        self.trials = trials
        self.max_degree = max_degree
        self.rank = rank
        self.metric = metric
        self.anchor = anchor
        self.bracket_entries = bracket_entries
        self.builder_kind = builder_kind
        self.builder_h = builder_h
        self.gamma_entries = {} if gamma_entries is None else gamma_entries
        self.beta_entries = {} if beta_entries is None else beta_entries
        self.algebra_dim = algebra_dim
        self.algebra_double = algebra_double
        self.algebra_brackets = {} if algebra_brackets is None else algebra_brackets
        self.algebra_pairing = algebra_pairing
        self.action_rho = action_rho
        self.action_k = {} if action_k is None else action_k
        self.aux_rank = aux_rank
        self.aux_pairing = aux_pairing
        self.diss_gamma = {} if diss_gamma is None else diss_gamma
        self.diss_r = {} if diss_r is None else diss_r
        self.diss_psi = diss_psi
        self.diss_gbracket = {} if diss_gbracket is None else diss_gbracket
        self.lift = lift
        self.complement = complement
        self.points = [] if points is None else points
        self.deform_h = deform_h
        self.bfield_beta = bfield_beta
        self.pontryagin_h = pontryagin_h


def _split_sections(text: str) -> Dict[str, List[_Entry]]:
    sections: Dict[str, List[_Entry]] = {}
    current: Optional[str] = None
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
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ParseError(lineno, 1, "a [section] header before entries")
        if "=" not in line:
            raise ParseError(lineno, len(line) + 1, "'=' in entry")
        key, value = line.split("=", 1)
        lead = len(value) - len(value.lstrip())
        entry = _Entry(key.strip(), value.strip(), lineno, line.index("=") + 2 + lead)
        if any(e.key == entry.key for e in sections[current]):
            raise ParseError(lineno, 1, f"unique key {entry.key!r}", "duplicate")
        sections[current].append(entry)
    return sections


def _reraise(e: ParseError, entry: _Entry) -> ParseError:
    # literal parsers see only the value substring; shift to file coordinates
    return ParseError(entry.line, entry.value_col + e.column - 1, e.expected, e.found)


def _parse_poly_list(chart: Chart, entry: _Entry, expected_len: int) -> List[Poly]:
    parts = entry.value.split(",")
    if len(parts) != expected_len:
        raise ParseError(
            entry.line,
            entry.value_col,
            f"{expected_len} comma-separated entries for {entry.key!r}",
            f"{len(parts)} entries",
        )
    out = []
    offset = 0
    for part in parts:
        try:
            out.append(parse_poly(chart, part))
        except ParseError as e:
            raise ParseError(
                entry.line, entry.value_col + offset + e.column - 1, e.expected, e.found
            ) from None
        offset += len(part) + 1
    return out


def _parse_scalar_list(entry: _Entry, expected_len: Optional[int]) -> List[Fraction]:
    parts = entry.value.split(",")
    if expected_len is not None and len(parts) != expected_len:
        raise ParseError(
            entry.line,
            entry.value_col,
            f"{expected_len} comma-separated numbers for {entry.key!r}",
            f"{len(parts)} entries",
        )
    out = []
    offset = 0
    for part in parts:
        out.append(parse_scalar(part, entry.line, entry.value_col + offset))
        offset += len(part) + 1
    return out


def _parse_int(entry: _Entry, minimum: int = 0) -> int:
    try:
        v = int(entry.value)
    except ValueError:
        raise ParseError(entry.line, entry.value_col, "integer", entry.value) from None
    if v < minimum:
        raise ParseError(entry.line, entry.value_col, f"integer >= {minimum}", entry.value)
    return v


def _key_indices(entry: _Entry, prefix: str, count: int) -> Tuple[int, ...]:
    parts = entry.key.split(".")
    if parts[0] != prefix or len(parts) != count + 1:
        raise ParseError(
            entry.line, 1, f"key of the form {prefix}.{'.'.join(['N'] * count)}", entry.key
        )
    try:
        idx = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(entry.line, 1, "integer key indices", entry.key) from None
    if any(i < 1 for i in idx):
        raise ParseError(entry.line, 1, "1-based key indices", entry.key)
    return tuple(i - 1 for i in idx)


def _numbered_rows(
    entries: List[_Entry], prefix: str, n_rows: int, parse_row
) -> List:
    rows: Dict[int, object] = {}
    for e in entries:
        (i,) = _key_indices(e, prefix, 1)
        if i >= n_rows:
            raise ParseError(e.line, 1, f"row index between 1 and {n_rows}", e.key)
        rows[i] = parse_row(e)
    missing = [i + 1 for i in range(n_rows) if i not in rows]
    if missing:
        last = entries[-1].line if entries else 1
        raise ParseError(last, 1, f"rows {missing} of {prefix!r}")
    return [rows[i] for i in range(n_rows)]


def parse_manifest(text: str, name: str = "manifest") -> Manifest:
    sections = _split_sections(text)

    def section(key: str) -> List[_Entry]:
        return sections.get(key, [])

    def lookup(entries: List[_Entry], key: str) -> Optional[_Entry]:
        return next((e for e in entries if e.key == key), None)

    # chart
    chart_entries = section("chart")
    if not chart_entries:
        raise ParseError(1, 1, "a [chart] section")
    vars_entry = lookup(chart_entries, "vars")
    if vars_entry is None:
        raise ParseError(chart_entries[0].line, 1, "a 'vars' entry in [chart]")
    try:
        chart = Chart(vars_entry.value.split())
    except ValueError as exc:
        raise ParseError(vars_entry.line, vars_entry.value_col, str(exc)) from None

    # meta
    meta = section("meta")
    settings: Dict[str, int] = {}
    tasks: List[str] = []
    tasks_entry = None
    for e in meta:
        if e.key in META_MINIMUM:
            settings[e.key] = _parse_int(e, META_MINIMUM[e.key])
        elif e.key == "tasks":
            tasks = [t.strip() for t in e.value.split(",") if t.strip()]
            tasks_entry = e
        else:
            raise ParseError(e.line, 1, "seed, trials, max_degree or tasks", e.key)

    m = Manifest(name=name, chart=chart, tasks=tasks, **settings)

    has_bracket = "bracket" in sections
    has_builder = "builder" in sections
    if has_bracket == has_builder:
        anchor_line = next(iter(sections.values()))[0].line if sections else 1
        raise ParseError(
            anchor_line, 1, "exactly one of [bracket] and [builder]",
            "both" if has_bracket else "neither",
        )

    # bundle
    if "bundle" in sections:
        entries = section("bundle")
        rank_entry = lookup(entries, "rank")
        if rank_entry is None:
            raise ParseError(entries[0].line, 1, "a 'rank' entry in [bundle]")
        rank = _parse_int(rank_entry, 1)
        m.rank = rank
        metric_entries = [e for e in entries if e.key.startswith("metric.")]
        anchor_entries = [e for e in entries if e.key.startswith("anchor.")]
        leftovers = [
            e for e in entries
            if e is not rank_entry and e not in metric_entries and e not in anchor_entries
        ]
        if leftovers:
            raise ParseError(leftovers[0].line, 1, "rank, metric.N or anchor.N", leftovers[0].key)
        m.metric = _numbered_rows(
            metric_entries, "metric", rank, lambda e: _parse_scalar_list(e, rank)
        )
        m.anchor = _numbered_rows(
            anchor_entries, "anchor", rank, lambda e: _parse_poly_list(chart, e, chart.dim)
        )

    # bracket table (sparse)
    if has_bracket:
        if m.rank is None:
            raise ParseError(
                section("bracket")[0].line if section("bracket") else 1,
                1,
                "a [bundle] section when [bracket] is used",
            )
        table: Dict[Tuple[int, int], List[Poly]] = {}
        for e in section("bracket"):
            i, j = _key_indices(e, "t", 2)
            if i >= m.rank or j >= m.rank:
                raise ParseError(e.line, 1, f"frame indices between 1 and {m.rank}", e.key)
            table[(i, j)] = _parse_poly_list(chart, e, m.rank)
        m.bracket_entries = table

    # builder
    if has_builder:
        entries = section("builder")
        kind_entry = lookup(entries, "kind")
        if kind_entry is None:
            raise ParseError(entries[0].line, 1, "a 'kind' entry in [builder]")
        if kind_entry.value not in BUILDER_KINDS:
            raise ParseError(
                kind_entry.line, kind_entry.value_col,
                f"builder kind among {', '.join(BUILDER_KINDS)}", kind_entry.value,
            )
        m.builder_kind = kind_entry.value
        for needed in BUILDER_SECTIONS.get(m.builder_kind, ()):
            if needed not in sections:
                raise ParseError(
                    kind_entry.line, kind_entry.value_col,
                    f"a section [{needed}] for builder {m.builder_kind}",
                )
        for e in entries:
            if e is kind_entry:
                continue
            if e.key == "h" and m.builder_kind == "twisted_exact":
                try:
                    m.builder_h = parse_form(chart, e.value)
                except ParseError as exc:
                    raise _reraise(exc, e) from None
                if m.builder_h.degree != 3:
                    raise ParseError(e.line, e.value_col, "a 3-form literal")
            elif e.key.startswith("gamma.") and m.builder_kind == "connection_beta":
                mm, a = _key_indices(e, "gamma", 2)
                if mm >= chart.dim or a >= m.rank:
                    raise ParseError(e.line, 1, "gamma.direction.frame in range", e.key)
                m.gamma_entries[(mm, a)] = _parse_poly_list(chart, e, m.rank)
            elif e.key.startswith("beta.") and m.builder_kind == "connection_beta":
                i, j = _key_indices(e, "beta", 2)
                if i >= m.rank or j >= m.rank:
                    raise ParseError(e.line, 1, f"frame indices between 1 and {m.rank}", e.key)
                m.beta_entries[(i, j)] = _parse_poly_list(chart, e, m.rank)
            else:
                raise ParseError(e.line, 1, f"entries of builder {m.builder_kind}", e.key)
        if m.builder_kind == "twisted_exact" and m.builder_h is None:
            raise ParseError(kind_entry.line, 1, "an 'h' entry for twisted_exact")

    # algebra
    if "algebra" in sections:
        entries = section("algebra")
        dim_entry = lookup(entries, "dim")
        if dim_entry is None:
            raise ParseError(entries[0].line, 1, "a 'dim' entry in [algebra]")
        adim = _parse_int(dim_entry, 1)
        m.algebra_dim = adim
        pairing_entries = []
        for e in entries:
            if e is dim_entry:
                continue
            if e.key == "double":
                if e.value not in ("true", "false"):
                    raise ParseError(e.line, e.value_col, "true or false", e.value)
                m.algebra_double = e.value == "true"
            elif e.key.startswith("bracket."):
                i, j = _key_indices(e, "bracket", 2)
                if i >= adim or j >= adim:
                    raise ParseError(e.line, 1, f"basis indices between 1 and {adim}", e.key)
                m.algebra_brackets[(i, j)] = _parse_scalar_list(e, adim)
            elif e.key.startswith("pairing."):
                pairing_entries.append(e)
            else:
                raise ParseError(e.line, 1, "dim, double, bracket.I.J or pairing.N", e.key)
        if pairing_entries and m.algebra_double:
            raise ParseError(
                pairing_entries[0].line, 1,
                "no pairing.N rows in [algebra] when double = true", pairing_entries[0].key,
            )
        if pairing_entries:
            m.algebra_pairing = _numbered_rows(
                pairing_entries, "pairing", adim, lambda e: _parse_scalar_list(e, adim)
            )
        elif not m.algebra_double:
            raise ParseError(
                dim_entry.line, 1, "pairing.N rows in [algebra] unless double = true"
            )

    # action
    if "action" in sections:
        if m.algebra_dim is None:
            raise ParseError(section("action")[0].line, 1, "an [algebra] section before [action]")
        adim = m.algebra_dim * (2 if m.algebra_double else 1)
        entries = section("action")
        rho_entries = [e for e in entries if e.key.startswith("rho.")]
        k_entries = [e for e in entries if e.key.startswith("k.")]
        leftovers = [e for e in entries if e not in rho_entries and e not in k_entries]
        if leftovers:
            raise ParseError(leftovers[0].line, 1, "rho.N or k.I.J", leftovers[0].key)
        m.action_rho = _numbered_rows(
            rho_entries, "rho", adim, lambda e: _parse_poly_list(chart, e, chart.dim)
        )
        for e in k_entries:
            i, j = _key_indices(e, "k", 2)
            if i >= adim or j >= adim:
                raise ParseError(e.line, 1, f"basis indices between 1 and {adim}", e.key)
            m.action_k[(i, j)] = _parse_poly_list(chart, e, adim)

    # dissection
    if "dissection" in sections:
        entries = section("dissection")
        rank_entry = lookup(entries, "aux_rank")
        if rank_entry is None:
            raise ParseError(entries[0].line, 1, "an 'aux_rank' entry in [dissection]")
        g = _parse_int(rank_entry, 0)
        m.aux_rank = g
        pairing_entries = []
        for e in entries:
            if e is rank_entry:
                continue
            if e.key.startswith("pairing."):
                pairing_entries.append(e)
            elif e.key.startswith("gamma."):
                idx = _key_indices(e, "gamma", 2)
                if idx[0] >= chart.dim or idx[1] >= g:
                    raise ParseError(e.line, 1, "gamma.direction.row in range", e.key)
                m.diss_gamma[idx] = _parse_poly_list(chart, e, g)
            elif e.key.startswith("r."):
                i, j = _key_indices(e, "r", 2)
                if not i < j < chart.dim:
                    raise ParseError(e.line, 1, f"r.I.J with I < J <= {chart.dim}", e.key)
                m.diss_r[(i, j)] = _parse_poly_list(chart, e, g)
            elif e.key == "psi":
                try:
                    m.diss_psi = parse_form(chart, e.value)
                except ParseError as exc:
                    raise _reraise(exc, e) from None
                if m.diss_psi.degree != 3:
                    raise ParseError(e.line, e.value_col, "a 3-form literal")
            elif e.key.startswith("gbracket."):
                i, j = _key_indices(e, "gbracket", 2)
                if not i < j < g:
                    raise ParseError(e.line, 1, f"gbracket.I.J with I < J <= {g}", e.key)
                m.diss_gbracket[(i, j)] = _parse_poly_list(chart, e, g)
            else:
                raise ParseError(
                    e.line, 1, "aux_rank, pairing.N, gamma.M.N, r.I.J, psi or gbracket.I.J",
                    e.key,
                )
        if g > 0:
            m.aux_pairing = _numbered_rows(
                pairing_entries, "pairing", g, lambda e: _parse_scalar_list(e, g)
            )
            if not linalg.is_symmetric(m.aux_pairing):
                raise ParseError(
                    pairing_entries[0].line, 1, "a symmetric auxiliary pairing in [dissection]"
                )
            try:
                linalg.invert(m.aux_pairing)
            except SingularMetricError:
                raise ParseError(
                    pairing_entries[0].line, 1, "a nonsingular auxiliary pairing in [dissection]"
                ) from None
        else:
            m.aux_pairing = []

    # lift / complement
    for key in ("lift", "complement"):
        if key in sections:
            entries = section(key)
            prefix = "sigma" if key == "lift" else "c"
            rows: Dict[int, List[Poly]] = {}
            for e in entries:
                (i,) = _key_indices(e, prefix, 1)
                rows[i] = _parse_poly_list(chart, e, _expected_rank(m))
            count = max(rows) + 1 if rows else 0
            missing = [i + 1 for i in range(count) if i not in rows]
            if missing:
                raise ParseError(entries[0].line, 1, f"contiguous {prefix} rows", str(missing))
            value = [rows[i] for i in range(count)]
            if key == "lift":
                m.lift = value
            else:
                m.complement = value

    # points
    for e in section("points"):
        _key_indices(e, "p", 1)
        m.points.append(tuple(_parse_scalar_list(e, chart.dim)))

    # deform / bfield / pontryagin forms
    for sect, attr, degree in (
        ("deform", "deform_h", 3),
        ("bfield", "bfield_beta", 2),
        ("pontryagin", "pontryagin_h", 3),
    ):
        entries = section(sect)
        if not entries:
            continue
        keyname = "beta" if sect == "bfield" else "h"
        e = lookup(entries, keyname)
        if e is None or len(entries) > 1:
            raise ParseError(entries[0].line, 1, f"a single {keyname!r} entry in [{sect}]")
        try:
            form = parse_form(chart, e.value)
        except ParseError as exc:
            raise _reraise(exc, e) from None
        if form.degree != degree:
            raise ParseError(e.line, e.value_col, f"a {degree}-form literal")
        setattr(m, attr, form)

    try:
        check_tasks(m, m.tasks)
    except TaskError as exc:
        expected = (
            f"{exc.missing} for task" if exc.missing else f"task among {', '.join(TASKS)}"
        )
        raise ParseError(tasks_entry.line, tasks_entry.value_col, expected, exc.task) from None
    return m


def _expected_rank(m: Manifest) -> int:
    """The bundle rank implied by the manifest, for row-length validation."""
    if m.rank is not None:
        return m.rank
    if m.builder_kind in ("standard", "twisted_exact"):
        return 2 * m.chart.dim
    if m.builder_kind == "twisted_action" and m.algebra_dim is not None:
        return m.algebra_dim * (2 if m.algebra_double else 1)
    if m.builder_kind == "dissection" and m.aux_rank is not None:
        return 2 * m.chart.dim + m.aux_rank
    raise ParseError(1, 1, "enough data to determine the bundle rank")
