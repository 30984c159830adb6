"""Manifest grammar: golden files parse, errors carry positions."""

import pytest

from precourant.cli import builtin_manifest_dir
from precourant.errors import ParseError, TaskError
from precourant.manifest import META_MINIMUM, check_tasks, parse_manifest
from precourant.tasks import TASKS

GOLDENS = [
    "standard_r3",
    "twisted_r4",
    "dissection_rank2",
    "action_abelian",
    "twisted_action_synthetic",
    "double_nonabelian",
]


@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_parse(name):
    path = builtin_manifest_dir() / f"{name}.pcm"
    m = parse_manifest(path.read_text(), name=name)
    assert m.tasks
    assert m.name == name


def test_standard_r3_fields():
    path = builtin_manifest_dir() / "standard_r3.pcm"
    m = parse_manifest(path.read_text(), name="standard_r3")
    assert m.builder_kind == "standard"
    assert m.chart.dim == 3
    assert m.seed == 0 and m.trials == 16 and m.max_degree == 2
    assert m.blocks["deform"].degree == 3
    assert m.blocks["bfield"].degree == 2
    assert len(m.blocks["points"]) == 2


BASE = """
[meta]
tasks = verify-axioms

[chart]
vars = x1 x2

[builder]
kind = standard
"""


def test_minimal_manifest():
    m = parse_manifest(BASE)
    assert m.builder_kind == "standard"
    assert m.tasks == ["verify-axioms"]


def test_requires_exactly_one_of_bracket_builder():
    text = BASE + "\n[bracket]\nt.1.2 = 0, 0, 0, 0\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert "exactly one" in err.value.expected

    no_builder = """
[chart]
vars = x1
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(no_builder)
    assert "exactly one" in err.value.expected


@pytest.mark.parametrize(
    "text, line, found",
    [
        # both: at the header of whichever of the two comes second
        (BASE + "\n[bracket]\nt.1.2 = 0, 0, 0, 0\n", 11, "both"),
        ("[bracket]\nt.1.2 = 0, 0\n[chart]\nvars = x1\n[builder]\nkind = standard\n", 5, "both"),
        # neither: at the top, not at the first entry of the first section
        ("\n[meta]\nseed = 1\n\n[chart]\nvars = x1\n", 1, "neither"),
    ],
)
def test_exactly_one_of_bracket_builder_is_positioned(text, line, found):
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    expected = "exactly one of [bracket] and [builder]"
    assert (err.value.line, err.value.column, err.value.expected) == (line, 1, expected)
    assert err.value.found == found


def test_bracket_manifest_roundtrip():
    text = """
[meta]
tasks = validate-bundle, verify-axioms

[chart]
vars = x1

[bundle]
rank = 2
metric.1 = 0, 1
metric.2 = 1, 0
anchor.1 = 1
anchor.2 = 0

[bracket]
"""
    m = parse_manifest(text)
    assert m.spec["rank"] == 2
    assert m.spec["brackets"] == {}


def test_anchor_row_count_error_names_position():
    text = """
[chart]
vars = x1

[bundle]
rank = 2
metric.1 = 0, 1
metric.2 = 1, 0
anchor.1 = 1

[bracket]
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert "rows [2]" in str(err.value)


def test_poly_literal_error_position():
    text = """
[chart]
vars = x1 x2

[bundle]
rank = 1
metric.1 = 1
anchor.1 = x1^, 0

[bracket]
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert err.value.line == 8
    # caret sits on the character after the '^' inside the value
    assert err.value.column == 15


def test_duplicate_key_rejected():
    text = BASE + "\n[points]\np.1 = 0, 0\np.1 = 1, 1\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert "unique key" in err.value.expected


def test_points_are_read_in_index_order():
    m = parse_manifest(BASE + "\n[points]\np.2 = 1, 2\np.1 = 0, 0\n")
    assert m.blocks["points"] == [(0, 0), (1, 2)]


def test_gap_in_points_is_a_positioned_error():
    text = BASE + "\n[points]\np.7 = 1, 2\np.1 = 0, 0\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (12, 1)
    assert err.value.expected == "contiguous p rows"
    assert err.value.found == "[2, 3, 4, 5, 6]"


def test_many_missing_rows_are_named_briefly():
    # the first five missing rows, found without walking the declared range
    text = BASE + "\n[points]\np.8 = 1, 2\np.1 = 0, 0\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert err.value.found == "[2, 3, 4, 5, 6, ...]"
    text = BASE + "\n[points]\np.1000000 = 1, 2\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (12, 1)
    assert err.value.found == "[1, 2, 3, 4, 5, ...]" and len(str(err.value)) < 200
    text = "[chart]\nvars = x1\n\n[bundle]\nrank = 1000000\n\n[bracket]\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (4, 1)
    assert err.value.expected == "rows [1, 2, 3, 4, 5, ...] of 'metric'"
    assert len(str(err.value)) < 200


@pytest.mark.parametrize(
    "setting, minimum", [("seed = 1_0", 0), ("trials = +4", 1), ("seed = \u0663", 0)]
)
def test_integer_settings_are_decimal_digits(setting, minimum):
    # `int()` would read these; the literal grammar's integers are digits only
    text = BASE.replace("tasks =", setting + "\ntasks =")
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (3, setting.index("=") + 3)
    assert err.value.expected == f"integer >= {minimum}"
    assert err.value.found == setting.split("= ")[1]


def test_key_indices_are_decimal_digits():
    text = (
        "[chart]\nvars = x1\n\n[bundle]\nrank = 2\nmetric.1 = 0, 1\nmetric.2 = 1, 0\n"
        "anchor.1 = 1\nanchor.2 = 0\n\n[bracket]\nt.1_0.2 = 0, 0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (12, 1)
    assert (err.value.expected, err.value.found) == ("1-based integer key indices", "t.1_0.2")


def test_unknown_task_rejected():
    text = """
[meta]
tasks = verify-axioms, frobnicate

[chart]
vars = x1

[builder]
kind = standard
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert err.value.found == "frobnicate"


def test_unknown_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_manifest("[wat]\nx = 1\n")
    assert err.value.found == "wat"


def test_task_requirements_checked():
    text = """
[meta]
tasks = deform

[chart]
vars = x1 x2 x3

[builder]
kind = standard
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert "deform" in err.value.expected


def test_form_degree_enforced():
    text = """
[meta]
tasks = bfield

[chart]
vars = x1 x2 x3

[builder]
kind = standard

[bfield]
beta = x1*dx(1,2,3)
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert "2-form" in err.value.expected


def test_task_requirement_error_points_at_tasks_entry():
    text = """
[chart]
vars = x1 x2 x3

[meta]
tasks = validate-bundle, pontryagin

[builder]
kind = standard
"""
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (6, 9)
    assert "[lift]" in err.value.expected
    assert err.value.found == "pontryagin"


NEED_TEXT = {
    "points": "a [points] block",
    "deform": "a [deform] block",
    "bfield": "a [bfield] block",
    "pontryagin": "a [pontryagin] block",
    "lift": "a [lift] block",
    "complement": "a [complement] block",
    "twisted_action": "a [builder] of kind twisted_action",
    "dissection": "a [builder] of kind dissection",
}


@pytest.mark.parametrize("need", sorted({need for t in TASKS.values() for need in t.needs}))
def test_missing_need_is_named_in_the_task_error(need):
    # a task that needs this first, on a standard manifest with no block
    name = next(name for name, t in TASKS.items() if t.needs[:1] == (need,))
    with pytest.raises(TaskError) as err:
        check_tasks(parse_manifest(BASE), [name])
    assert (err.value.task, err.value.missing) == (name, NEED_TEXT[need])


def test_meta_minimums_match_cli_overrides():
    with pytest.raises(ParseError) as err:
        parse_manifest(BASE.replace("tasks =", "trials = 0\ntasks ="))
    assert err.value.expected == f"integer >= {META_MINIMUM['trials']}"


BUILDER_ONLY = """
[meta]
tasks = validate-bundle

[chart]
vars = x1 x2

[builder]
kind = {kind}
"""


@pytest.mark.parametrize(
    "kind, blocks, missing",
    [
        ("twisted_action", "\n[algebra]\ndim = 1\n", "[action]"),
        ("twisted_action", "", "[algebra]"),
        ("dissection", "", "[dissection]"),
        ("connection_beta", "", "[bundle]"),
    ],
)
def test_builder_requires_its_sections(kind, blocks, missing):
    with pytest.raises(ParseError) as err:
        parse_manifest(BUILDER_ONLY.format(kind=kind) + blocks)
    assert (err.value.line, err.value.column) == (9, 8)
    assert err.value.expected == f"a section {missing} for builder {kind}"


CONNECTION_BETA = """
[chart]
vars = x1

[bundle]
rank = 2
metric.1 = 0, 1
metric.2 = 1, 0
anchor.1 = 1
anchor.2 = 0

[builder]
kind = connection_beta
{entry}
"""


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("gamma.2.1 = 0, 0", "gamma.direction.frame in range"),
        ("gamma.1.3 = 0, 0", "gamma.direction.frame in range"),
        ("beta.3.1 = 0, 0", "frame indices between 1 and 2"),
        ("beta.1.3 = 0, 0", "frame indices between 1 and 2"),
    ],
)
def test_connection_beta_key_out_of_range(entry, expected):
    with pytest.raises(ParseError) as err:
        parse_manifest(CONNECTION_BETA.format(entry=entry))
    assert (err.value.line, err.value.column) == (14, 1)
    assert err.value.expected == expected
    assert err.value.found == entry.split(" ")[0]


@pytest.mark.parametrize("double", ["", "double = false\n"])
def test_undoubled_algebra_needs_pairing_rows(double):
    text = (
        "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n"
        f"[algebra]\ndim = 1\n{double}\n[action]\nrho.1 = 1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (8, 1)
    assert err.value.expected == "pairing.N rows in [algebra] unless double = true"


DISSECTION = """
[chart]
vars = x1 x2

[builder]
kind = dissection

[dissection]
aux_rank = 2
{rows}
"""
AUX_ROWS = "pairing.1 = 0, 1\npairing.2 = 1, 0"


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("r.2.1 = 1, 0", "r.I.J with I < J <= 2"),
        ("r.1.1 = 1, 0", "r.I.J with I < J <= 2"),
        ("r.1.3 = 1, 0", "r.I.J with I < J <= 2"),
        ("gbracket.2.1 = 1, 0", "gbracket.I.J with I < J <= 2"),
        ("gbracket.2.2 = 1, 0", "gbracket.I.J with I < J <= 2"),
    ],
)
def test_dissection_keys_must_increase(entry, expected):
    with pytest.raises(ParseError) as err:
        parse_manifest(DISSECTION.format(rows=f"{AUX_ROWS}\n{entry}"))
    assert (err.value.line, err.value.column) == (12, 1)
    assert err.value.expected == expected
    assert err.value.found == entry.split(" ")[0]


@pytest.mark.parametrize(
    "rows", ["pairing.1 = 1, 1\npairing.2 = 1, 1", "pairing.2 = 0, 0\npairing.1 = 1, 0"]
)
def test_singular_aux_pairing_is_reported_at_its_first_row(rows):
    with pytest.raises(ParseError) as err:
        parse_manifest(DISSECTION.format(rows=rows))
    assert (err.value.line, err.value.column) == (10, 1)
    assert err.value.expected == "a nonsingular auxiliary pairing in [dissection]"


@pytest.mark.parametrize(
    "rows", ["pairing.1 = 1, 1\npairing.2 = 0, 1", "pairing.2 = 0, 1\npairing.1 = 1, 1"]
)
def test_non_symmetric_aux_pairing_is_reported_at_its_first_row(rows):
    with pytest.raises(ParseError) as err:
        parse_manifest(DISSECTION.format(rows=rows))
    assert (err.value.line, err.value.column) == (10, 1)
    assert err.value.expected == "a symmetric auxiliary pairing in [dissection]"


@pytest.mark.parametrize(
    "entries, line",
    [
        ("double = true\npairing.1 = 1\n", 10),
        ("pairing.1 = 1\ndouble = true\n", 9),
    ],
)
def test_doubled_algebra_rejects_pairing_rows(entries, line):
    text = (
        "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n"
        f"[algebra]\ndim = 1\n{entries}\n[action]\nrho.1 = 1\nrho.2 = 0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (line, 1)
    assert err.value.expected == "no pairing.N rows in [algebra] when double = true"
    assert err.value.found == "pairing.1"


LIFT_1D = "\n[lift]\nsigma.1 = 1, 0, 0\n"


def test_bundle_unread_by_the_builder_is_an_error_at_its_header():
    # the lift row has the rank of the ignored [bundle]; the standard
    # bundle over one coordinate has rank 2
    text = (
        "[chart]\nvars = x1\n\n[builder]\nkind = standard\n\n"
        "[bundle]\nrank = 3\nmetric.1 = 1, 0, 0\nmetric.2 = 0, 1, 0\nmetric.3 = 0, 0, 1\n"
        "anchor.1 = 1\nanchor.2 = 0\nanchor.3 = 0\n" + LIFT_1D
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (7, 1)
    assert err.value.expected == "a section read by builder standard"
    assert err.value.found == "[bundle]"


def test_algebra_and_dissection_unread_by_the_builder_are_errors():
    text = (
        "[chart]\nvars = x1\n\n[builder]\nkind = standard\n\n"
        "[dissection]\naux_rank = 0\n\n[algebra]\ndim = 1\npairing.1 = 1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column, err.value.found) == (7, 1, "[dissection]")
    with pytest.raises(ParseError) as err:
        parse_manifest(text.replace("[dissection]\naux_rank = 0\n\n", ""))
    assert (err.value.line, err.value.column, err.value.found) == (7, 1, "[algebra]")


@pytest.mark.parametrize(
    "block, found",
    [
        ("[action]\n", "[action]"),  # an empty section counts too
        ("[algebra]\ndim = 1\npairing.1 = 1\n", "[algebra]"),
    ],
)
def test_section_unread_by_a_bracket_table_is_an_error(block, found):
    text = (
        "[chart]\nvars = x1\n\n[bundle]\nrank = 1\nmetric.1 = 1\nanchor.1 = 0\n\n"
        f"[bracket]\n\n{block}"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (11, 1)
    assert err.value.expected == "a section read by a [bracket] table"
    assert err.value.found == found


def test_builder_kind_list_leaves_out_the_bracket_table():
    with pytest.raises(ParseError) as err:
        parse_manifest("[chart]\nvars = x1\n\n[builder]\nkind = bracket\n")
    assert (err.value.line, err.value.column) == (5, 8)
    assert err.value.expected == (
        "builder kind among standard, twisted_exact, connection_beta, twisted_action, dissection"
    )


@pytest.mark.parametrize(
    "text, line, expected",
    [
        ("[meta]\n[chart]\nvars = x1\n", 1, "exactly one of [bracket] and [builder]"),
        ("[chart]\nvars = x1\n[builder]\n", 3, "a 'kind' entry in [builder]"),
        ("[chart]\nvars = x1\n[bundle]\n[bracket]\n", 3, "a 'rank' entry in [bundle]"),
        ("[chart]\nvars = x1\n[bracket]\n", 3, "a [bundle] section when [bracket] is used"),
        ("[chart]\nvars = x1\n[builder]\nkind = twisted_action\n[algebra]\n[action]\n", 5,
         "a 'dim' entry in [algebra]"),
        ("[chart]\nvars = x1\n[builder]\nkind = dissection\n[dissection]\n", 5,
         "an 'aux_rank' entry in [dissection]"),
    ],
)
def test_empty_section_is_reported_at_its_header(text, line, expected):
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column, err.value.expected) == (line, 1, expected)


@pytest.mark.parametrize(
    "block, expected",
    [
        ("lift", "sigma.N rows in [lift]"),
        ("complement", "c.N rows in [complement]"),
        ("points", "p.N rows in [points]"),
        ("deform", "a single 'h' entry in [deform]"),
        ("bfield", "a single 'beta' entry in [bfield]"),
        ("pontryagin", "a single 'h' entry in [pontryagin]"),
    ],
)
def test_empty_block_is_an_error_at_its_header(block, expected):
    # a block with nothing in it would let its task run on nothing
    with pytest.raises(ParseError) as err:
        parse_manifest(BASE + f"\n[{block}]   # no rows\n")
    assert (err.value.line, err.value.column, err.value.expected) == (11, 1, expected)


@pytest.mark.parametrize(
    "block, line, column, expected",
    [
        ("[bfield]\nh = dx(1,2)", 12, 1, "a single 'beta' entry in [bfield]"),
        ("[pontryagin]\nh = x1*dx(1,2)", 12, 5, "a 3-form literal"),
    ],
)
def test_malformed_form_block_is_positioned(block, line, column, expected):
    with pytest.raises(ParseError) as err:
        parse_manifest(BASE.replace("x1 x2", "x1 x2 x3") + f"\n{block}\n")
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


NUMBER_ROWS = {
    "metric": "[chart]\nvars = x1\n\n[bundle]\nrank = 1\nmetric.1 = {}\nanchor.1 = 0\n\n[bracket]\n",
    "pairing": (
        "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n"
        "[algebra]\ndim = 1\npairing.1 = {}\n\n[action]\nrho.1 = 0\n"
    ),
    "bracket": (
        "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n"
        "[algebra]\ndim = 2\nbracket.1.2 = {}, 0\npairing.1 = 0, 1\npairing.2 = 1, 0\n\n"
        "[action]\nrho.1 = 0\nrho.2 = 0\n"
    ),
    "p": BASE.replace("x1 x2", "x1") + "\n[points]\np.1 = {}\n",
}


@pytest.mark.parametrize("row", sorted(NUMBER_ROWS))
@pytest.mark.parametrize("number, found", [("1.5", "."), ("1e3", "e3"), ("1_000", "_000")])
def test_number_rows_take_the_literal_grammar(row, number, found):
    # numbers in matrix and point rows are those of polynomial literals
    text = NUMBER_ROWS[row].format(number)
    lines = text.splitlines()
    line = next(e for e in lines if e.startswith(row + "."))
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert err.value.line == lines.index(line) + 1
    assert err.value.column == line.index(found, line.index("=")) + 1
    assert err.value.found == found
    assert parse_manifest(text.replace(number, "-3/2")).name == "manifest"


def test_number_error_is_at_the_offending_token():
    text = "[chart]\nvars = x1\n\n[bundle]\nrank = 2\nmetric.1 = 0,   x\nmetric.2 = 1, 0\n"
    text += "anchor.1 = 0\nanchor.2 = 0\n\n[bracket]\n"
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (6, 17)
    assert (err.value.expected, err.value.found) == ("rational number", "x")
    # the same layout in a bracket row, where the column was already right
    with pytest.raises(ParseError) as err:
        parse_manifest(text.replace("metric.1 = 0,   x", "metric.1 = 0, 1") + "t.1.2 = 0,   y\n")
    assert (err.value.line, err.value.column) == (12, 14)
    assert (err.value.expected, err.value.found) == ("coordinate name", "y")


BRACKET_TABLE = (
    "[chart]\nvars = x1\n\n[bundle]\nrank = 2\nmetric.1 = 0, 1\nmetric.2 = 1, 0\n"
    "anchor.1 = 1\nanchor.2 = 0\n\n[bracket]\n{}\n"
)
ALGEBRA = (
    "[chart]\nvars = x1\n\n[builder]\nkind = twisted_action\n\n[algebra]\ndim = 2\n"
    "pairing.1 = 0, 1\npairing.2 = 1, 0\n{}\n[action]\nrho.1 = 1\nrho.2 = 0\n{}\n"
)


@pytest.mark.parametrize(
    "text, line, expected, found",
    [
        (BRACKET_TABLE.format("").replace("metric.2 =", "metric.01 ="), 7, "metric.1", "metric.01"),
        (BASE + "\n[points]\np.1 = 0, 0\np.01 = 7, 7\n", 13, "p.1", "p.01"),
        (BRACKET_TABLE.format("t.1.2 = 0, x1\nt.1.02 = 0, 0"), 13, "t.1.2", "t.1.02"),
        (ALGEBRA.format("bracket.1.2 = 0, 1\nbracket.2.1 = 0, 0", ""), 12,
         "bracket.2.1 or bracket.1.2", "bracket.2.1"),
        (ALGEBRA.format("", "k.2.1 = 0, x1\nk.1.2 = 0, 0"), 16, "k.1.2 or k.2.1", "k.1.2"),
    ],
    ids=["numbered-row", "contiguous-row", "ordered-table", "skew-table", "skew-action-table"],
)
def test_repeated_indices_are_an_error(text, line, expected, found):
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert (err.value.line, err.value.column) == (line, 1)
    assert (err.value.expected, err.value.found) == (f"a single entry for {expected}", found)

