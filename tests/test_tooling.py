"""The README and the benchmark tracer stay in step with the code, the
modules keep to each other's public names, off the dense views of the
sparse store and off the stored form of a polynomial, builder kinds are
named only in the builder table, blocks are read only through the block
table, dotted manifest keys are read through one reader and every section
through the manifest schema, whose keys the README lists, every check is
recorded through `VerifyReport`, every module-level function and class has
a caller in the package, the two-term l3 has one code path and reaches
no bracket, neither the bracket nor T reaches an anchor map or D, the
builders have one connection derivative and hold each input in one form,
poly.py sums numerator products in one loop that the bracket and T share,
on the jets each map takes once and keeps, J on frame triples is enumerated
in one place, symmetric forms are checked in one place, results kept on an
object are cached properties, D, the covariant derivative and a kernel
cochain's flat scatter from nonzero frame data and only named checks scan
every frame tuple, `tools/bench_record.py` has only its paired `--ab`
mode, whose pairing and sign test hold on fixed numbers and whose summary
names the pairs that ran under outside load, the test model imports no
precourant module, and importing the CLI stays cheap."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from precourant.manifest import BLOCKS, BUILDERS, SCHEMA
from precourant.tasks import TASKS

ROOT = Path(__file__).resolve().parent.parent


def test_readme_task_table_matches_task_table():
    rows = re.findall(
        r"^\| `([a-z0-9-]+)` \| ([^|]*) \| ([^|]*) \|$",
        (ROOT / "README.md").read_text(),
        flags=re.MULTILINE,
    )
    assert [name for name, _, _ in rows] == list(TASKS)
    for name, needs, gate in rows:
        task = TASKS[name]
        named = [f"`[{n}]`" if n in BLOCKS else f"`kind = {n}`" for n in task.needs]
        assert needs == (", ".join(named) or "—"), name
        assert ("gated" in gate) == task.gated, name
        assert ("sets the gate" in gate) == task.sets_gate, name


def test_readme_section_table_matches_schema():
    rows = re.findall(
        r"^\| `\[([a-z]+)\]` \| ([^|]*) \| ([^|]*) \|$",
        (ROOT / "README.md").read_text(),
        flags=re.MULTILINE,
    )
    assert [name for name, _, _ in rows] == list(SCHEMA)
    for name, keys, readers in rows:
        section = SCHEMA[name]
        listed = []
        for pattern, key in section.keys.items():
            notes = ["required"] * key.required + [f"`{kind}`" for kind in key.by or ()]
            listed.append(f"`{pattern}`" + (f" ({', '.join(notes)})" if notes else ""))
        assert keys == ", ".join(listed), name
        named = [f"`{kind}`" if kind else "`[bracket]`" for kind in section.by or ()]
        assert readers == (", ".join(named) or "any manifest"), name


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for metric, (module_name, attr) in tracer.TARGETS.items():
        home = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(home, cls_name)), metric
        else:
            assert callable(getattr(home, attr)), metric


def test_no_private_names_imported_across_modules():
    private = []
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("precourant"):
                continue
            private += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    assert private == []


def test_dense_coefficients_read_only_where_they_are_defined():
    # the sparse store stays behind PolyMap: elsewhere, callers walk `terms`
    readers = {
        path.name
        for path in (ROOT / "src" / "precourant").glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "coeffs"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    }
    assert readers <= {"bundle.py", "exterior.py"}, readers


def test_stored_polynomial_form_read_only_in_poly():
    # numerators and denominator stay behind Poly: elsewhere, callers read
    # the rational view `terms`
    readers = {
        path.name
        for path in (ROOT / "src" / "precourant").glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr in ("num", "den")
            for node in ast.walk(ast.parse(path.read_text()))
        )
    }
    assert readers <= {"poly.py"}, readers


@pytest.mark.parametrize("module", ["dataclasses", "json"])
def test_cli_import_leaves_out_dataclasses(module):
    # decorating classes costs every run its start-up: importing
    # dataclasses pulls in inspect, ast and dis; only a JSON report needs json
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, precourant.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_runner_names_no_builder_kind():
    # builder kinds are named in the builder table alone
    kinds = {kind for kind in BUILDERS if kind is not None}
    tree = ast.parse((ROOT / "src" / "precourant" / "runner.py").read_text())
    named = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert kinds and not named & kinds, named & kinds


def test_blocks_are_read_through_the_block_table():
    # a block is declared once, in manifest.BLOCKS; elsewhere it is read
    # from Manifest.blocks by name, never as an attribute of its own
    attrs = set(BLOCKS) | {"deform_h", "bfield_beta", "pontryagin_h"}
    named = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted((ROOT / "src" / "precourant").glob("*.py"))
        if path.name != "manifest.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]
    assert named == []


def test_dotted_keys_are_read_through_one_reader():
    # `_indexed` alone parses key indices, checks their range and rejects a
    # repeat; no function picks entries by the prefix or suffix of their key
    tree = ast.parse((ROOT / "src" / "precourant" / "manifest.py").read_text())
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    callers = [
        f.name for f in funcs for node in ast.walk(f)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_key_indices"
    ]
    assert callers == ["_indexed"]
    affixed = [
        f"{f.name}: {ast.unparse(node)}"
        for f in funcs for node in ast.walk(f)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith((".key.startswith", ".key.endswith"))
    ]
    assert affixed == []


def test_manifest_sections_are_read_through_the_schema():
    # one loop reads every section through SCHEMA: no section or builder has
    # a parser of its own, and no function picks entries by comparing their
    # key with a literal (the loop compares keys with the schema's patterns)
    tree = ast.parse((ROOT / "src" / "precourant" / "manifest.py").read_text())
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    parsers = {f"_parse_{name}" for name in [*SCHEMA, *BUILDERS] if name}
    assert [f.name for f in funcs if f.name in parsers] == []

    def literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(literal(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def reads_key(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "key" for n in ast.walk(node))

    compared = [
        f"{f.name}: {ast.unparse(node)}"
        for f in funcs
        for node in ast.walk(f)
        if isinstance(node, ast.Compare)
        and any(map(reads_key, [node.left, *node.comparators]))
        and any(map(literal, [node.left, *node.comparators]))
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and reads_key(node.func.value)
        and any(map(literal, node.args))
        and node.func.attr in ("startswith", "endswith")
    ]
    assert compared == []


def test_verify_report_is_the_only_result_type():
    # checks are made in reports.py alone, and no other report class exists
    # beside the runner's report of a whole run
    checks, reports = [], []
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Check"
                and path.name != "reports.py"
            ):
                checks.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name.endswith("Report"):
                reports.append(f"{path.name}: {node.name}")
    assert checks == []
    assert reports == ["reports.py: VerifyReport", "runner.py: RunReport"]


def test_every_module_level_name_is_used_in_the_package():
    # a function or class that only tests reach is dead code; a name counts
    # as used when the package names it outside its own definition
    def names(tree):
        return Counter(
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        )

    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "precourant").glob("*.py"))
    }
    everywhere = sum((names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{home}: {node.name}"
        for home, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == names(node)[node.name]
    ]
    assert unused == []


def test_two_term_module_never_evaluates_nested_jacobiators():
    # both correctors read J from its frame flat: one l3 code path
    tree = ast.parse((ROOT / "src" / "precourant" / "twoterm.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "jacobiator" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


def test_two_term_l3_reaches_no_bracket():
    # l3 reads J from its frame flat and T from its compiled kernel, so no
    # function that it reaches takes a bracket.  Reach is by name through
    # the whole package, over every name a function mentions (a class name
    # stands for its __init__), and stops at `jacobiator_flat`, which builds
    # the flat from frame brackets once per algebroid and keeps it
    defs = {}
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).extend(
                    f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                )
    seen, todo, calls = {"l3", "jacobiator_flat"}, list(defs["l3"]), []
    while todo:
        func = todo.pop()
        for node in ast.walk(func):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("bracket", "skew_bracket"):
                calls.append(f"{func.name}:{node.lineno} {name}")
            elif name in defs and name not in seen:
                seen.add(name)
                todo.extend(defs[name])
    assert len(defs["l3"]) == 1 and {"t_scalar", "t_operator"} <= seen
    assert calls == []


def test_bracket_reaches_no_anchor_or_derivative_section():
    # the bracket and T are each one compiled operator on frame
    # coefficients, so nothing that `bracket` or `t_scalar` reaches builds a
    # vector field, applies one or takes D f.  Reach is by name through the
    # whole package, as in the l3 test above, over function bodies (an
    # annotation calls nothing), and takes in the operator's compilation on
    # first use
    defs = {}
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).extend(
                    f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                )
    roots = {
        "bracket": {"bracket_operator", "bracket_families", "apply"},
        "t_scalar": {"t_operator", "t_families", "cyclic_pairing"},
    }
    for root, compiled in roots.items():
        seen, todo, calls = {root}, list(defs[root]), []
        while todo:
            func = todo.pop()
            for node in (n for stmt in func.body for n in ast.walk(stmt)):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in ("anchor_apply", "vf_apply", "dee"):
                    calls.append(f"{func.name}:{node.lineno} {name}")
                elif name in defs and name not in seen:
                    seen.add(name)
                    todo.extend(defs[name])
        assert len(defs[root]) == 1
        assert compiled <= seen, root
        assert calls == [], root


def test_symmetric_forms_are_checked_in_one_place():
    # bundles and quadratic algebras are built on nondegenerate symmetric
    # forms: `linalg.symmetric_inverse` alone tests symmetry, and no code
    # keeps a flag to choose a path for a form that is not symmetric
    callers, named = set(), []
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        tree = ast.parse(path.read_text())
        callers |= {
            f"{path.name}: {func.name}"
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "is_symmetric"
        }
        named += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "symmetric"
        ]
    assert callers == {"linalg.py: symmetric_inverse"}
    assert named == []


def test_jacobiator_is_the_one_evaluator_of_j():
    # J is taken by its three brackets in `jacobiator` alone, which keeps the
    # values on frame triples in `jmemo`: no other function nests a bracket
    # inside a bracket, and `jmemo` is read or written nowhere else
    nested, memo = [], []
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        funcs += [
            (f"{cls.name}.{f.name}", f)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.FunctionDef)
        ]
        for name, func in funcs:
            calls = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "bracket"
            ]
            nested += [
                f"{path.name}: {name}" for call in calls for arg in call.args
                if any(inner in calls for inner in ast.walk(arg))
            ]
            memo += [
                f"{path.name}: {name}" for node in ast.walk(func)
                if isinstance(node, ast.Attribute) and node.attr == "jmemo"
            ]
    assert set(nested) == {"algebroid.py: jacobiator"}
    assert set(memo) == {"algebroid.py: PreCourantAlgebroid.__init__", "algebroid.py: jacobiator"}


def test_frame_triples_enumerated_only_in_algebroid():
    # J on the increasing frame triples is read from `frame_jacobiators`
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "precourant").glob("*.py"))
        if path.name != "algebroid.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "combinations"
        and len(node.args) == 2
        and re.fullmatch(r"range\(.*\.rank\)", ast.unparse(node.args[0]))
        and ast.unparse(node.args[1]) == "3"
    ]
    assert calls == []


def _functions(tree):
    """Each function of a module, methods included, by its qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def test_numerator_products_are_summed_in_one_loop():
    # poly.py adds products of numerators into a dict in `_accumulate` alone,
    # and the bracket's `apply` and T's `cyclic_pairing` both reach it
    # through the one walk over the operator's rows, `_products`
    functions = _functions(ast.parse((ROOT / "src" / "precourant" / "poly.py").read_text()))

    def adds_a_product(node):
        # d[e] = ... + a * b, or d[e] += a * b
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], ast.BinOp(node.target, node.op, node.value)
        else:
            return False
        return (any(isinstance(t, ast.Subscript) for t in targets)
                and isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
                and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                        for n in ast.walk(value)))

    summing = {name for name, func in functions.items() if any(map(adds_a_product, ast.walk(func)))}
    assert summing == {"_accumulate"}
    for name in ("apply", "cyclic_pairing", "_products"):
        callees = {ast.unparse(node.func).split(".")[-1]
                   for node in ast.walk(functions[f"BilinearOperator.{name}"])
                   if isinstance(node, ast.Call)}
        assert ("_accumulate" if name == "_products" else "_products") in callees, name


def test_jets_are_taken_once_per_map():
    # `_jets` runs only in `PolyMap.jets`, which keeps what it returns in the
    # map's `_jet` slot, so every PolyMap constructor that clears the kept
    # hash clears the kept jets too
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "precourant").glob("*.py"))}
    classes = {"PolyMap"}
    grown = True
    while grown:
        found = {node.name for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(ast.unparse(base) in classes for base in node.bases)}
        grown = not found <= classes
        classes |= found
    callers, constructors, unset = set(), set(), []
    for name, tree in trees.items():
        for qualified, func in _functions(tree).items():
            callers |= {f"{name}: {qualified}" for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == "_jets"}
            if qualified.split(".")[0] not in classes:
                continue
            cleared = {(ast.unparse(t.value), t.attr) for node in ast.walk(func)
                       if isinstance(node, ast.Assign) and ast.unparse(node.value) == "None"
                       for t in node.targets if isinstance(t, ast.Attribute)}
            for obj, attr in cleared:
                if attr == "_hash":
                    constructors.add(f"{name}: {qualified}")
                    if (obj, "_jet") not in cleared:
                        unset.append(f"{name}: {qualified}")
    assert callers == {"poly.py: PolyMap.jets"}
    assert constructors == {
        "bundle.py: Section.__init__", "exterior.py: VectorField.__init__",
        "exterior.py: KForm.__init__", "poly.py: PolyMap.from_terms",
    }
    assert unset == []


def test_cobound_d_walks_no_frame_tuples():
    # D psi, partial phi and a kernel cochain's flat are scattered from
    # nonzero frame data, so none of them enumerates frame tuples at all
    functions = _functions(ast.parse((ROOT / "src" / "precourant" / "cochain.py").read_text()))
    for name in ("cobound_d", "partial_section_values", "KerCochain.from_values"):
        assert not [
            node.lineno for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("combinations", "product")
        ], name


# the frame-tuple scans that visit every tuple, by module, function and the
# check they serve: each compares or validates data that may be nonzero on
# any tuple.  Every other frame-tuple loop walks only nonzero frame data.
EXHAUSTIVE_FRAME_SCANS = [
    ("cochain.py", "verify_jacobiator_theorem", "flat-alternating"),
    ("cochain.py", "verify_jacobiator_theorem", "skew-symmetric"),
    ("construct.py", "from_connection_beta", "corrector-anchor-defect"),
    ("construct.py", "from_connection_beta", "corrector-not-skew"),
    ("deform.py", "pontryagin_representative", "kernel-slots-vanish"),
]


def test_frame_tuple_scans_are_the_exhaustive_checks():
    # every combinations/product over range(<bundle rank>) in the cochain,
    # deformation and builder modules, named by the first check name of
    # the statement it sits in
    check_name = re.compile(r"[a-z0-9]+(-[a-z0-9]+)+")
    found = []
    for module in ("cochain.py", "construct.py", "deform.py"):
        tree = ast.parse((ROOT / "src" / "precourant" / module).read_text())
        for name, func in _functions(tree).items():
            ranks = {t.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                     and ast.unparse(node.value).endswith(".rank")
                     for t in node.targets if isinstance(t, ast.Name)}
            over_rank = [f"range({r})" for r in ranks]
            parent = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call)
                        and ast.unparse(call.func) in ("combinations", "product")
                        and any(re.fullmatch(r"range\(.*\.rank\)", text) or text in over_rank
                                for text in map(ast.unparse, call.args))):
                    continue
                stmt = call
                while not isinstance(stmt, ast.stmt):
                    stmt = parent[stmt]
                names = sorted((c.lineno, c.col_offset, c.value) for c in ast.walk(stmt)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str)
                               and check_name.fullmatch(c.value))
                found.append((module, name, names[0][2] if names else None))
    assert sorted(found) == EXHAUSTIVE_FRAME_SCANS


def test_builders_differentiate_in_one_connection_derivative():
    # the connection-plus-corrector recipe and the dissection's closed forms
    # share one covariant derivative: nothing else in construct.py takes .diff
    tree = ast.parse((ROOT / "src" / "precourant" / "construct.py").read_text())
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "diff"
            for node in ast.walk(func)
        )
    }
    assert callers == {"_covariant"}, callers


def test_builder_brackets_are_compiled_from_the_bracket_families():
    # the Leibniz expansion of a frame table is declared once, in
    # `algebroid.bracket_families`: the builders apply no vector field to a
    # coefficient and map no section, and each operator they compile takes
    # its entries from those families
    source = (ROOT / "src" / "precourant" / "construct.py").read_text()
    assert "vf_apply" not in source and ".map(" not in source
    calls = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "BilinearOperator"
    ]
    assert len(calls) == 2
    assert [
        ast.unparse(call) for call in calls
        if not any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == "bracket_families"
            for arg in call.args for n in ast.walk(arg)
        )
    ] == []


def test_builders_hold_each_input_once():
    # a quadratic Lie algebra is its structure constants alone, the double
    # writes sparse brackets for `quadratic_lie_algebra` to read, and a
    # connection reaches `from_connection_beta` as its frame derivatives
    tree = ast.parse((ROOT / "src" / "precourant" / "construct.py").read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    algebra = next(
        c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "QuadraticLieAlgebra"
    )
    init = next(f for f in algebra.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    stored = {
        target.attr for node in ast.walk(init) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Attribute)
    }
    assert "structure" in stored and "bracket_table" not in stored
    called = {
        ast.unparse(node.func) for node in ast.walk(funcs["double"]) if isinstance(node, ast.Call)
    }
    assert "quadratic_lie_algebra" in called and "QuadraticLieAlgebra" not in called
    assert "_connection_frames" not in funcs


def test_kept_results_are_cached_properties():
    # a result derived from one fixed object is kept on it as a
    # functools.cached_property; a hand-rolled fill is `if x.a is None:`
    # followed by an assignment to x.a
    fills = []
    for path in sorted((ROOT / "src" / "precourant").glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        funcs += [
            (f"{cls.name}.{f.name}", f)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.FunctionDef)
        ]
        for name, func in funcs:
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.If)
                    and isinstance(node.test, ast.Compare)
                    and isinstance(node.test.left, ast.Attribute)
                    and [type(op) for op in node.test.ops] == [ast.Is]
                    and ast.unparse(node.test.comparators[0]) == "None"
                ):
                    continue
                kept = ast.unparse(node.test.left)
                if any(
                    ast.unparse(target) == kept
                    for assign in ast.walk(node)
                    if isinstance(assign, ast.Assign)
                    for t in assign.targets
                    for target in ast.walk(t)
                    if isinstance(target, ast.Attribute)
                ):
                    fills.append(f"{path.name}: {name}: {kept}")
    assert fills == [
        # `jacobiator_flat` is a benchmark tracer target, and algebroid.py,
        # which owns the algebroid, cannot import Cochain
        "cochain.py: jacobiator_flat: p.jflat",
        # the hashes of the two hot value types, which are slotted, and the
        # jets a map keeps for the bilinear operators
        "poly.py: Poly.__hash__: self._hash",
        "poly.py: PolyMap.__hash__: self._hash",
        "poly.py: PolyMap.jets: self._jet",
    ]


def test_model_imports_no_precourant_module():
    # tests/model.py is an oracle only while it shares no code with what it
    # checks: it imports sympy and neither the package nor a test module
    tree = ast.parse((ROOT / "tests" / "model.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "sympy" in imported
    assert [m for m in imported if m.startswith(("precourant", "test_", "conftest", "."))] == []


def test_bench_record_pairs_runs_and_sign_tests(monkeypatch, tmp_path):
    # the --ab summary on fixed numbers; no benchmark is started
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    a = [float(x) for x in range(1, 11)]
    b = [x / 2 for x in a]
    b[3], b[6] = 5.0, 7.0  # one pair where B is higher, one tie
    assert bench_record.pair_summary(a, b) == {
        "a": [2.75, 5.5, 8.25], "b": [1.375, 3.5, 5.0], "pairs": 10,
        "b_lower": 8, "b_higher": 1, "sign_p": 20 / 512,
    }
    # two-sided: 2 * P(at most min(lower, higher) of n fair coins), capped at 1
    assert bench_record.sign_test(10, 0) == bench_record.sign_test(0, 10) == 2 / 1024
    assert bench_record.sign_test(9, 1) == 22 / 1024
    assert bench_record.sign_test(5, 5) == bench_record.sign_test(0, 0) == 1.0
    # a fabricated --ab record: the pairs whose load reading is at least 1
    # above the median reading of the record are named, the rest are not,
    # and a record from before the readings names none
    summary = {"task_s": bench_record.pair_summary(a, b)}

    def lines(loads):
        return bench_record.ab_lines({"summary": {w: summary for w in loads}, "pairs": {
            w: [{"first": "a", **load} for load in runs] for w, runs in loads.items()}})

    loads = {"frame-suite": [0.25, 1.75, 0.5, 0.5], "two-term": [0.75, 2.75, 1.625, 0.5]}
    # the median of the eight readings is 0.625, so 1.625 is named and 0.75 is not
    assert lines({w: [{"load": x} for x in runs] for w, runs in loads.items()})[3:] == [
        "loaded pair: frame-suite 2, load 1.75 against a median of 0.62",
        "loaded pair: two-term 2, load 2.75 against a median of 0.62",
        "loaded pair: two-term 3, load 1.62 against a median of 0.62",
    ]
    assert len(lines({"frame-suite": [{}, {}]})) == 2
    # --ab keeps, per pair, the larger of the readings before and after it
    readings = iter([0.5, 2.0, 3.0, 1.0])
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"task_s": {"value": 0.25, "unit": "s"}}}
    monkeypatch.setattr(bench_record.os, "getloadavg", lambda: (next(readings), 0.0, 0.0))
    stubs = {"ROOT": tmp_path, "git": lambda *args: args[-1] * 40, "extract": lambda *args: None,
             "workload_names": lambda _: ["frame-suite"], "run_workload": lambda *args: result}
    for name, stub in stubs.items():
        monkeypatch.setattr(bench_record, name, stub)
    pairs = json.loads(bench_record.ab("a", "b", 2).read_text())["pairs"]["frame-suite"]
    assert [(p["first"], p["load"]) for p in pairs] == [("a", 2.0), ("b", 3.0)]
    assert pairs[0]["a"] == pairs[0]["b"] == result
    # the sequential mode is gone: a label, --rev and --compare are usage errors
    for argv in (["38"], ["--rev", "HEAD"], ["--compare", "a", "b"], ["38", "--ab", "a", "b"]):
        with pytest.raises(SystemExit) as exit_:
            bench_record.main(argv)
        assert exit_.value.code == 2
