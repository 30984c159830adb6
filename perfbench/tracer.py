"""Run-time tracing of precourant's layers, installed from outside ``src/``.

``Tracer.install`` wraps the public functions of each layer.  A module
function is rebound in every ``precourant.*`` module that imported it, so
calls through ``from .x import f`` are seen too; ``Poly``, ``Section`` and
``TwoTermAlgebra`` methods are patched on the class.  Each wrapper keeps
aggregate counters only (calls, self time, outermost inclusive time):
``Poly`` calls run into the millions, and every per-layer metric is an
aggregate.  Self time is the call's duration minus the time spent in
wrapped callees.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

# metric prefix -> (module, attribute); a class attribute reads "Class.method"
TARGETS = {
    "poly.init": ("precourant.poly", "Poly.__init__"),
    "poly.add": ("precourant.poly", "Poly.__add__"),
    "poly.mul": ("precourant.poly", "Poly.__mul__"),
    "poly.eq": ("precourant.poly", "Poly.__eq__"),
    "poly.diff": ("precourant.poly", "Poly.diff"),
    "exterior.vf_apply": ("precourant.exterior", "vf_apply"),
    "exterior.vf_bracket": ("precourant.exterior", "vf_bracket"),
    "exterior.ext_d": ("precourant.exterior", "ext_d"),
    "exterior.wedge": ("precourant.exterior", "wedge"),
    "bundle.section_init": ("precourant.bundle", "Section.__init__"),
    "bundle.anchor_apply": ("precourant.bundle", "anchor_apply"),
    "bundle.pairing": ("precourant.bundle", "pairing"),
    "bundle.dee": ("precourant.bundle", "dee"),
    "bundle.rho_star": ("precourant.bundle", "rho_star"),
    "sampling.random_section": ("precourant.sampling", "random_section"),
    "algebroid.bracket": ("precourant.algebroid", "bracket"),
    "algebroid.jacobiator": ("precourant.algebroid", "jacobiator"),
    "algebroid.skew_bracket": ("precourant.algebroid", "skew_bracket"),
    "algebroid.verify_axioms": ("precourant.algebroid", "verify_axioms"),
    "algebroid.verify_derived_identities": ("precourant.algebroid", "verify_derived_identities"),
    "cochain.cobound_d": ("precourant.cochain", "cobound_d"),
    "cochain.partial_section_values": ("precourant.cochain", "partial_section_values"),
    "cochain.jacobiator_flat": ("precourant.cochain", "jacobiator_flat"),
    "cochain.verify_jacobiator_theorem": ("precourant.cochain", "verify_jacobiator_theorem"),
    "cochain.verify_comm_lemma": ("precourant.cochain", "verify_comm_lemma"),
    "twoterm.l2": ("precourant.twoterm", "TwoTermAlgebra.l2"),
    "twoterm.l3": ("precourant.twoterm", "TwoTermAlgebra.l3"),
    "twoterm.t_scalar": ("precourant.twoterm", "t_scalar"),
    "twoterm.verify_lie2": ("precourant.twoterm", "verify_lie2"),
    "twoterm.verify_leibniz2": ("precourant.twoterm", "verify_leibniz2"),
    "twoterm.verify_morphism": ("precourant.twoterm", "verify_morphism"),
    "deform.apply_deformation": ("precourant.deform", "apply_deformation"),
    "deform.verify_deformation_identity": ("precourant.deform", "verify_deformation_identity"),
    "deform.bfield_verify": ("precourant.deform", "bfield_verify"),
    "deform.pontryagin_representative": ("precourant.deform", "pontryagin_representative"),
    "deform.naive_cohomology_check": ("precourant.deform", "naive_cohomology_check"),
    "deform.quotient_jacobi_check": ("precourant.deform", "quotient_jacobi_check"),
    "construct.from_twisted_action": ("precourant.construct", "from_twisted_action"),
    "construct.from_dissection": ("precourant.construct", "from_dissection"),
    "construct.validate_quadratic_lie": ("precourant.construct", "validate_quadratic_lie"),
    "construct.validate_twisted_action": ("precourant.construct", "validate_twisted_action"),
    "manifest.parse_manifest": ("precourant.manifest", "parse_manifest"),
    "runner.build_context": ("precourant.runner", "build_context"),
}


def _poly_key(p):
    return frozenset(p.terms.items())


def _section_key(s):
    return tuple(_poly_key(c) for c in s.coeffs)


class Tracer:
    """Aggregate per-function counters for one traced process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.term_products = 0
        self.max_terms = 0
        self.max_degree = 0
        self._depth: Dict[str, int] = defaultdict(int)
        self._child: List[float] = []  # wrapped-callee time of each open call
        # distinct arguments, keyed by value; the algebroid by identity,
        # held in _alive so that no id is reused while the pass runs
        self._distinct: Dict[str, Set] = defaultdict(set)
        self._alive: Dict[int, object] = {}

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        depth, child = self._depth, self._child

        def observe(hook, args) -> None:
            # the caller counts the hook as callee time, so no self time holds it
            h0 = perf_counter()
            hook(args)
            if child:
                child[-1] += perf_counter() - h0

        def traced(*args, **kwargs):
            if before is not None:
                observe(before, args)
            child.append(0.0)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - child.pop()
                if not depth[name]:
                    incl_s[name] += elapsed
                if child:
                    child[-1] += elapsed
            if after is not None:
                observe(after, args)
            return result

        return functools.wraps(fn)(traced)

    # --- observers, excluded from every self time -------------------

    def _count_products(self, args) -> None:
        a, b = args[0], args[1]
        self.term_products += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    def _poly_size(self, args) -> None:
        terms = args[0].terms
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)
        if terms:
            degree = max(map(sum, terms))
            if degree > self.max_degree:
                self.max_degree = degree

    def _distinct_args(self, name: str) -> Callable:
        seen = self._distinct[name]
        alive = self._alive

        def observe(args) -> None:
            algebroid = args[0]
            alive[id(algebroid)] = algebroid
            seen.add((id(algebroid),) + tuple(_section_key(s) for s in args[1:]))

        return observe

    def install(self) -> None:
        import precourant.cli  # noqa: F401  (imports every layer)

        hooks = {
            "poly.mul": {"before": self._count_products},
            "poly.init": {"after": self._poly_size},
            "algebroid.bracket": {"before": self._distinct_args("algebroid.bracket")},
            "algebroid.jacobiator": {"before": self._distinct_args("algebroid.jacobiator")},
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "precourant"]
        for name, (module_name, attr) in TARGETS.items():
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], **hooks.get(name, {})))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, **hooks.get(name, {}))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def metrics(self) -> Dict[str, float]:
        """Every counter under its metric name; functions never called read 0."""
        out: Dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.incl_s[name]
        for name in ("algebroid.bracket", "algebroid.jacobiator"):
            calls = self.calls[name]
            out[f"{name}.unique_ratio"] = len(self._distinct[name]) / calls if calls else 0.0
        out["poly.mul.term_products"] = self.term_products
        out["poly.max_terms"] = self.max_terms
        out["poly.max_degree"] = self.max_degree
        return out
