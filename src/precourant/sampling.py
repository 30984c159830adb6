"""Deterministic seeded generators for verification trials.

Every verification routine draws its random polynomials, sections and
forms from a ``random.Random`` seeded by the caller, which keeps reports
reproducible byte for byte.  Coefficients are small integers in [-3, 3]
and degrees are bounded, so identities stay cheap to evaluate exactly.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List

from .bundle import CourantBundle, Section, anchor_apply, rho_star
from .errors import ConstructionError
from .exterior import KForm
from .poly import Chart, Poly


def random_poly(
    rng: random.Random,
    chart: Chart,
    max_degree: int = 2,
    max_terms: int = 2,
) -> Poly:
    """Sparse random polynomial, total degree <= max_degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exp = [0] * chart.dim
        for _ in range(degree):
            exp[rng.randrange(chart.dim)] += 1
        coeff = rng.randint(-3, 3)
        if coeff:
            terms[tuple(exp)] = coeff + terms.get(tuple(exp), 0)
    return Poly(chart, terms)


def random_section(
    rng: random.Random,
    bundle: CourantBundle,
    max_degree: int = 2,
    density: float = 0.6,
) -> Section:
    """Random section; most coefficients stay zero to keep products small."""
    coeffs = []
    for _ in range(bundle.rank):
        if rng.random() < density:
            coeffs.append(random_poly(rng, bundle.chart, max_degree))
        else:
            coeffs.append(Poly.zero(bundle.chart))
    return Section(bundle, coeffs)


def random_form(
    rng: random.Random,
    chart: Chart,
    degree: int,
    max_degree: int = 2,
    max_components: int = 2,
) -> KForm:
    comps = {}
    all_indices = list(combinations(range(chart.dim), degree))
    rng.shuffle(all_indices)
    for idx in all_indices[: rng.randint(1, max_components)]:
        comps[idx] = random_poly(rng, chart, max_degree)
    return KForm(chart, degree, comps)


def zero_anchor_frames(bundle: CourantBundle) -> List[int]:
    """Frame indices whose anchor row vanishes identically."""
    return [i for i, row in enumerate(bundle.anchor_rows) if not row]


def random_kernel_section(
    rng: random.Random,
    bundle: CourantBundle,
    max_degree: int = 2,
) -> Section:
    """Random section of Ker(rho).

    Built from the two universally available sources: the image of rho*
    (isotropic, inside the kernel because rho rho* = 0) and polynomial
    multiples of frames whose anchor row vanishes.  The result is checked;
    an anchor that is not isotropic raises ConstructionError.
    """
    kappa = rho_star(bundle, random_form(rng, bundle.chart, 1, max_degree))
    for i in zero_anchor_frames(bundle):
        if rng.random() < 0.5:
            kappa = kappa + bundle.frame(i).scale(
                random_poly(rng, bundle.chart, max_degree)
            )
    if not anchor_apply(kappa).is_zero():
        raise ConstructionError(
            "anchor-not-isotropic", "rho rho* != 0, so a sampled kernel section leaves Ker(rho)"
        )
    return kappa
