import pytest

from precourant.algebroid import PreCourantAlgebroid, zero_table
from precourant.bundle import standard_bundle
from precourant.deform import apply_deformation, twist_deformation
from precourant.parsing import parse_form
from precourant.poly import Chart


@pytest.fixture(scope="session")
def chart3():
    return Chart(["x1", "x2", "x3"])


@pytest.fixture(scope="session")
def chart4():
    return Chart(["x1", "x2", "x3", "x4"])


@pytest.fixture(scope="session")
def std3(chart3):
    return standard_bundle(chart3)


@pytest.fixture(scope="session")
def std4(chart4):
    return standard_bundle(chart4)


@pytest.fixture(scope="session")
def courant3(std3):
    """The standard structure with the zero table."""
    return PreCourantAlgebroid(std3, zero_table(std3))


@pytest.fixture(scope="session")
def twisted4(std4, chart4):
    """The exact structure twisted by h = x4 dx1^dx2^dx3."""
    base = PreCourantAlgebroid(std4, zero_table(std4))
    h = parse_form(chart4, "x4*dx(1,2,3)")
    return apply_deformation(base, twist_deformation(std4, h))


@pytest.fixture(scope="session")
def twist_h4(chart4):
    return parse_form(chart4, "x4*dx(1,2,3)")
