"""Property tests of the exact polynomial layer, generated by hypothesis.

hypothesis is a test-only dependency. Every test runs under one fixed
profile: examples are derandomized (the same examples on every run) and
few, and no example database is written, so the suite stays deterministic
and about as fast as before. Polynomials range over the symbol sets (),
(Q) and (Q, R), with integer and rational coefficients.
"""

from __future__ import annotations

import pytest

from pgstkit import SparsePoly

from conftest import assert_stored_form

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)

SYMBOL_SETS = [(), ("Q",), ("Q", "R")]

COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def polys(draw) -> SparsePoly:
    syms = draw(st.sampled_from(SYMBOL_SETS))
    exps = st.tuples(*[st.integers(0, 3)] * (1 + len(syms)))
    return SparsePoly(draw(st.lists(st.tuples(exps, COEFFICIENTS), max_size=5)), syms)


@PROFILE
@given(polys())
def test_string_form_round_trips(p):
    assert_stored_form(p)
    q = SparsePoly.parse(str(p))
    assert_stored_form(q)
    assert q == p


@PROFILE
@given(polys(), polys())
def test_exact_division_undoes_a_product(p, q):
    assume(not q.is_zero())
    product = p * q
    assert_stored_form(product)
    quotient = product.divexact(q)
    assert_stored_form(quotient)
    assert quotient == p
