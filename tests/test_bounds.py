from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from delzant import bounds, catalog, reflexive
from delzant.errors import MalformedVector, NonNegativeS, UnboundedSearch
from delzant.polytope import cube

# every populated cell of the coefficient table, as (constant, coefficients
# of the free half positions); the (5, 2) constant follows from the defining
# formula, which the 5-cube pins down exactly
TABLE_1 = {
    (2, 1): (8, (-2,)),
    (2, 2): (6, (-3,)),
    (2, 3): (4, (-4,)),
    (3, 1): (21, (-3,)),
    (3, 2): (18, (-6,)),
    (3, 3): (15, (-9,)),
    (3, 4): (12, (-12,)),
    (4, 1): (40, (4, -4)),
    (4, 2): (36, (0, -6)),
    (4, 3): (32, (-4, -8)),
    (4, 4): (28, (-8, -10)),
    (4, 5): (24, (-12, -12)),
    (5, 1): (65, (17, -7)),
    (5, 2): (60, (12, -12)),
    (5, 3): (55, (7, -17)),
    (5, 4): (50, (2, -22)),
    (5, 5): (45, (-3, -27)),
    (5, 6): (40, (-8, -32)),
}

TABLE_2 = {
    (2, 1): [(1,), (2,), (3,), (4,)],
    (2, 2): [(2,)],
    (2, 3): [(1,)],
    (3, 1): [(b,) for b in range(1, 8)],
    (3, 2): [(1,), (2,), (3,)],
    (3, 3): [(1,)],
    (3, 4): [(1,)],
    (4, 3): [(1, 2), (2, 3), (3, 1), (4, 2), (6, 1)],
    (4, 4): [(1, 2)],
    (4, 5): [(1, 1)],
    (5, 5): [(1, 1), (6, 1)],
    (5, 6): [(1, 1)],
}


def test_table_1_reproduction():
    table = bounds.table_c(range(2, 6), range(1, 7))
    assert table == TABLE_1
    assert len(table) == 18


@pytest.mark.parametrize("n_range, k0_range", [
    (range(0, 3), range(1, 3)),
    (range(2, 4), range(0, 2)),
    (range(-3, 2), range(-1, 2)),
])
def test_table_refuses_values_below_1(n_range, k0_range):
    with pytest.raises(MalformedVector, match="is below 1"):
        bounds.table_c(n_range, k0_range)


def test_constant_term_closed_form():
    for (n, k0), (c, _) in TABLE_1.items():
        assert c == n * (3 * n - k0 - 1)


def test_s_sum_closed_form():
    for (n, k0), (_, coeffs) in TABLE_1.items():
        assert sum(coeffs) == bounds.s_sum(n, k0)
        assert bounds.s_sum(n, k0) == n * (n - 1) * (n - k0 - 3) // 2


def test_c_from_h_values():
    assert bounds.c_from_h(2, (1, 2, 1)) == 8
    assert bounds.c_from_h(2, (1, 1, 1)) == 9
    assert bounds.c_from_h(3, (1, 3, 3, 1)) == 24
    assert bounds.c_from_h(3, (1, 1, 1, 1)) == 24
    assert bounds.c_from_h(4, (1, 4, 6, 4, 1)) == 64
    assert bounds.c_from_h(4, (1, 1, 2, 1, 1)) == 48
    assert bounds.c_from_h(4, (1, 2, 2, 2, 1)) == 56
    with pytest.raises(MalformedVector, match="h-vector of length 3 for dimension 3"):
        bounds.c_from_h(3, (1, 2, 1))


def test_c_from_f_values():
    assert bounds.c_from_f(3, (8, 12, 6, 1)) == 24
    assert bounds.c_from_f(4, (16, 32, 24, 8, 1)) == 64
    with pytest.raises(MalformedVector, match="f-vector of length 3 for dimension 3"):
        bounds.c_from_f(3, (8, 12, 6))


def test_c_from_f3_matches():
    for name in ["cube", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        f = P.f_vector()
        assert bounds.c_from_f3(P.dim, f) == bounds.c_from_f(P.dim, f)
    # 24/5 - 4: the f3 form of a vector no polytope has need not be integral
    assert bounds.c_from_f3(7, (1,) * 8) == Fraction(4, 5)
    with pytest.raises(MalformedVector, match="f3 form needs dimension >= 3"):
        bounds.c_from_f3(2, (4, 4, 1))
    with pytest.raises(MalformedVector, match="f-vector of length 4 for dimension 4"):
        bounds.c_from_f3(4, (8, 12, 6, 1))


def test_c_indexed_consistency_on_catalog():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        k0 = reflexive.index_k0(P)
        cf = bounds.c_indexed_from_f(k0, P.dim, P.f_vector())
        ch = bounds.c_indexed_from_h(k0, P.dim, P.h_vector_comb())
        assert cf == ch
    with pytest.raises(MalformedVector, match="f-vector of length 2 for dimension 2"):
        bounds.c_indexed_from_f(1, 2, (4, 4))
    with pytest.raises(MalformedVector, match="h-vector of length 2 for dimension 2"):
        bounds.c_indexed_from_h(1, 2, (1, 1))


def test_c_indexed_h_requires_symmetry():
    with pytest.raises(MalformedVector):
        bounds.c_indexed_from_h(2, 2, (1, 2, 3))


def test_five_cube_pins_the_5_2_cell():
    P = cube(5)
    h = P.h_vector_comb()
    assert h == (1, 5, 10, 10, 5, 1)
    assert reflexive.index_k0(P) == 2
    assert bounds.c_indexed_from_h(2, 5, h) == 0
    const, coeffs = TABLE_1[(5, 2)]
    assert const + coeffs[0] * h[1] + coeffs[1] * h[2] == 0


def test_lambda_threshold():
    # first position whose coefficient turns non-positive
    assert bounds.lambda_threshold(2, 1) == 1
    assert bounds.lambda_threshold(4, 3) == 1
    assert bounds.lambda_threshold(4, 1) == 2
    assert bounds.lambda_threshold(5, 4) == 2
    assert bounds.lambda_threshold(8, 9) == 2
    # the coefficient there is 0, not negative
    assert bounds.lambda_threshold(4, 2) == 1
    assert bounds.lambda_threshold(6, 1) == 2
    for n, k0 in [(2, 0), (2, 4)]:
        with pytest.raises(MalformedVector, match=r"index %d outside \[1, 3\]" % k0):
            bounds.lambda_threshold(n, k0)


def test_lambda_threshold_marks_sign_change():
    for n in range(2, 9):
        for k0 in range(1, n + 2):
            lam = bounds.lambda_threshold(n, k0)
            a = bounds.coefficients(n, k0)
            m = n // 2
            assert 1 <= lam <= m
            assert a[lam] <= 0
            assert all(a[i] > 0 for i in range(1, lam))


def test_max_betti_bound():
    assert bounds.max_betti_bound(8, 9) == Fraction(2 * (24 - 10), 7 * 4)
    with pytest.raises(NonNegativeS):
        bounds.max_betti_bound(5, 2)  # S = 0


def test_enumerate_table_2():
    for (n, k0), expected in TABLE_2.items():
        res = bounds.enumerate_admissible(n, k0, require_unimodal=True)
        assert res.half_vectors == sorted(expected), (n, k0)
        assert res.complete


def test_enumerate_all_ones_for_top_index():
    # k0 = n + 1 forces every Betti number to 1
    for n in [2, 3, 4, 5, 6, 8]:
        res = bounds.enumerate_admissible(n, n + 1, require_unimodal=True)
        assert res.half_vectors == [tuple([1] * (n // 2))], n


def test_enumerate_unbounded_without_cap():
    with pytest.raises(UnboundedSearch):
        bounds.enumerate_admissible(6, 1)


def test_enumerate_with_explicit_cap():
    res = bounds.enumerate_admissible(6, 1, cap=2)
    assert not res.complete
    assert all(all(1 <= b <= 2 for b in h) for h in res.half_vectors)
    # cap 0 is an empty box
    assert bounds.enumerate_admissible(6, 1, cap=0).half_vectors == []


def test_catalog_h_vectors_are_admissible():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        k0 = reflexive.index_k0(P)
        val = bounds.c_indexed_from_h(k0, P.dim, P.h_vector_comb())
        assert val >= 0 and val % k0 == 0


@pytest.mark.parametrize("n, k0, unimodal", [(n, k0, u) for n in range(2, 7)
                                              for k0 in range(1, n + 2) for u in (False, True)])
def test_half_vectors_are_the_admissible_vectors_of_their_box(n, k0, unimodal):
    # Brute force over the box of the result's own caps: the half vectors
    # are exactly those whose symmetric completion h has C(k0, n, h) >= 0
    # and divisible by k0, and is unimodal where that filter applies.
    try:
        res = bounds.enumerate_admissible(n, k0, require_unimodal=unimodal)
    except UnboundedSearch:
        res = bounds.enumerate_admissible(n, k0, require_unimodal=unimodal, cap=4)
    want = []
    for half in product(*(range(1, c + 1) for c in res.caps)):
        h = (1,) + half + tuple(reversed(half))[n % 2 == 0:] + (1,)
        c = bounds.c_indexed_from_h(k0, n, h)
        if "unimodal" in res.constraints and list((1,) + half) != sorted((1,) + half):
            continue
        if c >= 0 and c % k0 == 0:
            want.append(half)
    assert res.half_vectors == want


@pytest.mark.parametrize("n, k0", [(4, 0), (4, 9), (4, -1), (1, 1), (-3, 1)])
def test_enumerate_rejects_index_out_of_range(n, k0):
    with pytest.raises(MalformedVector):
        bounds.enumerate_admissible(n, k0, cap=3)


@pytest.mark.parametrize("n, k0, unimodal, cap, size", [
    (10, 11, False, 60, 60**5),
    (20, 18, True, None, 4935168000),
])
def test_enumerate_refuses_a_search_over_the_limit(n, k0, unimodal, cap, size):
    # both searches would run for hours; they are refused before they start
    with pytest.raises(UnboundedSearch, match=f"{size} candidates.*{bounds.SEARCH_LIMIT}"):
        bounds.enumerate_admissible(n, k0, require_unimodal=unimodal, cap=cap)


def test_enumerate_limit_is_inclusive(monkeypatch):
    # cap 2 in dimension 6 is a box of 2^3 = 8 candidates
    monkeypatch.setattr(bounds, "SEARCH_LIMIT", 8)
    assert bounds.enumerate_admissible(6, 1, cap=2).half_vectors
    monkeypatch.setattr(bounds, "SEARCH_LIMIT", 7)
    with pytest.raises(UnboundedSearch):
        bounds.enumerate_admissible(6, 1, cap=2)
