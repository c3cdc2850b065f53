"""Poincare polynomials and the closed product-formula checks."""

import pytest

from quotcells import series, suites
from quotcells.pullback import (invariant_letter_classes, quot_pullback,
                                span_rank)
from quotcells.ring import RingContext
from quotcells.series import (filt_poincare, filt_presentation_check,
                              infinite_limits_check, infinite_quot_series,
                              poly_add, poly_coeff, poly_mul, poly_trim,
                              quot_poincare, quot_series_check,
                              quot_series_product,
                              symmetric_product_poincare, tensor_model_series)
from quotcells.weights import decreasing_vectors, stabilizer

from conftest import (permutations, reference_quot_series_product,
                      weights_to_decomposition)


def decomposition_dimension_check(ctx, r, max_degree):
    """Strata Poincare sum over decreasing weights with entries < r against
    the degreewise rank of the spanning pullback classes."""
    n = ctx.factors
    g = ctx.genus
    poly = []
    for v in decreasing_vectors(n, r, max_co=n * (r - 1)):
        rows = weights_to_decomposition((v,), r)
        term = [0] * (2 * sum(v)) + [1]
        for row in rows:
            term = poly_mul(term, symmetric_product_poincare(g, row[0]))
        poly = poly_add(poly, term)
    classes = []
    for v in decreasing_vectors(n, r, max_co=n * (r - 1)):
        if 2 * sum(v) > max_degree:
            continue
        for d in range(0, max_degree - 2 * sum(v) + 1):
            for a in invariant_letter_classes(ctx, d, stabilizer(v)):
                classes.append(quot_pullback(ctx, v, a))
    per_degree = []
    ok = True
    for d in range(max_degree + 1):
        expected = poly_coeff(poly, d)
        rank = span_rank(classes, d)
        per_degree.append({"degree": d, "strata": expected, "rank": rank,
                           "pass": expected == rank})
        ok = ok and expected == rank
    return {"pass": ok, "per_degree": per_degree}


class TestSymmetricProduct:
    def test_genus_zero_is_projective_space(self):
        for m in range(5):
            assert symmetric_product_poincare(0, m) == [1, 0] * m + [1]

    def test_curve_itself(self):
        assert symmetric_product_poincare(1, 1) == [1, 2, 1]
        assert symmetric_product_poincare(2, 1) == [1, 4, 1]

    def test_empty_product(self):
        assert symmetric_product_poincare(3, 0) == [1]

    @pytest.mark.parametrize("g,m", [(-1, 2), (1, -1)])
    def test_negative_input_rejected(self, g, m):
        with pytest.raises(ValueError, match="g and m must be non-negative"):
            symmetric_product_poincare(g, m)

    @pytest.mark.parametrize("g,m", [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                                     (2, 2), (2, 4)])
    def test_against_invariant_projector(self, g, m):
        # independent route: dimensions of the symmetric invariants of
        # H*(C)^(x m), degree by degree, via the averaging projector
        from fractions import Fraction
        from math import factorial
        from quotcells.ring import (RingContext, RingElement,
                                    letter_monomials, permute_factors)
        ctx = RingContext(genus=g, factors=m)
        dims = []
        for d in range(2 * m + 1):
            total = 0
            for sigma in permutations(m):
                for letters in letter_monomials(ctx, d):
                    mono = (letters, (0,) * m, ())
                    image = permute_factors(sigma, RingElement(ctx, {mono: Fraction(1)}))
                    total += image.coeffs.get(mono, 0)
            dims.append(int(Fraction(total, factorial(m))))
        assert poly_trim(dims) == symmetric_product_poincare(g, m)


class TestQuot:
    def test_rank_one_is_symmetric_product(self):
        for g in (0, 1, 2):
            for l in range(4):
                assert quot_poincare(g, 1, l) == symmetric_product_poincare(g, l)

    def test_two_strata_example(self):
        assert quot_poincare(0, 2, 1) == [1, 0, 2, 0, 1]

    def test_length_zero(self):
        assert quot_poincare(2, 3, 0) == [1]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            quot_poincare(0, 1, -1)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="need r >= 1"):
            quot_poincare(1, 0, 2, max_t=4)

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_product_formula(self, g, r):
        residuals = quot_series_check(g, r, 4, 10)
        assert all(not p for p in residuals), (g, r, residuals)

    def test_product_built_in_place_matches_convolutions(self):
        for g in range(5):
            for r in range(6):
                for max_s in range(7):
                    for max_t in range(13):
                        args = (g, r, max_s, max_t)
                        assert quot_series_product(*args) \
                            == reference_quot_series_product(*args), args
        assert quot_series_product(3, 11, 20, 20) \
            == reference_quot_series_product(3, 11, 20, 20)

    def test_product_rejects_negative_genus(self):
        with pytest.raises(ValueError, match="g must be non-negative"):
            quot_series_product(-1, 2, 3, 4)


class TestFilt:
    def test_small_case(self):
        assert filt_poincare(0, 2, 1) == [1, 0, 2, 0, 1]

    def test_rank_one(self):
        assert filt_poincare(1, 1, 2) == poly_trim(
            [1, 4, 6, 4, 1])  # (1+2t+t^2)^2

    def test_zero_factors(self):
        assert filt_poincare(2, 3, 0) == [1]

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError):
            filt_poincare(0, 2, -1)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="need r >= 1"):
            filt_poincare(1, 0, 2)

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_presentation(self, g, r, n):
        assert not filt_presentation_check(g, r, n)


class TestStrataDimensions:
    def test_single_factor(self):
        # strata polynomial vs ranks of the classes w^l * a
        ctx = RingContext(genus=1, factors=1)
        report = decomposition_dimension_check(ctx, 3, 6)
        assert report["pass"], report

    def test_degree_zero(self):
        ctx = RingContext(genus=0, factors=2)
        report = decomposition_dimension_check(ctx, 2, 0)
        assert report["per_degree"][0]["strata"] == 1
        assert report["per_degree"][0]["rank"] == 1


class TestInfiniteLimits:
    def test_constant_term(self):
        assert infinite_quot_series(1, 0) == [1]

    def test_first_betti_number(self):
        for g in (0, 1, 2):
            assert infinite_quot_series(g, 1)[1] == 2 * g

    def test_genus_zero_values(self):
        # prod 1/((1-t^{2h})(1-t^{2h+2})) for h >= 0 starts
        # 1 + t^2 + 3 t^4 + ...
        series = infinite_quot_series(0, 6)
        assert series[0] == 1 and series[2] == 2

    def test_tensor_model_agrees(self):
        for g in (0, 1, 2, 3):
            for max_t in range(21):
                assert tensor_model_series(g, max_t) \
                    == infinite_quot_series(g, max_t), (g, max_t)

    @pytest.mark.parametrize("g", [0, 1])
    def test_stabilization(self, g):
        report = infinite_limits_check(g, 8)
        assert report["pass"], report

    def test_a_tensor_model_mismatch_names_its_first_power(self, monkeypatch):
        monkeypatch.setattr(series, "tensor_model_series",
                            lambda g, max_t: [0] * (max_t + 1))
        report = infinite_limits_check(0, 4)
        assert not report["pass"] and not report["matches_limit"]
        assert report["stable"]
        assert report["failures"] == [{"power": 0, "tensor": 0, "limit": 1}]
        [case] = suites.check_infinite_limits(0, 4)
        assert not case["pass"]
        assert "'power': 0" in case["got"]

    def test_diagonal_values_stabilize_explicitly(self):
        g = 1
        limit = infinite_quot_series(g, 4)
        for k in range(5):
            for r in range(k + 1, k + 4):
                assert poly_coeff(quot_poincare(g, r, r), k) == limit[k]
