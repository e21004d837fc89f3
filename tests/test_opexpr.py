import cmath

import numpy as np
import pytest
import reorder_reference
from dense_reference import expr_matrix, reorder_deviation
from hypothesis import given, settings, strategies as st

from squeezewitness.opexpr import (
    MAX_DEGREE,
    ExpressionError,
    OperatorExpr,
    adjoint_product,
    difference_observable,
    formal_normal_order,
    reorder,
)


A = OperatorExpr.word(("a",))
AD = OperatorExpr.word(("ad",))
B = OperatorExpr.word(("b",))


def word_strategy(max_len=4, min_len=0):
    return st.lists(st.sampled_from(["a", "ad", "b", "bd"]), min_size=min_len,
                     max_size=max_len).map(tuple)


def expr_strategy(max_len=4, max_terms=4, min_terms=0):
    coeffs = st.complex_numbers(max_magnitude=3.0, allow_infinity=False,
                                allow_nan=False)
    return st.dictionaries(word_strategy(max_len), coeffs, min_size=min_terms,
                           max_size=max_terms).map(OperatorExpr)


class TestOperatorExpr:
    def test_like_terms_merge(self):
        e = OperatorExpr({("a",): 1.0}) + OperatorExpr({("a",): 2.0})
        assert e.terms == ((("a",), 3.0),)

    def test_zero_terms_dropped(self):
        e = OperatorExpr({("a",): 1.0}) - OperatorExpr({("a",): 1.0})
        assert e.is_zero()
        assert (0 * A).is_zero()

    def test_terms_sorted_lexicographically(self):
        e = OperatorExpr({("bd",): 1.0, ("a", "b"): 1.0, (): 2.0})
        assert [w for w, _ in e.terms] == [(), ("a", "b"), ("bd",)]

    def test_degree_cap(self):
        with pytest.raises(ExpressionError, match="degree"):
            OperatorExpr({("a",) * 9: 1.0})
        nearly = OperatorExpr({("a",) * 5: 1.0})
        with pytest.raises(ExpressionError, match="degree"):
            nearly * nearly

    def test_unknown_letter_rejected(self):
        with pytest.raises(ExpressionError, match="unknown"):
            OperatorExpr({("c",): 1.0})

    def test_dagger_reverses_and_conjugates(self):
        e = OperatorExpr({("a", "bd"): 2.0 + 1.0j})
        assert e.dagger().terms == ((("b", "ad"), 2.0 - 1.0j),)

    def test_scalar_arithmetic(self):
        e = 2.0 * OperatorExpr.word(("a",)) + 1j
        assert e.terms == (((), 1j), (("a",), 2.0 + 0j))
        assert (e - e).is_zero()

    def test_repr_lists_the_sorted_terms(self):
        e = OperatorExpr({("bd",): 2.0, ("ad", "a"): 1.0j})
        assert repr(e) == "OperatorExpr({('ad', 'a'): 1j, ('bd',): (2+0j)})"
        assert eval(repr(e), {"OperatorExpr": OperatorExpr}) == e

    def test_difference_observable_is_self_adjoint(self):
        # The adjoint reverses cross-mode letter order, so equality holds
        # at the operator level, i.e. after canonical reordering.
        ell = difference_observable(0.7)
        assert reorder(ell.dagger()) == reorder(ell)


class TestReorder:
    def test_single_commutator(self):
        assert reorder(A * AD) == AD * A + 1

    def test_commutator(self):
        e = A * AD - AD * A
        assert len(e.terms) == 2
        assert reorder(e) == OperatorExpr.constant(1.0)

    def test_cross_mode_word(self):
        # a ad bd b = ad a bd b + bd b after one commutator.
        got = reorder(OperatorExpr({("a", "ad", "bd", "b"): 1.0}))
        assert got == OperatorExpr({("ad", "a", "bd", "b"): 1.0, ("bd", "b"): 1.0})

    def test_distant_modes_commute(self):
        assert reorder(OperatorExpr({("b", "ad"): 1.0})) == \
            OperatorExpr({("ad", "b"): 1.0})

    def test_difference_observable_squared(self):
        theta = 0.6
        phase = cmath.exp(2j * theta)
        ell2 = difference_observable(theta) * difference_observable(theta)
        expected = OperatorExpr({
            ("ad", "ad", "b", "b"): phase,
            ("a", "a", "bd", "bd"): phase.conjugate(),
            ("ad", "a", "bd", "b"): 2.0,
            ("ad", "a"): 1.0,
            ("bd", "b"): 1.0,
        })
        got = reorder(ell2)
        assert set(w for w, _ in got.terms) == set(w for w, _ in expected.terms)
        for (w1, c1), (w2, c2) in zip(got.terms, expected.terms):
            assert w1 == w2
            assert c1 == pytest.approx(c2, abs=1e-15)

    @given(expr_strategy())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, expr):
        once = reorder(expr)
        assert reorder(once) == once

    @given(expr_strategy())
    @settings(max_examples=60, deadline=None)
    def test_words_reach_canonical_shape(self, expr):
        priority = {"ad": 0, "a": 1, "bd": 2, "b": 3}
        for word, _ in reorder(expr).terms:
            ranks = [priority[letter] for letter in word]
            assert ranks == sorted(ranks)

    @given(st.lists(word_strategy(MAX_DEGREE), max_size=3),
           word_strategy(MAX_DEGREE, min_len=5),
           st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                       allow_infinity=False), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_operator_identity_up_to_the_degree_cap(self, words, long_word, coeffs):
        # Degrees 5-8, beyond the rewriter suite's 4: a degree-4 f in
        # witness_general gives f^dag f of degree 8.  On the block where both
        # modes stay the degree below the cutoff, truncation is exact.
        expr = OperatorExpr(dict(zip([long_word] + words, coeffs)))
        assert 5 <= expr.degree <= MAX_DEGREE
        scale = np.abs(expr_matrix(expr, 14)).max()
        assert reorder_deviation(expr, cutoff=14, max_degree=expr.degree) <= 1e-12 * scale

    @given(expr_strategy(max_len=MAX_DEGREE, min_terms=1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_whole_word_sort(self, expr):
        # The per-mode rule against the recursive adjacent-swap sort it
        # replaced: the same words and the same coefficients, bit for bit.
        assert reorder(expr).terms == reorder_reference.reorder(expr).terms
        for modes in ({"A"}, {"B"}, {"A", "B"}):
            assert formal_normal_order(expr, modes).terms == \
                reorder_reference.formal_normal_order(expr, modes).terms


class TestFormalNormalOrder:
    def test_drops_commutator_on_selected_mode(self):
        assert formal_normal_order(A * AD, {"A"}) == AD * A

    def test_interference_observable_is_fixed_point(self):
        for theta in (0.0, 0.4, 2.0):
            ell = difference_observable(theta)
            assert formal_normal_order(ell, {"A"}) == ell
            assert formal_normal_order(ell, {"A", "B"}) == ell

    def test_partial_vs_full_on_squared_observable(self):
        ell2 = difference_observable(0.9) * difference_observable(0.9)
        number_a = OperatorExpr.word(("ad", "a"))
        number_b = OperatorExpr.word(("bd", "b"))
        assert reorder(ell2) - formal_normal_order(ell2, {"A"}) == number_b
        assert reorder(ell2) - formal_normal_order(ell2, {"A", "B"}) == \
            number_a + number_b

    def test_selected_mode_correction_dropped_in_mixed_word(self):
        # :A: a ad bd b :A: = (a ad - 1) bd b.
        word = OperatorExpr({("a", "ad", "bd", "b"): 1.0})
        got = formal_normal_order(word, {"A"})
        assert got == OperatorExpr({("ad", "a", "bd", "b"): 1.0})

    def test_modes_validation(self):
        with pytest.raises(ValueError):
            formal_normal_order(A, set())
        with pytest.raises(ValueError):
            formal_normal_order(A, {"C"})

    @given(expr_strategy(), st.sampled_from([("A",), ("B",), ("A", "B")]))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, expr, modes):
        once = formal_normal_order(expr, modes)
        assert formal_normal_order(once, modes) == once

    @given(expr_strategy(max_len=3), expr_strategy(max_len=3),
           st.complex_numbers(max_magnitude=2.0, allow_infinity=False,
                              allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_linear(self, e1, e2, c):
        lhs = formal_normal_order(e1 + c * e2, {"A"})
        rhs = formal_normal_order(e1, {"A"}) + c * formal_normal_order(e2, {"A"})
        assert set(dict(lhs.terms)) == set(dict(rhs.terms))
        rhs_terms = dict(rhs.terms)
        for word, coeff in lhs.terms:
            assert coeff == pytest.approx(rhs_terms[word], abs=1e-12)

    @given(expr_strategy(max_len=3),
           st.complex_numbers(max_magnitude=1.5, allow_infinity=False,
                              allow_nan=False),
           st.complex_numbers(max_magnitude=1.5, allow_infinity=False,
                              allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_coherent_substitution(self, expr, alpha, beta):
        """Full formal ordering then coherent expectation equals the
        classical polynomial with a -> alpha, b -> beta."""
        from coherent_reference import coherent_amplitudes
        from squeezewitness.fock import FockState, expect

        ordered = formal_normal_order(expr, {"A", "B"})
        polynomial = sum(
            coeff
            * np.conj(alpha) ** sum(1 for x in w if x == "ad")
            * alpha ** sum(1 for x in w if x == "a")
            * np.conj(beta) ** sum(1 for x in w if x == "bd")
            * beta ** sum(1 for x in w if x == "b")
            for w, coeff in ordered.terms
        )
        state = FockState.product(
            coherent_amplitudes(alpha, 40), coherent_amplitudes(beta, 40))
        assert expect(ordered, state) == pytest.approx(polynomial, abs=1e-8)


class TestAdjointProduct:
    def test_single_letter(self):
        assert adjoint_product(A) == AD * A

    def test_binomial_expansion(self):
        got = adjoint_product(A + B)
        assert got == OperatorExpr({
            ("ad", "a"): 1.0, ("ad", "b"): 1.0, ("bd", "a"): 1.0, ("bd", "b"): 1.0})

    def test_shifted_self_adjoint_observable(self):
        c = 0.75
        ell = difference_observable(1.1)
        got = reorder(adjoint_product(ell - c))
        expected = reorder(ell * ell - 2.0 * c * ell + c * c)
        assert set(dict(got.terms)) == set(dict(expected.terms))
        expected_terms = dict(expected.terms)
        for word, coeff in got.terms:
            assert coeff == pytest.approx(expected_terms[word], abs=1e-14)

    @given(expr_strategy(max_len=2))
    @settings(max_examples=60, deadline=None)
    def test_result_is_formally_self_adjoint(self, expr):
        product = adjoint_product(expr)
        lhs = dict(reorder(product.dagger()).terms)
        rhs = dict(reorder(product).terms)
        assert set(lhs) == set(rhs)
        for word, coeff in lhs.items():
            assert coeff == pytest.approx(rhs[word], abs=1e-12)
