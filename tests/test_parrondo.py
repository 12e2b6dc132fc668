"""Tests for the coin-game chains, their quantizations, and the effect check."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergames.parrondo import (
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    Multiplexer3,
    capital_chain,
    capital_game_stationary,
    capital_p_gain,
    capital_transition_matrix,
    classify_gain,
    fna_p_win,
    hd_p_gain,
    hd_params_reversed,
    hd_stationary,
    hd_transition_matrix,
    mux_from_coins,
    parrondo_effect_check,
    proper_initial_state,
    quantized_p_gain,
    superpose_mux,
)
from hypergames.qstate import ETA3, SU2Gate

RNG_SEED = 20260814

COINS_B = (0.9, 0.25, 0.25, 0.7)


def random_params(rng, low=0.02, high=0.98):
    return HDGameParams(*rng.uniform(low, high, size=4))


def stationary_by_nullspace(t):
    """Independent stationary solve: eigenvector route, no closed form."""
    n = t.shape[0]
    a = np.vstack([t - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


class TestHistoryChain:
    def test_transition_matrix_shape_and_frozen_entries(self):
        t = hd_transition_matrix(COINS_B)
        expected = np.array(
            [
                [0.9, 0.0, 0.25, 0.0],
                [0.1, 0.0, 0.75, 0.0],
                [0.0, 0.25, 0.0, 0.7],
                [0.0, 0.75, 0.0, 0.3],
            ]
        )
        np.testing.assert_allclose(t, expected, atol=0)

    def test_columns_stochastic(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            t = hd_transition_matrix(random_params(rng, 0.0, 1.0))
            np.testing.assert_allclose(t.sum(axis=0), np.ones(4), atol=1e-15)
            assert np.min(t) >= 0.0

    def test_stationary_frozen_fractions(self):
        pi = hd_stationary(COINS_B)
        np.testing.assert_allclose(pi, np.array([35.0, 14.0, 14.0, 15.0]) / 78.0, atol=1e-15)

    def test_stationary_is_fixed_point(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            p = random_params(rng)
            pi = hd_stationary(p)
            t = hd_transition_matrix(p)
            assert np.max(np.abs(t @ pi - pi)) < 1e-12
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_stationary_matches_nullspace_solve(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(100):
            p = random_params(rng)
            np.testing.assert_allclose(
                hd_stationary(p),
                stationary_by_nullspace(hd_transition_matrix(p)),
                atol=1e-10,
            )

    def test_p_gain_frozen(self):
        assert abs(hd_p_gain(COINS_B) - 49.0 / 78.0) < 1e-15

    def test_p_gain_equals_stationary_coin_average(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(200):
            p = random_params(rng)
            expected = float(hd_stationary(p) @ np.array(p))
            assert abs(hd_p_gain(p) - expected) < 1e-12

    @given(
        st.tuples(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
        )
    )
    @example((1.0, 0.5, 1e-8, 0.5))
    @example((0.0, 1.0, 0.0, 1e-5))
    @settings(max_examples=200, deadline=None)
    def test_p_gain_two_forms_agree(self, p):
        p1, p2, p3, p4 = p
        y = p4 * (p3 + 1.0 - p1)
        assume(y > 1e-9)
        ratio_form = hd_p_gain(p)
        average_form = float(hd_stationary(p) @ np.array(p))
        assert abs(ratio_form - average_form) < 1e-12

    def test_p_gain_undefined_when_y_vanishes(self):
        with pytest.raises(ValueError):
            hd_p_gain((1.0, 0.5, 0.0, 0.5))
        with pytest.raises(ValueError):
            hd_p_gain((0.5, 0.5, 0.5, 0.0))

    def test_stationary_undefined_when_norm_vanishes(self):
        with pytest.raises(ValueError):
            hd_stationary((1.0, 0.5, 0.0, 0.5))
        with pytest.raises(ValueError):
            hd_stationary((0.5, 0.5, 0.5, 0.0))

    @given(st.tuples(*[st.sampled_from((0.0, 0.25, 0.5, 1.0))] * 4))
    @settings(max_examples=200, deadline=None)
    def test_stationary_and_gain_reject_the_same_coins(self, p):
        def defined(fn):
            try:
                fn(p)
            except ValueError:
                return False
            return True

        assert defined(hd_stationary) == defined(hd_p_gain)
        assert defined(hd_p_gain) == (p[3] * (p[2] + 1.0 - p[0]) > 0.0)

    def test_params_reversed(self):
        rev = hd_params_reversed(COINS_B)
        assert rev == HDGameParams(0.7, 0.25, 0.25, 0.9)
        assert hd_params_reversed(rev) == HDGameParams(*COINS_B)

    def test_params_out_of_range(self):
        with pytest.raises(ValueError):
            hd_stationary((0.5, 0.5, 0.5, 1.5))
        with pytest.raises(ValueError):
            hd_transition_matrix((-0.1, 0.5, 0.5, 0.5))


class TestCapitalChain:
    def test_transition_matrix_frozen(self):
        t = capital_transition_matrix(0.1, 0.75)
        expected = np.array(
            [
                [0.0, 0.25, 0.75],
                [0.1, 0.0, 0.25],
                [0.9, 0.75, 0.0],
            ]
        )
        np.testing.assert_allclose(t, expected, atol=0)

    def test_stationary_frozen_game_b(self):
        pi = capital_game_stationary(0.1, 0.75)
        np.testing.assert_allclose(pi, np.array([5.0, 2.0, 6.0]) / 13.0, atol=1e-12)

    def test_stationary_frozen_mixture(self):
        pi = capital_game_stationary(0.3, 0.625)
        np.testing.assert_allclose(pi, np.array([245.0, 180.0, 284.0]) / 709.0, atol=1e-12)

    def test_stationary_uniform_chain(self):
        np.testing.assert_allclose(
            capital_game_stationary(0.5, 0.5), np.ones(3) / 3.0, atol=1e-12
        )

    def test_stationary_is_fixed_point_and_matches_power_iteration(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(100):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            t = capital_transition_matrix(p1, p2)
            pi = capital_game_stationary(p1, p2)
            assert np.max(np.abs(t @ pi - pi)) < 1e-12
            powered = np.linalg.matrix_power(t, 400)[:, 0]
            np.testing.assert_allclose(pi, powered, atol=1e-9)
            np.testing.assert_allclose(pi, stationary_by_nullspace(t), atol=1e-12)

    @pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_stationary_at_corner_coins(self, p1, p2):
        # Every corner chain is periodic, so powers of T do not converge;
        # the stationary state is still unique and is the null-space solve.
        t = capital_transition_matrix(p1, p2)
        pi = capital_game_stationary(p1, p2)
        assert np.max(np.abs(t @ pi - pi)) < 1e-12
        assert np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(pi, stationary_by_nullspace(t), atol=1e-12)

    def test_p_gain_game_b_is_fair(self):
        assert abs(capital_p_gain(0.1, 0.75) - 0.5) < 1e-12
        assert classify_gain(capital_p_gain(0.1, 0.75)) == "fair"
        assert capital_p_gain(0.1, 0.75) == 0.5

    def test_p_gain_mixture_is_winning(self):
        gain = capital_p_gain(0.3, 0.625)
        assert abs(gain - 727.0 / 1418.0) < 1e-12
        assert classify_gain(gain) == "winning"

    def test_out_of_range_coin(self):
        with pytest.raises(ValueError):
            capital_transition_matrix(1.2, 0.5)

    @pytest.mark.parametrize(
        "p1, p2", [(1.2, 0.5), (0.5, -0.1), (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5)]
    )
    @pytest.mark.parametrize(
        "fn", [capital_transition_matrix, capital_game_stationary, capital_p_gain, capital_chain]
    )
    def test_bad_coin_raises_one_message(self, fn, p1, p2):
        with pytest.raises(ValueError, match=r"^coin probabilities must lie in \[0, 1\]$"):
            fn(p1, p2)


class TestClassifyGain:
    def test_labels(self):
        assert classify_gain(0.6) == "winning"
        assert classify_gain(0.4) == "losing"
        assert classify_gain(0.5) == "fair"
        assert classify_gain(0.5 + 1e-14) == "fair"
        assert classify_gain(0.5 + 2e-12) == "winning"
        assert classify_gain(0.5 - 2e-12) == "losing"

    def test_nan_gain_raises(self):
        # Both comparisons are false for NaN, which would read as "fair".
        with pytest.raises(ValueError, match="must not be NaN"):
            classify_gain(np.nan)


class TestCoinEmbeddings:
    def test_type1_block_frozen(self):
        m = mux_from_coins((0.36, 0.36, 0.36, 0.36), CoinEmbedding(TYPE1))
        block = m.array[0]
        expected = np.array(
            [
                [0.6, -0.8 * np.conj(ETA3)],
                [0.8 * ETA3, 0.6],
            ]
        )
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_type2_block_frozen(self):
        m = mux_from_coins((0.36, 0.36, 0.36, 0.36), CoinEmbedding(TYPE2))
        block = m.array[0]
        expected = np.array(
            [
                [0.6j, 0.8j * np.conj(ETA3)],
                [0.8j * ETA3, -0.6j],
            ]
        )
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_type2_is_quarter_turn_of_type1_on_diagonal(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        p = random_params(rng)
        m1 = mux_from_coins(p, CoinEmbedding(TYPE1))
        m2 = mux_from_coins(p, CoinEmbedding(TYPE2))
        assert np.max(np.abs(m2.array[:, 0, 0] - 1j * m1.array[:, 0, 0])) < 1e-15

    def test_diagonal_magnitude_keeps_coin_probability(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for kind in (TYPE1, TYPE2):
            p = random_params(rng)
            m = mux_from_coins(p, CoinEmbedding(kind))
            for coin, block in zip(p, m.array):
                assert abs(abs(block[0, 0]) ** 2 - coin) < 1e-12

    def test_eta_must_be_sixth_root(self):
        with pytest.raises(ValueError):
            mux_from_coins(COINS_B, CoinEmbedding(TYPE1, eta=np.exp(0.3j)))
        # 1 and -1 are sixth roots and are accepted
        mux_from_coins(COINS_B, CoinEmbedding(TYPE1, eta=1.0))
        mux_from_coins(COINS_B, CoinEmbedding(TYPE2, eta=-1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mux_from_coins(COINS_B, CoinEmbedding("type3"))


class TestMultiplexer:
    def test_matrix_is_block_diagonal(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        m = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        full = m.matrix
        for j, block in enumerate(m.array):
            np.testing.assert_allclose(
                full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2], block, atol=0
            )
        off = full.copy()
        for j in range(4):
            off[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.0
        assert np.max(np.abs(off)) == 0.0

    def test_matrix_unitary(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for kind in (TYPE1, TYPE2):
            for _ in range(50):
                m = mux_from_coins(random_params(rng, 0.0, 1.0), CoinEmbedding(kind))
                u = m.matrix
                assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_block_count_and_type_enforced(self):
        g = SU2Gate(1.0, 0.0)
        with pytest.raises(ValueError):
            Multiplexer3([g, g, g])
        with pytest.raises(ValueError):
            Multiplexer3([g, g, g, np.eye(2)])


class TestProperQuantization:
    def test_initial_state_uniform(self):
        state = proper_initial_state(np.ones(4) / 4.0)
        expected = np.zeros(8)
        expected[0::2] = 0.5
        np.testing.assert_allclose(state, expected, atol=1e-15)

    def test_initial_state_accepts_unnormalized_weights(self):
        np.testing.assert_allclose(
            proper_initial_state([2.0, 2.0, 2.0, 2.0]),
            proper_initial_state([0.25, 0.25, 0.25, 0.25]),
            atol=1e-15,
        )

    def test_initial_state_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            proper_initial_state([0.5, -0.1, 0.3, 0.3])
        with pytest.raises(ValueError):
            proper_initial_state([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            proper_initial_state([0.5, 0.5])

    def test_initial_state_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="history weights must be nonnegative"):
            proper_initial_state([np.nan, 0.25, 0.25, 0.5])

    @pytest.mark.parametrize("weights", [[np.inf, 1, 1, 1], [[1, 1, 1, 1], [1, 1, np.inf, 0]]])
    def test_initial_state_rejects_infinite_weights(self, weights):
        # An infinite weight is nonnegative and not all zero, but its
        # normalized amplitude is inf/inf = NaN.
        with pytest.raises(ValueError, match="history weights must be finite"):
            proper_initial_state(weights)

    def test_output_state_structure_type1(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        p = random_params(rng)
        tau = hd_stationary(p)
        out = mux_from_coins(p, CoinEmbedding(TYPE1)).matrix @ proper_initial_state(tau)
        for j in range(4):
            assert abs(out[2 * j] - np.sqrt(p[j] * tau[j])) < 1e-12
            assert abs(out[2 * j + 1] - ETA3 * np.sqrt((1.0 - p[j]) * tau[j])) < 1e-12

    def test_quantized_gain_reproduces_classical(self):
        rng = np.random.default_rng(RNG_SEED + 9)
        for kind in (TYPE1, TYPE2):
            for _ in range(250):
                p = random_params(rng)
                init = proper_initial_state(hd_stationary(p))
                m = mux_from_coins(p, CoinEmbedding(kind))
                assert abs(quantized_p_gain(m, init, 0) - hd_p_gain(p)) < 1e-12

    def test_quantized_gain_eta_independent(self):
        rng = np.random.default_rng(RNG_SEED + 10)
        p = random_params(rng)
        init = proper_initial_state(hd_stationary(p))
        gains = {
            quantized_p_gain(mux_from_coins(p, CoinEmbedding(TYPE1, eta)), init, 0)
            for eta in (1.0, -1.0, ETA3, np.conj(ETA3))
        }
        assert max(gains) - min(gains) < 1e-12

    def test_win_value_and_state_validation(self):
        m = mux_from_coins(COINS_B, CoinEmbedding(TYPE1))
        good = proper_initial_state(np.ones(4))
        with pytest.raises(ValueError):
            quantized_p_gain(m, good, 2)
        with pytest.raises(ValueError):
            quantized_p_gain(m, good * 2.0, 0)
        with pytest.raises(ValueError):
            quantized_p_gain(m, good[:6], 0)

    def test_win_values_complementary(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        p = random_params(rng)
        m = mux_from_coins(p, CoinEmbedding(TYPE1))
        init = proper_initial_state(hd_stationary(p))
        total = quantized_p_gain(m, init, 0) + quantized_p_gain(m, init, 1)
        assert abs(total - 1.0) < 1e-12


class TestSuperposedQuantization:
    def test_weights_from_r(self):
        rng = np.random.default_rng(RNG_SEED + 12)
        a = mux_from_coins(random_params(rng), CoinEmbedding(TYPE2))
        b = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        s = superpose_mux(0.3, a, b)
        np.testing.assert_allclose(
            s.array, np.sqrt(0.3) * a.array + np.sqrt(0.7) * b.array, atol=1e-15
        )

    def test_r_out_of_range(self):
        rng = np.random.default_rng(RNG_SEED + 13)
        a = mux_from_coins(random_params(rng), CoinEmbedding(TYPE2))
        b = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        for r in (-0.01, 1.01):
            with pytest.raises(ValueError):
                superpose_mux(r, a, b)

    def test_same_embedding_pair_leaves_su2(self):
        # Two type1 multiplexers add in phase: the blocks' unit-pair check
        # rejects the sum.
        rng = np.random.default_rng(RNG_SEED + 14)
        a = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        b = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        with pytest.raises(ValueError):
            superpose_mux(0.5, a, b)

    def test_mixed_embedding_superposition_is_unitary(self):
        rng = np.random.default_rng(RNG_SEED + 15)
        for _ in range(100):
            r = rng.uniform()
            s = superpose_mux(
                r,
                mux_from_coins(random_params(rng, 0.0, 1.0), CoinEmbedding(TYPE2)),
                mux_from_coins(random_params(rng, 0.0, 1.0), CoinEmbedding(TYPE1)),
            )
            u = s.matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_superposed_gain_mixes_coins(self):
        rng = np.random.default_rng(RNG_SEED + 16)
        for _ in range(200):
            r = rng.uniform()
            pa = random_params(rng)
            pb = random_params(rng)
            mixed = HDGameParams(*(r * x + (1.0 - r) * y for x, y in zip(pa, pb)))
            tau = hd_stationary(mixed)
            init = proper_initial_state(tau)
            s = superpose_mux(
                r,
                mux_from_coins(pa, CoinEmbedding(TYPE2)),
                mux_from_coins(pb, CoinEmbedding(TYPE1)),
            )
            expected = float(tau @ np.array(mixed))
            assert abs(quantized_p_gain(s, init, 0) - expected) < 1e-12

    def test_second_quantization_agrees_with_superposition(self):
        rng = np.random.default_rng(RNG_SEED + 17)
        for _ in range(100):
            r = rng.uniform()
            pa = random_params(rng)
            pb = random_params(rng)
            mixed = HDGameParams(*(r * x + (1.0 - r) * y for x, y in zip(pa, pb)))
            init = proper_initial_state(hd_stationary(mixed))
            s = superpose_mux(
                r,
                mux_from_coins(pa, CoinEmbedding(TYPE2)),
                mux_from_coins(pb, CoinEmbedding(TYPE1)),
            )
            m2 = mux_from_coins(mixed, CoinEmbedding(TYPE1))
            g1 = quantized_p_gain(s, init, 0)
            g2 = quantized_p_gain(m2, init, 0)
            assert abs(g1 - g2) < 1e-12
            assert abs(g2 - hd_p_gain(mixed)) < 1e-12

    def test_equal_weight_special_case(self):
        single = 0.37
        delta = mux_from_coins((single,) * 4, CoinEmbedding(TYPE2))
        coins = mux_from_coins(COINS_B, CoinEmbedding(TYPE1))
        s = superpose_mux(0.5, delta, coins)
        np.testing.assert_allclose(
            s.matrix, (delta.matrix + coins.matrix) / np.sqrt(2.0), atol=1e-15
        )

    def test_degenerate_weights(self):
        rng = np.random.default_rng(RNG_SEED + 18)
        a = mux_from_coins(random_params(rng), CoinEmbedding(TYPE2))
        b = mux_from_coins(random_params(rng), CoinEmbedding(TYPE1))
        np.testing.assert_allclose(superpose_mux(1.0, a, b).matrix, a.matrix, atol=1e-15)
        np.testing.assert_allclose(superpose_mux(0.0, a, b).matrix, b.matrix, atol=1e-15)


def random_su2(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return SU2Gate(v[0] + 1j * v[1], v[2] + 1j * v[3])


def random_qubit(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])


EQUAL = np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestProductStateQuantization:
    def test_identity_coins_read_result_qubit(self):
        eye = Multiplexer3([SU2Gate(1.0, 0.0)] * 4)
        assert abs(fna_p_win(eye, EQUAL, EQUAL, np.array([0.0, 1.0])) - 1.0) < 1e-15
        assert abs(fna_p_win(eye, EQUAL, EQUAL, np.array([1.0, 0.0]))) < 1e-15

    def test_flip_coins_swap_result(self):
        flip = Multiplexer3([SU2Gate(0.0, 1.0)] * 4)
        assert abs(fna_p_win(flip, EQUAL, EQUAL, np.array([1.0, 0.0])) - 1.0) < 1e-15

    def test_closed_form_matches_direct_multiplexer(self):
        rng = np.random.default_rng(RNG_SEED + 19)
        for _ in range(1000):
            m = Multiplexer3(random_su2(rng) for _ in range(4))
            q1, q2, q3 = (random_qubit(rng) for _ in range(3))
            state = np.kron(np.kron(q1, q2), q3)
            direct = quantized_p_gain(m, state, 1)
            assert abs(fna_p_win(m, q1, q2, q3) - direct) < 1e-12

    def test_equal_superposition_angle_formula(self):
        rng = np.random.default_rng(RNG_SEED + 20)
        for _ in range(200):
            thetas = rng.uniform(0.0, np.pi, size=4)
            phis = rng.uniform(0.0, 2.0 * np.pi, size=4)
            etas = rng.uniform(0.0, 2.0 * np.pi, size=4)
            m = Multiplexer3(
                SU2Gate(
                    np.exp(1j * phis[j]) * np.cos(thetas[j] / 2.0),
                    np.exp(1j * etas[j]) * np.sin(thetas[j] / 2.0),
                )
                for j in range(4)
            )
            expected = 0.5 - np.sum(np.sin(thetas) * np.cos(etas - phis)) / 8.0
            assert abs(fna_p_win(m, EQUAL, EQUAL, EQUAL) - expected) < 1e-12

    def test_fair_when_phases_align_and_coins_deterministic(self):
        rng = np.random.default_rng(RNG_SEED + 21)
        for _ in range(20):
            thetas = rng.choice([0.0, np.pi], size=4)
            phis = rng.uniform(0.0, 2.0 * np.pi, size=4)
            m = Multiplexer3(
                SU2Gate(
                    np.exp(1j * phis[j]) * np.cos(thetas[j] / 2.0),
                    np.exp(1j * phis[j]) * np.sin(thetas[j] / 2.0),
                )
                for j in range(4)
            )
            assert abs(fna_p_win(m, EQUAL, EQUAL, EQUAL) - 0.5) < 1e-12

    def test_total_loss_at_quarter_turn(self):
        half = np.sqrt(0.5)
        m = Multiplexer3([SU2Gate(half, half)] * 4)
        assert abs(fna_p_win(m, EQUAL, EQUAL, EQUAL)) < 1e-15

    def test_input_validation(self):
        eye = Multiplexer3([SU2Gate(1.0, 0.0)] * 4)
        with pytest.raises(ValueError):
            fna_p_win(eye, EQUAL, EQUAL, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fna_p_win(eye, EQUAL, EQUAL, np.array([1.0, 0.0, 0.0]))

    def test_entangled_start_breaks_the_classical_link(self):
        # Starting from (|000> + |111>)/sqrt(2) instead of a product state
        # leaves the win probability blind to the middle-history coins and
        # off the classical stationary gain.
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
        m = mux_from_coins(COINS_B, CoinEmbedding(TYPE1))
        p_win = quantized_p_gain(m, ghz, 1)
        assert abs(p_win - (1.0 - COINS_B[0] + COINS_B[3]) / 2.0) < 1e-12
        altered = (COINS_B[0], 0.6, 0.9, COINS_B[3])
        p_win_altered = quantized_p_gain(
            mux_from_coins(altered, CoinEmbedding(TYPE1)), ghz, 1
        )
        assert abs(p_win - p_win_altered) < 1e-15
        classical = hd_p_gain(hd_params_reversed(COINS_B))
        assert abs(p_win - classical) > 0.01
        assert abs(p_win - (1.0 - classical)) > 0.01


class TestEffectCheck:
    def test_effect_present_at_small_epsilon(self):
        report = parrondo_effect_check(1.0 / 200.0)
        assert report["inequality_a_game_a_losing"]
        assert report["inequality_b_game_b_losing"]
        assert report["inequality_c_mixture_winning"]
        assert report["effect"]
        assert report["p_gain_a"] < 0.5
        assert report["p_gain_b"] < 0.5
        assert report["p_gain_mixture"] > 0.5

    def test_mixture_inequality_fails_at_larger_epsilon(self):
        report = parrondo_effect_check(1.0 / 100.0)
        assert report["inequality_a_game_a_losing"]
        assert report["inequality_b_game_b_losing"]
        assert not report["inequality_c_mixture_winning"]
        assert not report["effect"]
        assert report["p_gain_mixture"] < 0.5

    def test_mixture_threshold_near_one_over_168(self):
        below = parrondo_effect_check(1.0 / 168.0 - 1e-6)
        above = parrondo_effect_check(1.0 / 168.0 + 1e-6)
        assert below["inequality_c_mixture_winning"]
        assert not above["inequality_c_mixture_winning"]

    def test_boundary_epsilon_is_fair_not_effect(self):
        report = parrondo_effect_check(0.0)
        assert not report["inequality_a_game_a_losing"]
        assert not report["effect"]
        assert report["p_gain_a"] == 0.5
        assert abs(report["p_gain_b"] - 0.5) < 1e-12
        assert report["p_gain_mixture"] > 0.5

    @pytest.mark.parametrize(
        "epsilon, flags",
        [
            # game B is exactly fair at 0: an equality, not a loss
            (0.0, (False, False, True)),
            # the least positive float already makes both games lose
            (5e-324, (True, True, True)),
            # the float 1/168 lies just below 1/168, and the next float above it
            (1.0 / 168.0, (True, True, True)),
            (math.nextafter(1.0 / 168.0, 1.0), (True, True, False)),
        ],
    )
    def test_inequalities_exact_at_both_ends_of_the_interval(self, epsilon, flags):
        report = parrondo_effect_check(epsilon)
        names = (
            "inequality_a_game_a_losing",
            "inequality_b_game_b_losing",
            "inequality_c_mixture_winning",
        )
        assert tuple(report[name] for name in names) == flags
        assert report["effect"] == all(flags)
        assert report["epsilon"] == epsilon

    def test_inequalities_match_a_rational_reference(self):
        # The paper's inequalities on the coins, in Fraction, as the reference.
        rng = np.random.default_rng(RNG_SEED + 22)
        edge = 1.0 / 168.0
        near = [edge + k * math.ulp(edge) for k in range(-3, 4)]
        for epsilon in [0.0, 5e-324, 0.25, *near, *rng.uniform(0.0, 0.25, 200)]:
            e = Fraction(float(epsilon))
            p = Fraction(1, 2) - e
            a = [Fraction(9, 10) - e, Fraction(1, 4) - e, Fraction(1, 4) - e, Fraction(7, 10) - e]
            q = [(x + p) / 2 for x in a]
            flags = (
                1 - p > p,
                (1 - a[2]) * (1 - a[3]) > a[0] * a[1],
                (1 - q[2]) * (1 - q[3]) < q[0] * q[1],
            )
            report = parrondo_effect_check(epsilon)
            assert (
                report["inequality_a_game_a_losing"],
                report["inequality_b_game_b_losing"],
                report["inequality_c_mixture_winning"],
            ) == flags
            assert report["effect"] == all(flags)

    def test_gain_values_agree_with_chain_route(self):
        report = parrondo_effect_check(1.0 / 200.0)
        alpha = report["history_coins_loss_first"]
        assert abs(report["p_gain_b"] - hd_p_gain(hd_params_reversed(alpha))) < 1e-15
        mixture = report["mixture_coins_loss_first"]
        np.testing.assert_allclose(
            mixture, [(a + report["single_coin_gain"]) / 2.0 for a in alpha], atol=1e-15
        )

    def test_epsilon_range(self):
        for bad in (-0.01, 0.26):
            with pytest.raises(ValueError):
                parrondo_effect_check(bad)
