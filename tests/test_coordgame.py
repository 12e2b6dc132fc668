import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames.coordgame import (
    _ROUTE_TABLES,
    INDEX_OF_OUTCOME,
    LABEL_ORDER,
    OUTCOME_OF_INDEX,
    PLAYER_BASIS,
    _embed,
    _theorem1_kernel,
    corollary_distribution,
    embed3,
    landsburg_probs,
    landsburg_probs_batch,
    su2_of_basis,
    theorem1_distribution,
    theorem1_probs_batch,
)
from hypergames.hypercomplex import (
    OCT_TENSOR,
    SUBALGEBRA_UNITS,
    Octonion,
    coordinate_first,
    gather_table,
    oct_mul,
)
from hypergames.qstate import (
    ACTION_LABELS2,
    ACTION_LABELS3,
    ETA2,
    ETA3,
    SQRT3,
    oracle_distribution2,
    oracle_distribution3,
    oracle_probs2_batch,
    oracle_probs3_batch,
    outcome_labels,
)

ALLOWED = {p: (0,) + SUBALGEBRA_UNITS[p] for p in (1, 2, 3)}


def unit_pairs(rng, n):
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def family_triple(A, B, P, Q, E, F):
    return embed3(1, A, B), embed3(2, P, Q), embed3(3, E, F)


class TestOutcomeIndexMap:
    def test_bijection_values(self):
        expected = {
            "NNN": 0,
            "FFF": 1,
            "NFF": 2,
            "FFN": 3,
            "FNN": 4,
            "FNF": 5,
            "NFN": 6,
            "NNF": 7,
        }
        assert INDEX_OF_OUTCOME == expected
        assert set(OUTCOME_OF_INDEX) == set(ACTION_LABELS3)
        for k, label in enumerate(OUTCOME_OF_INDEX):
            assert INDEX_OF_OUTCOME[label] == k


class TestEmbed3:
    def test_identity_family(self):
        fam = embed3(1, 1, 0)
        npt.assert_allclose(fam.o00.c, Octonion.basis(0).c, atol=0)
        npt.assert_allclose(fam.o10.c, -Octonion.basis(0).c, atol=0)
        npt.assert_allclose(fam.o01.c, Octonion.basis(0).c, atol=0)

    def test_pure_flip_component(self):
        fam = embed3(1, 0, 1)
        expected = np.zeros(8)
        expected[2] = SQRT3 / 2.0
        expected[4] = 0.5
        npt.assert_allclose(fam.o00.c, expected, atol=1e-15)

    def test_twisted_flip_lands_on_high_unit(self):
        fam = embed3(3, 0, ETA3)
        npt.assert_allclose(fam.o00.c, Octonion.basis(7).c, atol=1e-15)

    def test_players_use_disjoint_flip_units(self):
        rng = np.random.default_rng(3)
        (a,), (b,) = unit_pairs(rng, 1)
        for player in (1, 2, 3):
            fam = embed3(player, a, b)
            support = set(np.flatnonzero(np.abs(fam.o00.c) > 1e-14))
            assert support <= set(ALLOWED[player])

    def test_unit_norm_and_single_sign_changes(self):
        rng = np.random.default_rng(11)
        a, b = unit_pairs(rng, 50)
        for k in range(50):
            fam = embed3(1, a[k], b[k])
            for member in fam.members():
                assert member.norm() == pytest.approx(1.0, abs=1e-12)
            assert np.sum(fam.o00.c != fam.o10.c) == 1
            assert fam.o10.c[0] == -fam.o00.c[0]
            assert np.sum(fam.o00.c != fam.o01.c) == 1
            assert fam.o01.c[1] == -fam.o00.c[1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            embed3(4, 1, 0)
        with pytest.raises(ValueError):
            embed3(1, 1, 1)


class TestClosedFormDistribution:
    def test_identity_strategies(self):
        dist = theorem1_distribution(*family_triple(1, 0, 1, 0, 1, 0))
        assert dist.prob("NNN") == pytest.approx(1.0, abs=1e-15)

    def test_all_flip_strategies(self):
        fams = family_triple(0, ETA3, 0, ETA3, 0, ETA3)
        assert theorem1_distribution(*fams).prob("FFF") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_oracle_scalar(self):
        rng = np.random.default_rng(17)
        a, b = unit_pairs(rng, 200)
        p, q = unit_pairs(rng, 200)
        e, f = unit_pairs(rng, 200)
        for k in range(200):
            closed = theorem1_distribution(
                *family_triple(a[k], b[k], p[k], q[k], e[k], f[k])
            )
            oracle = oracle_distribution3(a[k], b[k], p[k], q[k], e[k], f[k])
            assert closed.max_deviation(oracle) < 1e-10

    def test_matches_oracle_bulk(self):
        rng = np.random.default_rng(19)
        a, b = unit_pairs(rng, 10_000)
        p, q = unit_pairs(rng, 10_000)
        e, f = unit_pairs(rng, 10_000)
        closed = theorem1_probs_batch(a, b, p, q, e, f)
        oracle = oracle_probs3_batch(a, b, p, q, e, f)
        assert np.max(np.abs(closed - oracle)) < 1e-10
        npt.assert_allclose(closed.sum(axis=1), 1.0, atol=1e-12)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(23)
        a, b = unit_pairs(rng, 5)
        p, q = unit_pairs(rng, 5)
        e, f = unit_pairs(rng, 5)
        bulk = theorem1_probs_batch(a, b, p, q, e, f)
        for k in range(5):
            dist = theorem1_distribution(
                *family_triple(a[k], b[k], p[k], q[k], e[k], f[k])
            )
            npt.assert_allclose(dist.probs, bulk[k], atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=12, max_size=12))
    def test_oracle_equivalence_property(self, raw):
        v = np.asarray(raw).reshape(3, 4)
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms < 1e-3):
            return
        v = v / norms[:, None]
        gates = v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]
        a, p, e = gates[0]
        b, q, f = gates[1]
        closed = theorem1_distribution(*family_triple(a, b, p, q, e, f))
        oracle = oracle_distribution3(a, b, p, q, e, f)
        assert closed.max_deviation(oracle) < 1e-10


class TestScalarEntryPointsAreBatchRows:
    """Each scalar entry point is a batch of one through its batch kernel."""

    def test_scalar_results_equal_batch_rows_exactly(self):
        # 20000 rows: from 16384 complex rows (256 KiB) numpy may compute a
        # product in a temporary operand's buffer, operands swapped, which
        # rounds differently; sampled rows must still match a batch of one.
        n = 20000
        rng = np.random.default_rng(41)
        a, b = unit_pairs(rng, n)
        p, q = unit_pairs(rng, n)
        e, f = unit_pairs(rng, n)
        closed3 = theorem1_probs_batch(a, b, p, q, e, f)
        closed2 = landsburg_probs_batch(a, b, p, q)
        oracle3 = oracle_probs3_batch(a, b, p, q, e, f)
        oracle2 = oracle_probs2_batch(a, b, p, q)
        for k in range(0, n, 157):
            three = (a[k], b[k], p[k], q[k], e[k], f[k])
            fams = family_triple(*three)
            assert np.array_equal(theorem1_distribution(*fams).probs, closed3[k])
            assert np.array_equal(landsburg_probs(*three[:4]).probs, closed2[k])
            assert np.array_equal(oracle_distribution3(*three).probs, oracle3[k])
            assert np.array_equal(oracle_distribution2(*three[:4]).probs, oracle2[k])


def dense_theorem1(s, t, u):
    """The closed form as eight dense products over the whole OCT_TENSOR."""

    def mul(a, b):
        return np.einsum("ijk,...i,...j->...k", OCT_TENSOR, a, b)

    s_plus = s.copy()
    s_plus[..., :2] = 0.0
    s_minus = np.zeros_like(s)
    s_minus[..., 0] = -s[..., 0]
    s_minus[..., 1] = s[..., 1]
    t10 = t.copy()
    t10[..., 0] *= -1.0
    u01 = u.copy()
    u01[..., 1] *= -1.0
    g = mul(mul(s_plus, t10), u01) ** 2 + mul(mul(s_minus, t10), u01) ** 2
    h = mul(mul(s_plus, t), u) ** 2 + mul(mul(s_minus, t), u) ** 2
    from_g = np.isin(LABEL_ORDER, (0, 1, 3, 7))
    return np.where(from_g, g[..., LABEL_ORDER], h[..., LABEL_ORDER])


class TestSparseKernel:
    """The support-restricted kernel against the dense eight-product formula."""

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(59)
        a, b = unit_pairs(rng, 1000)
        p, q = unit_pairs(rng, 1000)
        e, f = unit_pairs(rng, 1000)
        s, t, u = _embed(1, a, b), _embed(2, p, q), _embed(3, e, f)
        npt.assert_allclose(
            _theorem1_kernel(s, t, u), dense_theorem1(s, t, u), rtol=1e-15, atol=1e-15
        )

    def test_broadcast_against_basis_pairs_equals_row_by_row(self):
        # The shape indifference_check uses: (n, 1) pairs of one player
        # against the 16 basis pairs of the other two.
        rng = np.random.default_rng(61)
        a, b = unit_pairs(rng, 200)
        two, three = (
            [su2_of_basis(Octonion.basis(k), player) for k in PLAYER_BASIS[player]]
            for player in (2, 3)
        )
        pairs = [(g2, g3) for g2 in two for g3 in three]
        p = np.array([g2.x for g2, _ in pairs])
        q = np.array([g2.y for g2, _ in pairs])
        e = np.array([g3.x for _, g3 in pairs])
        f = np.array([g3.y for _, g3 in pairs])
        probs = theorem1_probs_batch(a[:, None], b[:, None], p, q, e, f)
        assert probs.shape == (200, 16, 8)
        for k in range(200):
            row = theorem1_probs_batch(a[k], b[k], p, q, e, f)
            assert np.array_equal(row, probs[k])
        oracle = oracle_probs3_batch(a[:, None], b[:, None], p, q, e, f)
        assert np.max(np.abs(probs - oracle)) < 1e-10

    def test_norm_check_is_absolute(self):
        # Within np.allclose's default rtol of 1e-5 but 5e-6 off unit norm.
        drift = np.sqrt(1 + 5e-6)
        with pytest.raises(ValueError, match=r"\|A\|\^2 \+ \|B\|\^2 = 1"):
            theorem1_probs_batch(drift, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            embed3(2, 0, drift)
        theorem1_probs_batch(np.sqrt(1 + 5e-10), 0, 1, 0, 1, 0)


def term_at_a_time_mul(a, b, table):
    """Reference gather product: one gathered (lead + batch) block per term,
    signed, added in table order."""
    trailing = (1,) * (a.ndim - 1)
    out = None
    for i, j, sign in zip(*table):
        term = np.multiply(a[i], b[j])
        term *= sign.reshape(sign.shape + trailing)
        if out is None:
            out = term
        else:
            out += term
    return out


def term_at_a_time_theorem1(s, t, u):
    """The closed-form kernel over term_at_a_time_mul, on the raw tables."""
    s, t, u = coordinate_first(s, t, u)
    routes, outputs = [], ()
    for first, second, read in _ROUTE_TABLES:
        halves = term_at_a_time_mul(term_at_a_time_mul(s, t, first), u, second)
        routes.append(halves[:, 0] ** 2 + halves[:, 1] ** 2)
        outputs += read
    columns = [outputs.index(k) for k in LABEL_ORDER]
    return np.moveaxis(np.concatenate(routes)[columns], 0, -1)


def same_bits(x, y):
    """Equal shapes and bytes: np.array_equal that also tells -0.0 from 0.0."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestRowWiseProductIsTermAtATime:
    """gather_mul writes rows in place; the result keeps every bit of the
    term-at-a-time product it replaced."""

    def test_theorem1_kernel_on_a_large_batch(self):
        rng = np.random.default_rng(67)
        n = 16384
        s, t, u = (_embed(k, *unit_pairs(rng, n)) for k in (1, 2, 3))
        assert same_bits(_theorem1_kernel(s, t, u), term_at_a_time_theorem1(s, t, u))

    @pytest.mark.parametrize("player", [1, 2, 3])
    def test_theorem1_kernel_broadcast_against_basis_pairs(self, player):
        # indifference_check's shape: (1000, 1) pairs of one player against
        # the 16 basis pairs of the other two, including exact zeros.
        rng = np.random.default_rng(71 + player)
        embedded = {player: _embed(player, *(z[:, None] for z in unit_pairs(rng, 1000)))}
        others = [k for k in (1, 2, 3) if k != player]
        hot = {k: np.eye(8)[list(PLAYER_BASIS[k])] for k in others}
        embedded[others[0]] = np.repeat(hot[others[0]], 4, axis=0)
        embedded[others[1]] = np.tile(hot[others[1]], (4, 1))
        s, t, u = (embedded[k] for k in (1, 2, 3))
        probs = _theorem1_kernel(s, t, u)
        assert probs.shape == (1000, 16, 8)
        assert same_bits(probs, term_at_a_time_theorem1(s, t, u))

    def test_theorem1_kernel_on_scalar_families(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            fams = family_triple(*(z[0] for _ in range(3) for z in unit_pairs(rng, 1)))
            s, t, u = (fam.o00.c for fam in fams)
            assert _theorem1_kernel(s, t, u).shape == (8,)
            assert same_bits(_theorem1_kernel(s, t, u), term_at_a_time_theorem1(s, t, u))
            assert same_bits(theorem1_distribution(*fams).probs, _theorem1_kernel(s, t, u))

    def test_oct_mul(self):
        rng = np.random.default_rng(79)
        eye = np.eye(8)
        signed = eye * rng.choice([-1.0, 0.0, 1.0], size=(8, 8))
        cases = [
            (rng.standard_normal((5000, 8)), rng.standard_normal((5000, 8))),
            (rng.standard_normal(8), rng.standard_normal(8)),
            (rng.standard_normal((50, 1, 8)), rng.standard_normal((40, 8))),
            (eye[:, None], signed[None, :]),
        ]
        for a, b in cases:
            ca, cb = coordinate_first(a, b)
            expected = np.moveaxis(term_at_a_time_mul(ca, cb, gather_table()), 0, -1)
            assert same_bits(oct_mul(a, b), expected)


class TestBasisStrategyReduction:
    def test_all_identity(self):
        one = Octonion.basis(0)
        dist = corollary_distribution(one, one, one)
        assert dist.prob("NNN") == 1.0

    def test_triple_flip_case(self):
        dist = corollary_distribution(
            Octonion.basis(4), Octonion.basis(6), Octonion.basis(7)
        )
        assert dist.prob("FFF") == pytest.approx(1.0, abs=1e-15)

    def test_all_64_triples_one_hot_and_consistent(self):
        for ks in ALLOWED[1]:
            for kt in ALLOWED[2]:
                for ku in ALLOWED[3]:
                    s = Octonion.basis(ks)
                    t = Octonion.basis(kt)
                    u = Octonion.basis(ku)
                    dist = corollary_distribution(s, t, u)
                    probs = np.asarray(dist.probs)
                    assert np.max(probs) == pytest.approx(1.0, abs=1e-12)
                    assert np.sum(probs > 1e-12) == 1

                    g1 = su2_of_basis(s, 1)
                    g2 = su2_of_basis(t, 2)
                    g3 = su2_of_basis(u, 3)
                    closed = theorem1_distribution(
                        *family_triple(g1.x, g1.y, g2.x, g2.y, g3.x, g3.y)
                    )
                    oracle = oracle_distribution3(
                        g1.x, g1.y, g2.x, g2.y, g3.x, g3.y
                    )
                    assert dist.max_deviation(closed) < 1e-10
                    assert dist.max_deviation(oracle) < 1e-10

    def test_rejects_foreign_or_malformed_elements(self):
        one = Octonion.basis(0)
        with pytest.raises(ValueError):
            corollary_distribution(one, Octonion.basis(2), one)
        with pytest.raises(ValueError):
            corollary_distribution(-one, one, one)
        with pytest.raises(ValueError):
            corollary_distribution(one + one, one, one)
        with pytest.raises(ValueError):
            corollary_distribution(one, one, Octonion.basis(0) + Octonion.basis(1))


class TestBasisPreimages:
    def test_known_pairs(self):
        g = su2_of_basis(Octonion.basis(0), 1)
        assert (g.x, g.y) == (1, 0)
        g = su2_of_basis(Octonion.basis(1), 2)
        assert (g.x, g.y) == (1j, 0)
        g = su2_of_basis(Octonion.basis(4), 1)
        assert g.x == 0 and g.y == pytest.approx(ETA3, abs=1e-15)
        g = su2_of_basis(Octonion.basis(2), 1)
        assert g.x == 0 and g.y == pytest.approx(SQRT3 / 2 - 0.5j, abs=1e-15)

    def test_round_trip_through_embedding(self):
        for player in (1, 2, 3):
            for k in ALLOWED[player]:
                gate = su2_of_basis(Octonion.basis(k), player)
                fam = embed3(player, gate.x, gate.y)
                npt.assert_allclose(fam.o00.c, Octonion.basis(k).c, atol=1e-15)

    def test_rejects_foreign_element(self):
        with pytest.raises(ValueError):
            su2_of_basis(Octonion.basis(5), 1)


class TestTwoPlayerQuaternionMap:
    def test_identity(self):
        assert landsburg_probs(1, 0, 1, 0).prob("NN") == 1.0

    def test_double_flip(self):
        assert landsburg_probs(0, ETA2, 0, ETA2).prob("FF") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_flips(self):
        assert landsburg_probs(0, ETA2, 1, 0).prob("FN") == pytest.approx(
            1.0, abs=1e-12
        )
        assert landsburg_probs(1, 0, 0, ETA2).prob("NF") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_oracle_scalar(self):
        rng = np.random.default_rng(29)
        a, b = unit_pairs(rng, 100)
        p, q = unit_pairs(rng, 100)
        for k in range(100):
            closed = landsburg_probs(a[k], b[k], p[k], q[k])
            oracle = oracle_distribution2(a[k], b[k], p[k], q[k])
            assert closed.max_deviation(oracle) < 1e-10

    def test_matches_oracle_bulk(self):
        rng = np.random.default_rng(31)
        a, b = unit_pairs(rng, 1000)
        p, q = unit_pairs(rng, 1000)
        closed = landsburg_probs_batch(a, b, p, q)
        oracle = oracle_probs2_batch(a, b, p, q)
        assert np.max(np.abs(closed - oracle)) < 1e-10
        npt.assert_allclose(closed.sum(axis=1), 1.0, atol=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(37)
        a, b = unit_pairs(rng, 3)
        p, q = unit_pairs(rng, 3)
        bulk = landsburg_probs_batch(a, b, p, q)
        for k in range(3):
            dist = landsburg_probs(a[k], b[k], p[k], q[k])
            npt.assert_allclose(dist.probs, bulk[k], atol=1e-14)
            assert tuple(dist.labels) == tuple(ACTION_LABELS2)

    def test_rejects_non_unit_pair(self):
        with pytest.raises(ValueError):
            landsburg_probs(1, 1, 1, 0)


@pytest.mark.parametrize(
    "players,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
)
def test_lone_flip_lands_on_its_players_letter(players, k):
    """Player k + 1 flipping alone puts all the mass on the one label whose
    only F is at position k, on the closed form and on the oracle."""
    flip = (0.0, ETA3 if players == 3 else ETA2)
    pairs = [flip if p == k else (1.0, 0.0) for p in range(players)]
    if players == 3:
        closed = theorem1_distribution(
            *(embed3(p + 1, a, b) for p, (a, b) in enumerate(pairs))
        )
        oracle = oracle_distribution3(*(z for pair in pairs for z in pair))
    else:
        closed = landsburg_probs(*(z for pair in pairs for z in pair))
        oracle = oracle_distribution2(*(z for pair in pairs for z in pair))
    label = "".join("F" if p == k else "N" for p in range(players))
    assert label in outcome_labels(players)
    for dist in (closed, oracle):
        assert dist.labels == outcome_labels(players)
        assert dist.prob(label) == pytest.approx(1.0, abs=1e-12)
