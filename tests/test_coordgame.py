import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames import coordgame, qstate
from hypergames.coordgame import (
    BASIS_OUTCOMES,
    OUTCOME_OF_INDEX,
    PLAYER_BASIS,
    _embed,
    basis_slot,
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
INDEX_OF_OUTCOME = {label: k for k, label in enumerate(OUTCOME_OF_INDEX)}
# Basis index of each ACTION_LABELS3 entry: indexing an index-ordered
# trailing axis with it puts the columns in label order.
LABEL_ORDER = np.array([INDEX_OF_OUTCOME[label] for label in ACTION_LABELS3])


def unit_pairs(rng, n):
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def embedded_triple(A, B, P, Q, E, F):
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
        npt.assert_allclose(embed3(1, 1, 0).c, Octonion.basis(0).c, atol=0)

    def test_pure_flip_component(self):
        expected = np.zeros(8)
        expected[2] = SQRT3 / 2.0
        expected[4] = 0.5
        npt.assert_allclose(embed3(1, 0, 1).c, expected, atol=1e-15)

    def test_twisted_flip_lands_on_high_unit(self):
        npt.assert_allclose(embed3(3, 0, ETA3).c, Octonion.basis(7).c, atol=1e-15)

    def test_players_use_disjoint_flip_units(self):
        rng = np.random.default_rng(3)
        (a,), (b,) = unit_pairs(rng, 1)
        for player in (1, 2, 3):
            support = set(np.flatnonzero(np.abs(embed3(player, a, b).c) > 1e-14))
            assert support <= set(ALLOWED[player])

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        a, b = unit_pairs(rng, 50)
        for k in range(50):
            assert embed3(1, a[k], b[k]).norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            embed3(4, 1, 0)
        with pytest.raises(ValueError):
            embed3(1, 1, 1)


class TestClosedFormDistribution:
    def test_identity_strategies(self):
        dist = theorem1_distribution(*embedded_triple(1, 0, 1, 0, 1, 0))
        assert dist.prob("NNN") == pytest.approx(1.0, abs=1e-15)

    def test_all_flip_strategies(self):
        embedded = embedded_triple(0, ETA3, 0, ETA3, 0, ETA3)
        assert theorem1_distribution(*embedded).prob("FFF") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_oracle_scalar(self):
        rng = np.random.default_rng(17)
        a, b = unit_pairs(rng, 200)
        p, q = unit_pairs(rng, 200)
        e, f = unit_pairs(rng, 200)
        for k in range(200):
            closed = theorem1_distribution(
                *embedded_triple(a[k], b[k], p[k], q[k], e[k], f[k])
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
                *embedded_triple(a[k], b[k], p[k], q[k], e[k], f[k])
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
        closed = theorem1_distribution(*embedded_triple(a, b, p, q, e, f))
        oracle = oracle_distribution3(a, b, p, q, e, f)
        assert closed.max_deviation(oracle) < 1e-10

    def test_rejects_factors_off_the_subalgebra_or_the_unit_sphere(self):
        # The kernel reads only each factor's four coordinates, so a factor
        # off its player's subalgebra or off unit norm would pass unseen.
        rng = np.random.default_rng(43)
        s, t, u = embedded_triple(*(z[0] for _ in range(3) for z in unit_pairs(rng, 1)))
        stray = Octonion(embed3(1, 0.6, 0.8j).c + 0.5 * np.eye(8)[3])  # norm 1.118, i3
        nan = u.c.copy()
        nan[4] = np.nan
        cases = [
            ((stray, t, u), 1),
            ((t, s, u), 1),
            ((s, u, t), 2),
            ((Octonion(s.c * 1.00001), t, u), 1),
            ((s, t, Octonion(u.c * 1.00001)), 3),
            ((s, t, Octonion(nan)), 3),
        ]
        for factors, player in cases:
            with pytest.raises(ValueError, match="player %d's strategy must be a unit" % player):
                theorem1_distribution(*factors)
        signed_zero = s.c.copy()
        signed_zero[3] = -0.0
        assert same_bits(theorem1_distribution(Octonion(signed_zero), t, u).probs,
                         theorem1_distribution(s, t, u).probs)


def block_edges(n, *widths):
    """The first and the last row of every block of each width in n rows."""
    starts = [(start, w) for w in widths for start in range(0, n, w)]
    return {row for start, w in starts for row in (start, min(start + w, n) - 1)}


# Profiles per block of the closed forms and the oracles, 3 and 2 players.
BLOCK_WIDTHS = (
    coordgame._CLOSED_ENTRIES // 8,
    coordgame._CLOSED_ENTRIES // 4,
    qstate._BLOCK_ENTRIES // 8,
    qstate._BLOCK_ENTRIES // 4,
)


class TestScalarEntryPointsAreBatchRows:
    """Each scalar entry point is a batch of one through its batch kernel."""

    def test_scalar_results_equal_batch_rows_exactly(self):
        # 20000 rows span more than one block of every kernel.  Each kernel
        # works column by column in one fixed order (products term by term in
        # table order, sums row by row), so a row keeps its bits wherever it
        # falls in a block, and in a batch of one.  The sample holds the
        # first and the last row of every block.
        n = 20000
        assert max(BLOCK_WIDTHS) < n
        rng = np.random.default_rng(41)
        a, b = unit_pairs(rng, n)
        p, q = unit_pairs(rng, n)
        e, f = unit_pairs(rng, n)
        closed3 = theorem1_probs_batch(a, b, p, q, e, f)
        closed2 = landsburg_probs_batch(a, b, p, q)
        oracle3 = oracle_probs3_batch(a, b, p, q, e, f)
        oracle2 = oracle_probs2_batch(a, b, p, q)
        for k in sorted(set(range(0, n, 157)) | block_edges(n, *BLOCK_WIDTHS)):
            three = (a[k], b[k], p[k], q[k], e[k], f[k])
            embedded = embedded_triple(*three)
            assert np.array_equal(theorem1_distribution(*embedded).probs, closed3[k])
            assert np.array_equal(landsburg_probs(*three[:4]).probs, closed2[k])
            assert np.array_equal(oracle_distribution3(*three).probs, oracle3[k])
            assert np.array_equal(oracle_distribution2(*three[:4]).probs, oracle2[k])


def basis_pair_args(a, b):
    """indifference_check's broadcast: (n, 1) pairs of player 1 against the
    16 basis pairs of players 2 and 3."""
    return [a[:, None], b[:, None]] + [z for pair in coordgame._slot_grid(2) for z in pair]


class TestBufferContract:
    """Block buffers are kept per thread; no result is a view of one."""

    def test_embed3_families_keep_their_coefficients(self):
        rng = np.random.default_rng(101)
        a, b = unit_pairs(rng, 2)
        first = embed3(1, a[0], b[0])
        saved = first.c.copy()
        second = embed3(1, a[1], b[1])
        assert np.array_equal(first.c, saved)
        assert not np.array_equal(second.c, saved)

    def test_earlier_results_survive_later_calls(self):
        rng = np.random.default_rng(103)
        a, b = unit_pairs(rng, 100_000)
        p, q = unit_pairs(rng, 100_000)
        e, f = unit_pairs(rng, 100_000)
        batches = (
            [z[:1] for z in (a, b, p, q, e, f)],
            basis_pair_args(a[:300], b[:300]),
            [a, b, p, q, e, f],
        )
        kernels = (
            (theorem1_probs_batch, 6),
            (oracle_probs3_batch, 6),
            (landsburg_probs_batch, 4),
            (oracle_probs2_batch, 4),
            (lambda a, b: _embed(2, a, b), 2),
        )
        results = [kernel(*args[:arity]) for args in batches for kernel, arity in kernels]
        saved = [r.copy() for r in results]
        kept = list(qstate._KEPT.slots.values())
        for result, copy in zip(results, saved):
            assert np.array_equal(result, copy)
            assert not any(np.shares_memory(result, buffer) for buffer in kept)

    def test_threads_get_their_serial_results(self):
        # Four threads, two per input, run both kernels at once; numpy lets
        # go of the interpreter lock inside each array operation, and a short
        # switch interval interleaves the Python between them too.
        rng = np.random.default_rng(107)
        flat = [z for _ in range(3) for z in unit_pairs(rng, 20000)]
        broadcast = basis_pair_args(*unit_pairs(rng, 1000))
        inputs = (flat, broadcast, flat, broadcast)
        serial = [(theorem1_probs_batch(*args), oracle_probs3_batch(*args)) for args in inputs]
        start = threading.Barrier(len(inputs), timeout=60)

        def loop(args):
            start.wait()
            return [(theorem1_probs_batch(*args), oracle_probs3_batch(*args)) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
                runs = [pool.submit(loop, args) for args in inputs]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for (closed, oracle), repeats in zip(serial, results):
            for got_closed, got_oracle in repeats:
                assert np.array_equal(got_closed, closed)
                assert np.array_equal(got_oracle, oracle)

    def test_wide_rows_are_correct_and_not_kept(self):
        # Rows of 3 widths: every block is one row longer than the width.
        rng = np.random.default_rng(109)
        width3, width2 = coordgame._WIDTH3, coordgame._CLOSED_ENTRIES // 4
        page = qstate.PAGE // 8  # each kept slot's storage holds one page more
        for kernel, oracle, arity, slot_sizes in (
            (theorem1_probs_batch, oracle_probs3_batch, 6,
             {0: 12 * width3 + page, 1: 11 * width3 + page}),
            (landsburg_probs_batch, oracle_probs2_batch, 4,
             {0: 8 * width2 + page, 1: width2 + page}),
        ):
            width = width3 if arity == 6 else width2
            args = [z.reshape(2, 3 * width) for _ in range(arity // 2)
                    for z in unit_pairs(rng, 6 * width)]

            def calls():
                wide = kernel(*args), dict(qstate._KEPT.slots)
                return wide, kernel(*(z.reshape(-1) for z in args)), dict(qstate._KEPT.slots)

            with ThreadPoolExecutor(max_workers=1) as pool:
                (got, kept_wide), flat, kept = pool.submit(calls).result()
            assert kept_wide == {}
            assert np.array_equal(got, flat.reshape(got.shape))
            assert np.max(np.abs(got - oracle(*args))) < 1e-10
            # The flat batch ran in blocks of the width; so much is kept.
            assert {slot: storage.size for slot, storage in kept.items()} == slot_sizes

    def test_peak_allocation_is_near_the_output(self):
        # indifference_check's broadcast, 1000 samples against 16 basis
        # pairs, in blocks.  After a warm-up call the blocks reuse kept
        # buffers, so the call's peak traced allocation is its output.
        rng = np.random.default_rng(113)
        args = basis_pair_args(*unit_pairs(rng, 1000))
        theorem1_probs_batch(*args)
        tracemalloc.start()
        try:
            out = theorem1_probs_batch(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 16, 8)
        assert peak <= 1.25 * out.nbytes


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
            theorem1_probs_batch(a, b, p, q, e, f),
            dense_theorem1(s, t, u),
            rtol=1e-15,
            atol=1e-15,
        )

    def test_broadcast_against_basis_pairs_equals_row_by_row(self):
        # The shape indifference_check uses: (n, 1) pairs of one player
        # against the 16 basis pairs of the other two, over several blocks of
        # every kernel.  And a (2, 1) x (5000,) x (2, 5000) batch, whose one
        # leading row is longer than a 3-player closed-form block.  Each
        # batch kernel on a broadcast equals it on the same batch flattened.
        rng = np.random.default_rng(61)
        a, b = unit_pairs(rng, 1000)
        two, three = (
            [su2_of_basis(Octonion.basis(k), player) for k in PLAYER_BASIS[player]]
            for player in (2, 3)
        )
        pairs = [(g2, g3) for g2 in two for g3 in three]
        p = np.array([g2.x for g2, _ in pairs])
        q = np.array([g2.y for g2, _ in pairs])
        e = np.array([g3.x for _, g3 in pairs])
        f = np.array([g3.y for _, g3 in pairs])
        x, y = unit_pairs(rng, 2)
        u, v = unit_pairs(rng, 5000)
        g, h = (z.reshape(2, 5000) for z in unit_pairs(rng, 10000))
        assert 1000 * 16 > max(BLOCK_WIDTHS)
        assert 5000 > coordgame._CLOSED_ENTRIES // 8
        kernels = (
            (theorem1_probs_batch, 6),
            (oracle_probs3_batch, 6),
            (landsburg_probs_batch, 4),
            (oracle_probs2_batch, 4),
        )
        for args in ((a[:, None], b[:, None], p, q, e, f), (x[:, None], y[:, None], u, v, g, h)):
            for kernel, arity in kernels:
                shape = np.broadcast(*args[:arity]).shape
                got = kernel(*args[:arity])
                flat = kernel(*(np.broadcast_to(z, shape).reshape(-1) for z in args[:arity]))
                assert got.shape == shape + flat.shape[-1:]
                assert np.array_equal(got, flat.reshape(got.shape))
        probs = theorem1_probs_batch(a[:, None], b[:, None], p, q, e, f)
        for k in range(0, 1000, 5):
            row = theorem1_probs_batch(a[k], b[k], p, q, e, f)
            assert np.array_equal(row, probs[k])
        oracle = oracle_probs3_batch(a[:, None], b[:, None], p, q, e, f)
        assert np.max(np.abs(probs - oracle)) < 1e-10

    def test_norm_check_is_absolute(self):
        # Within np.allclose's default rtol of 1e-5 but 5e-6 off unit norm.
        drift = np.sqrt(1 + 5e-6)
        for bad in (drift, np.nan):
            with pytest.raises(ValueError, match=r"\|A\|\^2 \+ \|B\|\^2 = 1"):
                theorem1_probs_batch(bad, 0, 1, 0, 1, 0)
            with pytest.raises(ValueError, match=r"\|A\|\^2 \+ \|B\|\^2 = 1"):
                landsburg_probs_batch([1], [0], [0], [bad])
        with pytest.raises(ValueError):
            embed3(2, 0, drift)
        theorem1_probs_batch(np.sqrt(1 + 5e-10), 0, 1, 0, 1, 0)
        landsburg_probs_batch(1, 0, 0, np.sqrt(1 + 5e-10))


def reference_table(left, right, outputs):
    """The terms a_i b_j of each output coordinate k, read off OCT_TENSOR:
    (i, j, sign) arrays of shape (terms, len(outputs)), ordered by the
    position of i in left, then of j in right."""
    columns = [[(i, j, OCT_TENSOR[i, j, k]) for i in left for j in right if OCT_TENSOR[i, j, k]]
               for k in outputs]
    i, j, sign = np.array(columns).T
    return i.astype(int), j.astype(int), sign


FULL_TABLE = reference_table(range(8), range(8), range(8))
# The g and h routes as stated: the outcome indices each reads, then the
# coordinates of s, t and u it negates.  s- negates Re A, s's coordinate 0;
# t10 negates t's real part, and u01 negates u's coordinate 1.
STATED_ROUTES = (((0, 1, 3, 7), (0,), (0,), (1,)), ((2, 4, 5, 6), (0,), (), ()))


def negated(c, rows):
    """A copy of coordinate-first c with the listed coordinates negated."""
    c = c.copy()
    c[list(rows)] *= -1.0
    return c


def restricted(c, rows):
    """Coordinate-first c with every coordinate but the listed ones zero."""
    kept = np.zeros_like(c)
    kept[list(rows)] = c[list(rows)]
    return kept


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
    """The closed form as stated, over term_at_a_time_mul on FULL_TABLE.

    Outcome k of a route is the sum of the squares of coordinate k of
    (s- t') u' and (s+ t') u': s- is s's {0, 1} part and s+ its {2, 4} part,
    and s, t and u take the route's negations (STATED_ROUTES).  The terms
    off the players' supports are exact zeros, so every bit is the
    kernel's.
    """
    s, t, u = coordinate_first(s, t, u)
    probs = np.empty((8,) + np.broadcast_shapes(s.shape[1:], t.shape[1:], u.shape[1:]))
    for outputs, *flips in STATED_ROUTES:
        s_, t_, u_ = (negated(c, rows) for c, rows in zip((s, t, u), flips))
        parts = (restricted(s_, part) for part in ((0, 1), (2, 4)))
        first = (term_at_a_time_mul(part, t_, FULL_TABLE) for part in parts)
        minus, plus = (term_at_a_time_mul(st, u_, FULL_TABLE) for st in first)
        for k in outputs:
            probs[k] = minus[k] ** 2 + plus[k] ** 2
    return np.moveaxis(probs[LABEL_ORDER], 0, -1)


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
        pairs = [unit_pairs(rng, n) for _ in range(3)]
        s, t, u = (_embed(k, *pair) for k, pair in enumerate(pairs, start=1))
        probs = theorem1_probs_batch(*(z for pair in pairs for z in pair))
        assert same_bits(probs, term_at_a_time_theorem1(s, t, u))

    @pytest.mark.parametrize("player", [1, 2, 3])
    def test_theorem1_kernel_broadcast_against_basis_pairs(self, player):
        # indifference_check's shape: (1000, 1) pairs of one player against
        # the 16 basis pairs of the other two, including exact zeros.
        rng = np.random.default_rng(71 + player)
        pairs = {player: tuple(z[:, None] for z in unit_pairs(rng, 1000))}
        others = [k for k in (1, 2, 3) if k != player]
        gates = {
            k: [su2_of_basis(Octonion.basis(i), k) for i in PLAYER_BASIS[k]] for k in others
        }
        pairs[others[0]] = ([g.x for g in gates[others[0]] for _ in range(4)],
                            [g.y for g in gates[others[0]] for _ in range(4)])
        pairs[others[1]] = ([g.x for g in gates[others[1]]] * 4,
                            [g.y for g in gates[others[1]]] * 4)
        s, t, u = (_embed(k, *pairs[k]) for k in (1, 2, 3))
        probs = theorem1_probs_batch(*(z for k in (1, 2, 3) for z in pairs[k]))
        assert probs.shape == (1000, 16, 8)
        assert same_bits(probs, term_at_a_time_theorem1(s, t, u))

    def test_theorem1_kernel_on_scalar_families(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            embedded = embedded_triple(*(z[0] for _ in range(3) for z in unit_pairs(rng, 1)))
            s, t, u = (o.c for o in embedded)
            probs = theorem1_distribution(*embedded).probs
            assert probs.shape == (8,)
            assert same_bits(probs, term_at_a_time_theorem1(s, t, u))

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
            expected = np.moveaxis(term_at_a_time_mul(ca, cb, FULL_TABLE), 0, -1)
            assert same_bits(oct_mul(a, b), expected)


def reference_compile_rows(table):
    """The closed form's former table compiler: per output row, its first
    term (negated or not) and its later terms as (i, j, fold)."""
    i, j, sign = (np.asarray(part) for part in table)
    rows = []
    for lead in np.ndindex(i.shape[1:]):
        col = (slice(None),) + lead
        terms = [
            ((a, ...), (b, ...), s < 0)
            for a, b, s in zip(i[col].tolist(), j[col].tolist(), sign[col].tolist())
        ]
        (a, b, negate), later = terms[0], terms[1:]
        folds = tuple((c, d, np.subtract if neg else np.add) for c, d, neg in later)
        rows.append((lead + (...,), a, b, negate, folds))
    return i.shape[1:], tuple(rows)


def reference_gather_mul(a, b, table, out, term):
    """The former product kernel: each output row formed in place, its first
    term negated when its sign is -1, each later term folded in."""
    lead, rows = table
    for index, i, j, negate, later in rows:
        row = out[index]
        np.multiply(a[i], b[j], row)
        if negate:
            np.negative(row, row)
        for i, j, fold in later:
            np.multiply(a[i], b[j], term)
            fold(row, term, row)
    return out


def halves_table(outputs):
    """reference_table of (s t) u restricted to each half of s t, the halves
    on a new trailing axis.  s- t lies on (0, 1, 5, 6) and s+ t on
    (2, 3, 4, 7)."""
    halves = [reference_table(half, ALLOWED[3], outputs) for half in ((0, 1, 5, 6), (2, 3, 4, 7))]
    return tuple(np.stack(parts, axis=-1) for parts in zip(*halves))


# Per route of STATED_ROUTES: the negated coordinates of s, t and u, both
# products' rows and the probability columns written.
REFERENCE_ROUTES = tuple(
    (flips, reference_compile_rows(reference_table(ALLOWED[1], ALLOWED[2], range(8))),
     reference_compile_rows(halves_table(outputs)),
     [ACTION_LABELS3.index(OUTCOME_OF_INDEX[k]) for k in outputs])
    for outputs, *flips in STATED_ROUTES
)


def reference_embedding(player, A, B):
    """Coordinate-first (8, n) embedding of flat pairs, as _embedded_blocks
    writes it."""
    w = coordgame._TWIST3
    _, mid, high = SUBALGEBRA_UNITS[player]
    c = np.zeros((8, A.size))
    c[0], c[1] = A.real, A.imag
    c[mid] = w.real * B.real - w.imag * B.imag
    c[high] = w.imag * B.real + w.real * B.imag
    return c


def reference_theorem1(*args):
    """theorem1_probs_batch by the former route kernel: each route's first
    and second product formed separately, with negations, in one block."""
    args = np.broadcast_arrays(*(np.asarray(z, dtype=complex) for z in args))
    shape = args[0].shape
    s, t, u = (reference_embedding(k + 1, args[2 * k].ravel(), args[2 * k + 1].ravel())
               for k in range(3))
    n = s.shape[1]
    probs = np.empty((8, n))
    first, halves, term = np.empty((8, n)), np.empty((4, 2, n)), np.empty(n)
    for flips, first_rows, second_rows, columns in REFERENCE_ROUTES:
        s_, t_, u_ = (negated(c, rows) for c, rows in zip((s, t, u), flips))
        reference_gather_mul(s_, t_, first_rows, first, term)
        reference_gather_mul(first, u_, second_rows, halves, term)
        np.square(halves, out=halves)
        for k, column in enumerate(columns):
            np.add(halves[k, 0], halves[k, 1], out=probs[column])
    return probs.T.reshape(shape + (8,))


def su2_pairs(rng, shape):
    """Haar-random SU(2) pairs of the given batch shape."""
    a, b = unit_pairs(rng, math.prod(shape))
    return a.reshape(shape), b.reshape(shape)


# The shapes the plan is checked on, each a function of a seeded generator.
SHARED_PLAN_CASES = {
    "flat 10^5": lambda rng: [z for _ in range(3) for z in su2_pairs(rng, (100_000,))],
    "(1000,1)x16": lambda rng: basis_pair_args(*su2_pairs(rng, (1000,))),
    "(5000,1)x16": lambda rng: basis_pair_args(*su2_pairs(rng, (5000,))),
    "(3000,1,1)x(1,5,1)x(5,4)": lambda rng: [
        *su2_pairs(rng, (3000, 1, 1)), *su2_pairs(rng, (1, 5, 1)), *su2_pairs(rng, (5, 4))],
    "(2,1)x(9000,)x(2,9000)": lambda rng: [
        *su2_pairs(rng, (2, 1)), *su2_pairs(rng, (9000,)), *su2_pairs(rng, (2, 9000))],
    "batch of one": lambda rng: [z for _ in range(3) for z in su2_pairs(rng, (1,))],
    "64 basis triples": lambda rng: [z for pair in coordgame._slot_grid(3) for z in pair],
    "empty": lambda rng: [z for _ in range(3) for z in su2_pairs(rng, (0,))],
}


class TestSharedProductPlan:
    """The closed form forms each product it reads once and negates no row;
    its result keeps every bit of the former route kernel's."""

    @pytest.mark.parametrize("case", list(SHARED_PLAN_CASES))
    def test_equals_the_former_route_kernel(self, case):
        args = SHARED_PLAN_CASES[case](np.random.default_rng(127))
        probs = theorem1_probs_batch(*args)
        assert np.array_equal(probs, reference_theorem1(*args))
        assert probs.shape == np.broadcast_shapes(*(np.shape(z) for z in args)) + (8,)

    def test_scalar_entry_point_equals_the_former_route_kernel(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            three = [z[0] for _ in range(3) for z in unit_pairs(rng, 1)]
            probs = theorem1_distribution(*embedded_triple(*three)).probs
            assert np.array_equal(probs, reference_theorem1(*three))

    def test_plan_shape(self):
        plan = coordgame._CLOSED_FORM_PLAN
        assert {ufunc for ufunc, *_ in plan} == {np.multiply, np.add, np.subtract}
        # The 16 products s_i t_j (s's four coordinates on rows 0-3, t's on
        # 4-7, u's on 8-11) are each formed once.  Each row of the first
        # product (rows 12-19) sums two: the first is formed in the row, the
        # second folded in by one add or subtract.
        first = [(x, y, out) for ufunc, x, y, out in plan if ufunc is np.multiply and y < 8]
        assert len(first) == len({(x, y) for x, y, _ in first}) == 16
        assert all(x < 4 <= y for x, y, _ in first)
        writes = [out for ufunc, x, y, out in plan if 12 <= out < 20]
        assert sorted(writes) == sorted(list(range(12, 20)) * 2)
        # 48 products, 24 folds, and per output one square of the halves
        # pair and one add.
        assert len(plan) == 48 + 24 + 8 + 8

    def test_routes_read_disjoint_halves_of_the_first_product(self):
        # So one product s t holds the rows both routes read: g, the first
        # half of the plan, forms and reads rows 0, 1, 3 and 7 of it (plan
        # rows 12-19), h rows 2, 4, 5 and 6.
        plan = coordgame._CLOSED_FORM_PLAN
        g, h = plan[: len(plan) // 2], plan[len(plan) // 2 :]
        for steps, rows in ((g, {0, 1, 3, 7}), (h, {2, 4, 5, 6})):
            formed = {out - 12 for _, _, _, out in steps if 12 <= out < 20}
            read = {x - 12 for ufunc, x, _, _ in steps if ufunc is np.multiply and 12 <= x < 20}
            assert formed == read == rows


def buffer_rows(buffer):
    """Start address and entries of each row of a coordinate-first buffer,
    along its last axis."""
    rows = (buffer[index] for index in np.ndindex(buffer.shape[:-1]))
    return [(row.ctypes.data, row.size) for row in rows]


def output_rows(out):
    """The same for a kernel's coordinate-last result: a row is one
    coordinate over the whole batch."""
    rows = (out[..., k] for k in range(out.shape[-1]))
    return [(row.ctypes.data, row.size) for row in rows]


def storage_of(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


def kernel_arrays(monkeypatch, kernel, args):
    """kernel(*args) and every block_buffer view it took."""
    seen, block_buffer = [], qstate.block_buffer

    def recording(*a, **kw):
        seen.append(block_buffer(*a, **kw))
        return seen[-1]

    monkeypatch.setattr(coordgame, "block_buffer", recording)
    monkeypatch.setattr(qstate, "block_buffer", recording)
    return kernel(*args), seen


class TestRowsOnPages:
    """Every kept or returned kernel row of at least qstate.PAGED_ROW entries
    starts on a page boundary; shorter rows keep the plain layout."""

    # Each kernel's arity and block width in profiles.
    KERNELS = {
        theorem1_probs_batch: (6, coordgame._WIDTH3),
        oracle_probs3_batch: (6, qstate._BLOCK_ENTRIES // 8),
        landsburg_probs_batch: (4, coordgame._CLOSED_ENTRIES // 4),
        oracle_probs2_batch: (4, qstate._BLOCK_ENTRIES // 4),
    }

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_kept_and_output_rows_start_on_pages(self, monkeypatch, kernel):
        arity, width = self.KERNELS[kernel]
        rng = np.random.default_rng(137)
        flat = [z for _ in range(arity // 2) for z in unit_pairs(rng, 10_000)]
        # Leading rows longer than the width: buffers that are not kept.
        wide = [z.reshape(2, 3 * width) for _ in range(arity // 2)
                for z in unit_pairs(rng, 6 * width)]
        for args in (flat, wide):
            out, seen = kernel_arrays(monkeypatch, kernel, args)
            assert len(seen) == (2 if kernel in (theorem1_probs_batch, landsburg_probs_batch) else 1)
            rows = output_rows(out) + [row for buffer in seen for row in buffer_rows(buffer)]
            assert all(size >= qstate.PAGED_ROW for _, size in rows)
            assert all(address % qstate.PAGE == 0 for address, _ in rows)
            # The same bits as the kernel on plain rows, 100 profiles at a time.
            columns = [z.reshape(-1) for z in args]
            packed = [kernel(*(z[k:k + 100] for z in columns))
                      for k in range(0, columns[0].size, 100)]
            assert np.array_equal(out.reshape(-1, out.shape[-1]), np.concatenate(packed))
            if kernel is theorem1_probs_batch:
                assert np.array_equal(out, reference_theorem1(*args))

    @pytest.mark.parametrize("n", [1, 1000, qstate.PAGED_ROW - 1])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_short_rows_keep_the_plain_layout(self, monkeypatch, kernel, n):
        # Rows of fewer than PAGED_ROW entries: each buffer starts where its
        # storage does, and the result's storage is exactly its size.
        players = self.KERNELS[kernel][0] // 2
        args = [z for _ in range(players) for z in unit_pairs(np.random.default_rng(139), n)]
        out, seen = kernel_arrays(monkeypatch, kernel, args)
        assert out.shape == (n, 2**players)
        assert np.moveaxis(out, -1, 0).flags.c_contiguous
        assert storage_of(out).nbytes == out.nbytes
        if n == 1:
            assert out.flags.c_contiguous
        for buffer in seen:
            assert buffer.flags.c_contiguous
            assert buffer.ctypes.data == storage_of(buffer).ctypes.data
        if kernel is theorem1_probs_batch:
            assert np.array_equal(out, reference_theorem1(*args))

    def test_page_rows_pages_only_long_rows(self):
        for shape, dtype in (((8, 1), float), ((8, 2047), float), ((3, 4, 1000), complex)):
            a = qstate.page_rows(shape, dtype)
            assert a.shape == shape and a.dtype == dtype
            assert a.flags.c_contiguous and a.base is None
        for shape, dtype in (((8, 2048), float), ((3, 4, 2048), complex),
                             ((4, 2049), float), ((4, 10_000), float)):
            a = qstate.page_rows(shape, dtype)
            assert a.shape == shape and a.dtype == dtype
            assert a.ctypes.data % qstate.PAGE == 0
            pitch = -(-shape[-1] * a.itemsize // qstate.PAGE) * qstate.PAGE
            assert a.strides[-2:] == (pitch, a.itemsize)
            assert a.base.nbytes == math.prod(shape[:-1]) * pitch + qstate.PAGE


def nan_between_blocks(width, pairs, twists):
    """The factors _embedded_blocks yields for each block, copied, with every
    embedded row set to NaN after each block is read."""
    _, _, blocks = coordgame._embedded_blocks(width, pairs, twists)
    seen = []
    for factors, cols in blocks:
        seen.append((factors.copy(), cols))
        factors[...] = np.nan
    return seen


class TestEmbeddedOnce:
    """A pair that does not span the leading axis is embedded on the first
    block only; later blocks read its rows from there."""

    def test_reused_pair_equals_the_materialized_pair(self):
        rng = np.random.default_rng(137)
        width3 = coordgame._WIDTH3
        args = basis_pair_args(*su2_pairs(rng, (5000,)))
        # 5000 rows of 16 profiles run in blocks of width3 // 16 rows, the
        # last one shorter.
        assert 5000 % (width3 // 16) and 5000 * 16 > width3
        for k in (2, 4):
            materialized = list(args)
            for z in (k, k + 1):
                materialized[z] = np.broadcast_to(args[z], (5000, 16)).copy()
            assert np.array_equal(theorem1_probs_batch(*args),
                                  theorem1_probs_batch(*materialized))
        materialized = [np.broadcast_to(z, (5000, 16)).copy() for z in args]
        assert np.array_equal(theorem1_probs_batch(*args), theorem1_probs_batch(*materialized))

    def test_landsburg_reused_pair_equals_the_materialized_pair(self):
        rng = np.random.default_rng(139)
        width2 = coordgame._CLOSED_ENTRIES // 4
        a, b = su2_pairs(rng, (5000, 1))
        p, q = su2_pairs(rng, (16,))
        assert 5000 % (width2 // 16) and 5000 * 16 > width2
        got = landsburg_probs_batch(a, b, p, q)
        wide = [np.broadcast_to(z, (5000, 16)).copy() for z in (a, b, p, q)]
        assert np.array_equal(got, landsburg_probs_batch(*wide))
        assert np.array_equal(got, landsburg_probs_batch(a, b, *wide[2:]))
        assert np.max(np.abs(got - oracle_probs2_batch(a, b, p, q))) < 1e-10

    @pytest.mark.parametrize("width, twists", [
        (coordgame._WIDTH3, [coordgame._TWIST3] * 3),
        (coordgame._CLOSED_ENTRIES // 4, (ETA2, -ETA2)),
    ])
    def test_only_non_spanning_pairs_are_reused(self, width, twists):
        # Between blocks every embedded row is overwritten with NaN: a pair
        # that spans the leading axis is embedded again, a reused one is not,
        # on the full blocks, the shorter last block and wide rows alike.
        rng = np.random.default_rng(149)
        rows = 3 * width // 16 + 5
        for spanning, shape, block_rows in (((rows, 1), (16,), (width // 16,) * 3 + (5,)),
                                            ((3, 1), (width + 7,), (1, 1, 1))):
            pairs = [su2_pairs(rng, spanning)] + [su2_pairs(rng, shape)] * (len(twists) - 1)
            blocks = nan_between_blocks(width, pairs, twists)
            row = math.prod(shape)
            assert tuple((cols.stop - cols.start) // row for _, cols in blocks) == block_rows
            for n, (factors, _) in enumerate(blocks):
                assert factors.shape[:2] == (len(twists), 4)
                assert np.isfinite(factors[0]).all()
                for reused in factors[1:]:
                    assert np.isnan(reused).all() if n else np.isfinite(reused).all()

    def test_pair_with_one_spanning_array_is_embedded_every_block(self):
        # A is one number for every profile, B's phase spans the leading
        # axis: the pair is not the same arrays in every block.
        rng = np.random.default_rng(163)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (5000, 1)))
        for a, b in ((0.6, 0.8 * phase), (0.8 * phase, 0.6)):
            args = [a, b] + basis_pair_args(*su2_pairs(rng, (5000,)))[2:]
            got = theorem1_probs_batch(*args)
            assert np.array_equal(got, reference_theorem1(*args))
            assert np.array_equal(landsburg_probs_batch(a, b, *args[2:4]),
                                  landsburg_probs_batch(*np.broadcast_arrays(a, b, *args[2:4])))

    def test_wide_rows_with_a_reused_pair(self):
        # Rows longer than a block are blocks of their own, in scratch that
        # is not kept; the reused pair's rows carry over between them too.
        rng = np.random.default_rng(151)
        width3 = coordgame._WIDTH3
        args = [*su2_pairs(rng, (3, 1)), *su2_pairs(rng, (width3 + 7,)),
                *su2_pairs(rng, (3, width3 + 7))]
        got = theorem1_probs_batch(*args)
        assert np.array_equal(got, reference_theorem1(*args))
        materialized = [np.broadcast_to(z, (3, width3 + 7)).copy() for z in args]
        assert np.array_equal(got, theorem1_probs_batch(*materialized))


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
                        *embedded_triple(g1.x, g1.y, g2.x, g2.y, g3.x, g3.y)
                    )
                    oracle = oracle_distribution3(
                        g1.x, g1.y, g2.x, g2.y, g3.x, g3.y
                    )
                    assert dist.max_deviation(closed) < 1e-10
                    assert dist.max_deviation(oracle) < 1e-10

    def test_table_is_the_squared_product_of_each_triple(self):
        # The corollary: on basis strategies the closed form is the squared
        # coordinates of the one product (s t) u, read in label order.  The
        # table is the kernel's output; this pins it to the product.
        s, t, u = (np.eye(8)[list(PLAYER_BASIS[p])] for p in (1, 2, 3))
        w = oct_mul(oct_mul(s[:, None, None], t[None, :, None]), u[None, None, :])
        assert np.array_equal(BASIS_OUTCOMES, w[..., LABEL_ORDER] ** 2)
        assert same_bits(BASIS_OUTCOMES, w[..., LABEL_ORDER] ** 2)

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
        with pytest.raises(ValueError, match="single basis element"):
            corollary_distribution(np.r_[1.0, np.nan, np.zeros(6)], one, one)
        with pytest.raises(ValueError, match="single basis element"):
            corollary_distribution(np.r_[np.nan, np.zeros(7)], one, one)


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
                embedded = embed3(player, gate.x, gate.y)
                npt.assert_allclose(embedded.c, Octonion.basis(k).c, atol=1e-15)

    def test_rejects_foreign_element(self):
        with pytest.raises(ValueError):
            su2_of_basis(Octonion.basis(5), 1)

    @pytest.mark.parametrize("player", [0, 4, None])
    def test_rejects_unknown_player(self, player):
        with pytest.raises(ValueError, match="player must be 1, 2, or 3"):
            su2_of_basis(Octonion.basis(0), player)

    def test_slot_of_each_form(self):
        for player in (1, 2, 3):
            for slot, k in enumerate(PLAYER_BASIS[player]):
                for o in (Octonion.basis(k), np.eye(8)[k], list(np.eye(8)[k]), k, np.int64(k)):
                    assert basis_slot(o, player) == slot


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


@pytest.mark.parametrize(
    "kernel,players",
    [
        (theorem1_probs_batch, 3),
        (oracle_probs3_batch, 3),
        (landsburg_probs_batch, 2),
        (oracle_probs2_batch, 2),
    ],
)
@pytest.mark.parametrize("shapes,batch", [(((0,),), (0,)), (((0, 1), (5,)), (0, 5))])
def test_empty_batch_has_no_rows(kernel, players, shapes, batch):
    """A batch of size 0 gives 0 rows of the kernel's width, not an error."""
    amplitudes = [np.ones(shapes[k % len(shapes)], dtype=complex) for k in range(2 * players)]
    amplitudes[1::2] = [np.zeros_like(a) for a in amplitudes[1::2]]
    probs = kernel(*amplitudes)
    assert probs.shape == batch + (2**players,)
