import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from hypergames import coordgame, qstate
from hypergames.qstate import (
    ACTION_LABELS2,
    ACTION_LABELS3,
    ETA2,
    ETA3,
    OutcomeDistribution,
    SU2Gate,
    basis_matrix2,
    basis_matrix3,
    entangled_state,
    eta,
    flip_gate,
    game_state3,
    hadamard,
    measure,
    meyer_penny,
    oracle_distribution2,
    oracle_distribution3,
    oracle_probs2_batch,
    oracle_probs3_batch,
    penny_evolution,
    su2_matrices,
    to_action_basis3,
)


def game_state2(A, B, P, Q):
    """Two-player game state, normalized, order (00, 01, 10, 11)."""
    return entangled_state((A, B), (P, Q)) / np.sqrt(2.0)


def to_action_basis2(v, eta_value=ETA2):
    """Two-player amplitudes in the action basis: the two-term change of
    qstate._basis_change, as to_action_basis3 applies it for three players."""
    v = np.asarray(v, dtype=complex)
    c, d = qstate._basis_change(2, complex(eta_value))
    return qstate._two_term(v.reshape(-1, 4).T, c, d).T.reshape(v.shape)


def ghz3():
    """Unnormalized three-qubit entangled start |000> + |111>.

    Kept unnormalized to match the closed-form game-state components; every
    probability output renormalizes, so the constant is immaterial.
    """
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    v[7] = 1.0
    return v


def ghz2():
    """Two-qubit entangled start (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[3] = 1.0 / np.sqrt(2.0)
    return v


def local_action(gates, state):
    """Apply a tensor product of single-qubit gates to a state vector."""
    op = np.array([[1.0]], dtype=complex)
    for g in gates:
        op = np.kron(op, g.matrix if isinstance(g, SU2Gate) else np.asarray(g))
    return op @ state


def tensor_state3(g1, g2, g3):
    """Independent oracle route: explicit tensor product acting on |000>+|111>."""
    return local_action([g1, g2, g3], ghz3())


def tensor_state3_batch(u1, u2, u3):
    """Vectorized tensor construction for stacked 2x2 gate arrays (n,2,2)."""
    return np.einsum("nia,nja,nka->nijk", u1, u2, u3).reshape(len(u1), 8)


def random_su2_amplitudes(rng, n):
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def random_gates(rng, n):
    """n Haar-random gates, from the package's sampler."""
    rows = qstate._unit_gaussian_rows(rng, n)
    return [SU2Gate(complex(a, b), complex(c, d)) for a, b, c, d in rows]


class TestEta:
    def test_sixth_root_for_three_players(self):
        npt.assert_allclose(eta(3) ** 6, 1.0, atol=1e-12)

    def test_eighth_root_for_two_players(self):
        npt.assert_allclose(eta(2) ** 8, 1.0, atol=1e-12)

    def test_power_identities(self):
        e = eta(3)
        npt.assert_allclose(e**3, -1.0, atol=1e-12)
        npt.assert_allclose(e**2, -np.conj(e), atol=1e-12)

    def test_unsupported_player_count(self):
        with pytest.raises(ValueError):
            eta(4)


class TestFlipGate:
    def test_action_on_basis_states(self):
        f = flip_gate(ETA3).matrix
        npt.assert_allclose(f @ [1, 0], [0, -np.conj(ETA3)], atol=1e-15)
        npt.assert_allclose(f @ [0, 1], [ETA3, 0], atol=1e-15)

    def test_double_flip_at_unit_phase(self):
        f = flip_gate(1.0).matrix
        npt.assert_allclose(f @ f @ [1, 0], [-1, 0], atol=1e-15)

    def test_rejects_non_unit_phase(self):
        with pytest.raises(ValueError):
            flip_gate(0.5)


class TestSU2Gate:
    def test_matrix_layout(self):
        g = SU2Gate(0.6 + 0.0j, 0.8j)
        m = g.matrix
        assert m[0, 0] == g.x and m[0, 1] == g.y
        assert m[1, 0] == -np.conj(g.y) and m[1, 1] == np.conj(g.x)
        # su2_matrices builds the same layout for a scalar pair and
        # broadcasts (n,) and (n, 4) pairs, as the Parrondo blocks use.
        assert np.array_equal(su2_matrices(g.x, g.y), m)
        rng = np.random.default_rng(3)
        for shape in ((5,), (5, 4)):
            x, y = random_su2_amplitudes(rng, int(np.prod(shape)))
            x, y = x.reshape(shape), y.reshape(shape)
            stacked = su2_matrices(x, y)
            assert stacked.shape == shape + (2, 2)
            for index in np.ndindex(*shape):
                assert np.array_equal(stacked[index], SU2Gate(x[index], y[index]).matrix)
        flips = su2_matrices(0.0, np.exp(1j * np.arange(20.0).reshape(5, 4)))
        assert flips.shape == (5, 4, 2, 2) and not flips[..., 0, 0].any()

    def test_random_gates_are_unitary(self):
        rng = np.random.default_rng(5)
        for g in random_gates(rng, 50):
            m = g.matrix
            npt.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_rejects_non_unit_pair(self):
        with pytest.raises(ValueError):
            SU2Gate(1.0, 1.0)
        with pytest.raises(ValueError):
            su2_matrices([1.0, 0.6], [0.0, 0.6])
        with pytest.raises(ValueError):
            game_state3(np.nan, 0, 1, 0, 1, 0)


def summed_squares(a, b):
    """|A|^2 + |B|^2 as check_unit_pairs adds it, in Python floats."""
    a, b = complex(a), complex(b)
    return a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag)


def edge_doubles(atol=1e-9):
    """The squared norms on both sides of each edge of the accepted band:
    (inside, outside) above 1 and below 1, each within 2.3e-16 of the edge."""
    edges = []
    for side, away in ((1.0, 2.0), (-1.0, 0.0)):
        x = 1.0 + side * atol
        while abs(x - 1.0) > atol:
            x = np.nextafter(x, 1.0)
        while abs(np.nextafter(x, away) - 1.0) <= atol:
            x = np.nextafter(x, away)
        edges.append((float(x), float(np.nextafter(x, away))))
    return edges


def pair_with_squared_norm(x):
    """A real pair (A, B) whose summed squares round to exactly x: A^2 just
    at or below x, B^2 the exact rest."""
    a = np.sqrt(x)
    while a * a > x:
        a = np.nextafter(a, 0.0)
    pair = (float(a), float(np.sqrt(x - a * a)))
    assert summed_squares(*pair) == x
    return pair


class TestCheckUnitPairs:
    MESSAGE = r"\|A\|\^2 \+ \|B\|\^2 = 1"

    def test_edge_of_the_band_within_a_rounding(self):
        for inside, outside in edge_doubles():
            assert abs(inside - outside) < 2.3e-16
            for x, accepted in ((inside, True), (outside, False)):
                a, b = pair_with_squared_norm(x)
                forms = [
                    (complex(a), complex(b)),
                    (complex(0.0, a), complex(0.0, b)),
                    (np.array(a + 0j), np.array(b + 0j)),
                    (np.array([a + 0j]), np.array([b + 0j])),
                    (np.full((2, 1), a + 0j), np.full(3, b + 0j)),
                    (np.array([a + 0j]), np.full((2, 3), b + 0j)),
                ]
                for pair in forms:
                    if accepted:
                        qstate.check_unit_pairs(pair)
                    else:
                        with pytest.raises(ValueError, match=self.MESSAGE):
                            qstate.check_unit_pairs((1.0, 0.0), pair)

    def test_non_finite_and_empty(self):
        rng = np.random.default_rng(157)
        a, b = random_su2_amplitudes(rng, 1000)
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)):
            for index in (0, 999):
                poisoned = a.copy()
                poisoned[index] = bad
                with pytest.raises(ValueError, match=self.MESSAGE):
                    qstate.check_unit_pairs((poisoned, b))
        qstate.check_unit_pairs((a, b), (np.empty(0, complex), np.empty(0, complex)))
        qstate.check_unit_pairs((np.empty((0, 1)), np.empty(3)), (np.ones(1), np.empty(0)))


class TestGameState3:
    def test_identity_strategies(self):
        v = game_state3(1, 0, 1, 0, 1, 0)
        npt.assert_allclose(v, [1, 0, 0, 0, 0, 0, 0, 1], atol=1e-15)

    def test_all_flip_strategies(self):
        v = game_state3(0, ETA3, 0, ETA3, 0, ETA3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = ETA3**3
        expected[7] = -np.conj(ETA3) ** 3
        npt.assert_allclose(v, expected, atol=1e-14)
        npt.assert_allclose(v, [-1, 0, 0, 0, 0, 0, 0, 1], atol=1e-14)

    def test_matches_explicit_tensor_product(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g1, g2, g3 = random_gates(rng, 3)
            closed = game_state3(g1.x, g1.y, g2.x, g2.y, g3.x, g3.y)
            npt.assert_allclose(closed, tensor_state3(g1, g2, g3), atol=1e-12)

    def test_matches_tensor_product_bulk(self):
        rng = np.random.default_rng(31)
        a, b = random_su2_amplitudes(rng, 10_000)
        p, q = random_su2_amplitudes(rng, 10_000)
        e, f = random_su2_amplitudes(rng, 10_000)
        closed = game_state3(a, b, p, q, e, f)

        def stack(x, y):
            u = np.empty((len(x), 2, 2), dtype=complex)
            u[:, 0, 0] = x
            u[:, 0, 1] = y
            u[:, 1, 0] = -np.conj(y)
            u[:, 1, 1] = np.conj(x)
            return u

        tensored = tensor_state3_batch(stack(a, b), stack(p, q), stack(e, f))
        assert np.max(np.abs(closed - tensored)) < 1e-12

    def test_rejects_non_unit_strategy(self):
        with pytest.raises(ValueError):
            game_state3(1, 1, 1, 0, 1, 0)


class TestActionBasis3:
    def test_printed_columns(self):
        m = basis_matrix3(ETA3)
        e, ec = ETA3, np.conj(ETA3)
        printed = {
            "NNN": [1, 0, 0, 0, 0, 0, 0, 1],
            "NNF": [0, -ec, 0, 0, 0, 0, e, 0],
            "NFN": [0, 0, -ec, 0, 0, e, 0, 0],
            "NFF": [0, 0, 0, ec**2, e**2, 0, 0, 0],
            "FNN": [0, 0, 0, e, -ec, 0, 0, 0],
            "FNF": [0, 0, e**2, 0, 0, ec**2, 0, 0],
            "FFN": [0, e**2, 0, 0, 0, 0, ec**2, 0],
            "FFF": [e**3, 0, 0, 0, 0, 0, 0, -(ec**3)],
        }
        assert tuple(printed) == ACTION_LABELS3
        for k, column in enumerate(printed.values()):
            npt.assert_allclose(m[:, k], column, atol=1e-15)

    def test_vectors_match_flip_constructions(self):
        m = basis_matrix3(ETA3)
        n = SU2Gate(1, 0)
        f = flip_gate(ETA3)
        for k, label in enumerate(ACTION_LABELS3):
            gates = [f if ch == "F" else n for ch in label]
            npt.assert_allclose(m[:, k], local_action(gates, ghz3()), atol=1e-14)

    def test_entangled_pair_inner_product_vanishes_at_design_phase(self):
        m = basis_matrix3(ETA3)
        nnn, fff = (ACTION_LABELS3.index(label) for label in ("NNN", "FFF"))
        ip = np.vdot(m[:, nnn], m[:, fff])
        npt.assert_allclose(ip, np.conj(ETA3) ** 3 - ETA3**3, atol=1e-15)
        assert abs(ip) < 1e-12

    def test_all_28_pairs_orthogonal_at_design_phase(self):
        m = basis_matrix3(ETA3)
        gram = np.conj(m).T @ m
        npt.assert_allclose(gram, 2.0 * np.eye(8), atol=1e-12)

    def test_full_rank_at_unit_phase(self):
        # At eta = 1 every inner product still vanishes (they are all
        # proportional to conj(eta)^3 - eta^3) and the basis stays rank 8.
        m = basis_matrix3(1.0)
        gram = np.conj(m).T @ m
        npt.assert_allclose(gram, 2.0 * np.eye(8), atol=1e-12)
        assert np.linalg.matrix_rank(m) == 8

    def test_degenerate_at_twelfth_root(self):
        # The true collapse happens where sin(3*theta) peaks: at
        # eta = exp(i*pi/6) the eight vectors span only four dimensions.
        e = np.exp(1j * np.pi / 6)
        m = basis_matrix3(e)
        assert np.linalg.matrix_rank(m, tol=1e-9) == 4
        nnn, fff = (ACTION_LABELS3.index(label) for label in ("NNN", "FFF"))
        npt.assert_allclose(m[:, fff], 1j * m[:, nnn], atol=1e-12)

    def test_generic_phase_breaks_orthogonality(self):
        e = np.exp(0.4j)
        m = basis_matrix3(e)
        gram = np.conj(m).T @ m
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) > 1e-6
        assert abs(np.conj(e) ** 3 - e**3) > 1e-6


def two_term_reference(rows, m):
    """The basis change from the two non-zeros of each column of m: rows j
    and 2**n - 1 - j, conjugated."""
    j = np.arange(len(m))
    return np.conj(m[j, j]) * rows + np.conj(m[j[::-1], j]) * rows[..., ::-1]


def dense_probs(v, m):
    """Born-rule probabilities of state rows v in the basis of m's columns,
    through the dense einsum over the whole matrix."""
    w = np.abs(np.einsum("...i,ij->...j", v, np.conj(m))) ** 2
    return w / np.sum(w, axis=-1, keepdims=True)


PHASES = {
    3: (ETA3, np.exp(0.4j), np.exp(1j * np.pi / 6)),
    2: (ETA2, np.exp(0.4j), np.exp(1j * np.pi / 6)),
}


class TestBasisChangeAtAnyPhase:
    @pytest.mark.parametrize(
        "to_basis, build, default",
        [(to_action_basis3, basis_matrix3, ETA3), (to_action_basis2, basis_matrix2, ETA2)],
    )
    def test_equals_the_freshly_built_matrix(self, to_basis, build, default):
        # Bit for bit the two-term change read off a freshly built matrix,
        # and within 1e-15 of the dense einsum over the whole matrix.
        rng = np.random.default_rng(43)
        size = build(default).shape[0]
        rows = rng.standard_normal((5, size)) + 1j * rng.standard_normal((5, size))
        for e in (default, complex(default), np.exp(0.4j)):
            m = build(e)
            w = to_basis(rows, e)
            assert np.array_equal(w, two_term_reference(rows, m))
            assert np.max(np.abs(w - np.einsum("...i,ij->...j", rows, np.conj(m)))) <= 1e-15
            assert np.array_equal(to_basis(rows[0], e), w[0])
        assert np.array_equal(to_basis(rows), to_basis(rows, default))

    @pytest.mark.parametrize("players, build", [(3, basis_matrix3), (2, basis_matrix2)])
    def test_columns_vanish_off_two_rows(self, players, build):
        size = 2**players
        for e in PHASES[players]:
            m = build(e)
            for j in range(size):
                off = np.delete(m[:, j], sorted({j, size - 1 - j}))
                assert not off.any()
                assert m[j, j] != 0 or m[size - 1 - j, j] != 0

    def test_other_structure_raises(self, monkeypatch):
        dense = np.ones((8, 8), dtype=complex)
        monkeypatch.setattr(qstate, "basis_matrix3", lambda eta_value: dense)
        with pytest.raises(ValueError):
            qstate._basis_change.__wrapped__(3, ETA3)


class TestOracleKernel:
    @pytest.mark.parametrize("players", [3, 2])
    def test_matches_dense_einsum(self, players):
        rng = np.random.default_rng(61)
        pairs = [random_su2_amplitudes(rng, 16384) for _ in range(players)]
        oracle = oracle_probs3_batch if players == 3 else oracle_probs2_batch
        build = basis_matrix3 if players == 3 else basis_matrix2
        state = game_state3 if players == 3 else game_state2
        args = [a for pair in pairs for a in pair]
        expected = dense_probs(state(*args), build(eta(players)))
        assert np.max(np.abs(oracle(*args) - expected)) <= 1e-15
        # A (1000, 1) player against 16 profiles of the others.
        x, y = random_su2_amplitudes(rng, 1000)
        args = [x[:, None], y[:, None]] + [a[:16] for a in args[2:]]
        got = oracle(*args)
        assert got.shape == (1000, 16, 2**players)
        assert np.max(np.abs(got - dense_probs(state(*args), build(eta(players))))) <= 1e-15
        assert np.allclose(got.sum(axis=-1), 1.0)

    def test_game_states_are_the_rows_transposed(self):
        rng = np.random.default_rng(67)
        pairs = [random_su2_amplitudes(rng, 300) for _ in range(3)]
        rows = qstate._entangled_rows(*pairs)
        assert rows.shape == (8, 300)
        assert entangled_state(*pairs).tobytes() == rows.T.tobytes()
        assert game_state3(*(a for pair in pairs for a in pair)).tobytes() == rows.T.tobytes()
        two = qstate._entangled_rows(*pairs[:2])
        assert entangled_state(*pairs[:2]).tobytes() == two.T.tobytes()
        with pytest.raises(ValueError):
            entangled_state((1, 0))


class TestInBlocks:
    def test_blocks_are_leading_row_views(self):
        # indifference_check's (n, 1) x 16 broadcast in blocks of 100
        # profiles: runs of 6 whole leading rows, each a view of the inputs.
        rng = np.random.default_rng(83)
        a, b = rng.standard_normal((1000, 1)), rng.standard_normal(16)
        shape, largest, blocks = qstate.in_blocks(100, a, b)
        blocks = list(blocks)
        assert (shape, largest, len(blocks)) == ((1000, 16), 96, 167)
        start = 0
        for (block_a, block_b), block_shape, cols in blocks:
            assert np.shares_memory(block_a, a) and np.shares_memory(block_b, b)
            assert block_shape == np.broadcast(block_a, block_b).shape == (len(block_a), 16)
            assert cols == slice(start, start + 16 * len(block_a))
            start = cols.stop
        assert start == a.size * b.size
        # A leading row longer than the width is a block of its own.
        c = rng.standard_normal((2, 5000))
        shape, largest, blocks = qstate.in_blocks(4096, a[:2], b[:1], c)
        blocks = list(blocks)
        assert (shape, largest, len(blocks)) == ((2, 5000), 5000, 2)
        for block, block_shape, cols in blocks:
            assert all(np.shares_memory(z, w) for z, w in zip(block, (a, b, c)))
            assert block_shape == (1, 5000) and cols.stop - cols.start == 5000
        # A batch that fits one block is the inputs as given.
        shape, largest, [(block, block_shape, cols)] = qstate.in_blocks(16000, a, b)
        assert block[0] is a and block[1] is b
        assert (block_shape, largest, cols) == (shape, 16000, slice(0, 16000))


def in_new_thread(fn, *args):
    """fn(*args) on a thread of its own, which starts with no kept buffers."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def kept_slots():
    """The calling thread's kept block scratch: slot -> storage."""
    return dict(qstate._KEPT.slots)


class TestBlockBuffer:
    def test_kept_per_thread_and_grown_up_to_the_width(self):
        def calls():
            first = qstate.block_buffer(0, (2,), 30, 100)
            again = qstate.block_buffer(0, (2,), 20, 100)
            as_complex = qstate.block_buffer(0, (2,), 15, 100, complex)
            other_slot = qstate.block_buffer(1, (2,), 20, 100)
            grown = qstate.block_buffer(0, (3,), 100, 100)
            return first, again, as_complex, other_slot, grown, kept_slots()

        first, again, as_complex, other_slot, grown, kept = in_new_thread(calls)
        assert (first.shape, again.shape, grown.shape) == ((2, 30), (2, 20), (3, 100))
        assert as_complex.shape == (2, 15) and as_complex.dtype == complex
        assert np.shares_memory(first, again) and np.shares_memory(first, as_complex)
        assert not np.shares_memory(first, other_slot) and not np.shares_memory(first, grown)
        assert {slot: storage.size for slot, storage in kept.items()} == {0: 300, 1: 40}
        assert np.shares_memory(kept[0], grown)
        # Another thread keeps its own.
        assert not np.shares_memory(in_new_thread(qstate.block_buffer, 0, (2,), 30, 100), first)

    def test_wider_than_the_width_is_not_kept(self):
        def calls():
            return qstate.block_buffer(0, (), 300, 100), kept_slots()

        wide, kept = in_new_thread(calls)
        assert wide.shape == (300,) and kept == {}

    def test_kernels_share_the_slots(self):
        # The four sweep kernels and _embed, on batches wider than every
        # block, keep one set of slots, each as large as its largest user:
        # slot 0 either oracle's three blocks of complex rows, 768 KiB, which
        # also holds the 2-player coordinates (2, 4, 8192); slot 1 the
        # 3-player scratch, the first product, the halves pair and the term
        # row, 11 rows of 4096, 352 KiB, which also holds the 2-player term.
        # Their rows start on page boundaries, so each holds one page more.
        rng = np.random.default_rng(91)
        args = [z for _ in range(3) for z in random_su2_amplitudes(rng, 20000)]

        def calls():
            coordgame.theorem1_probs_batch(*args)
            oracle_probs3_batch(*args)
            coordgame.landsburg_probs_batch(*args[:4])
            oracle_probs2_batch(*args[:4])
            coordgame._embed(1, *args[:2])
            return kept_slots()

        kept = in_new_thread(calls)
        assert {slot: storage.nbytes for slot, storage in kept.items()} == {
            0: 3 * 2**18 + qstate.PAGE, 1: 11 * 2**15 + qstate.PAGE}


class TestOracleBufferContract:
    def test_wide_rows_are_correct_and_not_kept(self):
        # Rows of 3 widths: every block is one row longer than the width.
        rng = np.random.default_rng(89)
        for players, kernel in ((3, oracle_probs3_batch), (2, oracle_probs2_batch)):
            width = qstate._BLOCK_ENTRIES // 2**players
            args = [z.reshape(2, 3 * width) for _ in range(players)
                    for z in random_su2_amplitudes(rng, 6 * width)]

            def calls():
                wide = kernel(*args), kept_slots()
                return wide, kernel(*(z.reshape(-1) for z in args)), kept_slots()

            (got, kept_wide), flat, kept = in_new_thread(calls)
            assert kept_wide == {}
            assert np.array_equal(got, flat.reshape(got.shape))
            # The flat batch ran in blocks of the width; so much is kept,
            # and one page more to start the rows on page boundaries.
            assert {slot: storage.nbytes for slot, storage in kept.items()} == {
                0: 3 * 16 * qstate._BLOCK_ENTRIES + qstate.PAGE}

    def test_peak_allocation_is_near_the_output(self):
        # After a warm-up call the blocks reuse kept buffers, so the call's
        # peak traced allocation is its output and per-block temporaries.
        rng = np.random.default_rng(97)
        args = [z for _ in range(3) for z in random_su2_amplitudes(rng, 16384)]
        oracle_probs3_batch(*args)
        tracemalloc.start()
        try:
            out = oracle_probs3_batch(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * out.nbytes


class TestBasisChange3:
    def test_inverse_pair_product(self):
        m = basis_matrix3(ETA3)
        npt.assert_allclose(np.conj(m).T @ m, 2 * np.eye(8), atol=1e-12)

    def test_identity_strategy_lands_on_single_slot(self):
        w = to_action_basis3(game_state3(1, 0, 1, 0, 1, 0))
        hot = np.zeros(8, dtype=complex)
        hot[ACTION_LABELS3.index("NNN")] = 2.0
        npt.assert_allclose(w, hot, atol=1e-14)

    def test_round_trip(self):
        # M conj(M).T = 2 I, so M undoes to_action_basis3 up to the factor 2.
        rng = np.random.default_rng(37)
        m = basis_matrix3(ETA3)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        npt.assert_allclose(m @ to_action_basis3(v) / 2.0, v, atol=1e-12)
        rows = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        npt.assert_allclose(to_action_basis3(rows) @ m.T / 2.0, rows, atol=1e-12)

    def test_simplified_end_components(self):
        rng = np.random.default_rng(41)
        a, b = random_su2_amplitudes(rng, 1)
        p, q = random_su2_amplitudes(rng, 1)
        e, f = random_su2_amplitudes(rng, 1)
        w = to_action_basis3(game_state3(a, b, p, q, e, f)[0])
        ape = complex(a[0] * p[0] * e[0])
        bqf = complex(b[0] * q[0] * f[0])
        npt.assert_allclose(
            w[0], 2 * ape.real + 2j * bqf.imag, atol=1e-12
        )
        npt.assert_allclose(
            w[ACTION_LABELS3.index("FFF")],
            -2j * ape.imag - 2 * bqf.real,
            atol=1e-12,
        )


class TestMeasure:
    def test_point_mass(self):
        dist = measure(np.eye(4)[0], ["a", "b", "c", "d"])
        npt.assert_allclose(dist.probs, [1, 0, 0, 0], atol=0)

    def test_equal_superposition(self):
        dist = measure(np.array([1, 1]) / np.sqrt(2), ["h", "t"])
        npt.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-15)

    def test_normalizes_arbitrary_scale(self):
        dist = measure(np.array([3.0, 4.0]), ["h", "t"])
        npt.assert_allclose(dist.probs, [9 / 25, 16 / 25], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            measure(np.zeros(4), ACTION_LABELS2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_vector_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinite"):
                measure([bad, 0, 0, 0], ACTION_LABELS2)

    def test_identity_game_measures_all_no_flip(self):
        dist = oracle_distribution3(1, 0, 1, 0, 1, 0)
        assert dist.prob("NNN") == pytest.approx(1.0, abs=1e-12)
        assert sum(dist.as_dict().values()) == pytest.approx(1.0, abs=1e-12)

    def test_distribution_sums_to_one_for_random_strategies(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            gates = random_gates(rng, 3)
            dist = oracle_distribution3(
                gates[0].x, gates[0].y, gates[1].x, gates[1].y, gates[2].x, gates[2].y
            )
            assert np.sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
            assert np.min(dist.probs) >= 0.0


class TestGameState2:
    def test_identity_strategies(self):
        v = game_state2(1, 0, 1, 0)
        npt.assert_allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
        assert oracle_distribution2(1, 0, 1, 0).prob("NN") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_tensor_product(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            g1, g2 = random_gates(rng, 2)
            closed = game_state2(g1.x, g1.y, g2.x, g2.y)
            npt.assert_allclose(closed, local_action([g1, g2], ghz2()), atol=1e-12)

    def test_basis_is_orthonormal(self):
        m = basis_matrix2(ETA2)
        npt.assert_allclose(np.conj(m).T @ m, np.eye(4), atol=1e-12)
        e, ec = ETA2, np.conj(ETA2)
        printed = {
            "NN": [1, 0, 0, 1],
            "NF": [0, -ec, e, 0],
            "FN": [0, e, -ec, 0],
            "FF": [e**2, 0, 0, ec**2],
        }
        for k, label in enumerate(ACTION_LABELS2):
            npt.assert_allclose(m[:, k], np.array(printed[label]) / np.sqrt(2), atol=1e-15)

    def test_unentangled_pair_inner_product(self):
        b = basis_matrix2(ETA2)
        nn = b[:, ACTION_LABELS2.index("NN")]
        ff = b[:, ACTION_LABELS2.index("FF")]
        assert abs(np.vdot(nn, ff)) < 1e-12

    def test_no_flip_probability_is_squared_real_part(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            g1, g2 = random_gates(rng, 2)
            dist = oracle_distribution2(g1.x, g1.y, g2.x, g2.y)
            expected = (np.real(g1.x * g2.x + g1.y * g2.y)) ** 2
            assert dist.prob("NN") == pytest.approx(expected, abs=1e-12)

    def test_single_player_flip_lands_on_mixed_labels(self):
        f = flip_gate(ETA2)
        # Second tensor factor flipped: all weight on the NF slot.
        assert oracle_distribution2(1, 0, f.x, f.y).prob("NF") == pytest.approx(
            1.0, abs=1e-12
        )
        # First tensor factor flipped: all weight on the FN slot.
        assert oracle_distribution2(f.x, f.y, 1, 0).prob("FN") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_both_players_flip(self):
        f = flip_gate(ETA2)
        assert oracle_distribution2(f.x, f.y, f.x, f.y).prob("FF") == pytest.approx(
            1.0, abs=1e-12
        )


class TestMeyerPenny:
    def test_equal_superposition_strategy_always_wins(self):
        h = hadamard()
        for p in np.linspace(0.0, 1.0, 11):
            assert meyer_penny(float(p), h, h) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_mixes_change_nothing(self):
        h = hadamard()
        assert meyer_penny(0.0, h, h) == pytest.approx(1.0, abs=1e-12)
        assert meyer_penny(1.0, h, h) == pytest.approx(1.0, abs=1e-12)

    def test_identity_actions_with_certain_flip(self):
        ident = np.eye(2)
        assert meyer_penny(1.0, ident, ident) == pytest.approx(0.0, abs=1e-15)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            meyer_penny(1.5, hadamard(), hadamard())

    def test_density_matrices_stay_physical(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            u1, u2 = random_gates(rng, 2)
            for rho in penny_evolution(0.3, u1, u2):
                npt.assert_allclose(rho, rho.conj().T, atol=1e-12)
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_accepts_su2gate_inputs(self):
        g = SU2Gate(0, 1)
        assert meyer_penny(0.5, g, g) == pytest.approx(
            meyer_penny(0.5, g.matrix, g.matrix), abs=1e-15
        )

    def test_rejects_malformed_gate(self):
        with pytest.raises(ValueError):
            meyer_penny(0.5, np.eye(3), np.eye(2))


class TestOutcomeDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(["a", "b"], [0.7, 0.7])
        with pytest.raises(ValueError):
            OutcomeDistribution(["a"], [0.5, 0.5])

    @pytest.mark.parametrize(
        "probs", [[np.nan] * 4, [1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]
    )
    def test_non_finite_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            OutcomeDistribution(ACTION_LABELS2, probs)

    def test_lookup_and_deviation(self):
        d1 = OutcomeDistribution(["a", "b"], [0.25, 0.75])
        d2 = OutcomeDistribution(["b", "a"], [0.5, 0.5])
        assert d1.prob("b") == 0.75
        assert d1.max_deviation(d2) == pytest.approx(0.25)
