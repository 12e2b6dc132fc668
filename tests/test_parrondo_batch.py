"""The batched Parrondo kernels against their scalar entry points."""

import warnings

import numpy as np
import pytest

from hypergames import parrondo, verify
from hypergames.parrondo import (
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    Multiplexer3,
    block_unitarity_deviation,
    coin_blocks,
    fna_p_win,
    fna_p_win_batch,
    fna_p_win_pair,
    fna_p_win_pair_batch,
    hd_p_gain,
    hd_stationary,
    mux_from_coins,
    parrondo_effect_check,
    proper_initial_state,
    proper_quantized_gains,
    proper_quantized_gains_batch,
    quantized_p_gain,
    quantized_p_gain_batch,
    sequence_quantized_gains,
    sequence_quantized_gains_batch,
    superpose_mux,
    superposed_games_blocks,
)
from hypergames.qstate import SU2Gate, su2_matrices

N = 64


def unit_pairs(rng, shape):
    v = rng.standard_normal(shape + (4,))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v[..., 0] + 1j * v[..., 1], v[..., 2] + 1j * v[..., 3]


@pytest.fixture
def batch():
    rng = np.random.default_rng(20261018)
    coins, pa, pb = rng.uniform(0.02, 0.98, size=(3, N, 4))
    r = rng.uniform(size=N)
    gx, gy = unit_pairs(rng, (N, 4))
    qx, qy = unit_pairs(rng, (N, 3))
    qubits = [np.stack([qx[:, k], qy[:, k]], axis=-1) for k in range(3)]
    return coins, r, pa, pb, su2_matrices(gx, gy), qubits


def mux_of(blocks):
    return Multiplexer3(SU2Gate(b[0, 0], b[0, 1]) for b in blocks)


def superposed_mux(r, pa, pb):
    """superpose_mux of game A's type2 and game B's type1 multiplexers."""
    return superpose_mux(
        r, mux_from_coins(pa, CoinEmbedding(TYPE2)), mux_from_coins(pb, CoinEmbedding(TYPE1))
    )


def test_scalar_entry_points_equal_batch_rows_exactly(batch):
    coins, r, pa, pb, blocks, qubits = batch
    stationary = hd_stationary(coins)
    gains = hd_p_gain(coins)
    init = proper_initial_state(stationary)
    embedded = {kind: coin_blocks(coins, CoinEmbedding(kind)) for kind in (TYPE1, TYPE2)}
    proper = proper_quantized_gains_batch(coins)
    sequence = sequence_quantized_gains_batch(r, pa, pb)
    superposed = superposed_games_blocks(r, pa, pb)
    applied = quantized_p_gain_batch(superposed, init, 0)
    fna = fna_p_win_batch(blocks, *qubits)
    fna_pair = fna_p_win_pair_batch(blocks, *qubits)
    for k in range(N):
        assert np.array_equal(hd_stationary(coins[k]), stationary[k])
        assert np.array_equal(hd_p_gain(coins[k]), gains[k])
        assert np.array_equal(proper_initial_state(stationary[k]), init[k])
        for kind, arrays in embedded.items():
            assert np.array_equal(mux_from_coins(coins[k], CoinEmbedding(kind)).array, arrays[k])
        classical, quantum = proper_quantized_gains(coins[k])
        assert classical == proper[0][k]
        assert all(quantum[kind] == proper[1][kind][k] for kind in (TYPE1, TYPE2))
        classical, quantum = sequence_quantized_gains(r[k], pa[k], pb[k])
        assert classical == sequence[0][k]
        assert all(quantum[name] == sequence[1][name][k] for name in quantum)
        m = superposed_mux(r[k], pa[k], pb[k])
        assert np.array_equal(m.array, superposed[k])
        assert quantized_p_gain(m, init[k], 0) == applied[k]
        q = [qubit[k] for qubit in qubits]
        assert fna_p_win(mux_of(blocks[k]), *q) == fna[k]
        assert fna_p_win_pair(mux_of(blocks[k]), *q) == (fna_pair[0][k], fna_pair[1][k])


def test_block_application_matches_dense_matrix(batch):
    coins, r, pa, pb, blocks, qubits = batch
    rng = np.random.default_rng(7)
    sx, sy = unit_pairs(rng, (N, 4))
    states = np.stack([sx, sy], axis=-1).reshape(N, 8) / 2.0
    for k in range(N):
        muxes = [mux_from_coins(coins[k], CoinEmbedding(kind)) for kind in (TYPE1, TYPE2)]
        muxes += [superposed_mux(r[k], pa[k], pb[k]), mux_of(blocks[k])]
        for m in muxes:
            dense = m.matrix @ states[k]
            for w in (0, 1):
                won = np.sum(np.abs(dense[w::2]) ** 2)
                assert abs(quantized_p_gain_batch(m.array, states[k], w) - won) < 1e-15
            assert abs(block_unitarity_deviation(m.array) - np.max(
                np.abs(m.matrix.conj().T @ m.matrix - np.eye(8)))) < 1e-15


def reference_draws(seed, samples):
    """verify_parrondo's inputs drawn one sample at a time."""
    rng = np.random.default_rng(seed)
    coins, rs, pas, pbs = [], [], [], []
    for _ in range(samples):
        coins.append(rng.uniform(0.02, 0.98, size=4))
        rs.append(rng.uniform())
        pas.append(rng.uniform(0.02, 0.98, size=4))
        pbs.append(rng.uniform(0.02, 0.98, size=4))
    gates, qubits = [], []
    for _ in range(samples):
        pairs = [verify._random_pairs(rng, 1) for _ in range(7)]
        gates.append([[x[0], y[0]] for x, y in pairs[:4]])
        qubits.append([[x[0], y[0]] for x, y in pairs[4:]])
    return {
        "coins": np.array(coins),
        "r": np.array(rs),
        "pa": np.array(pas),
        "pb": np.array(pbs),
        "gates": np.array(gates),
        "qubits": np.array(qubits),
    }


@pytest.mark.parametrize("seed", [0, 7, 906064])
def test_verify_parrondo_draws_match_per_sample_loop(seed, monkeypatch):
    seen = {}

    def record(name, kernel, keys):
        def wrapper(*args):
            seen.update(zip(keys, args))
            return kernel(*args)

        monkeypatch.setattr(verify, name, wrapper)

    record("proper_quantized_gains_batch", verify.proper_quantized_gains_batch, ["coins"])
    record("sequence_quantized_gains_batch", verify.sequence_quantized_gains_batch,
           ["r", "pa", "pb"])
    record("fna_p_win_pair_batch", verify.fna_p_win_pair_batch,
           ["blocks", "q1", "q2", "q3"])
    samples = verify.DEFAULT_SAMPLES["parrondo"]
    assert verify.verify_parrondo(seed=seed)["passed"]
    ref = reference_draws(seed, samples)
    for key in ("coins", "r", "pa", "pb"):
        assert np.array_equal(seen[key], ref[key])
    assert np.array_equal(seen["blocks"][:, :, 0, :], ref["gates"])
    for k in range(3):
        assert np.array_equal(seen["q%d" % (k + 1)], ref["qubits"][:, k])


@pytest.mark.parametrize(
    "bad",
    [(1.0, 0.5, 0.0, 0.5), (0.5, 0.5, 0.5, 0.0), (0.5, 0.5, 0.5, 1.5), (np.nan, 0.5, 0.5, 0.5)],
)
def test_batched_bad_coin_row_raises_the_scalar_error(bad):
    rng = np.random.default_rng(3)
    coins = rng.uniform(0.02, 0.98, size=(5, 4))
    coins[3] = bad
    for fn in (hd_p_gain, hd_stationary, proper_quantized_gains):
        with pytest.raises(ValueError) as scalar:
            fn(HDGameParams(*bad))
        with pytest.raises(ValueError) as batched:
            (proper_quantized_gains_batch if fn is proper_quantized_gains else fn)(coins)
        assert str(batched.value) == str(scalar.value)


def test_nan_states_raise(batch):
    coins, _, _, _, blocks, qubits = batch
    init = proper_initial_state(hd_stationary(coins)).astype(complex)
    init[5, 2] = np.nan
    with pytest.raises(ValueError, match="initial state must have unit norm"):
        quantized_p_gain_batch(coin_blocks(coins, CoinEmbedding(TYPE1)), init, 0)
    for k in range(3):
        bad = [q.copy() for q in qubits]
        bad[k][7, 1] = np.nan
        for fn in (fna_p_win_batch, fna_p_win_pair_batch):
            with pytest.raises(ValueError, match="qubit states must have unit norm"):
                fn(blocks, *bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(1.0, np.inf), np.nan, 1e200, 1.2e154])
def test_non_finite_or_huge_amplitudes_raise_without_a_warning(batch, bad):
    # 1e200 overflows its square and 1.2e154 the sum of two squares.
    coins, _, _, _, blocks, qubits = batch
    init = proper_initial_state(hd_stationary(coins)).astype(complex)
    init[5, 2:4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="initial state must have unit norm"):
            quantized_p_gain_batch(coin_blocks(coins, CoinEmbedding(TYPE1)), init, 0)
        with pytest.raises(ValueError, match="initial state must have unit norm"):
            quantized_p_gain_batch(blocks, [bad, 0, 0, 0, 0, 0, 0, 0], 0)
        for k in range(3):
            bad_qubits = [q.copy() for q in qubits]
            bad_qubits[k][7] = bad
            for fn in (fna_p_win_batch, fna_p_win_pair_batch):
                with pytest.raises(ValueError, match="qubit states must have unit norm"):
                    fn(blocks, *bad_qubits)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda coins, r, pa, pb: proper_quantized_gains_batch(coins),
        lambda coins, r, pa, pb: sequence_quantized_gains_batch(r, pa, pb),
        lambda coins, r, pa, pb: parrondo_effect_check(0.005),
    ],
)
def test_each_kernel_solves_the_history_chain_once(batch, kernel, monkeypatch):
    solve = parrondo._hd_solve
    calls = []

    def counted(p):
        calls.append(p)
        return solve(p)

    monkeypatch.setattr(parrondo, "_hd_solve", counted)
    coins, r, pa, pb, _, _ = batch
    kernel(coins, r, pa, pb)
    assert len(calls) == 1
