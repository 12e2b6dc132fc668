"""The coordinate-first Parrondo kernels against the trailing-axis kernels
they replaced, kept here as references: the same bits on every layout and
shape, the same errors, and the same verify_parrondo report."""

import numpy as np
import pytest

from hypergames import parrondo, verify
from hypergames.parrondo import (
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    block_unitarity_deviation,
    capital_game_stationary,
    coin_blocks,
    fna_p_win_batch,
    fna_p_win_pair_batch,
    hd_stationary,
    parrondo_effect_check,
    proper_initial_state,
    proper_quantized_gains_batch,
    quantized_p_gain_batch,
    sequence_quantized_gains_batch,
    superposed_games_blocks,
)
from hypergames.qstate import ETA3, _unit_gaussian_rows, su2_matrices
from hypergames.records import check_record

SEEDS = (0, 1, 7, 123, 906064)


# ---- the trailing-axis kernels, as they were -------------------------------


def ref_params(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (4,):
        raise ValueError("expected 4 coin probabilities per game")
    valid = ((0.0 <= p) & (p <= 1.0)).all(axis=-1)
    if not valid.all():
        first = p.reshape(-1, 4)[~valid.reshape(-1)][0]
        raise ValueError(
            "coin probabilities must lie in [0, 1], got %r" % (HDGameParams(*map(float, first)),)
        )
    return p


def ref_hd_solve(p):
    p1, p2, p3, p4 = np.moveaxis(ref_params(p), -1, 0)
    n1, n2 = 1.0 - p1, 1.0 - p2
    y = p4 * (p3 + n1)
    if not np.all(y > 0.0):
        raise ValueError("history game undefined: y = p4(p3 + 1 - p1) vanishes")
    norm = n1 * (2.0 * p4 + n2) + p3 * p4
    raw = np.stack([p3 * p4, p4 * n1, p4 * n1, n1 * n2], axis=-1)
    return raw / norm[..., np.newaxis], y / norm


def ref_su2_matrices(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    m = np.empty(np.broadcast(x, y).shape + (2, 2), dtype=complex)
    m[..., 0, 0] = x
    m[..., 0, 1] = y
    m[..., 1, 0] = -np.conj(y)
    m[..., 1, 1] = np.conj(x)
    return m


def ref_coin_blocks(p, kind):
    gains = ref_params(p)
    phase = ETA3.conjugate()
    keep = np.sqrt(gains)
    flip = np.sqrt(1.0 - gains)
    if kind == TYPE1:
        return ref_su2_matrices(keep, -flip * phase)
    return ref_su2_matrices(1j * keep, 1j * flip * phase)


def ref_superpose(gamma1, gamma2, blocks1, blocks2):
    w1, w2 = (np.asarray(g)[..., np.newaxis, np.newaxis, np.newaxis] for g in (gamma1, gamma2))
    return w1 * blocks1 + w2 * blocks2


def ref_apply_blocks(blocks, state):
    pairs = np.asarray(state, dtype=complex)
    pairs = pairs.reshape(pairs.shape[:-1] + (4, 1, 2))
    out = blocks[..., 0] * pairs[..., 0] + blocks[..., 1] * pairs[..., 1]
    return out.reshape(out.shape[:-2] + (8,))


def ref_block_unitarity_deviation(blocks):
    gram = np.einsum("...ki,...kj->...ij", np.conj(blocks), blocks)
    return float(np.max(np.abs(gram - np.eye(2))))


def ref_proper_initial_state(pi):
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1:] != (4,):
        raise ValueError("expected 4 history weights")
    if not np.all(pi >= 0.0):
        raise ValueError("history weights must be nonnegative")
    if not np.all(np.isfinite(pi)):
        raise ValueError("history weights must be finite")
    if np.any(pi.sum(axis=-1) <= 0.0):
        raise ValueError("history weights must not all vanish")
    amps = np.zeros(pi.shape[:-1] + (8,))
    amps[..., 0::2] = np.sqrt(pi)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def ref_unit_rows(v, size, what):
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (size,):
        raise ValueError("%s must have %d amplitudes" % (what, size))
    if not (np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-9).all():
        raise ValueError("%s must have unit norm" % what)
    return v


def ref_quantized_p_gain_batch(blocks, init, win_qubit_value):
    if win_qubit_value not in (0, 1):
        raise ValueError("win_qubit_value must be 0 or 1")
    out = ref_apply_blocks(blocks, ref_unit_rows(init, 8, "initial state"))
    return np.sum(np.abs(out[..., win_qubit_value::2]) ** 2, axis=-1)


def ref_quantized_gains(p, blocks):
    stationary, classical = ref_hd_solve(p)
    init = ref_proper_initial_state(stationary)
    return classical, {k: ref_quantized_p_gain_batch(b, init, 0) for k, b in blocks.items()}


def ref_proper_quantized_gains_batch(p):
    return ref_quantized_gains(p, {kind: ref_coin_blocks(p, kind) for kind in (TYPE1, TYPE2)})


def ref_weight(r, what):
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise ValueError("%s weight r must lie in [0, 1]" % what)
    return r


def ref_superposed_games_blocks(r, pa, pb):
    r = ref_weight(r, "superposition")
    return ref_superpose(
        np.sqrt(r), np.sqrt(1.0 - r), ref_coin_blocks(pa, TYPE2), ref_coin_blocks(pb, TYPE1)
    )


def ref_sequence_quantized_gains_batch(r, pa, pb):
    w = ref_weight(r, "mixing")[..., np.newaxis]
    mixed = w * ref_params(pa) + (1.0 - w) * ref_params(pb)
    blocks = {
        "superposed": ref_superposed_games_blocks(r, pa, pb),
        "second_quantization": ref_coin_blocks(mixed, TYPE1),
    }
    return ref_quantized_gains(mixed, blocks)


def ref_fna_p_win_batch(blocks, q1, q2, q3):
    q1, q2, q3 = (ref_unit_rows(q, 2, "qubit states") for q in (q1, q2, q3))
    x, y = blocks[..., 0, 0], blocks[..., 0, 1]
    loss_to_win = (
        np.abs(np.conj(x) * q3[..., 1, np.newaxis] - np.conj(y) * q3[..., 0, np.newaxis]) ** 2
    )
    w1, w2 = np.abs(q1) ** 2, np.abs(q2) ** 2
    first = w2[..., 0] * loss_to_win[..., 0] + w2[..., 1] * loss_to_win[..., 1]
    second = w2[..., 0] * loss_to_win[..., 2] + w2[..., 1] * loss_to_win[..., 3]
    return w1[..., 0] * first + w1[..., 1] * second


def ref_fna_p_win_pair_batch(blocks, q1, q2, q3):
    closed = ref_fna_p_win_batch(blocks, q1, q2, q3)
    q1, q2, q3 = (np.asarray(q, dtype=complex) for q in (q1, q2, q3))
    state = q1[..., :, None, None] * q2[..., None, :, None] * q3[..., None, None, :]
    return closed, ref_quantized_p_gain_batch(blocks, state.reshape(state.shape[:-3] + (8,)), 1)


def ref_verify_parrondo(samples, seed, tol=1e-12):
    """verify_parrondo with its draws and kernels as they were."""
    rng = np.random.default_rng(seed)
    checks = []
    dev_b = np.max(
        np.abs(capital_game_stationary(0.1, 0.75) - np.array([5.0, 2.0, 6.0]) / 13.0)
    )
    dev_mix = np.max(
        np.abs(capital_game_stationary(0.3, 0.625) - np.array([245.0, 180.0, 284.0]) / 709.0)
    )
    checks.append(check_record("capital-game stationary states", 2, tol, max(dev_b, dev_mix)))
    u = rng.random((samples, 13))
    scaled = 0.02 + (0.98 - 0.02) * u
    coins, r, pa, pb = scaled[:, :4], u[:, 4], scaled[:, 5:9], scaled[:, 9:13]
    classical, quantum = ref_proper_quantized_gains_batch(coins)
    dev_proper = max(np.max(np.abs(g - classical)) for g in quantum.values())
    classical, quantum = ref_sequence_quantized_gains_batch(r, pa, pb)
    dev_sequence = max(np.max(np.abs(g - classical)) for g in quantum.values())
    dev_unitary = ref_block_unitarity_deviation(ref_superposed_games_blocks(r, pa, pb))
    checks += [
        check_record("proper quantization reproduces classical gain", samples, tol, dev_proper),
        check_record("randomized-sequence quantizations mix coins", samples, tol, dev_sequence),
        check_record("superposed multiplexers stay unitary", samples, tol, dev_unitary),
    ]
    x, y = (v.reshape(samples, 7) for v in verify._random_pairs(rng, 7 * samples))
    qubits = (np.stack([x[:, k], y[:, k]], axis=-1) for k in (4, 5, 6))
    closed, direct = ref_fna_p_win_pair_batch(ref_su2_matrices(x[:, :4], y[:, :4]), *qubits)
    checks.append(check_record(
        "product-state closed form vs simulation", samples, tol, np.max(np.abs(closed - direct))))
    effect = parrondo_effect_check(1.0 / 200.0)
    checks.append(check_record(
        "losing games combine into a winning mixture at epsilon 1/200", 1, 0.0,
        0.0 if effect["effect"] else 1.0))
    return verify._report("parrondo", seed, checks)


# ---- inputs ----------------------------------------------------------------


def suite_inputs(seed, samples=1000):
    """verify_parrondo's draws at seed, C-ordered as it drew them before."""
    rng = np.random.default_rng(seed)
    u = rng.random((samples, 13))
    scaled = 0.02 + (0.98 - 0.02) * u
    v = _unit_gaussian_rows(rng, 7 * samples).reshape(samples, 7, 4)
    x, y = v[..., 0] + 1j * v[..., 1], v[..., 2] + 1j * v[..., 3]
    return {
        "coins": np.ascontiguousarray(scaled[:, :4]),
        "r": u[:, 4].copy(),
        "pa": np.ascontiguousarray(scaled[:, 5:9]),
        "pb": np.ascontiguousarray(scaled[:, 9:13]),
        "blocks": ref_su2_matrices(x[:, :4], y[:, :4]),
        "qubits": [np.stack([x[:, k], y[:, k]], axis=-1) for k in (4, 5, 6)],
        "states": (np.stack([x[:, :4], y[:, :4]], axis=-1) / 2.0).reshape(samples, 8),
    }


def coordinate_first(a, core):
    """a with the same values, its last core axes leading in memory."""
    moved = np.ascontiguousarray(np.moveaxis(a, range(-core, 0), range(core)))
    return np.moveaxis(moved, range(core), range(-core, 0))


LAYOUTS = {
    "c_order": lambda a, core: np.ascontiguousarray(a),
    "coordinate_first": coordinate_first,
    "strided": lambda a, core: np.repeat(a, 2, axis=0)[::2],
}


def same(got, expected):
    """Bitwise equal, NaN included, with the same shape and dtype."""
    if isinstance(expected, tuple):
        return len(got) == len(expected) and all(map(same, got, expected))
    if isinstance(expected, dict):
        return got.keys() == expected.keys() and all(same(got[k], expected[k]) for k in expected)
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and np.array_equal(got, expected, equal_nan=True))


def kernel_pairs(d, layout):
    """(name, change, reference) for every kernel on the inputs d, each
    array laid out by layout."""
    lay = LAYOUTS[layout]
    coins, r, pa, pb = lay(d["coins"], 1), lay(d["r"], 0), lay(d["pa"], 1), lay(d["pb"], 1)
    blocks, states = lay(d["blocks"], 3), lay(d["states"], 1)
    qubits = [lay(q, 1) for q in d["qubits"]]
    superposed = ref_superposed_games_blocks(r, pa, pb)
    stationary = ref_hd_solve(coins)[0]
    return [
        ("hd_stationary", lambda: hd_stationary(coins), lambda: stationary),
        ("coin_blocks", lambda: [coin_blocks(coins, CoinEmbedding(k)) for k in (TYPE1, TYPE2)],
         lambda: [ref_coin_blocks(coins, k) for k in (TYPE1, TYPE2)]),
        ("su2_matrices", lambda: su2_matrices(blocks[..., 0, 0], blocks[..., 0, 1]),
         lambda: ref_su2_matrices(blocks[..., 0, 0], blocks[..., 0, 1])),
        ("proper_initial_state", lambda: proper_initial_state(lay(stationary, 1)),
         lambda: ref_proper_initial_state(lay(stationary, 1))),
        ("quantized_p_gain_batch",
         lambda: [quantized_p_gain_batch(blocks, states, w) for w in (0, 1)],
         lambda: [ref_quantized_p_gain_batch(blocks, states, w) for w in (0, 1)]),
        ("proper_quantized_gains_batch", lambda: proper_quantized_gains_batch(coins),
         lambda: ref_proper_quantized_gains_batch(coins)),
        ("superposed_games_blocks", lambda: superposed_games_blocks(r, pa, pb),
         lambda: superposed),
        ("sequence_quantized_gains_batch", lambda: sequence_quantized_gains_batch(r, pa, pb),
         lambda: ref_sequence_quantized_gains_batch(r, pa, pb)),
        ("block_unitarity_deviation",
         lambda: [block_unitarity_deviation(b) for b in (superposed, blocks, lay(superposed, 3))],
         lambda: [ref_block_unitarity_deviation(b) for b in (superposed, blocks, lay(superposed, 3))]),
        ("fna_p_win_batch", lambda: fna_p_win_batch(blocks, *qubits),
         lambda: ref_fna_p_win_batch(blocks, *qubits)),
        ("fna_p_win_pair_batch", lambda: fna_p_win_pair_batch(blocks, *qubits),
         lambda: ref_fna_p_win_pair_batch(blocks, *qubits)),
    ]


def assert_kernels_match(d, layout, skip=()):
    for name, change, reference in kernel_pairs(d, layout):
        if name in skip:
            continue
        got, expected = change(), reference()
        if isinstance(expected, list):
            assert all(same(g, e) for g, e in zip(got, expected)), name
        else:
            assert same(got, expected), name


# ---- the same bits ---------------------------------------------------------


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_suite_inputs_keep_their_bits(seed, layout):
    assert_kernels_match(suite_inputs(seed), layout)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("samples", [0, 1, 3])
def test_small_and_empty_batches_keep_their_bits(samples, layout):
    # the reference's unitarity deviation raises on no blocks; see below
    skip = ("block_unitarity_deviation",) if samples == 0 else ()
    assert_kernels_match(suite_inputs(11, samples), layout, skip)


def test_one_block_set_against_many_states():
    d = suite_inputs(5, 200)
    blocks = d["blocks"][:1]
    for b in (blocks, coordinate_first(blocks, 3), blocks[0]):
        for states in (d["states"], coordinate_first(d["states"], 1)):
            for w in (0, 1):
                assert same(quantized_p_gain_batch(b, states, w),
                            ref_quantized_p_gain_batch(b, states, w))
        assert same(fna_p_win_pair_batch(b, *d["qubits"]), ref_fna_p_win_pair_batch(b, *d["qubits"]))


def test_mixed_batch_ranks_broadcast_as_before():
    d = suite_inputs(9, 6)
    coins, pa, pb, r = d["coins"], d["pa"], d["pb"], d["r"]
    q = d["qubits"]
    for args in ((r, pa[0], pb[0]), (r[0], pa, pb[0]), (r.reshape(2, 3), pa[:3], pb[0])):
        assert same(sequence_quantized_gains_batch(*args), ref_sequence_quantized_gains_batch(*args))
        assert same(superposed_games_blocks(*args), ref_superposed_games_blocks(*args))
    assert same(fna_p_win_pair_batch(d["blocks"], q[0][0], q[1], q[2][:1]),
                ref_fna_p_win_pair_batch(d["blocks"], q[0][0], q[1], q[2][:1]))
    grid = coins.reshape(2, 3, 4)
    assert same(proper_quantized_gains_batch(grid), ref_proper_quantized_gains_batch(grid))


def test_scalar_inputs_keep_their_bits():
    d = suite_inputs(4, 1)
    coins, blocks, states = d["coins"][0], d["blocks"][0], d["states"][0]
    assert same(hd_stationary(coins), ref_hd_solve(coins)[0])
    assert same(proper_initial_state(coins), ref_proper_initial_state(coins))
    assert same(coin_blocks(coins, CoinEmbedding(TYPE2)), ref_coin_blocks(coins, TYPE2))
    assert same(quantized_p_gain_batch(blocks, states, 1), ref_quantized_p_gain_batch(blocks, states, 1))
    assert same(block_unitarity_deviation(blocks), ref_block_unitarity_deviation(blocks))
    q = [qubit[0] for qubit in d["qubits"]]
    assert same(fna_p_win_pair_batch(blocks, *q), ref_fna_p_win_pair_batch(blocks, *q))


def test_unit_norm_verdicts_at_the_tolerance_edge():
    """States whose norms sit within a few ulps of 1 + 1e-9 and 1 - 1e-9:
    each is accepted or rejected exactly as np.linalg.norm decides, so the
    norm keeps its 8-term and 2-term sums."""
    rng = np.random.default_rng(20261019)
    for size, kernel in ((8, lambda v: quantized_p_gain_batch(np.eye(2)[None].repeat(4, 0), v, 0)),
                         (2, lambda v: fna_p_win_batch(np.eye(2)[None].repeat(4, 0), v, v, v))):
        v = rng.standard_normal((4000, size)) + 1j * rng.standard_normal((4000, size))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        edges = np.where(np.arange(4000) % 2, 1.0 + 1e-9, 1.0 - 1e-9)
        v *= (edges * (1.0 + rng.integers(-6, 7, 4000) * 2.0**-52))[:, None]
        verdicts = []
        for row in v:
            try:
                kernel(row)
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
        expected = np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-9
        assert 100 < expected.sum() < 3900
        assert verdicts == list(expected)


def test_block_unitarity_deviation_of_each_block_keeps_its_bits():
    """One block at a time, so the off-diagonal entries of B^H B decide
    as many maxima as the diagonal ones: random blocks, and blocks whose
    columns have unit norm but are not orthogonal."""
    rng = np.random.default_rng(20261020)
    blocks = rng.standard_normal((400, 4, 2, 2)) + 1j * rng.standard_normal((400, 4, 2, 2))
    tilted = blocks / np.linalg.norm(blocks, axis=-2, keepdims=True)
    decided_off = 0
    for b in np.concatenate([blocks, tilted]):
        assert same(block_unitarity_deviation(b), ref_block_unitarity_deviation(b))
        gram = np.einsum("ki,kj->ij", b[0].conj(), b[0])
        decided_off += abs(gram[0, 1]) > abs(gram[0, 0] - 1.0)
    assert decided_off > 100
    for layout in LAYOUTS:
        laid = LAYOUTS[layout](tilted, 3)
        assert same(block_unitarity_deviation(laid), ref_block_unitarity_deviation(laid))


def test_block_unitarity_deviation_of_no_blocks_is_zero():
    assert block_unitarity_deviation(np.empty((0, 4, 2, 2), dtype=complex)) == 0.0
    assert block_unitarity_deviation(np.empty((3, 0, 4, 2, 2))) == 0.0
    with pytest.raises(ValueError, match="zero-size"):
        ref_block_unitarity_deviation(np.empty((0, 4, 2, 2), dtype=complex))


def test_block_unitarity_deviation_of_a_nan_block_is_nan():
    blocks = suite_inputs(2, 10)["blocks"].copy()
    for entry in ((4, 1, 0, 0), (7, 3, 1, 1), (0, 0, 0, 1)):
        bad = blocks.copy()
        bad[entry] = complex(np.nan, 0.0)
        assert np.isnan(block_unitarity_deviation(bad))
        assert np.isnan(ref_block_unitarity_deviation(bad))


# ---- the same errors -------------------------------------------------------


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_coin_errors_name_the_same_first_bad_row(layout):
    coins = suite_inputs(3, 12)["coins"].copy()
    coins[7] = (0.5, 1.5, 0.5, 0.5)
    coins[4, 2] = np.nan
    coins[9, 0] = -0.25
    coins = LAYOUTS[layout](coins, 1)
    message = raised(ref_params, coins)
    assert "nan" in message
    assert raised(parrondo._params, coins) == message
    assert raised(hd_stationary, coins) == message
    assert raised(proper_quantized_gains_batch, coins) == message
    assert raised(coin_blocks, coins, CoinEmbedding(TYPE1)) == message
    pa = suite_inputs(3, 12)["pa"]
    r = np.full(12, 0.5)
    assert raised(sequence_quantized_gains_batch, r, coins, pa) == message
    assert raised(sequence_quantized_gains_batch, r, pa, coins) == message
    assert raised(parrondo._params, np.ones((3, 5))) == raised(ref_params, np.ones((3, 5)))


def test_state_and_qubit_errors_are_the_same():
    d = suite_inputs(6, 8)
    blocks, states, q = d["blocks"], d["states"], d["qubits"]
    bad_states = [states.copy() for _ in range(3)]
    bad_states[0][3, 5] = np.nan
    bad_states[1][2] *= 1.001
    bad_states[2] = states[:, :6]
    for bad in bad_states:
        for layout in LAYOUTS:
            laid = LAYOUTS[layout](bad, 1)
            assert raised(quantized_p_gain_batch, blocks, laid, 0) == raised(
                ref_quantized_p_gain_batch, blocks, laid, 0)
    assert raised(quantized_p_gain_batch, blocks, states, 2) == raised(
        ref_quantized_p_gain_batch, blocks, states, 2)
    for k in range(3):
        for change in (lambda a: a.__setitem__((5, 1), np.inf), lambda a: a.__imul__(0.5)):
            bad = [qubit.copy() for qubit in q]
            change(bad[k])
            for fn, ref in ((fna_p_win_batch, ref_fna_p_win_batch),
                            (fna_p_win_pair_batch, ref_fna_p_win_pair_batch)):
                with np.errstate(invalid="ignore"):
                    assert raised(fn, blocks, *bad) == raised(ref, blocks, *bad)
    weights = [(0.5, -0.1, 0.3, 0.3), (0.0, 0.0, 0.0, 0.0), (0.5, 0.5), (np.inf, 1, 1, 1)]
    for w in weights:
        assert raised(proper_initial_state, w) == raised(ref_proper_initial_state, w)


# ---- the layout and the suite ----------------------------------------------


def test_outputs_are_coordinate_first_memory():
    d = suite_inputs(8, 50)
    coins, r, pa, pb = d["coins"], d["r"], d["pa"], d["pb"]
    assert np.moveaxis(coin_blocks(coins, CoinEmbedding(TYPE1)), (-2, -1, -3), (0, 1, 2)).flags.c_contiguous
    assert np.moveaxis(superposed_games_blocks(r, pa, pb), (-2, -1, -3), (0, 1, 2)).flags.c_contiguous
    assert np.moveaxis(su2_matrices(r, np.sqrt(1.0 - r * r)), (-2, -1), (0, 1)).flags.c_contiguous
    assert hd_stationary(coins).T.flags.c_contiguous
    assert proper_initial_state(coins).T.flags.c_contiguous
    assert su2_matrices(0.6, 0.8).shape == (2, 2)


@pytest.mark.parametrize("samples", [1, 5, 1000])
@pytest.mark.parametrize("seed", SEEDS)
def test_verify_parrondo_records_are_unchanged(seed, samples):
    assert verify.verify_parrondo(samples=samples, seed=seed) == ref_verify_parrondo(samples, seed)
