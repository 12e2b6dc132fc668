"""Coin games with losing parts that combine into winning wholes.

Two classical games are analyzed through their Markov chains: a
capital-dependent game on a 3-state chain (coin choice keyed to capital mod
3) and a history-dependent game on a 4-state chain (coin choice keyed to
the last two results).  Their quantizations act on three qubits with a
quantum multiplexer, a block-diagonal unitary applying one SU(2) coin per
history; evaluated on the stationary-weighted embedded state, the quantum
win probability reproduces the classical one exactly, which is the property
the constructions here are tested against.

Randomized sequences of two games are quantized two ways: by superposing
two multiplexers built with deliberately different coin embeddings (the
phase offset keeps the sum unitary), or by embedding the convex-combined
coin biases directly.  A third quantization that starts from an unentangled
product state instead of an embedded mixture is provided for the win-on-one
convention, with its closed-form win probability.

Every formula has one batched kernel.  Coins are (..., 4) arrays, and a
multiplexer is its (..., 4, 2, 2) array of diagonal blocks, applied to
(..., 8) states block by block without forming the 8x8 matrix.  The
scalar entry points pass a batch of one and take row 0, so they agree
with the kernels' other rows bit for bit; Multiplexer3 and SuperposedMux
are single-multiplexer views that assemble the dense matrix on demand.

History convention for the 4-state chain: state j means (result two steps
ago, last result) in the order GG, GL, LG, LL, and coin j is the gain
probability used at state j.  The literature also writes these formulas
with the opposite letter order; hd_params_reversed translates between the
two conventions.
"""

from typing import NamedTuple

import numpy as np

from .qstate import ETA3, SU2Gate, batch_of_one, su2_matrices

TYPE1 = "type1"
TYPE2 = "type2"


class HDGameParams(NamedTuple):
    """Gain probabilities of the four history-conditioned coins."""

    p1: float
    p2: float
    p3: float
    p4: float


def _params(p):
    """Coin probabilities as a (..., 4) float array, each in [0, 1]."""
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


def hd_transition_matrix(p):
    """Column-stochastic transition matrix of the history chain.

    Column j holds the distribution of the next state when leaving state j;
    a gain shifts the remembered pair toward GG, a loss toward LL.
    """
    p1, p2, p3, p4 = _params(p)
    return np.array(
        [
            [p1, 0.0, p3, 0.0],
            [1.0 - p1, 0.0, 1.0 - p3, 0.0],
            [0.0, p2, 0.0, p4],
            [0.0, 1.0 - p2, 0.0, 1.0 - p4],
        ]
    )


def _hd_params(p):
    """Coins of history games whose stationary state and gain are defined.

    Both need y = p4(p3 + 1 - p1) > 0.  The stationary normalization is y
    plus (1 - p1)(1 - p2 + p4), a sum of nonnegative terms, so it vanishes
    only where y does; hd_stationary and hd_p_gain reject the same coins.
    """
    q = _params(p)
    p1, _, p3, p4 = np.moveaxis(q, -1, 0)
    if not np.all(p4 * (p3 + 1.0 - p1) > 0.0):
        raise ValueError("history game undefined: y = p4(p3 + 1 - p1) vanishes")
    return q


def hd_stationary(p):
    """Stationary distributions of history chains, in closed form.

    Takes (..., 4) coins to (..., 4) distributions.
    """
    p1, p2, p3, p4 = np.moveaxis(_hd_params(p), -1, 0)
    raw = np.stack(
        [
            p3 * p4,
            p4 * (1.0 - p1),
            p4 * (1.0 - p1),
            (1.0 - p1) * (1.0 - p2),
        ],
        axis=-1,
    )
    norm = (1.0 - p1) * (2.0 * p4 + 1.0 - p2) + p3 * p4
    return raw / norm[..., np.newaxis]


def hd_p_gain(p):
    """Long-run single-round gain probability of history games, shape (...).

    Written as 1/(2 + x/y); the game is losing, fair, or winning according
    to the sign of x.  Equals the stationary-weighted coin average.
    """
    p1, p2, p3, p4 = np.moveaxis(_hd_params(p), -1, 0)
    y = p4 * (p3 + 1.0 - p1)
    x = (1.0 - p1) * (1.0 - p2) - p3 * p4
    return 1.0 / (2.0 + x / y)


def _fixed_point_residual(matrix, stationary):
    return float(np.max(np.abs(matrix @ stationary - stationary)))


def hd_chain(p):
    """Stationary state of the history chain and the largest change one
    chain step makes to it, its fixed-point residual."""
    stationary = hd_stationary(p)
    return stationary, _fixed_point_residual(hd_transition_matrix(p), stationary)


def hd_params_reversed(p):
    """Translate coin parameters to the opposite history-letter order."""
    return HDGameParams(*(float(v) for v in _params(p)[::-1]))


def capital_transition_matrix(p1, p2):
    """Column-stochastic matrix of the capital game on residues mod 3.

    Coin p1 plays when the capital is divisible by 3, coin p2 otherwise; a
    win adds one unit of capital, a loss removes one.
    """
    p1, p2 = float(p1), float(p2)
    for v in (p1, p2):
        if not 0.0 <= v <= 1.0:
            raise ValueError("coin probabilities must lie in [0, 1]")
    return np.array(
        [
            [0.0, 1.0 - p2, p2],
            [p1, 0.0, 1.0 - p2],
            [1.0 - p1, p2, 0.0],
        ]
    )


def capital_game_stationary(p1, p2):
    """Stationary distribution of the capital chain, 1-norm normalized."""
    t = capital_transition_matrix(p1, p2)
    u, s, vh = np.linalg.svd(t - np.eye(3))
    null_mask = s < 1e-10
    if np.count_nonzero(null_mask) != 1:
        raise ValueError("chain has no unique stationary state")
    pi = vh[-1].real
    pi = pi / pi.sum()
    if np.min(pi) < -1e-12:
        raise ValueError("chain has no unique stationary state")
    return np.clip(pi, 0.0, None)


def capital_chain(p1, p2):
    """Stationary state of the capital chain, its fixed-point residual, and
    the long-run win probability at stationarity, from one stationary solve."""
    stationary = capital_game_stationary(p1, p2)
    residual = _fixed_point_residual(capital_transition_matrix(p1, p2), stationary)
    gain = float(stationary[0] * p1 + (stationary[1] + stationary[2]) * p2)
    return stationary, residual, gain


def capital_p_gain(p1, p2):
    """Long-run win probability of the capital game at stationarity."""
    return capital_chain(p1, p2)[2]


def classify_gain(p_gain, tol=1e-12):
    """Label a gain probability as winning, fair, or losing."""
    if p_gain > 0.5 + tol:
        return "winning"
    if p_gain < 0.5 - tol:
        return "losing"
    return "fair"


class CoinEmbedding(NamedTuple):
    """Choice of unitary embedding for a classical coin.

    type1 mixes the identity with a twisted flip; type2 mixes the same two
    gates premultiplied by the imaginary unit, which offsets the phase of
    every entry by a quarter turn.  eta must be a sixth root of unity.
    """

    kind: str
    eta: complex = ETA3


def _check_embedding(e):
    if e.kind not in (TYPE1, TYPE2):
        raise ValueError("embedding kind must be %r or %r" % (TYPE1, TYPE2))
    eta = complex(e.eta)
    if abs(eta**6 - 1.0) > 1e-9:
        raise ValueError("embedding phase must satisfy eta**6 = 1")
    return e.kind, eta


def coin_blocks(p, e):
    """Multiplexer blocks embedding (..., 4) coins, shape (..., 4, 2, 2).

    With either embedding the squared magnitude of each block's diagonal
    stays the coin's gain probability, which is what makes the quantization
    proper.
    """
    gains = _params(p)
    kind, eta = _check_embedding(e)
    phase = eta.conjugate()
    keep = np.sqrt(gains)
    flip = np.sqrt(1.0 - gains)
    if kind == TYPE1:
        return su2_matrices(keep, -flip * phase)
    return su2_matrices(1j * keep, 1j * flip * phase)


def _superpose(gamma1, gamma2, blocks1, blocks2):
    """gamma1 * blocks1 + gamma2 * blocks2 for (...) weights."""
    w1, w2 = (np.asarray(g)[..., np.newaxis, np.newaxis, np.newaxis] for g in (gamma1, gamma2))
    return w1 * blocks1 + w2 * blocks2


def apply_blocks(blocks, state):
    """Multiplexers (..., 4, 2, 2) applied to states (..., 8).

    Block j acts on the amplitude pair (2j, 2j + 1), the last qubit at
    history j; that is the 8x8 block-diagonal matrix's product, whose
    off-block entries are zero.
    """
    pairs = np.asarray(state, dtype=complex)
    pairs = pairs.reshape(pairs.shape[:-1] + (4, 1, 2))
    out = blocks[..., 0] * pairs[..., 0] + blocks[..., 1] * pairs[..., 1]
    return out.reshape(out.shape[:-2] + (8,))


def block_unitarity_deviation(blocks):
    """Largest entry of B^H B - I over all 2x2 blocks.

    Equals the deviation of the assembled 8x8 matrices from unitarity:
    their off-block entries are exact zeros.
    """
    gram = np.einsum("...ki,...kj->...ij", np.conj(blocks), blocks)
    return float(np.max(np.abs(gram - np.eye(2))))


# Flat indices into an 8x8 matrix of the four entries of each 2x2 diagonal
# block, row by row.
_BLOCK_ENTRIES = np.array(
    [8 * (2 * j + r) + 2 * j + c for j in range(4) for r in (0, 1) for c in (0, 1)]
)


def _dense(blocks):
    """The 8x8 block-diagonal matrix of a (4, 2, 2) block array."""
    m = np.zeros(64, dtype=complex)
    m[_BLOCK_ENTRIES] = blocks.reshape(16)
    return m.reshape(8, 8)


def _gate_array(gates):
    return su2_matrices([g.x for g in gates], [g.y for g in gates])


class Multiplexer3:
    """Three-qubit multiplexer: one SU(2) coin per two-qubit history.

    `array` holds the (4, 2, 2) blocks; the assembled matrix is block
    diagonal, acting on the last qubit with the block selected by the
    first two qubits.
    """

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if len(blocks) != 4 or not all(isinstance(b, SU2Gate) for b in blocks):
            raise ValueError("a multiplexer needs exactly 4 SU2Gate blocks")
        self.blocks = blocks
        self.array = _gate_array(blocks)

    @property
    def matrix(self):
        return _dense(self.array)

    def __repr__(self):
        return "Multiplexer3(blocks=%r)" % (self.blocks,)


def mux_from_coins(p, e):
    """Multiplexer whose blocks embed the four classical coins; a batch of
    one through coin_blocks."""
    blocks = coin_blocks(*batch_of_one(p), e)[0]
    return Multiplexer3(SU2Gate(b[0, 0], b[0, 1]) for b in blocks)


def proper_initial_state(pi):
    """Embed history distributions as states with the win slots loaded.

    Square roots of the weights sit on the (history, gain) basis states;
    each vector is normalized so unnormalized weights are accepted.  Takes
    (..., 4) weights to (..., 8) states.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1:] != (4,):
        raise ValueError("expected 4 history weights")
    if np.any(pi < 0.0):
        raise ValueError("history weights must be nonnegative")
    if np.any(pi.sum(axis=-1) <= 0.0):
        raise ValueError("history weights must not all vanish")
    amps = np.zeros(pi.shape[:-1] + (8,))
    amps[..., 0::2] = np.sqrt(pi)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def quantized_p_gain_batch(blocks, init, win_qubit_value):
    """Win probabilities after one application of each multiplexer.

    Sums the squared output amplitudes over basis states whose last qubit
    carries the winning value.  blocks (..., 4, 2, 2), init (..., 8) unit
    states; returns shape (...).
    """
    if win_qubit_value not in (0, 1):
        raise ValueError("win_qubit_value must be 0 or 1")
    init = np.asarray(init, dtype=complex)
    if init.shape[-1:] != (8,):
        raise ValueError("initial state must have 8 amplitudes")
    if np.any(np.abs(np.linalg.norm(init, axis=-1) - 1.0) > 1e-9):
        raise ValueError("initial state must have unit norm")
    out = apply_blocks(blocks, init)
    return np.sum(np.abs(out[..., win_qubit_value::2]) ** 2, axis=-1)


def quantized_p_gain(m, init, win_qubit_value):
    """Win probability after one application of the multiplexer view m; a
    batch of one through quantized_p_gain_batch."""
    return float(quantized_p_gain_batch(*batch_of_one(m.array, init), win_qubit_value)[0])


def proper_quantized_gains_batch(p):
    """Classical gains of history games and of their two proper quantizations.

    Returns (classical, {TYPE1: gains, TYPE2: gains}) for (..., 4) coins.
    Each quantization applies the coins' multiplexer once to the
    stationary-weighted embedded state; being proper, both reproduce the
    classical gain.
    """
    classical = hd_p_gain(p)
    init = proper_initial_state(hd_stationary(p))
    return classical, {
        kind: quantized_p_gain_batch(coin_blocks(p, CoinEmbedding(kind)), init, 0)
        for kind in (TYPE1, TYPE2)
    }


def proper_quantized_gains(p):
    """proper_quantized_gains_batch for one coin set, as floats."""
    classical, gains = proper_quantized_gains_batch(*batch_of_one(p))
    return float(classical[0]), {kind: float(g[0]) for kind, g in gains.items()}


class SuperposedMux:
    """Weighted sum of two multiplexers.

    The weights must satisfy gamma1**2 + gamma2**2 = 1 with a real relative
    phase; when the two multiplexers use quarter-turn-offset embeddings
    (one type2, one type1) the summed matrix is again unitary.
    """

    def __init__(self, gamma1, gamma2, mux1, mux2):
        gamma1, gamma2 = complex(gamma1), complex(gamma2)
        if abs(gamma1**2 + gamma2**2 - 1.0) > 1e-9:
            raise ValueError("weights must satisfy gamma1**2 + gamma2**2 = 1")
        if abs(np.conj(gamma1) * gamma2 - np.conj(gamma2) * gamma1) > 1e-9:
            raise ValueError("weights must have a real relative phase")
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.mux1 = mux1
        self.mux2 = mux2
        self.array = _superpose(gamma1, gamma2, mux1.array, mux2.array)

    @property
    def matrix(self):
        return _dense(self.array)

    def __repr__(self):
        return "SuperposedMux(gamma1=%r, gamma2=%r)" % (self.gamma1, self.gamma2)


def _weight(r, what):
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise ValueError("%s weight r must lie in [0, 1]" % what)
    return r


def superpose_mux(r, muxA, muxB):
    """Superpose two multiplexers with weights sqrt(r) and sqrt(1 - r).

    muxA should use the type2 embedding and muxB type1; that pairing keeps
    the superposition unitary, with the squared diagonal magnitudes mixing
    the two games' coins in proportion r to 1 - r.
    """
    r = float(_weight(r, "superposition"))
    return SuperposedMux(np.sqrt(r), np.sqrt(1.0 - r), muxA, muxB)


def _mixed_params(r, paramsA, paramsB):
    """The coins of game A played with probability r, game B otherwise."""
    r = _weight(r, "mixing")[..., np.newaxis]
    return r * _params(paramsA) + (1.0 - r) * _params(paramsB)


def superposed_games_blocks(r, paramsA, paramsB):
    """Blocks of game A's type2 and game B's type1 multiplexers superposed
    with weights sqrt(r) and sqrt(1 - r); r has shape (...)."""
    r = _weight(r, "superposition")
    return _superpose(
        np.sqrt(r),
        np.sqrt(1.0 - r),
        coin_blocks(paramsA, CoinEmbedding(TYPE2)),
        coin_blocks(paramsB, CoinEmbedding(TYPE1)),
    )


def superposed_games_mux(r, paramsA, paramsB):
    """superpose_mux of game A's type2 and game B's type1 multiplexers."""
    return superpose_mux(
        r,
        mux_from_coins(paramsA, CoinEmbedding(TYPE2)),
        mux_from_coins(paramsB, CoinEmbedding(TYPE1)),
    )


def second_quantization_mux(r, paramsA, paramsB):
    """Multiplexer embedding the convex combination of two coin sets.

    Instead of superposing two quantizations, quantize the randomized game
    itself: each history's effective gain probability is the r-weighted mix
    of the two games' coins, embedded type1.
    """
    return mux_from_coins(_mixed_params(r, paramsA, paramsB), CoinEmbedding(TYPE1))


def sequence_quantized_gains_batch(r, paramsA, paramsB):
    """Classical gains of playing game A with probability r, game B
    otherwise, and of their two quantizations.

    Returns (classical, {"superposed": gains, "second_quantization": gains})
    for (...) weights and (..., 4) coins, each quantization applied once to
    the mixed coins' stationary-weighted embedded state.
    """
    mixed = _mixed_params(r, paramsA, paramsB)
    init = proper_initial_state(hd_stationary(mixed))
    blocks = {
        "superposed": superposed_games_blocks(r, paramsA, paramsB),
        "second_quantization": coin_blocks(mixed, CoinEmbedding(TYPE1)),
    }
    return hd_p_gain(mixed), {
        k: quantized_p_gain_batch(b, init, 0) for k, b in blocks.items()
    }


def sequence_quantized_gains(r, paramsA, paramsB):
    """sequence_quantized_gains_batch for one weight and coin pair, as floats."""
    classical, gains = sequence_quantized_gains_batch(*batch_of_one(r, paramsA, paramsB))
    return float(classical[0]), {k: float(g[0]) for k, g in gains.items()}


def _unit_qubits(q):
    q = np.asarray(q, dtype=complex)
    if q.shape[-1:] != (2,):
        raise ValueError("qubit states need exactly 2 amplitudes")
    if np.any(np.abs(np.linalg.norm(q, axis=-1) - 1.0) > 1e-9):
        raise ValueError("qubit states must have unit norm")
    return q


def fna_p_win_batch(blocks, q1, q2, q3):
    """Closed-form win probabilities for the product-state quantization.

    The three qubits (..., 2) start unentangled; the multiplexer blocks
    (..., 4, 2, 2) apply coin j to the last qubit according to the first
    two, and a win is read on the last qubit being |1>.  Only the
    result-qubit amplitudes mix with the coins, so each probability is a
    short weighted sum.
    """
    q1, q2, q3 = (_unit_qubits(q) for q in (q1, q2, q3))
    x, y = blocks[..., 0, 0], blocks[..., 0, 1]
    loss_to_win = (
        np.abs(np.conj(x) * q3[..., 1, np.newaxis] - np.conj(y) * q3[..., 0, np.newaxis]) ** 2
    )
    w1, w2 = np.abs(q1) ** 2, np.abs(q2) ** 2
    first = w2[..., 0] * loss_to_win[..., 0] + w2[..., 1] * loss_to_win[..., 1]
    second = w2[..., 0] * loss_to_win[..., 2] + w2[..., 1] * loss_to_win[..., 3]
    return w1[..., 0] * first + w1[..., 1] * second


def fna_p_win_pair_batch(blocks, q1, q2, q3):
    """fna_p_win_batch next to the same win probabilities by direct simulation.

    The simulation applies the multiplexer blocks to the product state of
    the three qubits and reads a win on the last qubit being |1>.
    """
    closed = fna_p_win_batch(blocks, q1, q2, q3)
    q1, q2, q3 = (np.asarray(q, dtype=complex) for q in (q1, q2, q3))
    state = q1[..., :, None, None] * q2[..., None, :, None] * q3[..., None, None, :]
    return closed, quantized_p_gain_batch(blocks, state.reshape(state.shape[:-3] + (8,)), 1)


def _gate_rows(gates, q1, q2, q3):
    """Four SU2Gate coins and three qubits as batch-of-one kernel inputs."""
    gates = tuple(gates)
    if len(gates) != 4 or not all(isinstance(g, SU2Gate) for g in gates):
        raise ValueError("expected exactly 4 SU2Gate coins")
    return batch_of_one(_gate_array(gates), q1, q2, q3)


def fna_p_win(gates, q1, q2, q3):
    """fna_p_win_batch for four SU2Gate coins and three qubits."""
    return float(fna_p_win_batch(*_gate_rows(gates, q1, q2, q3))[0])


def fna_p_win_pair(gates, q1, q2, q3):
    """fna_p_win_pair_batch for four SU2Gate coins and three qubits."""
    closed, direct = fna_p_win_pair_batch(*_gate_rows(gates, q1, q2, q3))
    return float(closed[0]), float(direct[0])


def parrondo_effect_check(epsilon):
    """Evaluate the canonical losing-plus-losing-wins parameter family.

    Game A flips a single coin with gain probability 1/2 - epsilon; game B
    plays history coins (9/10, 1/4, 1/4, 7/10) shifted down by epsilon,
    written in the loss-first letter order; the randomized mixture plays
    the average coin at every history.  The report records the three
    defining inequalities, the numeric gain probabilities, and whether the
    combination effect is present (both games losing, mixture winning).
    The inequalities all hold exactly when 0 < epsilon < 1/168.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 0.25:
        raise ValueError("epsilon must lie in [0, 0.25] to keep coins valid")
    p = 0.5 - epsilon
    alpha = (0.9 - epsilon, 0.25 - epsilon, 0.25 - epsilon, 0.7 - epsilon)
    q = tuple((a + p) / 2.0 for a in alpha)

    ineq_a = (1.0 - p) > p
    ineq_b = (1.0 - alpha[2]) * (1.0 - alpha[3]) > alpha[0] * alpha[1]
    ineq_c = (1.0 - q[2]) * (1.0 - q[3]) < q[0] * q[1]

    # The inequality parameters use the loss-first letter order; reverse
    # them for the gain-first p_gain formula.
    p_gain_b = hd_p_gain(hd_params_reversed(alpha))
    p_gain_mixture = hd_p_gain(hd_params_reversed(q))
    effect = p < 0.5 and p_gain_b < 0.5 and p_gain_mixture > 0.5
    return {
        "epsilon": epsilon,
        "single_coin_gain": p,
        "history_coins_loss_first": list(alpha),
        "mixture_coins_loss_first": list(q),
        "inequality_a_game_a_losing": bool(ineq_a),
        "inequality_b_game_b_losing": bool(ineq_b),
        "inequality_c_mixture_winning": bool(ineq_c),
        "p_gain_a": p,
        "p_gain_b": float(p_gain_b),
        "p_gain_mixture": float(p_gain_mixture),
        "effect": bool(effect),
    }
