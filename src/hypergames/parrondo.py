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
with the kernels' other rows bit for bit.  Multiplexer3 is the one scalar
multiplexer: it stores the (4, 2, 2) array the kernels take and assembles
the dense matrix from it on demand.  The kernels run coordinate-first on
transposed views, one contiguous row per coordinate: coins (4, ...), states
(8, ...), qubits (2, ...), blocks (2, 2, 4, ...) by row, column, history.
Any input layout gives the bits of trailing-axis kernels: products and
absolute values do not depend on layout, and numpy's short sums (pairwise
over 8 terms, left to right over 2 or 4) and einsum's products are spelt out.

History convention for the 4-state chain: state j means (result two steps
ago, last result) in the order GG, GL, LG, LL, and coin j is the gain
probability used at state j.  The literature also writes these formulas
with the opposite letter order; hd_params_reversed translates between the
two conventions.
"""

from typing import NamedTuple

import numpy as np

from .qstate import ETA3, SU2Gate, batch_of_one, su2_matrices
from .records import check_record

TYPE1 = "type1"
TYPE2 = "type2"


class HDGameParams(NamedTuple):
    """Gain probabilities of the four history-conditioned coins."""

    p1: float
    p2: float
    p3: float
    p4: float


_BLOCK = (-2, -1, -3)  # a block's row, column and history axes, in row order


def _rows(*items):
    """Views of (array, axes) items with those axes leading and the batch
    axes trailing, padded to one count so they broadcast as the arrays do."""
    depth = max([a.ndim - len(axes) for a, axes in items])
    batch = tuple(range(depth))
    return [a[(None,) * (depth + len(axes) - a.ndim)].transpose(axes + batch)
            for a, axes in items]


def _trailing(rows, axes=(-1,)):
    """The inverse of _rows: the leading axes of rows moved back to axes."""
    k = len(axes)
    return rows.transpose(*range(k, rows.ndim), *[axes.index(t) for t in range(-k, 0)])


def _params(p):
    """Coin probabilities as a (..., 4) float array, each in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (4,):
        raise ValueError("expected 4 coin probabilities per game")
    inside = (0.0 <= p) & (p <= 1.0)
    if not inside.all():
        first = p.reshape(-1, 4)[~inside.all(axis=-1).reshape(-1)][0]
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


def _hd_solve(p):
    """Stationary states (..., 4) and gains (...) of history games.

    Both need y = p4(p3 + 1 - p1) > 0.  The normalization is y plus
    (1 - p1)(1 - p2 + p4), a sum of nonnegative terms, so it vanishes only
    where y does.  The complements are formed first, so p3 + (1 - p1) keeps
    every digit of a small p3 when p1 is near 1.
    """
    p1, p2, p3, p4 = _rows((_params(p), (-1,)))[0]
    n1, n2 = 1.0 - p1, 1.0 - p2
    y = p4 * (p3 + n1)
    if not np.all(y > 0.0):
        raise ValueError("history game undefined: y = p4(p3 + 1 - p1) vanishes")
    gg, lost = p3 * p4, p4 * n1
    norm = n1 * (2.0 * p4 + n2) + gg
    return _trailing(np.stack([gg, lost, lost, n1 * n2]) / norm), y / norm


def hd_stationary(p):
    """Stationary distributions of history chains, in closed form.

    Takes (..., 4) coins to (..., 4) distributions.
    """
    return _hd_solve(p)[0]


def hd_p_gain(p):
    """Long-run single-round gain probability of history games, shape (...).

    The stationary-weighted coin average, which reduces to y over the
    stationary normalization, or 1/(2 + x/y) with x = (1 - p1)(1 - p2) -
    p3 p4.  The game is losing, fair, or winning as x is positive, zero, or
    negative.
    """
    return _hd_solve(p)[1]


def _fixed_point_residual(matrix, stationary):
    return float(np.max(np.abs(matrix @ stationary - stationary)))


def hd_params_reversed(p):
    """Translate coin parameters to the opposite history-letter order."""
    return HDGameParams(*(float(v) for v in _params(p)[::-1]))


def _capital_coins(p1, p2):
    p1, p2 = float(p1), float(p2)
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError("coin probabilities must lie in [0, 1]")
    return p1, p2


def capital_transition_matrix(p1, p2):
    """Column-stochastic matrix of the capital game on residues mod 3.

    Coin p1 plays when the capital is divisible by 3, coin p2 otherwise; a
    win adds one unit of capital, a loss removes one.
    """
    p1, p2 = _capital_coins(p1, p2)
    return np.array(
        [
            [0.0, 1.0 - p2, p2],
            [p1, 0.0, 1.0 - p2],
            [1.0 - p1, p2, 0.0],
        ]
    )


def capital_game_stationary(p1, p2):
    """Stationary distribution of the capital chain, in closed form.

    Entry i is the principal minor of I - T without row and column i, over
    the sum of the three.  T is column-stochastic, so each row of adj(I - T)
    is constant and each column solves (I - T)x = 0: its diagonal, those
    minors, is a stationary state.  For coins in [0, 1] no minor is negative
    and the first, 1 - p2(1 - p2), is at least 3/4, so I - T has rank 2 and
    the stationary state is unique.
    """
    p1, p2 = _capital_coins(p1, p2)
    minors = np.array([1.0 - p2 * (1.0 - p2), 1.0 - p2 * (1.0 - p1), 1.0 - p1 * (1.0 - p2)])
    return minors / minors.sum()


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


def classify_gain(p_gain):
    """Label a gain probability as winning, fair (within FAIR_TOL of 1/2) or losing; NaN raises."""
    if np.isnan(p_gain):
        raise ValueError("gain probability must not be NaN")
    if p_gain > 0.5 + FAIR_TOL:
        return "winning"
    if p_gain < 0.5 - FAIR_TOL:
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
    gains = _rows((_params(p), (-1,)))[0]
    kind, eta = _check_embedding(e)
    phase = eta.conjugate()
    keep = np.sqrt(gains)
    flip = np.sqrt(1.0 - gains)
    x, y = (keep, -flip * phase) if kind == TYPE1 else (1j * keep, 1j * flip * phase)
    return su2_matrices(x, y).transpose(*range(1, gains.ndim), 0, -2, -1)


def _superpose(gamma1, gamma2, blocks1, blocks2):
    """gamma1 * blocks1 + gamma2 * blocks2 for (...) numpy weights."""
    w1, w2, b1, b2 = _rows((gamma1, ()), (gamma2, ()), (blocks1, _BLOCK), (blocks2, _BLOCK))
    return _trailing(w1 * b1 + w2 * b2, _BLOCK)


def block_unitarity_deviation(blocks):
    """Largest entry of B^H B - I over all 2x2 blocks; 0.0 for no blocks.

    Equals the deviation of the assembled 8x8 matrices from unitarity:
    their off-block entries are exact zeros.  B^H B[1, 0] is the conjugate
    of B^H B[0, 1], so only the upper triangle is formed.
    """
    (b,) = _rows((np.asarray(blocks, dtype=complex), _BLOCK))
    if b.size == 0:
        return 0.0
    re, im = b.real, b.imag  # conj(a) b as einsum forms it, in real arithmetic
    diagonal = re * re + im * im
    upper = (re[:, 0] * re[:, 1] + im[:, 0] * im[:, 1]).astype(complex)
    upper.imag = re[:, 0] * im[:, 1] - im[:, 0] * re[:, 1]
    deviations = np.abs(diagonal[0] + diagonal[1] - 1.0), np.abs(upper[0] + upper[1])
    return float(np.max([np.max(d) for d in deviations]))


class Multiplexer3:
    """Three-qubit multiplexer: one SU(2) coin per two-qubit history.

    Built from exactly 4 SU2Gate coins.  `array` holds their (4, 2, 2)
    blocks, the input every kernel takes; `matrix` assembles the 8x8
    block-diagonal matrix from it, acting on the last qubit with the block
    selected by the first two qubits.
    """

    def __init__(self, gates):
        gates = tuple(gates)
        if len(gates) != 4 or not all(isinstance(g, SU2Gate) for g in gates):
            raise ValueError("a multiplexer needs exactly 4 SU2Gate blocks")
        self.array = su2_matrices([g.x for g in gates], [g.y for g in gates])

    @property
    def matrix(self):
        m = np.zeros((8, 8), dtype=complex)
        for j in range(4):
            m[2 * j:2 * j + 2, 2 * j:2 * j + 2] = self.array[j]
        return m

    def __repr__(self):
        return "Multiplexer3(array=%r)" % (self.array,)


def _mux(blocks):
    """The Multiplexer3 of a (4, 2, 2) array of SU(2) blocks."""
    return Multiplexer3(SU2Gate(b[0, 0], b[0, 1]) for b in blocks)


def mux_from_coins(p, e):
    """Multiplexer whose blocks embed the four classical coins; a batch of
    one through coin_blocks."""
    return _mux(coin_blocks(*batch_of_one(p), e)[0])


def proper_initial_state(pi):
    """Embed history distributions as states with the win slots loaded.

    Square roots of the weights sit on the (history, gain) basis states;
    each vector is normalized so unnormalized weights are accepted.  Takes
    (..., 4) weights to (..., 8) states.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1:] != (4,):
        raise ValueError("expected 4 history weights")
    if not np.all(pi >= 0.0):
        raise ValueError("history weights must be nonnegative")
    if not np.all(np.isfinite(pi)):
        raise ValueError("history weights must be finite")
    (rows,) = _rows((pi, (-1,)))
    if np.any(sum(rows[1:], rows[0]) <= 0.0):
        raise ValueError("history weights must not all vanish")
    root = np.sqrt(rows)
    squares = root * root  # the norm's pairs, each with a zero slot
    amps = np.zeros((8,) + pi.shape[:-1])
    amps[0::2] = root / np.sqrt((squares[0] + squares[1]) + (squares[2] + squares[3]))
    return _trailing(amps)


def _unit_rows(v, size, what):
    """v as complex (..., size) rows, each of unit norm; size 2 or 8."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (size,):
        raise ValueError("%s must have %d amplitudes" % (what, size))
    # An infinite or huge amplitude gives a NaN or infinite norm, which the
    # check rejects, without numpy's warning on the way.
    with np.errstate(invalid="ignore", over="ignore"):
        norms = (np.conj(v) * v).real
        while norms.shape[-1] > 1:
            norms = norms[..., 0::2] + norms[..., 1::2]
    if not (np.abs(np.sqrt(norms) - 1.0) <= 1e-9).all():
        raise ValueError("%s must have unit norm" % what)
    return v


def _gain(blocks, init, win_qubit_value):
    """quantized_p_gain_batch on unit states, forming only the winning rows."""
    b, s = _rows((blocks, _BLOCK), (init, (-1,)))
    out = b[win_qubit_value, 0] * s[0::2]
    out += b[win_qubit_value, 1] * s[1::2]
    out = np.abs(out) ** 2
    return out[0] + out[1] + out[2] + out[3]


def quantized_p_gain_batch(blocks, init, win_qubit_value):
    """Win probabilities after one application of each multiplexer.

    Sums the squared output amplitudes over basis states whose last qubit
    carries the winning value.  blocks (..., 4, 2, 2), init (..., 8) unit
    states; returns shape (...).
    """
    if win_qubit_value not in (0, 1):
        raise ValueError("win_qubit_value must be 0 or 1")
    return _gain(blocks, _unit_rows(init, 8, "initial state"), win_qubit_value)


def quantized_p_gain(m, init, win_qubit_value):
    """Win probability after one application of the multiplexer view m; a
    batch of one through quantized_p_gain_batch."""
    return float(quantized_p_gain_batch(*batch_of_one(m.array, init), win_qubit_value)[0])


def _quantized_gains(solved, blocks):
    """Classical gains of history coins and the gains of each named
    multiplexer, applied once to the coins' stationary-weighted embedded
    state; solved, the coins' _hd_solve, serves all of them."""
    stationary, classical = solved
    init = _unit_rows(proper_initial_state(stationary), 8, "initial state")
    return classical, {k: _gain(b, init, 0) for k, b in blocks.items()}


def proper_quantized_gains_batch(p):
    """Classical gains of history games and of their two proper quantizations.

    Returns (classical, {TYPE1: gains, TYPE2: gains}) for (..., 4) coins;
    being proper, both quantizations reproduce the classical gain.
    """
    return _proper_gains(p, _hd_solve(p))


def _proper_gains(p, solved):
    blocks = {kind: coin_blocks(p, CoinEmbedding(kind)) for kind in (TYPE1, TYPE2)}
    return _quantized_gains(solved, blocks)


def proper_quantized_gains(p):
    """proper_quantized_gains_batch for one coin set, as floats."""
    classical, gains = proper_quantized_gains_batch(*batch_of_one(p))
    return float(classical[0]), {kind: float(g[0]) for kind, g in gains.items()}


def _weight(r, what):
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise ValueError("%s weight r must lie in [0, 1]" % what)
    return r


def superpose_mux(r, muxA, muxB):
    """Superpose two multiplexers with weights sqrt(r) and sqrt(1 - r).

    muxA should use the type2 embedding and muxB type1; that pairing keeps
    the superposition unitary, with the squared diagonal magnitudes mixing
    the two games' coins in proportion r to 1 - r.  A pairing whose sum
    leaves SU(2), such as two type1 multiplexers, raises ValueError.
    """
    r = float(_weight(r, "superposition"))
    return _mux(_superpose(np.sqrt(r), np.sqrt(1.0 - r), muxA.array, muxB.array))


def _mixed_params(r, paramsA, paramsB):
    """The coins of game A played with probability r, game B otherwise."""
    r = _weight(r, "mixing")
    r, a, b = _rows((r, ()), (_params(paramsA), (-1,)), (_params(paramsB), (-1,)))
    return _trailing(r * a + (1.0 - r) * b)


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


def sequence_quantized_gains_batch(r, paramsA, paramsB):
    """Classical gains of playing game A with probability r, game B
    otherwise, and of their two quantizations.

    Returns (classical, {"superposed": gains, "second_quantization": gains})
    for (...) weights and (..., 4) coins, both on the mixed coins' chain.
    """
    mixed = _mixed_params(r, paramsA, paramsB)
    blocks = {
        "superposed": superposed_games_blocks(r, paramsA, paramsB),
        "second_quantization": coin_blocks(mixed, CoinEmbedding(TYPE1)),
    }
    return _quantized_gains(_hd_solve(mixed), blocks)


def sequence_quantized_gains(r, paramsA, paramsB):
    """sequence_quantized_gains_batch for one weight and coin pair, as floats."""
    classical, gains = sequence_quantized_gains_batch(*batch_of_one(r, paramsA, paramsB))
    return float(classical[0]), {k: float(g[0]) for k, g in gains.items()}


def fna_p_win_batch(blocks, q1, q2, q3):
    """Closed-form win probabilities for the product-state quantization.

    The three qubits (..., 2) start unentangled; the multiplexer blocks
    (..., 4, 2, 2) apply coin j to the last qubit according to the first
    two, and a win is read on the last qubit being |1>.  Only the
    result-qubit amplitudes mix with the coins, so each probability is a
    short weighted sum.
    """
    q1, q2, q3 = (_unit_rows(q, 2, "qubit states") for q in (q1, q2, q3))
    b, q1, q2, q3 = _rows((blocks, _BLOCK), *((q, (-1,)) for q in (q1, q2, q3)))
    x, y = b[0, 0], b[0, 1]
    loss_to_win = np.abs(np.conj(x) * q3[1] - np.conj(y) * q3[0]) ** 2
    w1, w2 = np.abs(q1) ** 2, np.abs(q2) ** 2
    first = w2[0] * loss_to_win[0] + w2[1] * loss_to_win[1]
    second = w2[0] * loss_to_win[2] + w2[1] * loss_to_win[3]
    return w1[0] * first + w1[1] * second


def fna_p_win_pair_batch(blocks, q1, q2, q3):
    """fna_p_win_batch next to the same win probabilities by direct simulation.

    The simulation applies the multiplexer blocks to the product state of
    the three qubits and reads a win on the last qubit being |1>.
    """
    closed = fna_p_win_batch(blocks, q1, q2, q3)
    q1, q2, q3 = (np.asarray(q, dtype=complex) for q in (q1, q2, q3))
    state = q1[..., :, None, None] * q2[..., None, :, None] * q3[..., None, None, :]
    return closed, quantized_p_gain_batch(blocks, state.reshape(state.shape[:-3] + (8,)), 1)


def fna_p_win(m, q1, q2, q3):
    """fna_p_win_batch for the multiplexer m and three qubits."""
    return float(fna_p_win_batch(*batch_of_one(m.array, q1, q2, q3))[0])


def fna_p_win_pair(m, q1, q2, q3):
    """fna_p_win_pair_batch for the multiplexer m and three qubits."""
    closed, direct = fna_p_win_pair_batch(*batch_of_one(m.array, q1, q2, q3))
    return float(closed[0]), float(direct[0])


def parrondo_effect_check(epsilon):
    """Evaluate the canonical losing-plus-losing-wins parameter family.

    Game A flips a single coin with gain probability 1/2 - epsilon; game B
    plays history coins (9/10, 1/4, 1/4, 7/10) shifted down by epsilon,
    written in the loss-first letter order; the randomized mixture plays
    the average coin at every history.  The report records the three
    defining inequalities, the numeric gain probabilities, and whether the
    combination effect is present: game A losing, game B losing and the
    mixture winning, which is all three inequalities.  They reduce to
    epsilon > 0, 2.2 epsilon > 0 and 2.1 epsilon < 1/80, so they all hold
    exactly when 0 < epsilon < 1/168.  The three flags and "effect" are
    exact, decided in integer arithmetic on the float epsilon's value; the
    gains p_gain_a, p_gain_b and p_gain_mixture are float-rounded, so near
    either end of the interval a gain can fall on the other side of 1/2 from
    its flag (at epsilon 5e-324, "effect" beside p_gain_b 0.5000000000000001).
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 0.25:
        raise ValueError("epsilon must lie in [0, 0.25] to keep coins valid")
    p = 0.5 - epsilon
    alpha = (0.9 - epsilon, 0.25 - epsilon, 0.25 - epsilon, 0.7 - epsilon)
    q = tuple((a + p) / 2.0 for a in alpha)

    # Exactly, on the float epsilon's value n/d: in units of 1/(40 d) every
    # quantity below is an integer.  The coins are 9/10, 1/4, 1/4 and 7/10,
    # in twentieths.
    n, d = epsilon.as_integer_ratio()
    one, e = 40 * d, 40 * n
    p_exact = one // 2 - e
    a_exact = [2 * d * c - e for c in (18, 5, 5, 14)]
    q_exact = [(a + p_exact) // 2 for a in a_exact]
    ineq_a = one - p_exact > p_exact
    ineq_b = (one - a_exact[2]) * (one - a_exact[3]) > a_exact[0] * a_exact[1]
    ineq_c = (one - q_exact[2]) * (one - q_exact[3]) < q_exact[0] * q_exact[1]

    # The inequality parameters use the loss-first letter order; reverse
    # them for the gain-first p_gain formula.
    p_gain_b, p_gain_mixture = hd_p_gain([hd_params_reversed(alpha), hd_params_reversed(q)])
    return {
        "epsilon": epsilon,
        "single_coin_gain": p,
        "history_coins_loss_first": list(alpha),
        "mixture_coins_loss_first": list(q),
        "inequality_a_game_a_losing": ineq_a,
        "inequality_b_game_b_losing": ineq_b,
        "inequality_c_mixture_winning": ineq_c,
        "p_gain_a": p,
        "p_gain_b": float(p_gain_b),
        "p_gain_mixture": float(p_gain_mixture),
        "effect": ineq_a and ineq_b and ineq_c,
    }


# Tolerance of the coin-game reports' identity checks.
REPORT_TOL = 1e-12
FAIR_TOL = 1e-12  # half-width of the band around 1/2 that classify_gain calls fair


def _gain_checks(key, gains, classical):
    """Each quantized gain checked against the classical gain it reproduces."""
    return [check_record("quantization reproduces the classical gain", 1, REPORT_TOL,
                         abs(gain - classical), **{key: name}, p_gain=gain)
            for name, gain in gains.items()]


def _residual_check(residual):
    return check_record("stationary state is a fixed point of the chain", 1, REPORT_TOL, residual)


def hd_report(coins):
    """The `parrondo --game hd` report of four history coins: the stationary
    state and its fixed-point residual, the classical gain, and the two
    proper quantizations' gains checked against it, from one chain solve."""
    coins = [float(c) for c in coins]
    p = batch_of_one(coins)[0]
    solved = _hd_solve(p)
    classical, gains = _proper_gains(p, solved)
    stationary, classical = solved[0][0], float(classical[0])
    residual = _fixed_point_residual(hd_transition_matrix(coins), stationary)
    return {
        "coins": coins,
        "stationary": [float(x) for x in stationary],
        "fixed_point_residual": _residual_check(residual),
        "classical_p_gain": classical,
        "quantum_p_gain": _gain_checks(
            "embedding", {kind: float(g[0]) for kind, g in gains.items()}, classical),
        "classification": classify_gain(classical),
    }


def capital_report(p1, p2):
    """The `parrondo --game capital` report of the two capital coins."""
    stationary, residual, gain = capital_chain(p1, p2)
    return {
        "coins": [float(p1), float(p2)],
        "stationary": [float(x) for x in stationary],
        "fixed_point_residual": _residual_check(residual),
        "classical_p_gain": float(gain),
        "classification": classify_gain(gain),
    }


def sequence_report(epsilon):
    """The `parrondo --game sequence` report: parrondo_effect_check at
    epsilon, and the mixture's quantizations checked against its gain."""
    effect = parrondo_effect_check(epsilon)
    classical, gains = sequence_quantized_gains(
        0.5,
        (effect["single_coin_gain"],) * 4,
        hd_params_reversed(effect["history_coins_loss_first"]),
    )
    return {
        "effect_check": effect,
        "mixture_p_gain": float(classical),
        "mixture_classification": classify_gain(classical),
        "quantum_p_gain": _gain_checks("construction", gains, classical),
    }


def fna_report(thetas, phis, etas):
    """The `parrondo --game fna` report: coin j is the SU(2) gate
    (e^{i phi_j} cos(theta_j / 2), e^{i eta_j} sin(theta_j / 2)), the three
    qubits start in the equal superposition, and the closed form's win
    probability is checked against direct simulation."""
    gates = [
        SU2Gate(np.exp(1j * phi) * np.cos(theta / 2.0), np.exp(1j * eta) * np.sin(theta / 2.0))
        for theta, phi, eta in zip(thetas, phis, etas)
    ]
    equal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p_win, simulated = fna_p_win_pair(Multiplexer3(gates), equal, equal, equal)
    comparison = check_record(
        "product-state closed form vs simulation", 1, REPORT_TOL, abs(p_win - simulated))
    return {
        "thetas": list(thetas),
        "phis": list(phis),
        "etas": list(etas),
        "p_win": p_win,
        "simulated_p_win": simulated,
        "comparison": comparison,
        "classification": classify_gain(p_win),
    }
