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

History convention for the 4-state chain: state j means (result two steps
ago, last result) in the order GG, GL, LG, LL, and coin j is the gain
probability used at state j.  The literature also writes these formulas
with the opposite letter order; hd_params_reversed translates between the
two conventions.
"""

from typing import NamedTuple

import numpy as np

from .qstate import ETA3, SU2Gate

TYPE1 = "type1"
TYPE2 = "type2"


class HDGameParams(NamedTuple):
    """Gain probabilities of the four history-conditioned coins."""

    p1: float
    p2: float
    p3: float
    p4: float


def _params(p):
    q = HDGameParams(*(float(v) for v in p))
    for v in q:
        if not 0.0 <= v <= 1.0:
            raise ValueError("coin probabilities must lie in [0, 1], got %r" % (q,))
    return q


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


def hd_stationary(p):
    """Stationary distribution of the history chain, in closed form."""
    p1, p2, p3, p4 = _params(p)
    raw = np.array(
        [
            p3 * p4,
            p4 * (1.0 - p1),
            p4 * (1.0 - p1),
            (1.0 - p1) * (1.0 - p2),
        ]
    )
    norm = (1.0 - p1) * (2.0 * p4 + 1.0 - p2) + p3 * p4
    if norm <= 0.0:
        raise ValueError("stationary state undefined: normalization vanishes")
    return raw / norm


def hd_p_gain(p):
    """Long-run single-round gain probability of the history game.

    Written as 1/(2 + x/y); the game is losing, fair, or winning according
    to the sign of x.  Equals the stationary-weighted coin average.
    """
    p1, p2, p3, p4 = _params(p)
    y = p4 * (p3 + 1.0 - p1)
    if y <= 0.0:
        raise ValueError("gain probability undefined: y = p4(p3 + 1 - p1) vanishes")
    x = (1.0 - p1) * (1.0 - p2) - p3 * p4
    return 1.0 / (2.0 + x / y)


def hd_params_reversed(p):
    """Translate coin parameters to the opposite history-letter order."""
    p1, p2, p3, p4 = _params(p)
    return HDGameParams(p4, p3, p2, p1)


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


def capital_p_gain(p1, p2):
    """Long-run win probability of the capital game at stationarity."""
    pi = capital_game_stationary(p1, p2)
    return float(pi[0] * p1 + (pi[1] + pi[2]) * p2)


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


class Multiplexer3:
    """Three-qubit multiplexer: one SU(2) coin per two-qubit history.

    The assembled matrix is block diagonal, acting on the last qubit with
    the block selected by the first two qubits.
    """

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if len(blocks) != 4 or not all(isinstance(b, SU2Gate) for b in blocks):
            raise ValueError("a multiplexer needs exactly 4 SU2Gate blocks")
        self.blocks = blocks

    @property
    def matrix(self):
        m = np.zeros((8, 8), dtype=complex)
        for j, block in enumerate(self.blocks):
            m[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block.matrix
        return m

    def __repr__(self):
        return "Multiplexer3(blocks=%r)" % (self.blocks,)


def mux_from_coins(p, e):
    """Multiplexer whose blocks embed the four classical coins.

    With either embedding the squared magnitude of the block's diagonal
    stays the coin's gain probability, which is what makes the quantization
    proper.
    """
    params = _params(p)
    kind, eta = _check_embedding(e)
    blocks = []
    for gain in params:
        keep = np.sqrt(gain)
        flip = np.sqrt(1.0 - gain)
        if kind == TYPE1:
            blocks.append(SU2Gate(keep, -flip * np.conj(eta)))
        else:
            blocks.append(SU2Gate(1j * keep, 1j * flip * np.conj(eta)))
    return Multiplexer3(blocks)


def proper_initial_state(pi):
    """Embed a history distribution as a state with the win slots loaded.

    Square roots of the weights sit on the (history, gain) basis states;
    the vector is normalized so unnormalized weights are accepted.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (4,):
        raise ValueError("expected 4 history weights")
    if np.min(pi) < 0.0:
        raise ValueError("history weights must be nonnegative")
    total = pi.sum()
    if total <= 0.0:
        raise ValueError("history weights must not all vanish")
    amps = np.zeros(8)
    amps[0::2] = np.sqrt(pi)
    return amps / np.linalg.norm(amps)


def quantized_p_gain(m, init, win_qubit_value):
    """Win probability after one multiplexer application.

    Sums the squared output amplitudes over basis states whose last qubit
    carries the winning value.
    """
    if win_qubit_value not in (0, 1):
        raise ValueError("win_qubit_value must be 0 or 1")
    init = np.asarray(init, dtype=complex)
    if init.shape != (8,):
        raise ValueError("initial state must have 8 amplitudes")
    if abs(np.linalg.norm(init) - 1.0) > 1e-9:
        raise ValueError("initial state must have unit norm")
    out = m.matrix @ init
    probs = np.abs(out) ** 2
    return float(probs[win_qubit_value::2].sum())


def proper_quantized_gains(p):
    """Classical gain of the history game and of its two proper quantizations.

    Returns (classical, {TYPE1: gain, TYPE2: gain}).  Each quantization
    applies the coins' multiplexer once to the stationary-weighted embedded
    state; being proper, both reproduce the classical gain.
    """
    classical = hd_p_gain(p)
    init = proper_initial_state(hd_stationary(p))
    return classical, {
        kind: quantized_p_gain(mux_from_coins(p, CoinEmbedding(kind)), init, 0)
        for kind in (TYPE1, TYPE2)
    }


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

    @property
    def matrix(self):
        return self.gamma1 * self.mux1.matrix + self.gamma2 * self.mux2.matrix

    def __repr__(self):
        return "SuperposedMux(gamma1=%r, gamma2=%r)" % (self.gamma1, self.gamma2)


def superpose_mux(r, muxA, muxB):
    """Superpose two multiplexers with weights sqrt(r) and sqrt(1 - r).

    muxA should use the type2 embedding and muxB type1; that pairing keeps
    the superposition unitary, with the squared diagonal magnitudes mixing
    the two games' coins in proportion r to 1 - r.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("superposition weight r must lie in [0, 1]")
    return SuperposedMux(np.sqrt(r), np.sqrt(1.0 - r), muxA, muxB)


def second_quantization_mux(r, paramsA, paramsB):
    """Multiplexer embedding the convex combination of two coin sets.

    Instead of superposing two quantizations, quantize the randomized game
    itself: each history's effective gain probability is the r-weighted mix
    of the two games' coins, embedded type1.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("mixing weight r must lie in [0, 1]")
    a = _params(paramsA)
    b = _params(paramsB)
    mixed = HDGameParams(*(r * x + (1.0 - r) * y for x, y in zip(a, b)))
    return mux_from_coins(mixed, CoinEmbedding(TYPE1))


def _unit_qubit(q):
    q = np.asarray(q, dtype=complex)
    if q.shape != (2,):
        raise ValueError("qubit states need exactly 2 amplitudes")
    if abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise ValueError("qubit states must have unit norm")
    return q


def fna_p_win(gates, q1, q2, q3):
    """Closed-form win probability for the product-state quantization.

    The three qubits start unentangled; the multiplexer applies coin j to
    the last qubit according to the first two, and a win is read on the
    last qubit being |1>.  Only the result-qubit amplitudes mix with the
    coins, so the probability is a short weighted sum.
    """
    gates = tuple(gates)
    if len(gates) != 4 or not all(isinstance(g, SU2Gate) for g in gates):
        raise ValueError("expected exactly 4 SU2Gate coins")
    q1 = _unit_qubit(q1)
    q2 = _unit_qubit(q2)
    q3 = _unit_qubit(q3)
    loss_to_win = [
        abs(np.conj(g.x) * q3[1] - np.conj(g.y) * q3[0]) ** 2 for g in gates
    ]
    first = sum(abs(q2[s]) ** 2 * loss_to_win[s] for s in (0, 1))
    second = sum(abs(q2[s]) ** 2 * loss_to_win[s + 2] for s in (0, 1))
    return float(abs(q1[0]) ** 2 * first + abs(q1[1]) ** 2 * second)


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
