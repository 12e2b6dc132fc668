"""Dense complex state-vector engine for 2- and 3-qubit quantized games.

This module is the brute-force reference implementation that the
coordinatized formulas elsewhere in the package are checked against. States
are plain complex numpy arrays indexed in computational order with player 1
on the most significant qubit. Closed-form game states are vectorized over
stacked strategy inputs, so verification sweeps avoid Python loops.

Normalization convention: probability outputs always divide by the squared
norm of the vector being measured, so constant factors dropped by the
closed forms (the three-player game state is built from the unnormalized
entangled sum, and the action-basis matrix for three players has columns of
norm sqrt(2)) never affect any reported probability.
"""

import itertools

import numpy as np

SQRT3 = np.sqrt(3.0)

# Primitive phase for the three-player coordinatization, a primitive 6th
# root of unity, and the two-player one, a primitive 8th root.
ETA3 = complex(0.5, SQRT3 / 2.0)
ETA2 = complex(1.0, 1.0) / np.sqrt(2.0)


def outcome_labels(players):
    """Every outcome label for the given player count, all-N first.

    One letter per player, in player order: N for no flip, F for flip.  The
    labels are ordered with player 1's letter varying slowest.  Game files,
    distributions and payoffs all use this one convention.
    """
    return tuple(
        "".join(letters) for letters in itertools.product("NF", repeat=players)
    )


ACTION_LABELS3 = outcome_labels(3)
ACTION_LABELS2 = outcome_labels(2)


def eta(n_players):
    """The root-of-unity phase attached to the flip gate for each game size."""
    if n_players == 3:
        return ETA3
    if n_players == 2:
        return ETA2
    raise ValueError("only 2- and 3-player games are supported")


class SU2Gate:
    """Special-unitary 2x2 gate [[x, y], [-conj(y), conj(x)]]."""

    __slots__ = ("x", "y")

    def __init__(self, x, y, atol=1e-9):
        x, y = complex(x), complex(y)
        if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > atol:
            raise ValueError("SU2Gate needs |x|^2 + |y|^2 = 1")
        self.x = x
        self.y = y

    @property
    def matrix(self):
        return np.array(
            [[self.x, self.y], [-np.conj(self.y), np.conj(self.x)]], dtype=complex
        )

    @classmethod
    def random(cls, rng):
        v = rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        return cls(complex(v[0], v[1]), complex(v[2], v[3]))

    def __repr__(self):
        return "SU2Gate(%r, %r)" % (self.x, self.y)


def flip_gate(eta_value):
    """The flip strategy [[0, eta], [-conj(eta), 0]]; identity is SU2Gate(1, 0)."""
    if abs(abs(eta_value) - 1.0) > 1e-12:
        raise ValueError("flip gate phase must be unimodular")
    return SU2Gate(0.0, eta_value)


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


def check_unit_pairs(*pairs, atol=1e-9):
    """Require |A|^2 + |B|^2 = 1 within an absolute atol for every pair."""
    for a, b in pairs:
        norms = np.abs(np.asarray(a)) ** 2 + np.abs(np.asarray(b)) ** 2
        if np.max(np.abs(norms - 1.0)) > atol:
            raise ValueError("strategy pair must satisfy |A|^2 + |B|^2 = 1")


def game_state3(A, B, P, Q, E, F):
    """Closed-form three-player game state, unnormalized.

    Accepts scalars or broadcastable arrays for the six strategy amplitudes
    (players hold the pairs (A,B), (P,Q), (E,F)); returns shape (..., 8) in
    computational order. Identical to local_action of the three strategy
    gates on ghz3(), which the tests verify independently.
    """
    check_unit_pairs((A, B), (P, Q), (E, F))
    A, B, P, Q, E, F = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (A, B, P, Q, E, F))
    )
    Ac, Bc, Pc, Qc, Ec, Fc = (np.conj(v) for v in (A, B, P, Q, E, F))
    comps = [
        A * P * E + B * Q * F,
        B * Q * Ec - A * P * Fc,
        B * Pc * F - A * Qc * E,
        A * Qc * Fc + B * Pc * Ec,
        Ac * Q * F - Bc * P * E,
        Bc * P * Fc + Ac * Q * Ec,
        Bc * Qc * E + Ac * Pc * F,
        Ac * Pc * Ec - Bc * Qc * Fc,
    ]
    return np.stack(comps, axis=-1)


def basis_matrix3(eta_value=ETA3):
    """Change-of-basis matrix whose columns are the action-basis vectors.

    Columns follow ACTION_LABELS3. Each column has norm sqrt(2), matching the
    unnormalized entangled start, so M @ conj(M).T = 2*I at orthogonality.
    """
    e = complex(eta_value)
    ec = np.conj(e)
    cols = {
        "NNN": [1, 0, 0, 0, 0, 0, 0, 1],
        "NNF": [0, -ec, 0, 0, 0, 0, e, 0],
        "NFN": [0, 0, -ec, 0, 0, e, 0, 0],
        "NFF": [0, 0, 0, ec**2, e**2, 0, 0, 0],
        "FNN": [0, 0, 0, e, -ec, 0, 0, 0],
        "FNF": [0, 0, e**2, 0, 0, ec**2, 0, 0],
        "FFN": [0, e**2, 0, 0, 0, 0, ec**2, 0],
        "FFF": [e**3, 0, 0, 0, 0, 0, 0, -(ec**3)],
    }
    return np.array([cols[lbl] for lbl in ACTION_LABELS3], dtype=complex).T


def action_basis3(eta_value=ETA3):
    """The eight action-basis vectors as a dict label -> 8-vector."""
    m = basis_matrix3(eta_value)
    return {lbl: m[:, k].copy() for k, lbl in enumerate(ACTION_LABELS3)}


def _in_action_basis(v, m_conj):
    """Rows of v expressed in the action basis whose columns are conj(m_conj).

    Applies the conjugate transpose of that basis matrix to each row.
    einsum rather than matmul: its per-row sum order does not depend on the
    batch size, so a batch of one reproduces the matching row of any batch
    bit for bit.
    """
    return np.einsum("...i,ij->...j", np.asarray(v, dtype=complex), m_conj)


# Conjugated basis matrices at the default phase, built once rather than on
# every oracle call.
_BASIS3_CONJ = np.conj(basis_matrix3())
_BASIS3_CONJ.setflags(write=False)


def to_action_basis3(v, eta_value=ETA3):
    """Express computational-basis amplitudes in the action basis.

    Handles a single 8-vector or a stack of rows shaped (..., 8).
    """
    if eta_value == ETA3:
        return _in_action_basis(v, _BASIS3_CONJ)
    return _in_action_basis(v, np.conj(basis_matrix3(eta_value)))


def from_action_basis3(w, eta_value=ETA3):
    """Inverse of to_action_basis3 (the matrix pair multiplies to 2*I)."""
    return np.asarray(w, dtype=complex) @ basis_matrix3(eta_value).T / 2.0


def game_state2(A, B, P, Q):
    """Closed-form two-player game state, normalized, order (00, 01, 10, 11)."""
    check_unit_pairs((A, B), (P, Q))
    A, B, P, Q = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (A, B, P, Q))
    )
    Ac, Bc, Pc, Qc = (np.conj(v) for v in (A, B, P, Q))
    comps = [
        A * P + B * Q,
        -A * Qc + B * Pc,
        -Bc * P + Ac * Q,
        Bc * Qc + Ac * Pc,
    ]
    return np.stack(comps, axis=-1) / np.sqrt(2.0)


def basis_matrix2(eta_value=ETA2):
    """Two-player action-basis matrix; columns follow ACTION_LABELS2, unitary."""
    e = complex(eta_value)
    ec = np.conj(e)
    cols = {
        "NN": [1, 0, 0, 1],
        "NF": [0, -ec, e, 0],
        "FN": [0, e, -ec, 0],
        "FF": [e**2, 0, 0, ec**2],
    }
    m = np.array([cols[lbl] for lbl in ACTION_LABELS2], dtype=complex).T
    return m / np.sqrt(2.0)


def action_basis2(eta_value=ETA2):
    m = basis_matrix2(eta_value)
    return {lbl: m[:, k].copy() for k, lbl in enumerate(ACTION_LABELS2)}


_BASIS2_CONJ = np.conj(basis_matrix2())
_BASIS2_CONJ.setflags(write=False)


def to_action_basis2(v, eta_value=ETA2):
    if eta_value == ETA2:
        return _in_action_basis(v, _BASIS2_CONJ)
    return _in_action_basis(v, np.conj(basis_matrix2(eta_value)))


class OutcomeDistribution:
    """Labeled probability vector over game outcomes."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels, probs, atol=1e-9):
        probs = np.asarray(probs, dtype=float)
        labels = tuple(labels)
        if len(labels) != probs.shape[-1]:
            raise ValueError("labels and probabilities disagree in length")
        if np.min(probs) < -atol or abs(np.sum(probs) - 1.0) > atol:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self.labels = labels
        self.probs = np.clip(probs, 0.0, None)

    def prob(self, label):
        return float(self.probs[self.labels.index(label)])

    def as_dict(self):
        return {lbl: float(p) for lbl, p in zip(self.labels, self.probs)}

    def max_deviation(self, other):
        if self.labels != other.labels:
            other_probs = np.array([other.prob(lbl) for lbl in self.labels])
        else:
            other_probs = other.probs
        return float(np.max(np.abs(self.probs - other_probs)))

    def __repr__(self):
        body = ", ".join("%s: %.6f" % kv for kv in zip(self.labels, self.probs))
        return "OutcomeDistribution(%s)" % body


def measure(v, labels):
    """Born-rule outcome distribution of a state vector, renormalized."""
    v = np.asarray(v, dtype=complex)
    w = np.abs(v) ** 2
    total = np.sum(w)
    if total == 0.0:
        raise ValueError("cannot measure the zero vector")
    return OutcomeDistribution(labels, w / total)


def batch_of_one(*values):
    """Scalars or single rows as batches of one, the input shape of a batch
    kernel.

    Scalar entry points pass these and take row 0 of the result, so they
    agree with the kernel's other rows bit for bit.
    """
    return [np.asarray(v)[np.newaxis] for v in values]


def oracle_probs3_batch(A, B, P, Q, E, F, eta_value=ETA3):
    """Vectorized oracle probabilities for stacked strategies, shape (n, 8)."""
    w = np.abs(to_action_basis3(game_state3(A, B, P, Q, E, F), eta_value)) ** 2
    return w / np.sum(w, axis=-1, keepdims=True)


def oracle_probs2_batch(A, B, P, Q, eta_value=ETA2):
    w = np.abs(to_action_basis2(game_state2(A, B, P, Q), eta_value)) ** 2
    return w / np.sum(w, axis=-1, keepdims=True)


def oracle_distribution3(A, B, P, Q, E, F, eta_value=ETA3):
    """State-vector route: closed-form game state measured in the action basis.

    A batch of one through oracle_probs3_batch.
    """
    probs = oracle_probs3_batch(*batch_of_one(A, B, P, Q, E, F), eta_value)
    return OutcomeDistribution(ACTION_LABELS3, probs[0])


def oracle_distribution2(A, B, P, Q, eta_value=ETA2):
    """Two-player state-vector route; a batch of one through oracle_probs2_batch."""
    probs = oracle_probs2_batch(*batch_of_one(A, B, P, Q), eta_value)
    return OutcomeDistribution(ACTION_LABELS2, probs[0])


def hadamard():
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _as_matrix(gate):
    if isinstance(gate, SU2Gate):
        return gate.matrix
    m = np.asarray(gate, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("gate must be an SU2Gate or a 2x2 matrix")
    return m


def penny_evolution(p, U, U2):
    """Density-matrix pipeline of the penny-flip game.

    The coin starts at |0><0|, the first player acts with U, the second mixes
    flip (probability p) with no flip, then the first player acts with U2.
    Returns the four density matrices in order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing probability must lie in [0, 1]")
    u1 = _as_matrix(U)
    u2 = _as_matrix(U2)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    rho1 = u1 @ rho0 @ u1.conj().T
    rho2 = p * (flip @ rho1 @ flip.conj().T) + (1.0 - p) * rho1
    rho3 = u2 @ rho2 @ u2.conj().T
    return rho0, rho1, rho2, rho3


def meyer_penny(p, U, U2):
    """Probability that the final penny measures |0> under the pipeline above."""
    rho3 = penny_evolution(p, U, U2)[3]
    return float(np.real(rho3[0, 0]))
