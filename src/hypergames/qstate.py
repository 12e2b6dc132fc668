"""Dense complex state-vector engine for 2- and 3-qubit quantized games.

The reference that the coordinatized formulas elsewhere in the package are
checked against; it takes nothing from them.  The oracle applies each
player's gate to the entangled start and measures in the outcome basis, whose
vectors are each label's gates applied the same way.  States are complex, in
computational order with player 1 on the most significant qubit, and built
coordinate-first: one contiguous row per coordinate over stacked inputs.  An
N gate fixes a qubit and an F gate flips it, so basis column j is non-zero
only at rows j and 2**n - 1 - j: the basis change is c*v + d*reverse(v).

Probabilities always divide by the squared norm of the measured vector, so
constant factors (the three-player start is unnormalized, and its basis
columns have norm sqrt(2)) never affect any reported probability.
"""

import functools
import itertools
import math

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


def check_unit_pairs(*pairs, atol=1e-9):
    """Require |A|^2 + |B|^2 = 1 within atol for every pair; a NaN fails."""
    for a, b in pairs:
        norms = np.abs(a) ** 2 + np.abs(b) ** 2
        if not (np.abs(norms - 1.0) <= atol).all():
            raise ValueError("strategy pair must satisfy |A|^2 + |B|^2 = 1")


def su2_matrices(x, y):
    """SU(2) matrices [[x, y], [-conj(y), conj(x)]] of amplitude arrays.

    x and y broadcast against each other; returns shape (..., 2, 2).  Every
    (x, y) pair must pass check_unit_pairs.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    check_unit_pairs((x, y))
    m = np.empty(np.broadcast(x, y).shape + (2, 2), dtype=complex)
    m[..., 0, 0] = x
    m[..., 0, 1] = y
    m[..., 1, 0] = -np.conj(y)
    m[..., 1, 1] = np.conj(x)
    return m


def _entangled_rows(*gates):
    """Each player's SU(2) gate applied to the entangled start |0..0> + |1..1>.

    gates holds one amplitude pair (x, y) per player, two or more, the gate
    U = [[x, y], [-conj(y), conj(x)]], as scalars or broadcastable arrays.
    Returns the unnormalized state coordinate-first, shape (2**n, ...), with
    player 1 on the most significant qubit.  Entry (r_1..r_n) is
    prod_k U_k[r_k, 1] + prod_k U_k[r_k, 0]; the second product reads
    conj(y) for U[1, 0] and is subtracted when an odd number of the r_k are 1.
    """
    if len(gates) < 2:
        raise ValueError("the entangled start needs two or more players")
    # Per player, for row r: (U[r, 0] up to its sign, U[r, 1]).
    rows = []
    for x, y in gates:
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        rows.append(((x, y), (np.conj(y), np.conj(x))))
    shape = np.broadcast(*(a for row in rows for a in row[0])).shape
    out = np.empty((2 ** len(rows),) + shape, dtype=complex)
    # (count of 1s, both products) over all players but the last, each
    # shared by the two entries that extend it; factors go in player order.
    heads = list(enumerate(rows[0]))
    for row in rows[1:-1]:
        heads = [(ones + r, (h0 * a0, h1 * a1))
                 for ones, (h0, h1) in heads for r, (a0, a1) in enumerate(row)]
    entries = ((ones + r, h0 * a0, h1 * a1)
               for ones, (h0, h1) in heads for r, (a0, a1) in enumerate(rows[-1]))
    for k, (ones, col0, col1) in enumerate(entries):
        (np.subtract if ones % 2 else np.add)(col1, col0, out=out[k, ...])
    return out


def entangled_state(*gates):
    """The state of _entangled_rows, coordinate-last: shape (..., 2**n)."""
    return np.moveaxis(_entangled_rows(*gates), 0, -1)


class SU2Gate:
    """Special-unitary 2x2 gate [[x, y], [-conj(y), conj(x)]]."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = complex(x), complex(y)
        check_unit_pairs((self.x, self.y))

    @property
    def matrix(self):
        return su2_matrices(self.x, self.y)

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


def game_state3(A, B, P, Q, E, F):
    """Three-player game state, unnormalized, shape (..., 8).

    The players' gates (A, B), (P, Q), (E, F), scalars or broadcastable
    arrays, applied to the entangled start |000> + |111>.
    """
    check_unit_pairs((A, B), (P, Q), (E, F))
    return entangled_state((A, B), (P, Q), (E, F))


def _label_states(players, eta_value):
    """Each outcome label's gates applied to the entangled start, one column
    per label in outcome_labels order: N is SU2Gate(1, 0), F is
    flip_gate(eta_value)."""
    gate = {"N": SU2Gate(1, 0), "F": flip_gate(eta_value)}
    per_player = zip(*([gate[letter] for letter in label] for label in outcome_labels(players)))
    return _entangled_rows(*(([g.x for g in gs], [g.y for g in gs]) for gs in per_player))


def basis_matrix3(eta_value=ETA3):
    """Change-of-basis matrix whose columns are the action-basis vectors.

    Columns follow ACTION_LABELS3. Each column has norm sqrt(2), matching the
    unnormalized entangled start, so M @ conj(M).T = 2*I at orthogonality.
    """
    return _label_states(3, eta_value)


def action_basis3(eta_value=ETA3):
    """The eight action-basis vectors as a dict label -> 8-vector."""
    m = basis_matrix3(eta_value)
    return {lbl: m[:, k].copy() for k, lbl in enumerate(ACTION_LABELS3)}


@functools.lru_cache(maxsize=16)
def _basis_change(players, eta_value):
    """(c, d), each (2**n, 1), read off the literally built basis matrix M:
    column j is conj(c_j) at row j and conj(d_j) at row 2**n - 1 - j, so
    conj(M).T @ v = c*v + d*v[::-1].  Raises if M has any other non-zero."""
    m = basis_matrix3(eta_value) if players == 3 else basis_matrix2(eta_value)
    j = np.arange(len(m))
    rest = m.copy()
    rest[j, j] = rest[j[::-1], j] = 0.0
    if rest.any():
        raise ValueError("basis column j must vanish off rows j and 2**n - 1 - j")
    cd = np.conj([m[j, j], m[j[::-1], j]])[..., np.newaxis]
    cd.setflags(write=False)  # shared by every caller through the cache
    return cd


def _two_term(v, c, d):
    """c*v + d*v[::-1] along the leading (coordinate) axis of v."""
    w = c * v
    w += d * v[::-1]
    return w


def _on_last_axis(v, c, d):
    """_two_term over the last axis of v, shape (..., 2**n)."""
    v = np.asarray(v, dtype=complex)
    return _two_term(v.reshape(-1, v.shape[-1]).T, c, d).T.reshape(v.shape)


def to_action_basis3(v, eta_value=ETA3):
    """Computational-basis amplitudes, shape (..., 8), in the action basis."""
    return _on_last_axis(v, *_basis_change(3, complex(eta_value)))


def from_action_basis3(w, eta_value=ETA3):
    """Inverse of to_action_basis3 (the matrix pair multiplies to 2*I): row i
    of M w is M[i, i] w_i + M[i, 7 - i] w_(7 - i), over 2."""
    c, d = _basis_change(3, complex(eta_value))
    return _on_last_axis(w, np.conj(c), np.conj(d)[::-1]) / 2.0


def game_state2(A, B, P, Q):
    """Two-player game state, normalized, order (00, 01, 10, 11): the gates
    (A, B) and (P, Q) applied to (|00> + |11>)/sqrt(2)."""
    check_unit_pairs((A, B), (P, Q))
    return entangled_state((A, B), (P, Q)) / np.sqrt(2.0)


def basis_matrix2(eta_value=ETA2):
    """Two-player action-basis matrix; columns follow ACTION_LABELS2, unitary."""
    return _label_states(2, eta_value) / np.sqrt(2.0)


def action_basis2(eta_value=ETA2):
    m = basis_matrix2(eta_value)
    return {lbl: m[:, k].copy() for k, lbl in enumerate(ACTION_LABELS2)}


def to_action_basis2(v, eta_value=ETA2):
    return _on_last_axis(v, *_basis_change(2, complex(eta_value)))


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


# State entries per oracle block: 256 KiB of rows, reused in cache, not faulted.
_BLOCK_ENTRIES = 2**14


def _oracle_probs(gates, eta_value):
    """Born-rule probabilities of the literal state in the action basis, by
    blocks of the flattened batch; the coordinate-last view, (..., 2**n)."""
    check_unit_pairs(*gates)
    c, d = _basis_change(len(gates), complex(eta_value))
    shape = np.broadcast(*(a for gate in gates for a in gate)).shape
    size, width = math.prod(shape), _BLOCK_ENTRIES // len(c)
    # A spare zero column: numpy sums a lone column in another order, so a
    # batch of one would not match its row of a larger batch.
    spare = np.empty((len(c), size + 1))
    spare[:, size] = 0.0
    p = spare[:, :size]
    blocks = [(gates, slice(None))]
    if size > width:
        flat = [[np.broadcast_to(a, shape).reshape(-1) for a in gate] for gate in gates]
        cuts = [slice(start, start + width) for start in range(0, size, width)]
        blocks = (([(x[cols], y[cols]) for x, y in flat], cols) for cols in cuts)
    for block, cols in blocks:
        w = _two_term(_entangled_rows(*block).reshape(len(c), -1), c, d).view(float)
        np.square(w, out=w)
        np.add(w[:, ::2], w[:, 1::2], out=p[:, cols])
    p /= np.add.reduce(spare, axis=0)[:size]
    return p.T.reshape(shape + (len(c),))


def oracle_probs3_batch(A, B, P, Q, E, F, eta_value=ETA3):
    """Vectorized oracle probabilities for stacked strategies, shape (n, 8)."""
    return _oracle_probs(((A, B), (P, Q), (E, F)), eta_value)


def oracle_probs2_batch(A, B, P, Q, eta_value=ETA2):
    return _oracle_probs(((A, B), (P, Q)), eta_value)


def oracle_distribution3(A, B, P, Q, E, F, eta_value=ETA3):
    """State-vector route: the literal game state measured in the action
    basis; a batch of one through oracle_probs3_batch."""
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
