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
import threading

import numpy as np

SQRT3 = np.sqrt(3.0)

# Primitive phase for the three-player coordinatization, a primitive 6th
# root of unity, and the two-player one, a primitive 8th root.
ETA3 = complex(0.5, SQRT3 / 2.0)
ETA2 = complex(1.0, 1.0) / np.sqrt(2.0)
UNIT_ATOL = 1e-9  # how far |A|^2 + |B|^2, and a distribution's sum, may lie from 1


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


def check_unit_pairs(*pairs):
    """Require |A|^2 + |B|^2 = 1 within UNIT_ATOL for every pair, summing the
    squared parts; a NaN or an infinity fails.  A one-element input is
    summed as a Python number, which costs no numpy call.  Every CLI call
    checks such pairs; summing them as arrays took an in-process
    `distribution --method both` call from 317-337 us to 343-352 us (median
    call, 2-vCPU Xeon, numpy 2.4.6)."""
    for a, b in pairs:
        a, b = [z.item() if z.size == 1 else z for z in (np.asarray(a), np.asarray(b))]
        norms = a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag)
        lo = hi = norms
        if isinstance(norms, np.ndarray):
            lo, hi = norms.min(initial=1.0), norms.max(initial=1.0)
        if not (hi - 1.0 <= UNIT_ATOL and 1.0 - lo <= UNIT_ATOL):
            raise ValueError("strategy pair must satisfy |A|^2 + |B|^2 = 1")


def su2_matrices(x, y):
    """SU(2) matrices [[x, y], [-conj(y), conj(x)]] of amplitude arrays.

    x and y broadcast against each other; returns a (..., 2, 2) view of
    (2, 2, ...) memory.  Every (x, y) pair must pass check_unit_pairs.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    check_unit_pairs((x, y))
    m = np.empty((2, 2) + np.broadcast(x, y).shape, dtype=complex)
    m[0, 0] = x
    m[0, 1] = y
    m[1, 0] = -np.conj(y)
    m[1, 1] = np.conj(x)
    return m.transpose(*range(2, m.ndim), 0, 1)


def _entangled_rows(*gates, out=None):
    """Each player's SU(2) gate applied to the entangled start |0..0> + |1..1>.

    gates holds one amplitude pair (x, y) per player, two or more, the gate
    U = [[x, y], [-conj(y), conj(x)]], as scalars or broadcastable arrays.
    Returns the unnormalized state coordinate-first, shape (2**n, ...), with
    player 1 on the most significant qubit, in out if it is given.  Entry
    (r_1..r_n) is prod_k U_k[r_k, 1] + prod_k U_k[r_k, 0]; the second
    product reads conj(y) for U[1, 0] and is subtracted when an odd number of
    the r_k are 1.
    """
    if len(gates) < 2:
        raise ValueError("the entangled start needs two or more players")
    # Per player, for row r: (U[r, 0] up to its sign, U[r, 1]).
    rows = []
    for x, y in gates:
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        rows.append(((x, y), (np.conj(y), np.conj(x))))
    if out is None:
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

    def __repr__(self):
        return "SU2Gate(%r, %r)" % (self.x, self.y)


def _unit_gaussian_rows(rng, n):
    """n rows of 4 standard normals, each scaled in place to unit length, so
    uniform on the 3-sphere.  The squared norm adds the columns left to
    right, as np.linalg.norm(axis=1) does, so the rows keep its bits."""
    v = rng.standard_normal((n, 4))
    c0, c1, c2, c3 = v.T
    v /= np.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)[:, None]
    return v


def flip_gate(eta_value):
    """The flip strategy [[0, eta], [-conj(eta), 0]]; identity is SU2Gate(1, 0)."""
    if abs(abs(eta_value) - 1.0) > 1e-12:
        raise ValueError("flip gate phase must be unimodular")
    return SU2Gate(0.0, eta_value)


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


def _two_term(v, c, d, out=None, term=None):
    """c*v + d*v[::-1] along the leading (coordinate) axis of v; out and
    term, shaped as v, may be passed in to hold the sum and d*v[::-1]."""
    w = np.multiply(c, v, out=out)
    w += np.multiply(d, v[::-1], out=term)
    return w


def to_action_basis3(v, eta_value=ETA3):
    """Computational-basis amplitudes, shape (..., 8), in the action basis."""
    v = np.asarray(v, dtype=complex)
    c, d = _basis_change(3, complex(eta_value))
    return _two_term(v.reshape(-1, v.shape[-1]).T, c, d).T.reshape(v.shape)


def basis_matrix2(eta_value=ETA2):
    """Two-player action-basis matrix; columns follow ACTION_LABELS2, unitary."""
    return _label_states(2, eta_value) / np.sqrt(2.0)


class OutcomeDistribution:
    """Labeled probability vector over game outcomes."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels, probs):
        probs = np.asarray(probs, dtype=float)
        labels = tuple(labels)
        if len(labels) != probs.shape[-1]:
            raise ValueError("labels and probabilities disagree in length")
        if not (np.min(probs) >= -UNIT_ATOL and abs(np.sum(probs) - 1.0) <= UNIT_ATOL):
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
    if not np.isfinite(total):
        raise ValueError("cannot measure a vector whose squared norm is NaN or infinite")
    return OutcomeDistribution(labels, w / total)


def batch_of_one(*values):
    """Scalars or single rows as batches of one, the input shape of a batch
    kernel.

    Scalar entry points pass these and take row 0 of the result, so they
    agree with the kernel's other rows bit for bit.
    """
    return [np.asarray(v)[np.newaxis] for v in values]


def in_blocks(width, *arrays):
    """The batch shape of arrays, the most profiles in any block, and
    (block, shape, columns) for each block: the arrays on the block, its
    batch shape and its slice of the flattened batch.  A batch of at most
    width profiles is one block, the arrays as given.  A larger one is cut
    into runs of whole leading rows, at most width profiles each unless one
    row is longer: an array that spans the leading axis is sliced along it
    and every other one broadcasts as it is, so no block copies an input."""
    shape = np.broadcast(*arrays).shape
    size = math.prod(shape)
    if size <= width:
        return shape, size, [(arrays, shape, slice(0, size))]
    row = size // shape[0]
    rows = max(1, width // row)
    spans = [np.ndim(a) == len(shape) and len(a) > 1 for a in arrays]

    def block(start):
        stop = min(start + rows, shape[0])
        sliced = [a[start:stop] if span else a for a, span in zip(arrays, spans)]
        return sliced, (stop - start,) + shape[1:], slice(start * row, stop * row)

    return shape, rows * row, (block(start) for start in range(0, shape[0], rows))


PAGE = 4096  # bytes
# Rows of at least PAGED_ROW entries start on a page boundary and are a
# whole number of pages apart.  Shorter rows stay where the heap puts them:
# numpy runs a ufunc over strided rows that short about 4x slower than over
# packed ones, and packed from a page boundary the kernels ran slower than
# at the heap's offsets (at 600-1500 profiles; CHANGES.md).
PAGED_ROW = 2048


def _row_pitch(columns, dtype):
    """Bytes from the start of one row of columns entries to the next, a
    whole number of pages; None for a row of fewer than PAGED_ROW entries."""
    if columns < PAGED_ROW:
        return None
    return -(-columns * np.dtype(dtype).itemsize // PAGE) * PAGE


def _on_pages(shape, dtype, storage, pitch):
    """shape of dtype on storage from its first page boundary, rows pitch
    bytes apart; storage holds at least a page more than the rows."""
    lead = shape[:-1]
    strides = [pitch * math.prod(lead[k + 1:]) for k in range(len(lead))]
    strides.append(np.dtype(dtype).itemsize)
    return np.ndarray(shape, dtype, storage, -storage.ctypes.data % PAGE, strides)


def page_rows(shape, dtype=float):
    """An empty array of shape for a kernel's output rows, its last axis,
    laid out as block_buffer lays out its rows.  Rows of fewer than
    PAGED_ROW entries are np.empty(shape, dtype), so a batch of one stays a
    plain array."""
    pitch = _row_pitch(shape[-1], dtype)
    if pitch is None:
        return np.empty(shape, dtype)
    storage = np.empty(math.prod(shape[:-1]) * pitch + PAGE, np.uint8)
    return _on_pages(shape, dtype, storage, pitch)


class _KeptSlots(threading.local):
    """Each thread's block scratch: flat float64 storage by slot number."""

    def __init__(self):
        self.slots = {}


_KEPT = _KeptSlots()


def block_buffer(slot, rows, largest, width, dtype=float):
    """A (*rows, largest) scratch buffer for a kernel's blocks.

    largest and width are those of the kernel's in_blocks call.  A kernel
    numbers its buffers from slot 0.  Each buffer is a view of storage that
    the calling thread keeps for that slot and grows on demand, up to the
    size of width columns, so every kernel call in the thread reuses the
    memory that the one before it has just used: a loop of calls faults no
    fresh pages in.  A batch with a leading row longer than width gets a
    buffer of its own, which is not kept.  Its contents are garbage on entry
    and dead when the kernel returns, and nothing a kernel returns may be a
    view of it.

    Rows of at least PAGED_ROW entries start on page boundaries and are a
    whole number of pages apart: the storage holds one page more, and the
    view starts at its first boundary.  Each plan step reads two rows and
    writes a third, and how fast it runs depends on where those rows sit
    within their pages.  Where the heap put them, the same operations ran
    up to 1.3x apart with nothing changed but the size of one allocation
    made before the import; on page boundaries a perfbench-style
    equilibrium operation took 0.77-0.81 of its time with the heap's
    placement, at each of five such sizes (BENCH_22.json).
    """
    shape = rows + (largest,)
    if largest > width:
        return page_rows(shape, dtype)
    pitch = _row_pitch(largest, dtype)
    if pitch is None:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    else:
        nbytes = math.prod(rows) * pitch + PAGE
    kept = _KEPT.slots
    storage = kept.get(slot)
    if storage is None or storage.nbytes < nbytes:
        storage = kept[slot] = np.empty(nbytes // 8)
    if pitch is None:
        return np.ndarray(shape, dtype, storage)
    return _on_pages(shape, dtype, storage, pitch)


def normalized(p, shape):
    """Coordinate-first probabilities p, (rows, size), over their column sums,
    coordinate-last: shape + (rows,).  The rows are added one at a time, so
    every column sums in one order whatever the batch size."""
    p /= sum(p[1:], p[0])
    return p.T.reshape(shape + (len(p),))


# State entries per oracle block: 256 KiB of complex rows.  Its block_buffer
# holds three such blocks: the state, its basis change and one term.
_BLOCK_ENTRIES = 2**14


def _oracle_probs(gates):
    """Born-rule probabilities of the literal state in the action basis of
    the player count's phase, eta(len(gates)), by in_blocks of the batch;
    the coordinate-last view, (..., 2**n).  The state, its basis change and
    the d*v[::-1] term of each block are written into one block_buffer."""
    check_unit_pairs(*gates)
    c, d = _basis_change(len(gates), eta(len(gates)))
    width = _BLOCK_ENTRIES // len(c)
    shape, largest, blocks = in_blocks(width, *(a for gate in gates for a in gate))
    p = page_rows((len(c), math.prod(shape)))
    buffer = block_buffer(0, (3, len(c)), largest, width, complex)
    for block, block_shape, cols in blocks:
        state, changed, term = buffer[..., : cols.stop - cols.start]
        state_rows = state.reshape(state.shape[:1] + block_shape)
        _entangled_rows(*zip(block[::2], block[1::2]), out=state_rows)
        w = _two_term(state, c, d, changed, term).view(float)
        np.square(w, out=w)
        np.add(w[:, ::2], w[:, 1::2], out=p[:, cols])
    return normalized(p, shape)


def oracle_probs3_batch(A, B, P, Q, E, F):
    """Vectorized oracle probabilities at the phase ETA3, shape (n, 8)."""
    return _oracle_probs(((A, B), (P, Q), (E, F)))


def oracle_probs2_batch(A, B, P, Q):
    """Two-player oracle probabilities at the phase ETA2, shape (n, 4)."""
    return _oracle_probs(((A, B), (P, Q)))


def oracle_distribution3(A, B, P, Q, E, F):
    """State-vector route: the literal game state measured in the action
    basis at the phase ETA3; a batch of one through oracle_probs3_batch."""
    probs = oracle_probs3_batch(*batch_of_one(A, B, P, Q, E, F))
    return OutcomeDistribution(ACTION_LABELS3, probs[0])


def oracle_distribution2(A, B, P, Q):
    """Two-player state-vector route at the phase ETA2; a batch of one
    through oracle_probs2_batch."""
    probs = oracle_probs2_batch(*batch_of_one(A, B, P, Q))
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
