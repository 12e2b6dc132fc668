"""Hypercomplex coordinate formulas for the entangled coin games.

Each player's local SU(2) strategy embeds into a quaternion subalgebra of
the octonions, after which the outcome distribution of the three player
entangled game is a fixed quadratic expression in a handful of octonion
products.  The two player game reduces the same way to a single quaternion
product.  Everything here is closed-form algebra with no state vectors, so
the results can be checked against the independent simulation route in
``hypergames.qstate``.

Outcome labels use N (no flip) and F (flip).  The closed form indexes
outcomes by octonion basis element rather than by label; the module-level
tables record that correspondence.
"""

import numpy as np

from .hypercomplex import (
    SUBALGEBRA_UNITS,
    Octonion,
    complex_pair_mul,
    compile_rows,
    coordinate_first,
    coordinate_last,
    gather_mul,
    gather_table,
    oct_mul,
)
from .qstate import (
    ACTION_LABELS2,
    ACTION_LABELS3,
    ETA2,
    ETA3,
    SQRT3,
    OutcomeDistribution,
    SU2Gate,
    batch_of_one,
    check_unit_pairs,
)

# Octonion basis index -> outcome label.  Index 0 is the real unit.
OUTCOME_OF_INDEX = ("NNN", "FFF", "NFF", "FFN", "FNN", "FNF", "NFN", "NNF")
INDEX_OF_OUTCOME = {label: k for k, label in enumerate(OUTCOME_OF_INDEX)}
# Basis index of each ACTION_LABELS3 entry: indexing an index-ordered
# trailing axis with it puts the columns in label order.
LABEL_ORDER = np.array([INDEX_OF_OUTCOME[label] for label in ACTION_LABELS3])

# Basis indices that may appear as a pure basis strategy, per player.
PLAYER_BASIS = {p: (0,) + SUBALGEBRA_UNITS[p] for p in (1, 2, 3)}

# Outcome indices read off the g products and off the h products.
_G_OUTPUTS = (0, 1, 3, 7)
_H_OUTPUTS = (2, 4, 5, 6)
# Player 1's s- = (-Re A, Im A) lies on {0, 1} and s+ = its B part on
# {2, 4}.  Times player 2's subalgebra they land on these disjoint halves,
# so one product s t holds both s- t and s+ t.
_HALVES = ((0, 1, 5, 6), (2, 3, 4, 7))


def _sign_flipped(table, left=(), right=()):
    """The table with the sign of each term on a listed index flipped, as if
    those coordinates of the left or right factor were negated."""
    i, j, sign = table
    return i, j, np.where(np.isin(i, left) != np.isin(j, right), -sign, sign)


def _stacked_halves(outputs):
    """Table of (s t) u restricted to each half of s t, the halves on a new
    trailing axis of the index arrays."""
    halves = [gather_table(half, PLAYER_BASIS[3], outputs) for half in _HALVES]
    return tuple(np.stack(parts, axis=-1) for parts in zip(*halves))


# The g and h routes: first-product table, second-product table and the
# outcome indices read.  The sign variants are folded into the signs: s-
# negates s's real part, t10 negates t's real part and u01 negates u's
# coordinate 1.
_FIRST = gather_table(PLAYER_BASIS[1], PLAYER_BASIS[2])
_ROUTE_TABLES = (
    (
        _sign_flipped(_FIRST, left=(0,), right=(0,)),
        _sign_flipped(_stacked_halves(_G_OUTPUTS), right=(1,)),
        _G_OUTPUTS,
    ),
    (_sign_flipped(_FIRST, left=(0,)), _stacked_halves(_H_OUTPUTS), _H_OUTPUTS),
)
# The same, compiled for gather_mul, with the ACTION_LABELS3 column of each
# outcome read.
_ROUTES = tuple(
    (
        compile_rows(first),
        compile_rows(second),
        tuple(ACTION_LABELS3.index(OUTCOME_OF_INDEX[k]) for k in outputs),
    )
    for first, second, outputs in _ROUTE_TABLES
)


class OctStrategyFamily:
    """Sign variants of one player's strategy inside its octonion subalgebra.

    o00 is the embedded strategy itself.  o10 negates the coefficient of the
    real unit and o01 negates the coefficient of the shared imaginary unit
    i1; both are built from o00 on access.  The closed-form distribution is a
    polynomial in these variants, which the kernel forms from o00 alone.
    """

    __slots__ = ("player", "o00")

    def __init__(self, player, o00):
        self.player = player
        self.o00 = o00

    @property
    def o10(self):
        return Octonion(_negated(self.o00.c, 0))

    @property
    def o01(self):
        return Octonion(_negated(self.o00.c, 1))

    def members(self):
        return self.o00, self.o10, self.o01

    def __repr__(self):
        return "OctStrategyFamily(player=%r, o00=%r)" % (self.player, self.o00)


def _embed(player, A, B):
    """Embedded coefficients, shape (..., 8), of stacked strategy pairs.

    Stored coordinate-first, so each coordinate is one contiguous array.
    """
    if player not in SUBALGEBRA_UNITS:
        raise ValueError("player must be 1, 2, or 3, got %r" % (player,))
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    check_unit_pairs((A, B))
    _, mid, high = SUBALGEBRA_UNITS[player]
    c = np.zeros((8,) + np.broadcast(A, B).shape)
    c[0] = A.real
    c[1] = A.imag
    c[mid] = SQRT3 / 2.0 * B.real - 0.5 * B.imag
    c[high] = 0.5 * B.real + SQRT3 / 2.0 * B.imag
    return coordinate_last(c)


def _negated(c, k):
    """Sign variant: a copy of coordinate-first coefficients, row k negated."""
    out = c.copy()
    out[k] = -out[k]
    return out


def embed3(player, A, B):
    """Embed an SU(2) strategy pair (A, B) into the player's subalgebra.

    The real and i1 coefficients carry A; the other two imaginary units of
    the player's quaternion triple carry B twisted by a sixth root of
    unity.  Returns the family of sign variants of the embedding.
    """
    c = _embed(player, A, B)
    if c.ndim != 1:
        raise ValueError("embed3 expects scalar strategy pairs")
    return OctStrategyFamily(player, Octonion(c))


def _theorem1_kernel(s, t, u):
    """Outcome probabilities, columns in ACTION_LABELS3 order.

    s, t, u are the three players' embedded coefficients, broadcasting.
    Half of the outcomes read off g = (s' t10) u01, the other half off
    h = (s' t00) u00, where s' runs over the half sum and half difference of
    player 1's variants o10 and o01.  By bilinearity those are s+, player
    1's B part, and s- = (-Re A, Im A), and each probability is the sum of
    the squared projections of the s+ and s- products.  Every product runs
    on the players' four-coordinate supports and forms only the outputs
    read; s+ and s- share one first product, and the second product puts
    their halves on one axis.

    Both routes write into the same buffers, made once per call: the first
    product's rows, the halves, the probabilities and one term row.  The
    halves are squared in place.
    """
    s, t, u = coordinate_first(s, t, u)
    inner = np.broadcast_shapes(s.shape[1:], t.shape[1:])
    shape = np.broadcast_shapes(inner, u.shape[1:])
    first = np.empty((8,) + inner)
    halves = np.empty((4, 2) + shape)
    probs = np.empty((8,) + shape)
    term = np.empty(shape)
    # s t broadcasts without u, so its batch shape can be smaller.
    first_term = term[tuple(map(slice, inner)) + (...,)]
    for first_rows, second_rows, columns in _ROUTES:
        gather_mul(s, t, first_rows, first, first_term)
        gather_mul(first, u, second_rows, halves, term)
        np.square(halves, out=halves)
        for k, column in enumerate(columns):
            np.add(halves[k, 0], halves[k, 1], out=probs[column, ...])
    return coordinate_last(probs)


def theorem1_distribution(fam1, fam2, fam3):
    """Closed-form outcome distribution of the three player entangled game.

    Takes one strategy family per player, as produced by embed3, and
    evaluates the eight outcome probabilities purely by octonion
    arithmetic, in the kernel behind theorem1_probs_batch.
    """
    return OutcomeDistribution(
        ACTION_LABELS3, _theorem1_kernel(fam1.o00.c, fam2.o00.c, fam3.o00.c)
    )


def theorem1_probs_batch(A, B, P, Q, E, F):
    """Vectorized closed form for stacked strategy pairs.

    Returns probabilities of shape (..., 8) with columns in ACTION_LABELS3
    order, matching qstate.oracle_probs3_batch for easy comparison.
    """
    return _theorem1_kernel(_embed(1, A, B), _embed(2, P, Q), _embed(3, E, F))


def basis_index(o, player):
    """Basis index of a pure basis-element strategy, validating the player set."""
    c = o.c if isinstance(o, Octonion) else np.asarray(o, dtype=float)
    if c.shape != (8,):
        raise ValueError("expected a single octonion")
    hot = np.flatnonzero(np.abs(c) > 1e-12)
    if hot.size != 1 or abs(c[hot[0]] - 1.0) > 1e-12:
        raise ValueError("strategy must be a single basis element with coefficient 1")
    k = int(hot[0])
    basis_slot(player, k)
    return k


def basis_slot(player, k):
    """Position of basis index k in PLAYER_BASIS[player]."""
    if k not in PLAYER_BASIS[player]:
        raise ValueError(
            "basis element i_%d is not in player %d's subalgebra" % (k, player)
        )
    return PLAYER_BASIS[player].index(k)


def _basis_outcomes():
    """Outcome distributions of all 64 basis-strategy triples.

    One batched product (s t) u over every triple, shape (4, 4, 4, 8): axis
    p - 1 follows PLAYER_BASIS[p] and the columns follow ACTION_LABELS3.
    """
    s, t, u = (np.eye(8)[list(PLAYER_BASIS[p])] for p in (1, 2, 3))
    w = oct_mul(oct_mul(s[:, None, None], t[None, :, None]), u[None, None, :])
    return w[..., LABEL_ORDER] ** 2


BASIS_OUTCOMES = _basis_outcomes()
BASIS_OUTCOMES.setflags(write=False)


def corollary_distribution(s, t, u):
    """Outcome distribution when every player uses a basis-element strategy.

    For basis strategies the closed form collapses to the squared
    projections of the single product (s t) u, which is always plus or
    minus a basis element, so the result is a point mass on one outcome.
    Reads the triple's row of BASIS_OUTCOMES.
    """
    slots = tuple(
        PLAYER_BASIS[player].index(basis_index(o, player))
        for o, player in ((s, 1), (t, 2), (u, 3))
    )
    return OutcomeDistribution(ACTION_LABELS3, BASIS_OUTCOMES[slots])


# The strategy of each basis slot (PLAYER_BASIS order), for every player.
_SLOT_GATES = tuple(
    SU2Gate(x, y) for x, y in ((1.0, 0.0), (1j, 0.0), (0.0, SQRT3 / 2.0 - 0.5j), (0.0, ETA3))
)


def su2_of_basis(o, player):
    """The SU(2) strategy whose embed3 image is the given basis element.

    Solves the embedding relations on the four admissible basis elements of
    the player's subalgebra; used to drive the simulation oracle on basis
    strategies.
    """
    return _SLOT_GATES[basis_slot(player, basis_index(o, player))]


def landsburg_probs_batch(A, B, P, Q):
    """Vectorized quaternion closed form for stacked two player pairs.

    The first player's pair becomes the quaternion A + B eta j, the second's
    P - eta conj(Q) j, with eta the eighth root of unity.  The outcome
    probabilities are the squared real coordinates of their product,
    normalized to guard against rounding drift.  Returns shape (..., 4) with
    columns in ACTION_LABELS2 order, matching qstate.oracle_probs2_batch.
    """
    A, B, P, Q = (np.asarray(z, dtype=complex) for z in (A, B, P, Q))
    # Named, not a temporary: see complex_pair_mul.
    Qc = np.conj(Q)
    first, second = complex_pair_mul(A, B * ETA2, P, -ETA2 * Qc)
    probs = np.stack(
        [first.real**2, second.real**2, second.imag**2, first.imag**2],
        axis=-1,
    )
    return probs / probs.sum(axis=-1, keepdims=True)


def landsburg_probs(A, B, P, Q):
    """Two player outcome distribution from a single quaternion product.

    A batch of one through landsburg_probs_batch, for unit pairs only.
    """
    check_unit_pairs((A, B), (P, Q))
    probs = landsburg_probs_batch(*batch_of_one(A, B, P, Q))
    return OutcomeDistribution(ACTION_LABELS2, probs[0])
