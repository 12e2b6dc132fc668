"""Hypercomplex coordinate formulas for the entangled coin games.

Each player's local SU(2) strategy embeds into a quaternion subalgebra of
the octonions, after which the outcome distribution of the three player
entangled game is a fixed quadratic expression in a handful of octonion
products of sign variants of the embedded strategies, which the kernel
folds into its terms' signs (_theorem1_probs).  The two player game reduces
the same way to a single quaternion product.  Everything here is
closed-form algebra with no state vectors, so the results can be checked
against the independent simulation route in ``hypergames.qstate``.

Outcome labels use N (no flip) and F (flip).  The closed form indexes
outcomes by octonion basis element rather than by label; the module-level
tables record that correspondence.
"""

import math
import numbers

import numpy as np

from .hypercomplex import (
    SUBALGEBRA_UNITS,
    Octonion,
    compile_rows,
    coordinate_last,
    gather_mul,
    product_terms,
    sum_steps,
)
from .qstate import (
    ACTION_LABELS2,
    ACTION_LABELS3,
    ETA2,
    SQRT3,
    OutcomeDistribution,
    UNIT_ATOL,
    SU2Gate,
    batch_of_one,
    block_buffer,
    check_unit_pairs,
    in_blocks,
    normalized,
    oracle_probs2_batch,
    oracle_probs3_batch,
    page_rows,
)
from .records import check_record

# Octonion basis index -> outcome label.  Index 0 is the real unit.
OUTCOME_OF_INDEX = ("NNN", "FFF", "NFF", "FFN", "FNN", "FNF", "NFN", "NNF")

# Basis indices that may appear as a pure basis strategy, per player: the
# order of a strategy's four coordinates in the closed forms.
PLAYER_BASIS = {p: (0,) + SUBALGEBRA_UNITS[p] for p in (1, 2, 3)}


def _player_basis(player):
    """PLAYER_BASIS[player], once player is checked to be the integer 1, 2
    or 3; True and 2.0 compare equal to players but are not."""
    integer = isinstance(player, numbers.Integral) and not isinstance(player, bool)
    if not integer or player not in PLAYER_BASIS:
        raise ValueError("player must be 1, 2, or 3, got %r" % (player,))
    return PLAYER_BASIS[player]


# Player 1's s- = (-Re A, Im A) lies on {0, 1} and s+ = its B part on
# {2, 4}.  Times player 2's subalgebra they land on these disjoint halves,
# so one product s t holds both s- t and s+ t.
_HALVES = ((0, 1, 5, 6), (2, 3, 4, 7))
# The g and h routes: the outcome indices each reads, then the coordinates
# of s, t and u it negates.  s- negates s's real part, t10 negates t's real
# part and u01 negates u's coordinate 1.
_ROUTE_VARIANTS = (
    ((0, 1, 3, 7), (0,), (0,), (1,)),
    ((2, 4, 5, 6), (0,), (), ()),
)
# gather_mul's rows in _theorem1_probs: the coordinates of s, t and u; the
# 11 scratch rows, the first product, the halves pair and the term; the pair
# as one row; the probabilities in ACTION_LABELS3 order.
_FIRST_ROWS, _PAIR, _TERM, _PAIR_ROW, _PROB_ROWS = 12, (20, 21), 22, 23, 24


def _flipped(terms, left=(), right=()):
    """product_terms with the sign of each term on a listed index flipped,
    as if those coordinates of the left or right factor were negated."""
    return [(i, j, -sign if (i in left) != (j in right) else sign) for i, j, sign in terms]


def _closed_form_plan():
    """The gather_mul plan of a block of _theorem1_probs, from
    _ROUTE_VARIANTS, the variants folded into the terms' signs.

    Each route's second product reads only four coordinates of s t, those
    of its outputs, so each route forms only those: their rows of the first
    product, each the sum of two products s_i t_j.  The second products read
    the sign each row is held with (sum_steps) into their terms' signs, and
    their own held signs vanish in the square.  A factor's rows are its
    coordinates, so each basis index of s, t and u becomes its position in
    the player's PLAYER_BASIS.
    """
    s, t, u = (PLAYER_BASIS[p].index for p in (1, 2, 3))
    plan = []
    for outputs, neg_s, neg_t, neg_u in _ROUTE_VARIANTS:
        second = [[_flipped(product_terms(half, PLAYER_BASIS[3], k), right=neg_u)
                   for half in _HALVES] for k in outputs]
        held = {}
        for k in sorted({x for halves in second for terms in halves for x, _, _ in terms}):
            first = _flipped(product_terms(PLAYER_BASIS[1], PLAYER_BASIS[2], k), neg_s, neg_t)
            terms = [(s(x), 4 + t(y), z) for x, y, z in first]
            steps, held[k] = sum_steps(terms, _FIRST_ROWS + k, _TERM)
            plan += steps
        for index, halves in zip(outputs, second):
            for acc, terms in zip(_PAIR, halves):
                terms = [(_FIRST_ROWS + x, 8 + u(y), z * held[x]) for x, y, z in terms]
                plan += sum_steps(terms, acc, _TERM)[0]
            column = _PROB_ROWS + ACTION_LABELS3.index(OUTCOME_OF_INDEX[index])
            plan += [(np.multiply, _PAIR_ROW, _PAIR_ROW, _PAIR_ROW), (np.add, *_PAIR, column)]
    return tuple(plan)


_CLOSED_FORM_PLAN = _closed_form_plan()
# The 16-term product of player 1's subalgebra {1, i1, i2, i4}, the
# quaternions {1, i, j, k}, on each factor's four coordinates, with rows 1,
# j, k, i in ACTION_LABELS2 order.
_QUATERNION_PLAN = compile_rows(PLAYER_BASIS[1], PLAYER_BASIS[1], (0, 2, 4, 1))


def _embed(player, A, B):
    """Embedded coefficients, shape (..., 8), of stacked strategy pairs.

    Stored coordinate-first, so each coordinate is one contiguous array; the
    four coordinates of each block are scattered into PLAYER_BASIS[player].
    """
    basis = list(_player_basis(player))
    shape, _, blocks = _embedded_blocks(_WIDTH3, [(A, B)], [_TWIST3])
    c = np.zeros((8, math.prod(shape)))
    for factors, cols in blocks:
        c[basis, cols] = factors[0]
    return coordinate_last(c.reshape((8,) + shape))


_TWIST3 = complex(SQRT3 / 2.0, 0.5)  # e^(i pi/6), B's twist for 3 players
_CLOSED_ENTRIES = 2**15  # probability entries per closed-form block, by measurement
_WIDTH3 = _CLOSED_ENTRIES // 8  # 3-player profiles per block


def _strategy_pair(c):
    """The pair (A, B) whose 3-player embedding has quaternion coordinates
    c, shape (..., 4): A = c0 + i c1 and B = conj(_TWIST3) (c2 + i c3)."""
    w = _TWIST3
    b0 = w.real * c[..., 2] + w.imag * c[..., 3]
    b1 = -w.imag * c[..., 2] + w.real * c[..., 3]
    return c[..., 0] + 1j * c[..., 1], b0 + 1j * b1


def _embedded_blocks(width, pairs, twists):
    """The batch shape of strategy pairs, checked once, the most profiles in
    a block, and per in_blocks block (factors, columns): the (pairs, 4, n)
    coordinates in PLAYER_BASIS order, whichever the player, A on the first
    two and B times the twist on the other two.  factors is a view of
    block_buffer slot 0.  A pair that does not span the leading axis is the
    same arrays in every block, whose columns prefix the first's: it is
    embedded once.  indifference_check's 16 basis pairs are such pairs;
    embedding them in every block took perfbench's `equilibrium` operation
    from 1.08-1.10 ms to 1.16-1.17 ms (p50, 2-vCPU Xeon, numpy 2.4.6)."""
    pairs = [tuple(np.asarray(z, dtype=complex) for z in pair) for pair in pairs]
    check_unit_pairs(*pairs)
    shape, largest, blocks = in_blocks(width, *(z for pair in pairs for z in pair))
    buffer = block_buffer(0, (len(pairs), 4), largest, width)

    def embedded():
        previous = [None] * (2 * len(pairs))
        for block, block_shape, cols in blocks:
            factors = buffer[..., : cols.stop - cols.start]
            for k, (c, w) in enumerate(zip(factors, twists)):
                A, B = block[2 * k], block[2 * k + 1]
                if A is previous[2 * k] and B is previous[2 * k + 1]:
                    continue
                c = c.reshape((4,) + block_shape)
                c[0], c[1] = A.real, A.imag
                c[2] = w.real * B.real - w.imag * B.imag
                c[3] = w.imag * B.real + w.real * B.imag
            previous = block
            yield factors, cols

    return shape, largest, embedded()


def embed3(player, A, B):
    """Embed an SU(2) strategy pair (A, B) into the player's subalgebra.

    The real and i1 coefficients carry A; the other two imaginary units of
    the player's quaternion triple carry B twisted by e^(i pi/6), a twelfth
    root of unity.  Returns the embedded Octonion.
    """
    c = _embed(player, A, B)
    if c.ndim != 1:
        raise ValueError("embed3 expects scalar strategy pairs")
    return Octonion(c)


def _theorem1_probs(shape, largest, blocks):
    """Outcome probabilities, shape + (8,) in ACTION_LABELS3 order, of
    blocks of factors s, t, u, each its four coordinates (_embedded_blocks).

    Of a player's embedding o00, the sign variant o10 negates the real
    coefficient and o01 the i1 coefficient.  Half of the outcomes read off
    g = (s' t10) u01, the other half off h = (s' t00) u00, where s' runs over
    the half sum and half difference of player 1's variants o10 and o01.  By
    bilinearity those are s+, player 1's B part, and s- = (-Re A, Im A), and
    each probability is the sum of the squared projections of the s+ and s-
    products.  Every product runs on the players' four-coordinate supports
    and forms only the outputs read; s+ and s- share one first product, and
    the second product splits it into their halves.  Each distinct product
    is formed once, no step negates a row (_closed_form_plan), and each
    output's halves are squared and added as soon as they are formed.  All
    blocks reuse block_buffer 1.
    """
    probs = page_rows((8, math.prod(shape)))
    scratch = block_buffer(1, (11,), largest, _WIDTH3)
    for factors, cols in blocks:
        rows = scratch[:, : cols.stop - cols.start]
        gather_mul(_CLOSED_FORM_PLAN, *factors, rows, (rows[8:10],), probs[:, cols])
    return probs.T.reshape(shape + (8,))


def theorem1_distribution(s, t, u):
    """Closed-form outcome distribution of the three player entangled game.

    Takes the Octonion that embed3 returns for each of players 1, 2 and 3,
    and evaluates the eight outcome probabilities purely by octonion
    arithmetic: their coordinates, a batch of one through the kernel of
    theorem1_probs_batch.  A factor with a non-zero coefficient off its
    player's subalgebra, or a squared norm more than UNIT_ATOL from 1,
    raises ValueError naming the player.
    """
    coords = np.empty((3, 4, 1))
    for player, o in enumerate((s, t, u), start=1):
        c = coords[player - 1, :, 0] = o.c[list(PLAYER_BASIS[player])]
        if np.delete(o.c, PLAYER_BASIS[player]).any() or not abs(c @ c - 1.0) <= UNIT_ATOL:
            raise ValueError("player %d's strategy must be a unit octonion in its subalgebra" % player)
    return OutcomeDistribution(ACTION_LABELS3, _theorem1_probs((1,), 1, [(coords, slice(0, 1))])[0])


def theorem1_probs_batch(A, B, P, Q, E, F):
    """Vectorized closed form for stacked strategy pairs.

    Returns probabilities of shape (..., 8) with columns in ACTION_LABELS3
    order, matching qstate.oracle_probs3_batch for easy comparison.
    """
    pairs = ((A, B), (P, Q), (E, F))
    return _theorem1_probs(*_embedded_blocks(_WIDTH3, pairs, [_TWIST3] * 3))


def basis_slot(o, player):
    """Position in PLAYER_BASIS[player] of a pure basis-element strategy,
    given as an Octonion, its 8 coefficients or its basis index, an integer
    that is not a bool; checks the player, a single coefficient 1 and the
    player's subalgebra."""
    basis = _player_basis(player)
    if isinstance(o, Octonion) or np.ndim(o):
        c = o.c if isinstance(o, Octonion) else np.asarray(o, dtype=float)
        if c.shape != (8,):
            raise ValueError("expected a single octonion")
        hot = np.flatnonzero(~(np.abs(c) <= 1e-12))
        if hot.size != 1 or not abs(c[hot[0]] - 1.0) <= 1e-12:
            raise ValueError("strategy must be a single basis element with coefficient 1")
        o = hot[0]
    elif not isinstance(o, numbers.Integral) or isinstance(o, bool):
        raise ValueError("a basis index must be an integer, got %r" % (o,))
    if o not in basis:
        raise ValueError("basis element i_%d is not in player %d's subalgebra" % (o, player))
    return basis.index(o)


def _basis_outcomes():
    """Outcome distributions of all 64 basis-strategy triples.

    The closed-form kernel on one block of every triple, shape (4, 4, 4, 8):
    basis slot k's coordinates are row k of np.eye(4), axis p - 1 follows
    PLAYER_BASIS[p] and the columns follow ACTION_LABELS3.
    """
    coords = np.eye(4)[np.indices((4, 4, 4)).reshape(3, 64)].transpose(0, 2, 1)
    return _theorem1_probs((4, 4, 4), 64, [(coords, slice(0, 64))])


BASIS_OUTCOMES = _basis_outcomes()
BASIS_OUTCOMES.setflags(write=False)


def corollary_distribution(s, t, u):
    """Outcome distribution when every player uses a basis-element strategy.

    For basis strategies the closed form collapses to the squared
    projections of the single product (s t) u, which is always plus or
    minus a basis element, so the result is a point mass on one outcome.
    Reads the triple's row of BASIS_OUTCOMES.
    """
    slots = tuple(basis_slot(o, player) for o, player in ((s, 1), (t, 2), (u, 3)))
    return OutcomeDistribution(ACTION_LABELS3, BASIS_OUTCOMES[slots])


# The (x, y) strategy of each basis slot (PLAYER_BASIS order), for every player.
_SLOT_PAIRS = _strategy_pair(np.eye(4))


def _slot_grid(players):
    """Each player's (x, y) slot-gate amplitudes over all 4**players
    basis-strategy profiles, in itertools.product order of the slots."""
    grid = np.indices((4,) * players).reshape(players, -1)
    return [tuple(z[slots] for z in _SLOT_PAIRS) for slots in grid]


def su2_of_basis(o, player):
    """The SU(2) strategy whose embed3 image is the given basis element.

    Solves the embedding relations on the four admissible basis elements of
    the player's subalgebra; used to drive the simulation oracle on basis
    strategies.
    """
    slot = basis_slot(o, player)
    return SU2Gate(*(z[slot] for z in _SLOT_PAIRS))


def landsburg_probs_batch(A, B, P, Q):
    """Vectorized quaternion closed form for stacked two player pairs.

    The pairs become the quaternions A + B eta j and P - eta conj(Q) j, eta
    the eighth root of unity: player 1's embedding with the twist eta or
    -eta.  The probabilities are the squared coordinates of their product,
    normalized against rounding drift; shape (..., 4), columns in
    ACTION_LABELS2 order, matching qstate.oracle_probs2_batch.
    """
    pairs = ((A, B), (P, np.conj(Q)))
    width = _CLOSED_ENTRIES // 4
    shape, largest, blocks = _embedded_blocks(width, pairs, (ETA2, -ETA2))
    probs = page_rows((4, math.prod(shape)))
    term = block_buffer(1, (1,), largest, width)
    for (left, right), cols in blocks:
        p = probs[:, cols]
        gather_mul(_QUATERNION_PLAN, left, right, p, term[:, : cols.stop - cols.start])
        np.square(p, out=p)
    return normalized(probs, shape)


def landsburg_probs(A, B, P, Q):
    """Two player outcome distribution from a single quaternion product; a
    batch of one through landsburg_probs_batch."""
    probs = landsburg_probs_batch(*batch_of_one(A, B, P, Q))
    return OutcomeDistribution(ACTION_LABELS2, probs[0])


# One route table per player count, read by the `distribution` report and
# by the theorem1 and landsburg suites.  Each table is a module-level dict
# of its own, so a wrapper set over a kernel's module name and over the
# module's dict values, as perfbench's tracer sets one, reaches the kernel.
_ROUTE3 = {"closed": theorem1_probs_batch, "oracle": oracle_probs3_batch,
           "name": "octonion", "labels": ACTION_LABELS3}
_ROUTE2 = {"closed": landsburg_probs_batch, "oracle": oracle_probs2_batch,
           "name": "quaternion", "labels": ACTION_LABELS2}
ROUTES = {3: _ROUTE3, 2: _ROUTE2}
METHODS = ("octonion", "quaternion", "oracle", "both")


def distribution_route(players, method):
    """The route table of the player count, checked against the method."""
    if players not in ROUTES:
        raise ValueError("give 2 or 3 strategies, one per player")
    if method not in METHODS:
        raise ValueError("method must be one of %s, got %r" % (METHODS, method))
    for count, route in ROUTES.items():
        if method == route["name"] and count != players:
            raise ValueError("the %s route needs %d players" % (method, count))
    return ROUTES[players]


def distribution_report(pairs, method, tol, game=None):
    """The `distribution` report of one unit (A, B) pair per player.

    method names a closed route, "oracle", or "both", which adds the
    oracle's distribution and a record comparing the routes to tol.  Each
    route's batch kernel runs on a batch of one, whose row has the bits of
    the scalar wrappers.  game, a PayoffTable, adds the expected payoffs.
    """
    route = distribution_route(len(pairs), method)
    flat = batch_of_one(*(z for pair in pairs for z in pair))

    def run(kernel):
        return OutcomeDistribution(route["labels"], route[kernel](*flat)[0])

    closed = None if method == "oracle" else run("closed")
    oracle = run("oracle") if method in ("oracle", "both") else None
    distribution = oracle if closed is None else closed
    report = {"players": len(pairs), "method": method, "distribution": distribution.as_dict()}
    if method == "both":
        report["oracle_distribution"] = oracle.as_dict()
        deviation = closed.max_deviation(oracle)
        report["comparison"] = check_record("closed form vs state vector", 1, tol, deviation)
    if game is not None:
        report["payoffs"] = game.payoffs_under(distribution.probs).tolist()
    return report
