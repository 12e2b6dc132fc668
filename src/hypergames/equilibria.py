"""Payoff evaluation and equilibrium checks for the quantized games.

A three player payoff table assigns each outcome a real payoff per player.
On top of the closed-form distribution this module evaluates the payoffs of
mixed quantum strategies over basis elements, builds the quarter-weight
basis mixture whose profile equalizes every player's payoff at the average
of their table, and runs the classical pure and mixed analyses of the same
tables.

Three example tables ship with the package: a three player zero-sum poker
stage game in both its original printed form and a zero-sum-corrected form,
and a three player dilemma.  The printed tables are internally inconsistent
(two cells break the zero-sum property, and the dilemma table repeats the
poker numbers); they are kept verbatim as data, with the inconsistencies
surfaced by reporting helpers instead of silently patched.
"""

import json
import numbers
import sys
from importlib import resources

import numpy as np

from .coordgame import (
    BASIS_OUTCOMES,
    _player_basis,
    _slot_grid,
    _strategy_pair,
    basis_slot,
    theorem1_probs_batch,
)
from .qstate import _unit_gaussian_rows, oracle_probs3_batch, outcome_labels
from .records import check_record

# Largest payoff magnitude a game file may hold.  Below it a sum of 16
# payoffs (indifference_check averages over 16 basis pairs), and the
# difference of two averages, stay finite.  A Python float, so comparing an
# integer too large for a float against it does not overflow.
MAX_PAYOFF = sys.float_info.max / 64

ZERO_SUM_TOL = 1e-9  # how far from 0 an outcome's payoffs may sum and still count as zero-sum

ROUTE_SAMPLES = 16  # random strategy triples of route_check

BUILTIN_GAME_NAMES = ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")


class PayoffTable:
    """A payoff table: one row of payoffs per player, one column per outcome.

    payoffs has shape (players, 2**players), its columns in labels order,
    which is qstate.outcome_labels.  zero_sum_claimed records whether the
    source declared the game zero-sum; zero_sum_defects reports the cells
    that break it.  from_outcome_table validates; the constructor trusts
    its array.
    """

    def __init__(self, payoffs, zero_sum_claimed=False):
        self.payoffs = np.asarray(payoffs, dtype=float)
        self.players = len(self.payoffs)
        self.labels = outcome_labels(self.players)
        self.zero_sum_claimed = bool(zero_sum_claimed)

    @classmethod
    def from_outcome_table(cls, table, players=3, zero_sum_claimed=None):
        """Validate a mapping of outcome label to per-player payoffs.

        Every label of the player count appears once, with an array of one
        real per player, each finite and at most MAX_PAYOFF in magnitude.
        zero_sum_claimed is a boolean or None.
        """
        if players not in (2, 3) or not isinstance(players, int):
            raise ValueError("players must be 2 or 3, got %r" % (players,))
        labels = outcome_labels(players)
        if not isinstance(table, dict) or set(table) != set(labels):
            raise ValueError(
                "payoffs must map exactly the %d outcome labels %s"
                % (len(labels), sorted(labels))
            )
        payoffs = np.empty((players, len(labels)))
        for label, row in table.items():
            if not isinstance(row, (list, tuple)) or not all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in row
            ):
                raise ValueError("payoffs for %s must be an array of reals" % label)
            if len(row) != players or not all(abs(x) <= MAX_PAYOFF for x in row):
                raise ValueError(
                    "payoffs for %s must be %d finite reals of magnitude at most %g"
                    % (label, players, MAX_PAYOFF)
                )
            payoffs[:, labels.index(label)] = row
        if zero_sum_claimed is not None and not isinstance(zero_sum_claimed, bool):
            raise ValueError("zero_sum must be a boolean when present")
        return cls(payoffs, zero_sum_claimed)

    def game3(self):
        """This table, checked to be a three player game."""
        if self.players != 3:
            raise ValueError("this game file defines a %d player game" % self.players)
        return self

    def payoffs_for(self, player):
        """Player's payoffs (players count from 1), in label order.  player is
        an integer that is not a bool: True and 2.0 compare equal to players
        but are not."""
        integer = isinstance(player, numbers.Integral) and not isinstance(player, bool)
        if not integer or player not in range(1, self.players + 1):
            raise ValueError(
                "player must be 1 to %d, got %r" % (self.players, player)
            )
        return self.payoffs[player - 1]

    def payoffs_under(self, probs):
        """Each player's expected payoff under one probability per label.

        Adds the label columns one at a time in label order, so each total
        rounds like a sum written out by hand.
        """
        if len(probs) != len(self.labels):
            raise ValueError("expected %d outcome probabilities" % len(self.labels))
        totals = np.zeros(self.players)
        for prob, column in zip(probs, self.payoffs.T):
            totals += prob * column
        return totals

    def zero_sum_defects(self):
        """Outcome labels whose payoffs do not sum to zero, with the sums."""
        sums = self.payoffs.sum(axis=0)
        return [(label, float(x)) for label, x in zip(self.labels, sums) if abs(x) > ZERO_SUM_TOL]

    def __repr__(self):
        return "PayoffTable(%s)" % self.payoffs.tolist()


def parse_game_file(doc):
    """Validate a decoded game-file document.

    The format is a JSON object with "players" (2 or 3), "payoffs" mapping
    every outcome label over the N/F alphabet to an array of per-player
    reals, and an optional boolean "zero_sum" declaring the intended
    zero-sum property.
    """
    if not isinstance(doc, dict):
        raise ValueError("game file must be a JSON object")
    return PayoffTable.from_outcome_table(
        doc.get("payoffs"), doc.get("players"), doc.get("zero_sum")
    )


def load_game_file(path):
    """Read and validate a game definition from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return parse_game_file(json.load(fh))


def builtin_game_file(name):
    """Load one bundled game table by name."""
    if name not in BUILTIN_GAME_NAMES:
        raise ValueError(
            "unknown builtin game %r; choose from %s" % (name, BUILTIN_GAME_NAMES)
        )
    text = (
        resources.files("hypergames").joinpath("data/%s.json" % name).read_text("utf-8")
    )
    return parse_game_file(json.loads(text))


def builtin_games():
    """The bundled example tables, keyed by name."""
    return {name: builtin_game_file(name).game3() for name in BUILTIN_GAME_NAMES}


class DiscreteQuantumMixture:
    """Mixed quantum strategy supported on a player's basis-element strategies.

    Built from (basis element, weight) pairs, the elements given as anything
    basis_slot reads.  weights holds the weight of each of the player's four
    basis strategies, in PLAYER_BASIS order: the diagonal of the mixture's
    second moment.
    """

    def __init__(self, player, support):
        self.player = player
        self.weights = np.zeros(4)
        total = 0.0
        for element, weight in support:
            weight = float(weight)
            if not weight >= -1e-15:
                raise ValueError("mixture weights must be nonnegative")
            self.weights[basis_slot(element, player)] += weight
            total += weight
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("mixture weights must sum to 1, got %r" % total)

    def __repr__(self):
        return "DiscreteQuantumMixture(player=%d, weights=%r)" % (
            self.player,
            self.weights.tolist(),
        )


def special_distribution(player):
    """Quarter weight on each of the player's four basis strategies."""
    return DiscreteQuantumMixture(player, [(k, 0.25) for k in _player_basis(player)])


def expected_payoff_mixture(k, m1, m2, m3, game):
    """Expected payoff to player k under independent basis mixtures.

    Contracts the weights of players 1, 2 and 3's mixtures, in that order,
    with the payoff of every basis-strategy triple, read from the
    BASIS_OUTCOMES table.
    """
    players = (m1.player, m2.player, m3.player)
    if players != (1, 2, 3):
        raise ValueError("expected the mixtures of players 1, 2 and 3 in order, got %r" % (players,))
    payoffs = BASIS_OUTCOMES @ game.payoffs_for(k)
    return float(np.einsum("i,j,l,ijl->", m1.weights, m2.weights, m3.weights, payoffs))


def _random_subalgebra_pairs(rng, samples):
    """SU(2) pairs of uniform random unit quaternions in a player subalgebra.

    Samples the four quaternion coordinates as normalized Gaussians, then
    inverts the embedding's twist to recover the (A, B) amplitude pair.
    """
    return _strategy_pair(_unit_gaussian_rows(rng, samples))


def indifference_check(k, game, samples, tol, rng=None):
    """Test that player k cannot move their payoff against the others' mixtures.

    Draws random pure quantum strategies for player k, plays them against
    the other two players' quarter-weight basis mixtures, and reports the
    maximum deviation of the expected payoff from the player's all-outcome
    average.  The check passes when the deviation stays below tol.
    """
    payoffs = game.payoffs_for(k)
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(rng)
    A, B = _random_subalgebra_pairs(rng, samples)

    # The other two players' 16 basis pairs, the first of them varying slowest.
    pairs = _slot_grid(2)
    pairs.insert(k - 1, (A[:, None], B[:, None]))
    probs = theorem1_probs_batch(*(z for pair in pairs for z in pair))
    expected = (probs.reshape(-1, 8) @ payoffs).reshape(samples, 16).mean(axis=1)
    target = float(payoffs.sum() / 8.0)
    return check_record(
        "own strategy cannot move the payoff off the target",
        samples,
        tol,
        np.max(np.abs(expected - target)),
        player=int(k),
        target=target,
    )


def special_payoff_check(k, game):
    """Test that the quarter-weight mixtures pay player k their table average.

    One exact evaluation of expected_payoff_mixture against the mean of the
    player's eight payoffs, to 1e-12.
    """
    mixtures = [special_distribution(p) for p in (1, 2, 3)]
    payoff = expected_payoff_mixture(k, *mixtures, game=game)
    average = float(game.payoffs_for(k).mean())
    return check_record(
        "quarter-weight mixtures pay the table average",
        1,
        1e-12,
        abs(payoff - average),
        player=int(k),
        payoff=payoff,
        average_of_eight=average,
    )


def route_check(tol, rng):
    """Test the closed form against the state-vector oracle on ROUTE_SAMPLES
    random strategy triples drawn from rng.  The report's other checks read
    only the closed form, so a wrong route passes them; this one fails."""
    flat = [z for _ in range(3) for z in _random_subalgebra_pairs(rng, ROUTE_SAMPLES)]
    deviation = np.max(np.abs(theorem1_probs_batch(*flat) - oracle_probs3_batch(*flat)))
    return check_record("octonion closed form vs state vector", ROUTE_SAMPLES, tol, deviation)


def classical_pure_scan(game):
    """Pure-strategy Nash profiles of the classical 2x2x2 game.

    Returns (label, payoffs) pairs, in label order, for every profile where
    no unilateral deviation strictly improves the deviating player's
    payoff.  Axis k of a player's (2, 2, 2) block is player k + 1's letter,
    so flipping it along that axis gives the payoffs after k + 1 deviates.
    """
    cube = game.payoffs.reshape(3, 2, 2, 2)
    stable = np.ones((2, 2, 2), dtype=bool)
    for k in range(3):
        stable &= cube[k] >= np.flip(cube[k], axis=k)
    return [
        (label, tuple(column.tolist()))
        for label, column, ok in zip(game.labels, game.payoffs.T, stable.flat)
        if ok
    ]


def classical_mixed_payoff(game, p, q, r):
    """Expected classical payoffs when each player mixes independently.

    p, q, and r are the probabilities that players 1, 2, and 3 play their
    second (flip) strategy.
    """
    flip = (float(p), float(q), float(r))
    for value in flip:
        if not 0.0 <= value <= 1.0:
            raise ValueError("mixing probabilities must lie in [0, 1]")
    # Weight of each label: player 1's N-or-F probability times player 2's
    # times player 3's, laid out in label order.
    first, second, third = ((1.0 - x, x) for x in flip)
    weights = np.multiply.outer(np.multiply.outer(first, second), third)
    return tuple(game.payoffs_under(weights.ravel()).tolist())


def equilibrium_report(game, samples, tol, seed):
    """The `equilibrium` report of a three player table.

    The quarter-weight mixtures' special payoffs, each player's indifference
    check over samples seeded draws to tol, the closed form against the
    oracle to tol (route_check, drawn after them), the classical pure
    equilibria, and notes on them and on a violated zero-sum claim.
    """
    if game.players != 3:
        raise ValueError("equilibrium analysis needs a 3-player game file")
    notes = []
    defects = dict(game.zero_sum_defects())
    if game.zero_sum_claimed and defects:
        notes.append(
            "zero-sum claim violated: "
            + ", ".join("%s sums to %g" % (lbl, s) for lbl, s in sorted(defects.items()))
        )
    rng = np.random.default_rng(seed)
    indifference = [indifference_check(k, game, samples, tol, rng) for k in (1, 2, 3)]
    route = route_check(tol, rng)
    pure = classical_pure_scan(game)
    notes += [
        "classical pure equilibrium at %s paying (%g, %g, %g)" % ((label,) + payoffs)
        for label, payoffs in pure
    ] or ["no classical pure equilibrium"]
    return {
        "players": 3,
        "zero_sum_claimed": bool(game.zero_sum_claimed),
        "zero_sum_defects": {lbl: float(s) for lbl, s in defects.items()},
        "samples": int(samples),
        "seed": int(seed),
        "special_payoffs": [special_payoff_check(k, game) for k in (1, 2, 3)],
        "indifference": indifference,
        "route": route,
        "classical_pure_equilibria": [
            {"profile": label, "payoffs": list(payoffs)} for label, payoffs in pure
        ],
        "notes": notes,
    }
