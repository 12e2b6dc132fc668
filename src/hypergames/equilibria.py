"""Payoff evaluation and equilibrium checks for the quantized games.

A three player payoff table assigns each outcome a real payoff per player,
stored here against the octonion basis index the outcome corresponds to.
On top of the closed-form distribution this module evaluates pure and mixed
quantum payoffs, builds the quarter-weight basis mixture whose profile
equalizes every player's payoff at the average of their table, and runs the
classical pure and mixed analyses of the same tables.

Three example tables ship with the package: a three player zero-sum poker
stage game in both its original printed form and a zero-sum-corrected form,
and a three player dilemma.  The printed tables are internally inconsistent
(two cells break the zero-sum property, and the dilemma table repeats the
poker numbers); they are kept verbatim as data, with the inconsistencies
surfaced by reporting helpers instead of silently patched.
"""

import itertools
import json
from importlib import resources

import numpy as np

from .coordgame import (
    BASIS_OUTCOMES,
    INDEX_OF_OUTCOME,
    LABEL_ORDER,
    PLAYER_BASIS,
    basis_index,
    basis_slot,
    corollary_distribution,
    embed3,
    su2_of_basis,
    theorem1_distribution,
    theorem1_probs_batch,
)
from .hypercomplex import Octonion
from .qstate import ACTION_LABELS3, SQRT3, outcome_labels
from .verify import check_record

# Largest payoff magnitude a game file may hold.  Below it a sum of 16
# payoffs (indifference_check averages over 16 basis pairs), and the
# difference of two averages, stay finite.
MAX_PAYOFF = np.finfo(float).max / 64

BUILTIN_GAME_NAMES = ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")


class Game3Payoffs:
    """Per-player payoff arrays for a three player game.

    Arrays are indexed by octonion basis index 0..7; use by_label for access
    through outcome labels.  zero_sum_claimed records whether the source
    declared the game zero-sum; zero_sum_defects reports cells violating it.
    """

    def __init__(self, X, Y, Z, zero_sum_claimed=False):
        self.X = self._column(X)
        self.Y = self._column(Y)
        self.Z = self._column(Z)
        self.zero_sum_claimed = bool(zero_sum_claimed)

    @staticmethod
    def _column(values):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (8,):
            raise ValueError("payoff column must have exactly 8 entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("payoffs must be finite")
        return arr

    @classmethod
    def from_outcome_table(cls, table, zero_sum_claimed=False):
        """Build from a mapping of outcome label to (x, y, z) payoffs."""
        if set(table) != set(INDEX_OF_OUTCOME):
            raise ValueError("table must cover all 8 outcome labels")
        cols = np.zeros((3, 8))
        for label, row in table.items():
            row = np.asarray(row, dtype=float)
            if row.shape != (3,):
                raise ValueError("each cell needs exactly 3 payoffs")
            cols[:, INDEX_OF_OUTCOME[label]] = row
        return cls(cols[0], cols[1], cols[2], zero_sum_claimed)

    def payoffs_for(self, player):
        if player == 1:
            return self.X
        if player == 2:
            return self.Y
        if player == 3:
            return self.Z
        raise ValueError("player must be 1, 2, or 3, got %r" % (player,))

    def by_label(self, label):
        k = INDEX_OF_OUTCOME[label]
        return (self.X[k], self.Y[k], self.Z[k])

    def in_label_order(self, player):
        """Payoff vector for one player ordered like ACTION_LABELS3."""
        return self.payoffs_for(player)[LABEL_ORDER]

    def zero_sum_defects(self, tol=1e-9):
        """Outcome labels whose payoffs do not sum to zero, with the sums."""
        sums = (self.X + self.Y + self.Z)[LABEL_ORDER]
        return [
            (label, float(x)) for label, x in zip(ACTION_LABELS3, sums) if abs(x) > tol
        ]

    def __repr__(self):
        return "Game3Payoffs(X=%s, Y=%s, Z=%s)" % (
            self.X.tolist(),
            self.Y.tolist(),
            self.Z.tolist(),
        )


class GameFile:
    """Validated in-memory form of a JSON game definition."""

    def __init__(self, players, payoffs, zero_sum=None):
        self.players = players
        self.payoffs = payoffs
        self.zero_sum = zero_sum

    def expected_payoffs(self, distribution):
        """Each player's expected payoff under a label -> probability dict."""
        return [
            sum(distribution[label] * self.payoffs[label][k] for label in distribution)
            for k in range(self.players)
        ]

    def game3(self):
        if self.players != 3:
            raise ValueError("this game file defines a %d player game" % self.players)
        return Game3Payoffs.from_outcome_table(
            self.payoffs, zero_sum_claimed=bool(self.zero_sum)
        )


def parse_game_file(doc):
    """Validate a decoded game-file document.

    The format is a JSON object with "players" (2 or 3), "payoffs" mapping
    every outcome label over the N/F alphabet to an array of per-player
    reals, and an optional boolean "zero_sum" declaring the intended
    zero-sum property.
    """
    if not isinstance(doc, dict):
        raise ValueError("game file must be a JSON object")
    players = doc.get("players")
    if players not in (2, 3):
        raise ValueError("players must be 2 or 3, got %r" % (players,))
    payoffs = doc.get("payoffs")
    expected = set(outcome_labels(players))
    if not isinstance(payoffs, dict) or set(payoffs) != expected:
        raise ValueError(
            "payoffs must map exactly the %d outcome labels %s"
            % (len(expected), sorted(expected))
        )
    table = {}
    for label, row in payoffs.items():
        try:
            row = tuple(float(x) for x in row)
        except (TypeError, ValueError):
            raise ValueError("payoffs for %s must be an array of reals" % label)
        if len(row) != players or not all(abs(x) <= MAX_PAYOFF for x in row):
            raise ValueError(
                "payoffs for %s must be %d finite reals of magnitude at most %g"
                % (label, players, MAX_PAYOFF)
            )
        table[label] = row
    zero_sum = doc.get("zero_sum")
    if zero_sum is not None and not isinstance(zero_sum, bool):
        raise ValueError("zero_sum must be a boolean when present")
    return GameFile(players, table, zero_sum)


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

    The support is a list of (basis element, weight) pairs; elements may be
    passed as Octonion instances or as raw basis indices.
    """

    def __init__(self, player, support):
        if player not in PLAYER_BASIS:
            raise ValueError("player must be 1, 2, or 3, got %r" % (player,))
        self.player = player
        cleaned = []
        total = 0.0
        for element, weight in support:
            weight = float(weight)
            if weight < -1e-15:
                raise ValueError("mixture weights must be nonnegative")
            if isinstance(element, Octonion):
                element = basis_index(element, player)
            index = int(element)
            basis_slot(player, index)
            cleaned.append((index, weight))
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1, got %r" % total)
        self.support = tuple(cleaned)

    def __repr__(self):
        return "DiscreteQuantumMixture(player=%d, support=%r)" % (
            self.player,
            self.support,
        )


def special_distribution(player):
    """Quarter weight on each of the player's four basis strategies."""
    return DiscreteQuantumMixture(
        player, [(k, 0.25) for k in PLAYER_BASIS[player]]
    )


def payoff_pure_basis(k, s, t, u, game):
    """Payoff to player k when every player uses a basis-element strategy.

    The outcome distribution is a point mass, so this reads off a single
    entry of the payoff table.
    """
    return float(corollary_distribution(s, t, u).probs @ game.in_label_order(k))


def expected_payoff_mixture(k, m1, m2, m3, game):
    """Expected payoff to player k under independent basis mixtures.

    Contracts the three mixtures' weights with the payoff of every
    basis-strategy triple, read from the BASIS_OUTCOMES table.
    """
    weights = np.zeros((3, 4))
    for slot, mixture in enumerate((m1, m2, m3)):
        for index, weight in mixture.support:
            weights[slot, basis_slot(slot + 1, index)] += weight
    payoffs = BASIS_OUTCOMES @ game.in_label_order(k)
    return float(np.einsum("i,j,l,ijl->", *weights, payoffs))


def payoff_pure_quantum(k, strat1, strat2, strat3, game):
    """Expected payoff to player k for arbitrary SU(2) strategies.

    Composes the closed-form outcome distribution with the payoff table.
    """
    dist = theorem1_distribution(
        embed3(1, strat1.x, strat1.y),
        embed3(2, strat2.x, strat2.y),
        embed3(3, strat3.x, strat3.y),
    )
    return float(dist.probs @ game.in_label_order(k))


def _random_subalgebra_pairs(rng, samples):
    """SU(2) pairs of uniform random unit quaternions in a player subalgebra.

    Samples the four quaternion coordinates as normalized Gaussians, then
    inverts the embedding's twist to recover the (A, B) amplitude pair.
    """
    coords = rng.standard_normal((samples, 4))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    A = coords[:, 0] + 1j * coords[:, 1]
    b0 = SQRT3 / 2.0 * coords[:, 2] + 0.5 * coords[:, 3]
    b1 = -0.5 * coords[:, 2] + SQRT3 / 2.0 * coords[:, 3]
    return A, b0 + 1j * b1


def indifference_check(k, game, samples, tol, rng=None):
    """Test that player k cannot move their payoff against the others' mixtures.

    Draws random pure quantum strategies for player k, plays them against
    the other two players' quarter-weight basis mixtures, and reports the
    maximum deviation of the expected payoff from the player's all-outcome
    average.  The check passes when the deviation stays below tol.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(rng)
    A, B = _random_subalgebra_pairs(rng, samples)

    others = [p for p in (1, 2, 3) if p != k]
    basis_gates = {
        p: [su2_of_basis(Octonion.basis(i), p) for i in PLAYER_BASIS[p]]
        for p in others
    }
    combos = list(
        itertools.product(basis_gates[others[0]], basis_gates[others[1]])
    )
    slots = {k: (A[:, None], B[:, None])}
    slots[others[0]] = (
        np.array([g.x for g, _ in combos]),
        np.array([g.y for g, _ in combos]),
    )
    slots[others[1]] = (
        np.array([h.x for _, h in combos]),
        np.array([h.y for _, h in combos]),
    )
    probs = theorem1_probs_batch(
        slots[1][0], slots[1][1], slots[2][0], slots[2][1], slots[3][0], slots[3][1]
    )
    payoff = probs @ game.in_label_order(k)
    expected = payoff.mean(axis=1)
    target = float(game.payoffs_for(k).sum() / 8.0)
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


def classical_pure_scan(game):
    """Pure-strategy Nash profiles of the classical 2x2x2 game.

    Returns (label, payoffs) pairs for every profile where no unilateral
    deviation strictly improves the deviating player's payoff.
    """
    swap = {"N": "F", "F": "N"}
    results = []
    for label in ACTION_LABELS3:
        payoffs = game.by_label(label)
        if all(
            game.by_label(label[:k] + swap[label[k]] + label[k + 1 :])[k] <= payoffs[k]
            for k in range(3)
        ):
            results.append((label, tuple(float(x) for x in payoffs)))
    return results


def classical_mixed_payoff(game, p, q, r):
    """Expected classical payoffs when each player mixes independently.

    p, q, and r are the probabilities that players 1, 2, and 3 play their
    second (flip) strategy.
    """
    flip = (float(p), float(q), float(r))
    for value in flip:
        if not 0.0 <= value <= 1.0:
            raise ValueError("mixing probabilities must lie in [0, 1]")
    totals = np.zeros(3)
    for label in ACTION_LABELS3:
        weight = 1.0
        for letter, prob in zip(label, flip):
            weight *= prob if letter == "F" else 1.0 - prob
        totals += weight * np.asarray(game.by_label(label))
    return (float(totals[0]), float(totals[1]), float(totals[2]))
