import itertools

import numpy as np
import numpy.testing as npt
import pytest

from hypergames import equilibria
from hypergames.cli import main
from hypergames.coordgame import (
    BASIS_OUTCOMES,
    PLAYER_BASIS,
    _slot_grid,
    distribution_report,
    su2_of_basis,
    theorem1_probs_batch,
)
from hypergames.equilibria import (
    BUILTIN_GAME_NAMES,
    ROUTE_SAMPLES,
    DiscreteQuantumMixture,
    PayoffTable,
    _random_subalgebra_pairs,
    builtin_game_file,
    builtin_games,
    classical_mixed_payoff,
    classical_pure_scan,
    equilibrium_report,
    expected_payoff_mixture,
    indifference_check,
    load_game_file,
    outcome_labels,
    parse_game_file,
    route_check,
    special_distribution,
)
from hypergames.hypercomplex import Octonion
from hypergames.qstate import SU2Gate, oracle_probs3_batch

POKER_TABLE = {
    "NNN": (-2, -2, 4),
    "NFN": (-2, 6, -4),
    "FNN": (6, -2, -4),
    "FFN": (10, 10, 20),
    "NNF": (0, 0, 0),
    "NFF": (2, -4, 2),
    "FNF": (-4, 2, 0),
    "FFF": (-3, -3, 6),
}


def random_game(rng):
    return PayoffTable(rng.standard_normal((3, 8)))


def cell(game, label):
    """Every player's payoff at one outcome label."""
    return tuple(game.payoffs[:, game.labels.index(label)].tolist())


def specials():
    return tuple(special_distribution(p) for p in (1, 2, 3))


class TestGame3Payoffs:
    """A three player PayoffTable built from a label-keyed table."""

    def test_label_round_trip(self):
        game = PayoffTable.from_outcome_table(POKER_TABLE)
        assert game.players == 3 and game.labels == outcome_labels(3)
        for label, row in POKER_TABLE.items():
            assert cell(game, label) == tuple(float(x) for x in row)

    def test_payoff_column_selection(self):
        # A player's row is their column of the printed table, read in
        # outcome_labels order.
        game = PayoffTable.from_outcome_table(POKER_TABLE)
        for k in (1, 2, 3):
            npt.assert_array_equal(
                game.payoffs_for(k),
                [POKER_TABLE[label][k - 1] for label in outcome_labels(3)],
            )
        npt.assert_array_equal(game.payoffs_for(1), [-2, 0, -2, 2, 6, -4, 10, -3])
        npt.assert_array_equal(game.payoffs_for(np.int64(3)), game.payoffs_for(3))
        # True == 1, so a range check alone reads it as player 1.
        for player in (0, 4, True, False, 2.0):
            with pytest.raises(ValueError, match="player must be 1 to 3"):
                game.payoffs_for(player)
        two = PayoffTable.from_outcome_table({label: [0, 1] for label in outcome_labels(2)}, 2)
        npt.assert_array_equal(two.payoffs_for(2), [1, 1, 1, 1])
        for player in (3, True):
            with pytest.raises(ValueError, match="player must be 1 to 2"):
                two.payoffs_for(player)

    def test_zero_sum_defects(self):
        game = PayoffTable.from_outcome_table(POKER_TABLE, zero_sum_claimed=True)
        assert game.zero_sum_claimed
        assert dict(game.zero_sum_defects()) == {"FFN": 40.0, "FNF": -2.0}
        near = PayoffTable.from_outcome_table(dict(POKER_TABLE, FFN=(10, 10, -20 + 2e-9)))
        defects = dict(near.zero_sum_defects())
        assert defects == {"FNF": -2.0, "FFN": pytest.approx(2e-9, abs=1e-14)}

    def test_rejects_malformed_columns(self):
        for bad_cell in ((0, 0), (np.nan, 0, 0)):
            with pytest.raises(ValueError, match="FFF"):
                PayoffTable.from_outcome_table(dict(POKER_TABLE, FFF=bad_cell))
        bad = dict(POKER_TABLE)
        del bad["FFF"]
        with pytest.raises(ValueError):
            PayoffTable.from_outcome_table(bad)


class TestGameFileParsing:
    def test_accepts_valid_three_player_file(self):
        doc = {"players": 3, "zero_sum": True, "payoffs": POKER_TABLE}
        gf = parse_game_file(doc)
        assert gf.players == 3 and gf.zero_sum_claimed is True
        assert gf.game3() is gf
        assert cell(gf, "FFN") == (10.0, 10.0, 20.0)

    def test_accepts_two_player_file(self):
        doc = {
            "players": 2,
            "payoffs": {"NN": [1, 1], "NF": [0, 3], "FN": [3, 0], "FF": [2, 2]},
        }
        gf = parse_game_file(doc)
        assert gf.players == 2 and gf.labels == ("NN", "NF", "FN", "FF")
        npt.assert_array_equal(gf.payoffs, [[1, 0, 3, 2], [1, 3, 0, 2]])
        probs = (0.1, 0.2, 0.3, 0.4)
        by_hand = [0.0, 0.0]
        for p, row in zip(probs, doc["payoffs"].values()):
            by_hand = [total + p * x for total, x in zip(by_hand, row)]
        assert gf.payoffs_under(probs).tolist() == by_hand
        with pytest.raises(ValueError):
            gf.game3()

    def test_label_alphabet(self):
        assert outcome_labels(2) == ("NN", "NF", "FN", "FF")
        assert len(outcome_labels(3)) == 8

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"players": 4, "payoffs": {}},
            {"players": 3, "payoffs": {"NNN": [1, 2, 3]}},
            {"players": 3, "payoffs": {k: [1, 2] for k in POKER_TABLE}},
            {"players": 3, "payoffs": {k: "xyz" for k in POKER_TABLE}},
            {
                "players": 3,
                "payoffs": {k: [np.inf, 0, 0] for k in POKER_TABLE},
            },
            {"players": 3, "payoffs": dict(POKER_TABLE), "zero_sum": "yes"},
            {"players": 3, "payoffs": dict(POKER_TABLE, NFN="123")},
            {"players": 3, "payoffs": dict(POKER_TABLE, NFN={"1": 1, "2": 2, "3": 3})},
            {"players": 3, "payoffs": dict(POKER_TABLE, NFN=[True, False, 1])},
            {"players": 3, "payoffs": dict(POKER_TABLE, NFN=[10**400, 0, 0])},
            {"players": 2.0, "payoffs": {k: [1, 1] for k in ("NN", "NF", "FN", "FF")}},
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            parse_game_file(doc)

    def test_load_from_disk(self, tmp_path):
        target = tmp_path / "game.json"
        target.write_text(
            '{"players": 3, "payoffs": {%s}}'
            % ", ".join('"%s": [1, 2, 3]' % k for k in POKER_TABLE)
        )
        gf = load_game_file(target)
        assert cell(gf.game3(), "NNN") == (1.0, 2.0, 3.0)


class TestBuiltinGames:
    def test_names_and_types(self):
        games = builtin_games()
        assert set(games) == set(BUILTIN_GAME_NAMES)
        for game in games.values():
            assert isinstance(game, PayoffTable)

    def test_printed_poker_matches_source_table(self):
        game = builtin_games()["poker_printed"]
        for label, row in POKER_TABLE.items():
            assert cell(game, label) == tuple(float(x) for x in row)
        # Player 1 column in source-table order: outcomes with the third
        # letter N first, second letter varying fastest.
        order = ("NNN", "NFN", "FNN", "FFN", "NNF", "NFF", "FNF", "FFF")
        npt.assert_array_equal(
            [cell(game, lab)[0] for lab in order],
            [-2, -2, 6, 10, 0, 2, -4, -3],
        )

    def test_corrected_poker_is_zero_sum(self):
        game = builtin_games()["poker_zero_sum_corrected"]
        assert game.zero_sum_defects() == []
        npt.assert_allclose(game.payoffs.sum(axis=0), 0.0, atol=0)
        assert cell(game, "FFN") == (10.0, 10.0, -20.0)
        assert cell(game, "FNF") == (-4.0, 2.0, 2.0)

    def test_dilemma_repeats_poker_numbers(self):
        games = builtin_games()
        dilemma = games["dilemma_printed"]
        poker = games["poker_printed"]
        for label in POKER_TABLE:
            assert cell(dilemma, label) == cell(poker, label)
        assert not dilemma.zero_sum_claimed

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_game_file("poker_deluxe")


class TestMixtures:
    def test_special_distribution_support(self):
        for player in (1, 2, 3):
            mix = special_distribution(player)
            assert mix.player == player
            assert mix.weights.tolist() == [0.25] * len(PLAYER_BASIS[player])

    def test_accepts_octonion_elements(self):
        mix = DiscreteQuantumMixture(1, [(Octonion.basis(0), 0.5), (4, 0.5)])
        same = DiscreteQuantumMixture(1, [(0, 0.5), (Octonion.basis(4), 0.5)])
        expected = np.zeros(4)
        expected[[PLAYER_BASIS[1].index(0), PLAYER_BASIS[1].index(4)]] = 0.5
        assert mix.weights.tolist() == same.weights.tolist() == expected.tolist()
        repeated = DiscreteQuantumMixture(
            2, [(0, 0.25), (Octonion.basis(0), 0.25), (np.eye(8)[1], 0.5)]
        )
        assert repeated.weights.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteQuantumMixture(1, [(0, 0.6), (1, 0.6)])
        with pytest.raises(ValueError):
            DiscreteQuantumMixture(1, [(0, 1.5), (1, -0.5)])
        with pytest.raises(ValueError):
            DiscreteQuantumMixture(2, [(2, 1.0)])
        with pytest.raises(ValueError):
            DiscreteQuantumMixture(4, [(0, 1.0)])

    @pytest.mark.parametrize(
        "support",
        [
            [(0, np.nan), (1, 1.0)],
            [(0, 1.0), (1, np.nan)],
            [(0, np.inf), (1, 1.0)],
            [(0, np.inf), (1, -np.inf)],
            [(0, 1.0), (1, -1e-14)],
        ],
    )
    def test_rejects_nan_infinite_and_negative_weights(self, support):
        with pytest.raises(ValueError, match="mixture weights must"):
            DiscreteQuantumMixture(1, support)

    @pytest.mark.parametrize("index", [4.5, "4", True, float("inf"), np.float64(4.0)])
    def test_rejects_a_basis_index_that_is_not_an_integer(self, index):
        with pytest.raises(ValueError, match="basis index must be an integer"):
            DiscreteQuantumMixture(1, [(index, 1.0)])

    @pytest.mark.parametrize("player", [0, 4, None, True, 2.0])
    def test_special_distribution_rejects_an_unknown_player(self, player):
        with pytest.raises(ValueError, match="player must be 1, 2, or 3"):
            special_distribution(player)


def reference_payoff(k, supports, game):
    """Player k's payoff from (basis index, weight) supports, one per player,
    by the formula of the (index, weight) representation: zeros, += per
    support entry into its PLAYER_BASIS slot, and one einsum over the rows
    of a (3, 4) array."""
    weights = np.zeros((3, 4))
    for row, support in enumerate(supports):
        for index, weight in support:
            weights[row, PLAYER_BASIS[row + 1].index(index)] += weight
    payoffs = BASIS_OUTCOMES @ game.payoffs_for(k)
    return float(np.einsum("i,j,l,ijl->", *weights, payoffs))


def point_mixture_payoff(k, s, t, u, game):
    """Player k's payoff when every player plays one basis element: the
    payoff of the point mixtures on them."""
    points = [DiscreteQuantumMixture(p, [(o, 1.0)]) for p, o in enumerate((s, t, u), start=1)]
    return expected_payoff_mixture(k, *points, game)


def report_payoff(k, gates, game):
    """Player k's payoff under one SU2Gate per player, from the closed
    route's `distribution` report."""
    report = distribution_report([(g.x, g.y) for g in gates], "octonion", 1e-10, game)
    return report["payoffs"][k - 1]


class TestPureBasisPayoffs:
    def test_identity_cell(self):
        rng = np.random.default_rng(5)
        game = random_game(rng)
        one = Octonion.basis(0)
        assert point_mixture_payoff(1, one, one, one, game) == cell(game, "NNN")[0]

    def test_triple_flip_cell(self):
        rng = np.random.default_rng(7)
        game = random_game(rng)
        value = point_mixture_payoff(
            1, Octonion.basis(4), Octonion.basis(6), Octonion.basis(7), game
        )
        assert value == pytest.approx(cell(game, "FFF")[0], abs=1e-14)

    def test_equal_payoff_block(self):
        # Triples whose strategy product lands on the same outcome pay the
        # same: the all-identity cell repeats along these combinations.
        rng = np.random.default_rng(9)
        game = random_game(rng)
        one = Octonion.basis(0)
        i1 = Octonion.basis(1)
        block = [
            (one, one, one),
            (one, i1, i1),
            (i1, one, i1),
            (i1, i1, one),
            (Octonion.basis(2), Octonion.basis(5), Octonion.basis(3)),
        ]
        values = {
            round(point_mixture_payoff(2, s, t, u, game), 12) for s, t, u in block
        }
        assert len(values) == 1

    def test_agrees_with_quantum_route_on_all_64(self):
        rng = np.random.default_rng(11)
        game = random_game(rng)
        for i in PLAYER_BASIS[1]:
            for j in PLAYER_BASIS[2]:
                for l in PLAYER_BASIS[3]:
                    s = Octonion.basis(i)
                    t = Octonion.basis(j)
                    u = Octonion.basis(l)
                    direct = point_mixture_payoff(1, s, t, u, game)
                    via_su2 = report_payoff(
                        1,
                        [su2_of_basis(s, 1), su2_of_basis(t, 2), su2_of_basis(u, 3)],
                        game,
                    )
                    assert abs(direct - via_su2) < 1e-12


class TestMixturePayoffs:
    def test_point_mixtures_read_single_cell(self):
        rng = np.random.default_rng(13)
        game = random_game(rng)
        points = [DiscreteQuantumMixture(p, [(0, 1.0)]) for p in (1, 2, 3)]
        for k in (1, 2, 3):
            value = expected_payoff_mixture(k, *points, game)
            assert value == cell(game, "NNN")[k - 1]

    def test_matches_reference_bit_for_bit(self):
        # Supports of 1-6 entries with repeated elements, given as indices
        # or Octonions, against tables scaled over nine decades.
        rng = np.random.default_rng(37)
        for _ in range(1000):
            game = PayoffTable(rng.standard_normal((3, 8)) * 10.0 ** rng.uniform(-3, 6))
            supports = []
            for p in (1, 2, 3):
                indices = rng.choice(PLAYER_BASIS[p], size=rng.integers(1, 7)).tolist()
                weights = rng.random(len(indices))
                supports.append(list(zip(indices, (weights / weights.sum()).tolist())))
            mixtures = [
                DiscreteQuantumMixture(
                    p, [(Octonion.basis(i) if rng.random() < 0.5 else i, w) for i, w in support]
                )
                for p, support in zip((1, 2, 3), supports)
            ]
            for k in (1, 2, 3):
                value = expected_payoff_mixture(k, *mixtures, game)
                assert value.hex() == reference_payoff(k, supports, game).hex()

    def test_rejects_mixtures_out_of_player_order(self):
        game = builtin_games()["poker_printed"]
        points = [DiscreteQuantumMixture(p, [(0, 1.0)]) for p in (1, 2, 3)]
        assert expected_payoff_mixture(1, *points, game) == -2.0
        for order in itertools.permutations(points):
            if list(order) != points:
                with pytest.raises(ValueError, match="players 1, 2 and 3 in order"):
                    expected_payoff_mixture(1, *order, game)
        with pytest.raises(ValueError, match="players 1, 2 and 3 in order"):
            expected_payoff_mixture(1, points[0], points[0], points[2], game)

    def test_constant_game(self):
        game = PayoffTable(np.repeat([[2.5], [-1.0], [0.25]], 8, axis=1))
        assert expected_payoff_mixture(1, *specials(), game) == pytest.approx(2.5)

    def test_special_profile_pays_table_average(self):
        rng = np.random.default_rng(17)
        mixes = specials()
        for _ in range(100):
            game = random_game(rng)
            for k in (1, 2, 3):
                value = expected_payoff_mixture(k, *mixes, game)
                target = game.payoffs_for(k).sum() / 8.0
                assert value == pytest.approx(target, abs=1e-12)


class TestPureQuantumPayoffs:
    def test_identity_strategies(self):
        rng = np.random.default_rng(19)
        game = random_game(rng)
        ident = SU2Gate(1, 0)
        assert report_payoff(1, [ident] * 3, game) == pytest.approx(
            cell(game, "NNN")[0], abs=1e-14
        )

    def test_poker_identity_cell(self):
        game = builtin_games()["poker_printed"]
        ident = SU2Gate(1, 0)
        assert report_payoff(1, [ident] * 3, game) == pytest.approx(
            -2.0, abs=1e-12
        )


class TestIndifference:
    def test_every_player_is_payoff_locked(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            game = random_game(rng)
            for k in (1, 2, 3):
                report = indifference_check(k, game, 1000, 1e-10, rng=rng)
                assert report["passed"], report
                assert report["max_deviation"] < 1e-10
                assert report["target"] == pytest.approx(
                    game.payoffs_for(k).sum() / 8.0
                )

    def test_pure_strategy_in_support_hits_target_exactly(self):
        rng = np.random.default_rng(29)
        game = random_game(rng)
        mixes = list(specials())
        for k in (1, 2, 3):
            point = DiscreteQuantumMixture(k, [(0, 1.0)])
            row = list(mixes)
            row[k - 1] = point
            value = expected_payoff_mixture(k, *row, game)
            assert value == pytest.approx(
                game.payoffs_for(k).sum() / 8.0, abs=1e-12
            )

    def test_sample_validation(self):
        rng = np.random.default_rng(31)
        game = random_game(rng)
        with pytest.raises(ValueError):
            indifference_check(1, game, 0, 1e-10)
        for k in (0, 4, 1.0, True):
            with pytest.raises(ValueError, match="player must be 1 to 3"):
                indifference_check(k, game, 10, 1e-10)

    def test_flat_payoff_product_keeps_the_stacked_bytes(self):
        # indifference_check contracts (samples * 16, 8) probabilities with
        # the payoffs in one product; each row's bytes are those of the
        # stacked (samples, 16, 8) product, for every table and player.
        rng = np.random.default_rng(37)
        tables = list(builtin_games().values()) + [random_game(rng) for _ in range(3)]
        for samples in (1, 7, 1000):
            a, b = _random_subalgebra_pairs(rng, samples)
            pairs = _slot_grid(2)
            for k in (1, 2, 3):
                args = pairs[: k - 1] + [(a[:, None], b[:, None])] + pairs[k - 1 :]
                probs = theorem1_probs_batch(*(z for pair in args for z in pair))
                for game in tables:
                    payoffs = game.payoffs_for(k)
                    flat = (probs.reshape(-1, 8) @ payoffs).reshape(samples, 16)
                    assert flat.tobytes() == (probs @ payoffs).tobytes()

    def test_seeded_runs_reproduce(self):
        game = builtin_games()["poker_zero_sum_corrected"]
        a = indifference_check(2, game, 64, 1e-10, rng=1234)
        b = indifference_check(2, game, 64, 1e-10, rng=1234)
        assert a == b


class TestRouteCheck:
    """The equilibrium report compares the closed form with the oracle, so
    a wrong route fails it."""

    def test_drawn_after_the_indifference_checks(self):
        game = builtin_games()["poker_printed"]
        report = equilibrium_report(game, 50, 1e-10, 11)
        rng = np.random.default_rng(11)
        assert report["indifference"] == [indifference_check(k, game, 50, 1e-10, rng)
                                          for k in (1, 2, 3)]
        assert report["route"] == route_check(1e-10, rng)
        assert report["route"]["samples"] == ROUTE_SAMPLES == 16
        assert report["route"]["tolerance"] == 1e-10 and report["route"]["passed"]

    def test_reads_the_oracle_on_the_drawn_triples(self):
        rng = np.random.default_rng(5)
        flat = [z for _ in range(3) for z in _random_subalgebra_pairs(rng, ROUTE_SAMPLES)]
        deviation = np.max(np.abs(theorem1_probs_batch(*flat) - oracle_probs3_batch(*flat)))
        record = route_check(1e-10, np.random.default_rng(5))
        assert record["max_deviation"] == deviation < 1e-10

    def test_a_wrong_closed_form_fails_the_report(self, monkeypatch, capsys):
        # NFF and FFN swapped, as a wrong OUTCOME_OF_INDEX swaps them: every
        # other check of the report reads only the closed form and passes.
        right, order = equilibria.theorem1_probs_batch, [0, 1, 2, 6, 4, 5, 3, 7]
        monkeypatch.setattr(equilibria, "theorem1_probs_batch", lambda *a: right(*a)[..., order])
        for name, game in builtin_games().items():
            report = equilibrium_report(game, 50, 1e-10, 0)
            assert all(r["passed"] for r in report["special_payoffs"] + report["indifference"])
            assert not report["route"]["passed"]
            assert main(["equilibrium", name, "--samples", "50"]) == 1
        capsys.readouterr()


class TestClassicalAnalysis:
    def test_scan_printed_poker(self):
        game = builtin_games()["poker_printed"]
        assert classical_pure_scan(game) == [("FFN", (10.0, 10.0, 20.0))]

    def test_scan_corrected_poker_is_empty(self):
        game = builtin_games()["poker_zero_sum_corrected"]
        assert classical_pure_scan(game) == []

    def test_scan_dilemma_matches_its_numbers(self):
        game = builtin_games()["dilemma_printed"]
        assert classical_pure_scan(game) == [("FFN", (10.0, 10.0, 20.0))]

    def test_scan_constant_game(self):
        game = PayoffTable(np.zeros((3, 8)))
        assert len(classical_pure_scan(game)) == 8

    def test_scan_dominant_strategies(self):
        table = {}
        for label in POKER_TABLE:
            # Each player strictly prefers F regardless of the others.
            table[label] = tuple(1.0 if c == "F" else 0.0 for c in label)
        game = PayoffTable.from_outcome_table(table)
        assert classical_pure_scan(game) == [("FFF", (1.0, 1.0, 1.0))]

    def test_scan_is_the_deviation_by_deviation_definition(self):
        # Small integer payoffs make ties common, so equal payoffs after a
        # deviation, which keep a profile stable, are covered too.
        rng = np.random.default_rng(37)
        swap = {"N": "F", "F": "N"}
        for _ in range(200):
            table = {
                label: tuple(rng.integers(-2, 3, size=3).tolist()) for label in POKER_TABLE
            }
            want = [
                (label, tuple(float(x) for x in table[label]))
                for label in outcome_labels(3)
                if all(
                    table[label[:k] + swap[label[k]] + label[k + 1 :]][k] <= table[label][k]
                    for k in range(3)
                )
            ]
            assert classical_pure_scan(PayoffTable.from_outcome_table(table)) == want

    def test_mixed_is_the_label_by_label_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            game = random_game(rng)
            flip = rng.random(3)
            totals = np.zeros(3)
            for label in outcome_labels(3):
                weight = 1.0
                for letter, prob in zip(label, flip):
                    weight *= prob if letter == "F" else 1.0 - prob
                totals += weight * np.array(cell(game, label))
            assert classical_mixed_payoff(game, *flip) == tuple(totals.tolist())

    def test_mixed_pure_corners(self):
        game = builtin_games()["poker_printed"]
        assert classical_mixed_payoff(game, 0, 0, 0) == cell(game, "NNN")
        assert classical_mixed_payoff(game, 1, 1, 1) == cell(game, "FFF")

    def test_mixed_equilibrium_of_corrected_table(self):
        game = builtin_games()["poker_zero_sum_corrected"]
        p = np.sqrt(7.0 / 5.0) - 1.0
        r = (4.0 * p + 8.0) / (5.0 * p + 12.0)
        values = classical_mixed_payoff(game, p, p, r)
        npt.assert_allclose(values, (-0.4, -0.4, 0.8), atol=1e-12)
        # Indifference: each player's two pure responses pay the same.
        for player in range(3):
            args_lo = [p, p, r]
            args_hi = [p, p, r]
            args_lo[player] = 0.0
            args_hi[player] = 1.0
            lo = classical_mixed_payoff(game, *args_lo)[player]
            hi = classical_mixed_payoff(game, *args_hi)[player]
            assert lo == pytest.approx(hi, abs=1e-12)

    def test_mixed_on_printed_table_breaks_player3_indifference(self):
        # The same probabilities are not an equilibrium of the table as
        # printed: player 3's pure responses differ, evidence that the
        # published equilibrium belongs to the zero-sum-corrected numbers.
        game = builtin_games()["poker_printed"]
        p = np.sqrt(7.0 / 5.0) - 1.0
        r = (4.0 * p + 8.0) / (5.0 * p + 12.0)
        lo = classical_mixed_payoff(game, p, p, 0.0)[2]
        hi = classical_mixed_payoff(game, p, p, 1.0)[2]
        assert abs(lo - hi) > 1.0

    def test_mixed_validation(self):
        game = builtin_games()["poker_printed"]
        with pytest.raises(ValueError):
            classical_mixed_payoff(game, -0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            classical_mixed_payoff(game, 0.5, 0.5, 1.5)
