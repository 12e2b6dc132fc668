"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible under pytest -s, and in the
failure report otherwise) and asserts the criterion with its stated
tolerance.  Run the full suite with `pytest -v`; each criterion then shows
up as its own PASSED or FAILED row.
"""

import itertools
import json
import time

import numpy as np

from hypergames.coordgame import (
    PLAYER_BASIS,
    corollary_distribution,
    embed3,
    landsburg_probs,
    landsburg_probs_batch,
    su2_of_basis,
    theorem1_distribution,
)
from hypergames.equilibria import (
    DiscreteQuantumMixture,
    PayoffTable,
    builtin_game_file,
    classical_pure_scan,
    expected_payoff_mixture,
    indifference_check,
    special_distribution,
)
from hypergames.hypercomplex import SUBALGEBRA_UNITS, Octonion, oct_mul, oct_norm
from hypergames.parrondo import (
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    Multiplexer3,
    capital_game_stationary,
    hd_p_gain,
    hd_stationary,
    mux_from_coins,
    parrondo_effect_check,
    proper_initial_state,
    quantized_p_gain,
    superpose_mux,
)
from hypergames.qstate import (
    ACTION_LABELS2,
    ACTION_LABELS3,
    ETA2,
    ETA3,
    SU2Gate,
    basis_matrix2,
    basis_matrix3,
    game_state3,
    hadamard,
    measure,
    meyer_penny,
    oracle_probs2_batch,
    to_action_basis3,
)

SEED = 424242


def _summary(n, label, ok, detail):
    line = "criterion %d (%s): %s [%s]" % (n, label, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _random_pair(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return v[0] + 1j * v[1], v[2] + 1j * v[3]


def test_01_theorem1_matches_oracle_on_10000_seeded_triples():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a, b = _random_pair(rng)
        p, q = _random_pair(rng)
        e, f = _random_pair(rng)
        closed = theorem1_distribution(embed3(1, a, b), embed3(2, p, q), embed3(3, e, f))
        oracle = measure(
            to_action_basis3(game_state3(a, b, p, q, e, f), ETA3), ACTION_LABELS3
        )
        worst = max(worst, closed.max_deviation(oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _summary(
        1,
        "octonion closed form vs state vector, 10^4 triples",
        ok,
        "max deviation %.3e (tol 1e-10), %.2f s (limit 10 s)" % (worst, elapsed),
    )


def test_02_all_64_basis_triples_are_one_hot_and_match_oracle():
    worst = 0.0
    cases = 0
    for i in PLAYER_BASIS[1]:
        for j in PLAYER_BASIS[2]:
            for k in PLAYER_BASIS[3]:
                s, t, u = Octonion.basis(i), Octonion.basis(j), Octonion.basis(k)
                dist = corollary_distribution(s, t, u)
                hot = np.sort(dist.probs)
                worst = max(worst, float(hot[:-1].max(initial=0.0)), abs(float(hot[-1]) - 1.0))
                g1, g2, g3 = su2_of_basis(s, 1), su2_of_basis(t, 2), su2_of_basis(u, 3)
                oracle = measure(
                    to_action_basis3(
                        game_state3(g1.x, g1.y, g2.x, g2.y, g3.x, g3.y), ETA3
                    ),
                    ACTION_LABELS3,
                )
                worst = max(worst, dist.max_deviation(oracle))
                cases += 1
    ok = cases == 64 and worst < 1e-12
    _summary(
        2,
        "64 basis triples one-hot vs oracle",
        ok,
        "%d cases, max deviation %.3e (tol 1e-12)" % (cases, worst),
    )


def test_03_action_bases_orthogonal_and_eta_roots():
    b3 = basis_matrix3(ETA3)
    gram3 = np.conj(b3).T @ b3
    off3 = gram3 - np.diag(np.diag(gram3))
    pairs3 = np.abs(off3[np.triu_indices(8, k=1)])
    b2 = basis_matrix2(ETA2)
    gram2 = np.conj(b2).T @ b2
    off2 = np.abs((gram2 - np.diag(np.diag(gram2)))[np.triu_indices(4, k=1)])
    root3 = abs(ETA3**6 - 1.0)
    root2 = abs(ETA2**8 - 1.0)
    ok = (
        pairs3.size == 28
        and np.max(pairs3) < 1e-12
        and np.max(off2) < 1e-12
        and root3 < 1e-12
        and root2 < 1e-12
    )
    _summary(
        3,
        "action-basis orthogonality and unit-root phases",
        ok,
        "28 pairs max %.3e, 2-player max %.3e, |eta3^6-1| %.3e, |eta2^8-1| %.3e (tol 1e-12)"
        % (np.max(pairs3), np.max(off2), root3, root2),
    )


def test_04_special_distribution_average_payoff_and_indifference():
    rng = np.random.default_rng(SEED + 4)
    mixtures = [special_distribution(k) for k in (1, 2, 3)]
    worst_payoff = 0.0
    for _ in range(100):
        table = {
            label: tuple(rng.uniform(-10.0, 10.0, size=3)) for label in ACTION_LABELS3
        }
        game = PayoffTable.from_outcome_table(table)
        for k in (1, 2, 3):
            value = expected_payoff_mixture(k, *mixtures, game=game)
            target = float(game.payoffs_for(k).sum() / 8.0)
            worst_payoff = max(worst_payoff, abs(value - target))
    table = {label: tuple(rng.uniform(-10.0, 10.0, size=3)) for label in ACTION_LABELS3}
    game = PayoffTable.from_outcome_table(table)
    worst_indiff = 0.0
    for k in (1, 2, 3):
        report = indifference_check(k, game, samples=1000, tol=1e-10, rng=rng)
        worst_indiff = max(worst_indiff, report["max_deviation"])
        assert report["passed"]
    ok = worst_payoff < 1e-12 and worst_indiff < 1e-10
    _summary(
        4,
        "quarter-weight mixture pays the all-outcome average",
        ok,
        "payoff deviation %.3e (tol 1e-12) over 100 tables, "
        "indifference %.3e (tol 1e-10) over 10^3 deviations per player"
        % (worst_payoff, worst_indiff),
    )


def test_05_poker_and_dilemma_tables():
    mixtures = [special_distribution(k) for k in (1, 2, 3)]
    printed = builtin_game_file("poker_printed").game3()
    corrected = builtin_game_file("poker_zero_sum_corrected").game3()
    dilemma = builtin_game_file("dilemma_printed").game3()

    printed_payoffs = [expected_payoff_mixture(k, *mixtures, game=printed) for k in (1, 2, 3)]
    corrected_payoffs = [
        expected_payoff_mixture(k, *mixtures, game=corrected) for k in (1, 2, 3)
    ]
    defects = dict(printed.zero_sum_defects())

    checks = []
    checks.append(printed_payoffs[0] == 0.875 and printed_payoffs[1] == 0.875)
    checks.append(corrected_payoffs[2] == -1.75)
    # the printed player-3 value is reported, but only next to the violated claim
    checks.append(printed_payoffs[2] == 3.0 and printed.zero_sum_claimed and bool(defects))
    checks.append(classical_pure_scan(corrected) == [])
    scan = classical_pure_scan(dilemma)
    checks.append(len(scan) == 1)
    profile, payoffs = scan[0]
    # discrepancy properties: the bundled dilemma table repeats the poker
    # numbers; its lone pure equilibrium is neither the all-flip profile nor
    # does it pay the symmetric (2, 2, 2) a true dilemma would
    checks.append(dilemma.payoffs_for(1).tolist() == printed.payoffs_for(1).tolist())
    checks.append(profile != "FFF" and tuple(payoffs) != (2.0, 2.0, 2.0))
    ok = all(checks)
    _summary(
        5,
        "poker and dilemma table analysis",
        ok,
        "printed (%.3f, %.3f, %.3f) with zero-sum defects %s, corrected player 3 %.3f, "
        "dilemma scan %s" % (*printed_payoffs, sorted(defects), corrected_payoffs[2], scan),
    )


def test_06_quaternion_two_player_route_matches_oracle():
    rng = np.random.default_rng(SEED + 6)
    v = rng.normal(size=(1000, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.normal(size=(1000, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    a, b = v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]
    p, q = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    closed = landsburg_probs_batch(a, b, p, q)
    oracle = oracle_probs2_batch(a, b, p, q)
    worst = float(np.max(np.abs(closed - oracle)))
    for idx in (0, 499, 999):
        scalar = landsburg_probs(a[idx], b[idx], p[idx], q[idx])
        worst = max(worst, float(np.max(np.abs(scalar.probs - closed[idx]))))
    ok = worst < 1e-10
    _summary(
        6,
        "quaternion closed form vs 2-player oracle, 10^3 pairs",
        ok,
        "max deviation %.3e (tol 1e-10)" % worst,
    )


def test_07_parrondo_golden_values():
    rng = np.random.default_rng(SEED + 7)
    dev_capital = max(
        float(np.max(np.abs(capital_game_stationary(0.1, 0.75) - np.array([5, 2, 6]) / 13.0))),
        float(
            np.max(
                np.abs(capital_game_stationary(0.3, 0.625) - np.array([245, 180, 284]) / 709.0)
            )
        ),
    )

    dev_proper = 0.0
    for _ in range(1000):
        coins = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        init = proper_initial_state(hd_stationary(coins))
        classical = hd_p_gain(coins)
        quantum = quantized_p_gain(mux_from_coins(coins, CoinEmbedding(TYPE1)), init, 0)
        dev_proper = max(dev_proper, abs(quantum - classical))

    dev_sequence = 0.0
    for _ in range(1000):
        r = rng.uniform()
        pa = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        pb = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        mixed = HDGameParams(*(r * x + (1.0 - r) * y for x, y in zip(pa, pb)))
        tau = hd_stationary(mixed)
        target = float(tau @ np.array(mixed))
        init = proper_initial_state(tau)
        sup = superpose_mux(
            r,
            mux_from_coins(pa, CoinEmbedding(TYPE2)),
            mux_from_coins(pb, CoinEmbedding(TYPE1)),
        )
        second = mux_from_coins(mixed, CoinEmbedding(TYPE1))
        dev_sequence = max(
            dev_sequence,
            abs(quantized_p_gain(sup, init, 0) - target),
            abs(quantized_p_gain(second, init, 0) - target),
        )

    equal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = np.kron(np.kron(equal, equal), equal)
    dev_fna = 0.0
    for _ in range(1000):
        thetas = rng.uniform(0.0, np.pi, size=4)
        phis = rng.uniform(0.0, 2 * np.pi, size=4)
        etas = rng.uniform(0.0, 2 * np.pi, size=4)
        gates = [
            SU2Gate(
                np.exp(1j * phis[j]) * np.cos(thetas[j] / 2.0),
                np.exp(1j * etas[j]) * np.sin(thetas[j] / 2.0),
            )
            for j in range(4)
        ]
        angle_formula = 0.5 - np.sum(np.sin(thetas) * np.cos(etas - phis)) / 8.0
        out = Multiplexer3(gates).matrix @ state
        simulated = float(np.sum(np.abs(out[1::2]) ** 2))
        dev_fna = max(dev_fna, abs(angle_formula - simulated))

    effect = parrondo_effect_check(1.0 / 200.0)
    inequalities = (
        effect["inequality_a_game_a_losing"]
        and effect["inequality_b_game_b_losing"]
        and effect["inequality_c_mixture_winning"]
    )

    ok = (
        dev_capital < 1e-12
        and dev_proper < 1e-12
        and dev_sequence < 1e-12
        and dev_fna < 1e-12
        and inequalities
    )
    _summary(
        7,
        "coin-game golden values and proper quantizations",
        ok,
        "capital %.3e, proper %.3e, sequences %.3e, product-state %.3e (tol 1e-12), "
        "effect inequalities at eps 1/200: %s"
        % (dev_capital, dev_proper, dev_sequence, dev_fna, inequalities),
    )


def test_08_octonion_algebra_properties():
    rng = np.random.default_rng(SEED + 8)
    x = rng.normal(size=(10_000, 8))
    y = rng.normal(size=(10_000, 8))
    xy = oct_mul(x, y)
    dev_norm = float(np.max(np.abs(oct_norm(xy) - oct_norm(x) * oct_norm(y))))
    xx = oct_mul(x, x)
    yy = oct_mul(y, y)
    dev_alt = max(
        float(np.max(np.abs(oct_mul(xx, y) - oct_mul(x, xy)))),
        float(np.max(np.abs(oct_mul(xy, y) - oct_mul(x, yy)))),
    )

    closure_exact = True
    for player in (1, 2, 3):
        units = [np.zeros(8)]
        units[0][0] = 1.0
        for idx in SUBALGEBRA_UNITS[player]:
            e = np.zeros(8)
            e[idx] = 1.0
            units.append(e)
        allowed = {0} | set(SUBALGEBRA_UNITS[player])
        for u, v in itertools.product(units, repeat=2):
            prod = oct_mul(u, v)
            support = set(np.nonzero(prod)[0].tolist())
            closure_exact &= support <= allowed
            closure_exact &= bool(np.all(np.abs(prod[sorted(support)]) == 1.0))

    # (e1, e2, e5) spans no quaternionic line, so the products anti-associate
    e1, e2, e5 = (Octonion.basis(i).c for i in (1, 2, 5))
    left = oct_mul(oct_mul(e1, e2), e5)
    right = oct_mul(e1, oct_mul(e2, e5))
    witness = bool(np.max(np.abs(left - right)) == 2.0) and bool(
        np.all(left == -right)
    )

    ok = dev_norm < 1e-10 and dev_alt < 1e-10 and closure_exact and witness
    _summary(
        8,
        "octonion norm, alternativity, subalgebra closure, non-associativity",
        ok,
        "norm %.3e, alternativity %.3e (tol 1e-10) over 10^4 pairs, closure exact: %s, "
        "anti-associative witness: %s" % (dev_norm, dev_alt, closure_exact, witness),
    )


def test_09_penny_flip_always_won_with_equal_superposition():
    h = hadamard()
    worst = 0.0
    for p in np.arange(0.0, 1.05, 0.1):
        worst = max(worst, abs(meyer_penny(float(min(p, 1.0)), h, h) - 1.0))
    ok = worst < 1e-12
    _summary(
        9,
        "penny flip win probability 1.0 across the mixing grid",
        ok,
        "max |p_win - 1| = %.3e (tol 1e-12) for p in {0, 0.1, ..., 1.0}" % worst,
    )
