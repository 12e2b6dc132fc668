"""Seeded verification suites comparing closed forms against state vectors.

Each suite returns a plain-dict report: the suite name, the seed it ran
under, a list of check records, and an overall pass flag.  Reports contain
only JSON types and no wall-clock data, so a fixed seed reproduces them byte
for byte.

The theorem1 and landsburg suites are one suite body over the route table
of their player count (coordgame.ROUTES), the table `distribution` reads.
Check records come from hypergames.records.
"""

import numpy as np

from .coordgame import BASIS_OUTCOMES, ROUTES, _slot_grid
from .parrondo import (
    block_unitarity_deviation,
    capital_game_stationary,
    fna_p_win_pair_batch,
    parrondo_effect_check,
    proper_quantized_gains_batch,
    sequence_quantized_gains_batch,
    superposed_games_blocks,
)
from .qstate import _unit_gaussian_rows, oracle_probs3_batch, su2_matrices
from .records import all_passed, check_record

DEFAULT_SAMPLES = {
    "theorem1": 10_000,
    "corollary": 64,
    "landsburg": 1_000,
    "parrondo": 1_000,
}

# The largest deviation each suite's checks pass at.
TOLERANCES = {
    "theorem1": 1e-10,
    "corollary": 1e-12,
    "landsburg": 1e-10,
    "parrondo": 1e-12,
}

SUITE_NAMES = ("theorem1", "corollary", "landsburg", "parrondo")


def _random_pairs(rng, n):
    """n Haar-uniform SU(2) amplitude pairs as complex column arrays."""
    x, y = np.empty((2, n), dtype=complex)
    x.real, x.imag, y.real, y.imag = _unit_gaussian_rows(rng, n).T
    return x, y


def _report(suite, seed, checks):
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "passed": all_passed(checks),
    }


def _closed_form_suite(suite, players, samples, seed):
    """Random-strategy agreement of the closed route for the player count
    with the oracle: one batch through each kernel of its route table."""
    route = ROUTES[players]
    samples = DEFAULT_SAMPLES[suite] if samples is None else int(samples)
    rng = np.random.default_rng(seed)
    flat = [z for _ in range(players) for z in _random_pairs(rng, samples)]
    dev = np.max(np.abs(route["closed"](*flat) - route["oracle"](*flat)))
    name = "%s closed form vs state vector" % route["name"]
    return _report(suite, seed, [check_record(name, samples, TOLERANCES[suite], dev)])


def verify_theorem1(samples=None, seed=0):
    """Random-strategy agreement of the octonion closed form with the oracle."""
    return _closed_form_suite("theorem1", 3, samples, seed)


def verify_corollary(samples=None, seed=0):
    """Exhaustive one-hot agreement over all basis-strategy triples.

    The basis reduction is the 64 rows of BASIS_OUTCOMES, the closed-form
    kernel's output on the basis slots, in itertools.product order of the
    players' slots; the oracle runs once over the same triples' slot gates.
    """
    del samples  # the case count is fixed by the basis
    tol = TOLERANCES["corollary"]
    probs = BASIS_OUTCOMES.reshape(64, 8)
    top = np.sort(probs, axis=1)
    worst_onehot = max(np.max(top[:, :-1].sum(axis=1)), np.max(np.abs(top[:, -1] - 1.0)))
    # clipped at 0 like the probabilities of an OutcomeDistribution
    oracle = np.clip(oracle_probs3_batch(*(z for pair in _slot_grid(3) for z in pair)), 0.0, None)
    worst_oracle = np.max(np.abs(probs - oracle))
    cases = len(probs)
    checks = [
        check_record("basis triples produce one-hot distributions", cases, tol, worst_onehot),
        check_record("basis reduction vs state vector", cases, tol, worst_oracle),
    ]
    return _report("corollary", seed, checks)


def verify_landsburg(samples=None, seed=0):
    """Random-strategy agreement of the quaternion closed form with the oracle."""
    return _closed_form_suite("landsburg", 2, samples, seed)


def verify_parrondo(samples=None, seed=0):
    """Stationary golden values, proper-quantization identity, closed forms.

    Each randomized check runs its batched kernel once over all samples.
    Per sample, the stream yields the coins under test, a mixing weight and
    two games' coins (13 uniforms), then four SU(2) coins and three qubits
    (7 Haar pairs).
    """
    samples = DEFAULT_SAMPLES["parrondo"] if samples is None else int(samples)
    tol = TOLERANCES["parrondo"]
    rng = np.random.default_rng(seed)
    checks = []

    dev_b = np.max(np.abs(capital_game_stationary(0.1, 0.75) - np.array([5.0, 2.0, 6.0]) / 13.0))
    golden = np.array([245.0, 180.0, 284.0]) / 709.0
    dev_mix = np.max(np.abs(capital_game_stationary(0.3, 0.625) - golden))
    checks.append(check_record("capital-game stationary states", 2, tol, max(dev_b, dev_mix)))

    u = rng.random((samples, 13)).T.copy()  # one row per draw of a sample
    scaled = 0.02 + (0.98 - 0.02) * u  # rng.uniform(0.02, 0.98) of the same draws
    coins, r, pa, pb = scaled[:4].T, u[4], scaled[5:9].T, scaled[9:13].T

    classical, quantum = proper_quantized_gains_batch(coins)
    dev_proper = max(np.max(np.abs(g - classical)) for g in quantum.values())
    classical, quantum = sequence_quantized_gains_batch(r, pa, pb)
    dev_sequence = max(np.max(np.abs(g - classical)) for g in quantum.values())
    dev_unitary = block_unitarity_deviation(superposed_games_blocks(r, pa, pb))
    checks.append(check_record("proper quantization reproduces classical gain", samples, tol, dev_proper))
    checks.append(check_record("randomized-sequence quantizations mix coins", samples, tol, dev_sequence))
    checks.append(check_record("superposed multiplexers stay unitary", samples, tol, dev_unitary))

    x, y = np.empty((2, 7, samples), dtype=complex)  # one row per Haar pair of a sample
    x.real, x.imag, y.real, y.imag = _unit_gaussian_rows(rng, 7 * samples).reshape(samples, 7, 4).T
    blocks = np.moveaxis(su2_matrices(x[:4], y[:4]), 0, -3)
    closed, direct = fna_p_win_pair_batch(blocks, *(np.stack([x[k], y[k]]).T for k in (4, 5, 6)))
    dev_fna = np.max(np.abs(closed - direct))
    checks.append(check_record("product-state closed form vs simulation", samples, tol, dev_fna))

    effect = parrondo_effect_check(1.0 / 200.0)["effect"]
    checks.append(check_record(
        "losing games combine into a winning mixture at epsilon 1/200", 1, 0.0, 0.0 if effect else 1.0))
    return _report("parrondo", seed, checks)


_SUITE_RUNNERS = {
    "theorem1": verify_theorem1,
    "corollary": verify_corollary,
    "landsburg": verify_landsburg,
    "parrondo": verify_parrondo,
}


def run_suite(name, samples=None, seed=0):
    """Run one named suite, or every suite under "all"."""
    if name == "all":
        reports = [_SUITE_RUNNERS[s](samples=samples, seed=seed) for s in SUITE_NAMES]
        return {
            "suite": "all",
            "seed": int(seed),
            "suites": reports,
            "passed": all_passed(reports),
        }
    if name not in _SUITE_RUNNERS:
        raise ValueError("unknown suite %r" % (name,))
    return _SUITE_RUNNERS[name](samples=samples, seed=seed)
