"""Seeded verification suites comparing closed forms against state vectors.

Each suite returns a plain-dict report: the suite name, the seed it ran
under, a list of check records, and an overall pass flag.  Reports contain
only JSON types and no wall-clock data, so a fixed seed reproduces them byte
for byte.

`check_record` is the one builder of check records for the whole package;
every command's report carries its checks in that shape, and `records`
finds them again.
"""

import itertools

import numpy as np

from .coordgame import (
    PLAYER_BASIS,
    corollary_distribution,
    landsburg_probs_batch,
    su2_of_basis,
    theorem1_probs_batch,
)
from .hypercomplex import Octonion
from .parrondo import (
    block_unitarity_deviation,
    capital_game_stationary,
    fna_p_win_pair_batch,
    parrondo_effect_check,
    proper_quantized_gains_batch,
    sequence_quantized_gains_batch,
    superposed_games_blocks,
)
from .qstate import oracle_probs2_batch, oracle_probs3_batch, su2_matrices

DEFAULT_SAMPLES = {
    "theorem1": 10_000,
    "corollary": 64,
    "landsburg": 1_000,
    "parrondo": 1_000,
}

SUITE_NAMES = ("theorem1", "corollary", "landsburg", "parrondo")


def _random_pairs(rng, n):
    """n Haar-uniform SU(2) amplitude pairs as complex column arrays."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


RECORD_KEYS = ("check", "samples", "tolerance", "max_deviation", "passed")


def check_record(name, samples, tolerance, deviation, **values):
    """One check: its name, sample count, tolerance, worst deviation, verdict.

    The check passes when the deviation is below the tolerance; a deviation
    of exactly zero passes at any tolerance, so tolerance 0 demands exact
    agreement.  Named values (the player, the gain under test, ...) follow
    the five record keys.
    """
    deviation = float(deviation)
    return {
        "check": name,
        "samples": int(samples),
        "tolerance": float(tolerance),
        "max_deviation": deviation,
        "passed": bool(deviation < tolerance or deviation == 0.0),
        **values,
    }


def records(report):
    """Every check record inside a report, in report order."""
    if isinstance(report, dict):
        if "check" in report:
            yield report
            return
        report = report.values()
    for value in report:
        if isinstance(value, (dict, list)):
            yield from records(value)


def all_passed(report):
    """Whether every check record inside the report passed."""
    return all(r["passed"] for r in records(report))


def _report(suite, seed, checks):
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "passed": all_passed(checks),
    }


def verify_theorem1(samples=None, seed=0, tol=1e-10):
    """Random-strategy agreement of the octonion closed form with the oracle."""
    samples = DEFAULT_SAMPLES["theorem1"] if samples is None else int(samples)
    rng = np.random.default_rng(seed)
    a, b = _random_pairs(rng, samples)
    p, q = _random_pairs(rng, samples)
    e, f = _random_pairs(rng, samples)
    closed = theorem1_probs_batch(a, b, p, q, e, f)
    oracle = oracle_probs3_batch(a, b, p, q, e, f)
    dev = np.max(np.abs(closed - oracle))
    return _report(
        "theorem1",
        seed,
        [check_record("octonion closed form vs state vector", samples, tol, dev)],
    )


def verify_corollary(samples=None, seed=0, tol=1e-12):
    """Exhaustive one-hot agreement over all basis-strategy triples.

    The basis reduction runs per triple, as the function under test; the
    oracle runs once over all triples' gates.
    """
    del samples  # the case count is fixed by the basis
    probs = []
    gates = []
    for triple in itertools.product(*(PLAYER_BASIS[p] for p in (1, 2, 3))):
        elements = [Octonion.basis(i) for i in triple]
        probs.append(corollary_distribution(*elements).probs)
        gates.append([su2_of_basis(o, p) for p, o in enumerate(elements, start=1)])
    probs = np.array(probs)
    top = np.sort(probs, axis=1)
    worst_onehot = max(np.max(top[:, :-1].sum(axis=1)), np.max(np.abs(top[:, -1] - 1.0)))
    amplitudes = np.array([[z for g in row for z in (g.x, g.y)] for row in gates]).T
    # clipped at 0 like the probabilities of an OutcomeDistribution
    oracle = np.clip(oracle_probs3_batch(*amplitudes), 0.0, None)
    worst_oracle = np.max(np.abs(probs - oracle))
    cases = len(probs)
    checks = [
        check_record("basis triples produce one-hot distributions", cases, tol, worst_onehot),
        check_record("basis reduction vs state vector", cases, tol, worst_oracle),
    ]
    return _report("corollary", seed, checks)


def verify_landsburg(samples=None, seed=0, tol=1e-10):
    """Random-strategy agreement of the quaternion closed form with the oracle."""
    samples = DEFAULT_SAMPLES["landsburg"] if samples is None else int(samples)
    rng = np.random.default_rng(seed)
    a, b = _random_pairs(rng, samples)
    p, q = _random_pairs(rng, samples)
    closed = landsburg_probs_batch(a, b, p, q)
    oracle = oracle_probs2_batch(a, b, p, q)
    dev = np.max(np.abs(closed - oracle))
    return _report(
        "landsburg",
        seed,
        [check_record("quaternion closed form vs state vector", samples, tol, dev)],
    )


def verify_parrondo(samples=None, seed=0, tol=1e-12):
    """Stationary golden values, proper-quantization identity, closed forms.

    Each randomized check runs its batched kernel once over all samples.
    Per sample, the stream yields the coins under test, a mixing weight and
    two games' coins (13 uniforms), then four SU(2) coins and three qubits
    (7 Haar pairs).
    """
    samples = DEFAULT_SAMPLES["parrondo"] if samples is None else int(samples)
    rng = np.random.default_rng(seed)
    checks = []

    dev_b = np.max(
        np.abs(capital_game_stationary(0.1, 0.75) - np.array([5.0, 2.0, 6.0]) / 13.0)
    )
    dev_mix = np.max(
        np.abs(
            capital_game_stationary(0.3, 0.625) - np.array([245.0, 180.0, 284.0]) / 709.0
        )
    )
    checks.append(check_record("capital-game stationary states", 2, tol, max(dev_b, dev_mix)))

    u = rng.random((samples, 13))
    scaled = 0.02 + (0.98 - 0.02) * u  # rng.uniform(0.02, 0.98) of the same draws
    coins, r, pa, pb = scaled[:, :4], u[:, 4], scaled[:, 5:9], scaled[:, 9:13]

    classical, quantum = proper_quantized_gains_batch(coins)
    dev_proper = max(np.max(np.abs(g - classical)) for g in quantum.values())
    classical, quantum = sequence_quantized_gains_batch(r, pa, pb)
    dev_sequence = max(np.max(np.abs(g - classical)) for g in quantum.values())
    dev_unitary = block_unitarity_deviation(superposed_games_blocks(r, pa, pb))
    checks.append(check_record("proper quantization reproduces classical gain", samples, tol, dev_proper))
    checks.append(check_record("randomized-sequence quantizations mix coins", samples, tol, dev_sequence))
    checks.append(check_record("superposed multiplexers stay unitary", samples, tol, dev_unitary))

    x, y = (v.reshape(samples, 7) for v in _random_pairs(rng, 7 * samples))
    qubits = (np.stack([x[:, k], y[:, k]], axis=-1) for k in (4, 5, 6))
    closed, direct = fna_p_win_pair_batch(su2_matrices(x[:, :4], y[:, :4]), *qubits)
    dev_fna = np.max(np.abs(closed - direct))
    checks.append(check_record("product-state closed form vs simulation", samples, tol, dev_fna))

    effect = parrondo_effect_check(1.0 / 200.0)
    checks.append(
        check_record(
            "losing games combine into a winning mixture at epsilon 1/200",
            1,
            0.0,
            0.0 if effect["effect"] else 1.0,
        )
    )
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
