"""Seeded verification suites comparing closed forms against state vectors.

Each suite returns a plain-dict report: the suite name, the seed it ran
under, a list of checks (each carrying its sample count, tolerance, and
measured deviation), and an overall pass flag.  Reports contain only JSON
types and no wall-clock data, so a fixed seed reproduces them byte for
byte.
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
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    Multiplexer3,
    capital_game_stationary,
    fna_p_win,
    hd_stationary,
    mux_from_coins,
    parrondo_effect_check,
    proper_initial_state,
    proper_quantized_gains,
    quantized_p_gain,
    second_quantization_mux,
    superpose_mux,
)
from .qstate import SU2Gate, oracle_distribution3, oracle_probs2_batch, oracle_probs3_batch

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


def _check(name, samples, tolerance, deviation):
    return {
        "check": name,
        "samples": int(samples),
        "tolerance": float(tolerance),
        "max_deviation": float(deviation),
        "passed": bool(deviation < tolerance),
    }


def _report(suite, seed, checks):
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
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
        [_check("octonion closed form vs state vector", samples, tol, dev)],
    )


def verify_corollary(samples=None, seed=0, tol=1e-12):
    """Exhaustive one-hot agreement over all basis-strategy triples."""
    del samples  # the case count is fixed by the basis
    cases = 0
    worst_onehot = 0.0
    worst_oracle = 0.0
    for triple in itertools.product(*(PLAYER_BASIS[p] for p in (1, 2, 3))):
        elements = [Octonion.basis(i) for i in triple]
        dist = corollary_distribution(*elements)
        top = np.sort(dist.probs)
        worst_onehot = max(worst_onehot, float(top[:-1].sum()), abs(float(top[-1]) - 1.0))
        gates = [su2_of_basis(o, p) for p, o in enumerate(elements, start=1)]
        oracle = oracle_distribution3(*(z for g in gates for z in (g.x, g.y)))
        worst_oracle = max(worst_oracle, dist.max_deviation(oracle))
        cases += 1
    checks = [
        _check("basis triples produce one-hot distributions", cases, tol, worst_onehot),
        _check("basis reduction vs state vector", cases, tol, worst_oracle),
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
        [_check("quaternion closed form vs state vector", samples, tol, dev)],
    )


def verify_parrondo(samples=None, seed=0, tol=1e-12):
    """Stationary golden values, proper-quantization identity, closed forms."""
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
    checks.append(_check("capital-game stationary states", 2, tol, max(dev_b, dev_mix)))

    dev_proper = 0.0
    dev_sequence = 0.0
    dev_unitary = 0.0
    for _ in range(samples):
        coins = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        classical, quantum = proper_quantized_gains(coins)
        dev_proper = max(dev_proper, *(abs(g - classical) for g in quantum.values()))

        r = rng.uniform()
        pa = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        pb = HDGameParams(*rng.uniform(0.02, 0.98, size=4))
        mixed = HDGameParams(*(r * x + (1.0 - r) * y for x, y in zip(pa, pb)))
        tau = hd_stationary(mixed)
        init = proper_initial_state(tau)
        target = float(tau @ np.array(mixed))
        sup = superpose_mux(
            r,
            mux_from_coins(pa, CoinEmbedding(TYPE2)),
            mux_from_coins(pb, CoinEmbedding(TYPE1)),
        )
        u = sup.matrix
        dev_unitary = max(dev_unitary, np.max(np.abs(u.conj().T @ u - np.eye(8))))
        second = second_quantization_mux(r, pa, pb)
        dev_sequence = max(
            dev_sequence,
            abs(quantized_p_gain(sup, init, 0) - target),
            abs(quantized_p_gain(second, init, 0) - target),
        )
    checks.append(_check("proper quantization reproduces classical gain", samples, tol, dev_proper))
    checks.append(_check("randomized-sequence quantizations mix coins", samples, tol, dev_sequence))
    checks.append(_check("superposed multiplexers stay unitary", samples, tol, dev_unitary))

    dev_fna = 0.0
    for _ in range(samples):
        gates = []
        for _ in range(4):
            x, y = _random_pairs(rng, 1)
            gates.append(SU2Gate(complex(x[0]), complex(y[0])))
        qubits = []
        for _ in range(3):
            x, y = _random_pairs(rng, 1)
            qubits.append(np.array([complex(x[0]), complex(y[0])]))
        state = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
        direct = quantized_p_gain(Multiplexer3(gates), state, 1)
        dev_fna = max(dev_fna, abs(fna_p_win(gates, *qubits) - direct))
    checks.append(_check("product-state closed form vs simulation", samples, tol, dev_fna))

    effect = parrondo_effect_check(1.0 / 200.0)
    checks.append(
        {
            "check": "losing games combine into a winning mixture at epsilon 1/200",
            "samples": 1,
            "tolerance": 0.0,
            "max_deviation": 0.0 if effect["effect"] else 1.0,
            "passed": bool(effect["effect"]),
        }
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
            "passed": all(r["passed"] for r in reports),
        }
    if name not in _SUITE_RUNNERS:
        raise ValueError("unknown suite %r" % (name,))
    return _SUITE_RUNNERS[name](samples=samples, seed=seed)
