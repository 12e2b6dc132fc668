"""The batched corollary suite and the Haar pair draws against the loops and
formulas they replaced, kept here as references."""

import itertools

import numpy as np
import pytest

from hypergames import coordgame, verify
from hypergames.coordgame import (
    PLAYER_BASIS,
    _strategy_pair,
    corollary_distribution,
    su2_of_basis,
)
from hypergames.equilibria import _random_subalgebra_pairs
from hypergames.hypercomplex import Octonion
from hypergames.qstate import oracle_probs3_batch
from hypergames.records import check_record
from hypergames.verify import verify_corollary

SEEDS = (0, 1, 7, 123, 2024)
SIZES = (0, 1, 7, 1000, 10_000)


def reference_corollary(seed, tol=1e-12):
    """The corollary suite as a loop over the 64 triples: the basis reduction
    and the slot gates per triple, the oracle once over all of them."""
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
    oracle = np.clip(oracle_probs3_batch(*amplitudes), 0.0, None)
    worst_oracle = np.max(np.abs(probs - oracle))
    checks = [
        check_record("basis triples produce one-hot distributions", 64, tol, worst_onehot),
        check_record("basis reduction vs state vector", 64, tol, worst_oracle),
    ]
    return verify._report("corollary", seed, checks)


def norm_pairs(rng, n):
    """Haar pairs through np.linalg.norm, as verify drew them before."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def norm_subalgebra_pairs(rng, n):
    coords = rng.standard_normal((n, 4))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    return _strategy_pair(coords)


def same_bytes(got, expected):
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, expected, strict=True)
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_corollary_suite_equals_the_per_triple_loop(seed):
    report = verify_corollary(seed=seed)
    assert report == reference_corollary(seed)
    assert report["passed"]


def test_corollary_suite_fails_on_a_swapped_basis_row(monkeypatch):
    table = np.array(coordgame.BASIS_OUTCOMES)
    row = table[1, 2, 3]
    hot = int(np.argmax(row))
    row[[hot, (hot + 1) % 8]] = row[[(hot + 1) % 8, hot]]
    monkeypatch.setattr(verify, "BASIS_OUTCOMES", table)
    checks = {c["check"]: c for c in verify_corollary()["checks"]}
    assert checks["basis triples produce one-hot distributions"]["passed"]
    assert not checks["basis reduction vs state vector"]["passed"]
    assert checks["basis reduction vs state vector"]["max_deviation"] > 0.5


@pytest.mark.parametrize("n", SIZES)
def test_random_pairs_keep_the_norm_formula_bits(n):
    for seed in SEEDS:
        got = verify._random_pairs(np.random.default_rng(seed), n)
        assert same_bytes(got, norm_pairs(np.random.default_rng(seed), n))


@pytest.mark.parametrize("n", SIZES)
def test_random_subalgebra_pairs_keep_the_norm_formula_bits(n):
    for seed in SEEDS:
        got = _random_subalgebra_pairs(np.random.default_rng(seed), n)
        assert same_bytes(got, norm_subalgebra_pairs(np.random.default_rng(seed), n))


@pytest.mark.parametrize("suite, tol", [("theorem1", 1e-10), ("landsburg", 1e-10)])
def test_closed_form_suites_check_at_their_tolerance(suite, tol):
    (check,) = verify.run_suite(suite, samples=5)["checks"]
    assert check["tolerance"] == tol
