import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames.coordgame import _QUATERNION_PLAN
from hypergames.hypercomplex import (
    FANO_LINES,
    OCT_TENSOR,
    SUBALGEBRA_UNITS,
    Octonion,
    compile_rows,
    gather_mul,
    oct_conj,
    oct_mul,
    oct_norm,
    product_terms,
)


def run_plan(plan, a, b, outputs):
    """The product of coordinate-first a and b over a compile_rows plan with
    the given number of output rows."""
    batch = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.empty((outputs,) + batch)
    gather_mul(plan, a, b, out, np.empty((1,) + batch))
    return out


class Quaternion:
    """Quaternion w + x*i + y*j + z*k under the Hamilton relation ij = k.

    The complex-pair view writes q = A + B*j with A = w + x*i and
    B = y + z*i, under the rule z*j = j*conj(z) for complex z.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_complex_pair(cls, a, b):
        a, b = complex(a), complex(b)
        return cls(a.real, a.imag, b.real, b.imag)

    @property
    def complex_pair(self):
        return complex(self.w, self.x), complex(self.y, self.z)

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def coeffs(self):
        return np.array([self.w, self.x, self.y, self.z])

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __repr__(self):
        return "Quaternion(%g, %g, %g, %g)" % (self.w, self.x, self.y, self.z)


def complex_pair_mul(a0, a1, b0, b1):
    """Hamilton product in complex-pair coordinates, broadcasting.

    (a0 + a1 j)(b0 + b1 j) = (a0 b0 - a1 conj(b1)) + (a1 conj(b0) + a0 b1) j,
    which is the bilinear extension of z*j = j*conj(z).  Accepts complex
    scalars or stacked arrays and returns the product's pair.  The
    reference that the package's gather tables are checked against.
    """
    return a0 * b0 - a1 * np.conj(b1), a1 * np.conj(b0) + a0 * b1


def quat_mul(a, b):
    """Hamilton product of two Quaternions via complex_pair_mul."""
    return Quaternion.from_complex_pair(
        *complex_pair_mul(*a.complex_pair, *b.complex_pair)
    )


def quat_project(q, k):
    """k-th real coordinate on (1, i, j, k), 1-based: k=1 is the real part."""
    if not 1 <= k <= 4:
        raise IndexError("quaternion coordinate index must lie in 1..4")
    return (q.w, q.x, q.y, q.z)[k - 1]


def quat_to_oct(q, player):
    """Embed a quaternion into the player's octonion subalgebra.

    Maps 1 -> 1, i -> i1, j -> the player's second unit, k -> the third, with
    the unit triple oriented so that the embedded product agrees with oct_mul.
    """
    ia, ib, ic = SUBALGEBRA_UNITS[player]
    c = np.zeros(8)
    c[0] = q.w
    c[ia] = q.x
    c[ib] = q.y
    c[ic] = q.z
    return Octonion(c)


def oct_to_quat(o, player):
    """Inverse of quat_to_oct; raises if o has support outside the subalgebra."""
    c = o.c if isinstance(o, Octonion) else np.asarray(o, dtype=float)
    ia, ib, ic = SUBALGEBRA_UNITS[player]
    keep = {0, ia, ib, ic}
    outside = [j for j in range(8) if j not in keep and c[j] != 0.0]
    if outside:
        raise ValueError("octonion lies outside the player-%d subalgebra" % player)
    return Quaternion(c[0], c[ia], c[ib], c[ic])


def unit(k):
    return Octonion.basis(k)


def coeff_strategy():
    return st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def oct_strategy():
    return st.lists(coeff_strategy(), min_size=8, max_size=8).map(np.array)


def quat_strategy():
    return st.lists(coeff_strategy(), min_size=4, max_size=4).map(
        lambda v: Quaternion(*v)
    )


class TestOctonionTable:
    def test_one_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(8)
        npt.assert_allclose(oct_mul(unit(0), x), x, atol=0)
        npt.assert_allclose(oct_mul(x, unit(0)), x, atol=0)

    def test_imaginary_units_square_to_minus_one(self):
        for j in range(1, 8):
            prod = oct_mul(unit(j), unit(j))
            npt.assert_array_equal(prod.c, -unit(0).c)

    def test_oriented_products(self):
        # Cyclic products along each Fano line.
        for a, b, c in FANO_LINES:
            npt.assert_array_equal(oct_mul(unit(a), unit(b)).c, unit(c).c)
            npt.assert_array_equal(oct_mul(unit(b), unit(a)).c, (-unit(c)).c)

    def test_specific_products_fixed_by_subalgebra_orientation(self):
        # The unit triples of the three player subalgebras, plus the products
        # that their orientation forces.
        assert oct_mul(unit(1), unit(2)).c[4] == 1.0
        assert oct_mul(unit(2), unit(1)).c[4] == -1.0
        assert oct_mul(unit(1), unit(4)).c[2] == -1.0
        assert oct_mul(unit(1), unit(5)).c[6] == 1.0
        assert oct_mul(unit(1), unit(6)).c[5] == -1.0
        assert oct_mul(unit(1), unit(3)).c[7] == 1.0
        assert oct_mul(unit(1), unit(7)).c[3] == -1.0

    def test_triple_product_reaching_i1_across_subalgebras(self):
        # (i4 i6) i7 = i1: i4 i6 = i3, then i3 i7 = i1.
        step = oct_mul(unit(4), unit(6))
        npt.assert_array_equal(step.c, unit(3).c)
        full = oct_mul(step, unit(7))
        npt.assert_array_equal(full.c, unit(1).c)
        assert full.c[1] == 1.0

    def test_anticommutativity_of_distinct_units(self):
        for j in range(1, 8):
            for k in range(1, 8):
                if j != k:
                    jk = oct_mul(unit(j), unit(k))
                    kj = oct_mul(unit(k), unit(j))
                    npt.assert_array_equal(jk.c, (-kj).c)


class TestOctonionAlgebra:
    def test_conjugation_involution_and_real_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(8)
            npt.assert_array_equal(oct_conj(oct_conj(x)), x)
            n2 = oct_mul(x, oct_conj(x))
            npt.assert_allclose(n2[0], np.sum(x**2), rtol=1e-12)
            npt.assert_allclose(n2[1:], np.zeros(7), atol=1e-12)

    def test_conj_negates_imaginary_parts_only(self):
        x = np.array([2.0, 0, 0, 0, 0, 3.0, 0, 0])
        expected = np.array([2.0, 0, 0, 0, 0, -3.0, 0, 0])
        npt.assert_array_equal(oct_conj(x), expected)

    def test_norm_multiplicativity_bulk(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((10_000, 8))
        b = rng.standard_normal((10_000, 8))
        lhs = oct_norm(oct_mul(a, b))
        rhs = oct_norm(a) * oct_norm(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(oct_strategy(), oct_strategy())
    @settings(max_examples=200, deadline=None)
    def test_norm_multiplicativity_property(self, a, b):
        assert abs(oct_norm(oct_mul(a, b)) - oct_norm(a) * oct_norm(b)) < 1e-10

    @given(oct_strategy(), oct_strategy())
    @settings(max_examples=200, deadline=None)
    def test_alternativity(self, a, b):
        aa_b = oct_mul(oct_mul(a, a), b)
        a_ab = oct_mul(a, oct_mul(a, b))
        npt.assert_allclose(aa_b, a_ab, atol=1e-10)
        ab_b = oct_mul(oct_mul(a, b), b)
        a_bb = oct_mul(a, oct_mul(b, b))
        npt.assert_allclose(ab_b, a_bb, atol=1e-10)

    def test_alternativity_bulk(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((1000, 8))
        b = rng.standard_normal((1000, 8))
        npt.assert_allclose(
            oct_mul(oct_mul(a, a), b), oct_mul(a, oct_mul(a, b)), atol=1e-10
        )
        npt.assert_allclose(
            oct_mul(oct_mul(a, b), b), oct_mul(a, oct_mul(b, b)), atol=1e-10
        )

    def test_non_associativity_witness_exists(self):
        witnesses = []
        for a in range(1, 8):
            for b in range(1, 8):
                for c in range(1, 8):
                    left = oct_mul(oct_mul(unit(a), unit(b)), unit(c))
                    right = oct_mul(unit(a), oct_mul(unit(b), unit(c)))
                    if not np.array_equal(left.c, right.c):
                        witnesses.append((a, b, c))
        assert witnesses, "expected at least one non-associative basis triple"

    def test_distributes_over_addition(self):
        rng = np.random.default_rng(17)
        a, b, c = rng.standard_normal((3, 8))
        npt.assert_allclose(
            oct_mul(a, b + c), oct_mul(a, b) + oct_mul(a, c), rtol=1e-12, atol=1e-12
        )

    def test_batched_product_matches_scalar_loop(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((32, 8))
        b = rng.standard_normal((32, 8))
        batched = oct_mul(a, b)
        for k in range(32):
            npt.assert_allclose(batched[k], oct_mul(a[k], b[k]), rtol=1e-13)

    def test_subalgebra_closure_is_exact(self):
        rng = np.random.default_rng(23)
        for player, units in SUBALGEBRA_UNITS.items():
            keep = [0, *units]
            drop = [j for j in range(8) if j not in keep]
            for _ in range(25):
                a = np.zeros(8)
                b = np.zeros(8)
                a[keep] = rng.standard_normal(4)
                b[keep] = rng.standard_normal(4)
                prod = oct_mul(a, b)
                npt.assert_array_equal(prod[drop], np.zeros(4))


class TestGatherTables:
    """oct_mul reads the multiplication rule off term lists read from
    OCT_TENSOR; the dense einsum over the whole tensor is the reference."""

    @staticmethod
    def dense(a, b):
        return np.einsum("ijk,...i,...j->...k", OCT_TENSOR, a, b)

    def test_matches_dense_einsum_on_non_unit_stacks(self):
        rng = np.random.default_rng(43)
        a = 3.0 * rng.standard_normal((500, 8))
        b = 0.2 * rng.standard_normal((500, 8))
        npt.assert_allclose(oct_mul(a, b), self.dense(a, b), rtol=1e-15)

    def test_matches_dense_einsum_when_broadcasting(self):
        rng = np.random.default_rng(47)
        for sa, sb in (((8,), (6, 8)), ((5, 1, 8), (4, 8)), ((2, 1, 3, 8), (7, 1, 8))):
            a = rng.standard_normal(sa)
            b = 5.0 * rng.standard_normal(sb)
            product = oct_mul(a, b)
            assert product.shape == self.dense(a, b).shape
            npt.assert_allclose(product, self.dense(a, b), rtol=1e-15)

    def test_octonion_instances_stay_octonions(self):
        x = Octonion(np.arange(1.0, 9.0))
        y = Octonion(np.arange(8.0, 0.0, -1.0))
        product = oct_mul(x, y)
        assert isinstance(product, Octonion)
        npt.assert_allclose(product.c, self.dense(x.c, y.c), rtol=1e-15)

    def test_product_terms_lists_exactly_the_nonzero_terms_in_order(self):
        # Any order of the supports: the terms follow it, left first.
        left, right = (4, 0, 2, 1), (6, 0, 1, 5)
        for k in range(8):
            terms = product_terms(left, right, k)
            nonzero = {
                (a, b, OCT_TENSOR[a, b, k])
                for a, b in zip(*np.nonzero(OCT_TENSOR[:, :, k]))
                if a in left and b in right
            }
            assert set(terms) == nonzero and len(terms) == len(nonzero) == 2
            positions = [(left.index(a), right.index(b)) for a, b, _ in terms]
            assert positions == sorted(positions)
        assert sum(len(product_terms(range(8), range(8), k)) for k in range(8)) == 64

    def test_restricted_product_reads_only_its_supports(self):
        rng = np.random.default_rng(53)
        a, b = rng.standard_normal((2, 8, 10))
        left, right, outputs = (0, 1, 2, 4), (0, 1, 5, 6), (3, 7)
        plan = compile_rows(left, right, outputs)
        # a's four rows, b's four, the two outputs and the term row.
        assert {n for step in plan for n in step[1:]} <= set(range(11))
        keep_a, keep_b = np.zeros_like(a), np.zeros_like(b)
        keep_a[list(left)] = a[list(left)]
        keep_b[list(right)] = b[list(right)]
        full = self.dense(keep_a.T, keep_b.T)
        npt.assert_allclose(
            run_plan(plan, a[list(left)], b[list(right)], 2), full[:, list(outputs)].T, rtol=1e-15
        )


class TestQuaternion:
    def test_hamilton_relation(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        npt.assert_array_equal(quat_mul(i, j).coeffs(), k.coeffs())
        npt.assert_array_equal(quat_mul(j, k).coeffs(), i.coeffs())
        npt.assert_array_equal(quat_mul(k, i).coeffs(), j.coeffs())
        npt.assert_array_equal(quat_mul(j, i).coeffs(), (-k).coeffs())
        npt.assert_array_equal(quat_mul(i, k).coeffs(), (-j).coeffs())
        for u in (i, j, k):
            npt.assert_array_equal(
                quat_mul(u, u).coeffs(), Quaternion(-1, 0, 0, 0).coeffs()
            )

    def test_complex_commutes_past_j_with_conjugation(self):
        # z*j = j*conj(z) for complex z.
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(*rng.standard_normal(2))
            zq = Quaternion.from_complex_pair(z, 0)
            jq = Quaternion.from_complex_pair(0, 1)
            lhs = quat_mul(zq, jq)
            rhs = quat_mul(jq, Quaternion.from_complex_pair(np.conj(z), 0))
            npt.assert_allclose(lhs.coeffs(), rhs.coeffs(), rtol=1e-15, atol=1e-15)

    @given(quat_strategy(), quat_strategy())
    @settings(max_examples=200, deadline=None)
    def test_norm_composition(self, a, b):
        assert abs(quat_mul(a, b).norm() - a.norm() * b.norm()) < 1e-10

    def test_conjugation(self):
        q = Quaternion(1, 2, 3, 4)
        qc = q.conj()
        npt.assert_array_equal(qc.coeffs(), [1, -2, -3, -4])
        prod = quat_mul(q, qc)
        npt.assert_allclose(prod.coeffs(), [q.norm() ** 2, 0, 0, 0], rtol=1e-12)

    def test_projection_coordinates(self):
        q = Quaternion(0.5, -1.5, 2.5, -3.5)
        assert quat_project(q, 1) == 0.5
        assert quat_project(q, 2) == -1.5
        assert quat_project(q, 3) == 2.5
        assert quat_project(q, 4) == -3.5
        with pytest.raises(IndexError):
            quat_project(q, 0)
        with pytest.raises(IndexError):
            quat_project(q, 5)

    def test_projection_of_identity_product(self):
        one = Quaternion(1, 0, 0, 0)
        assert quat_project(quat_mul(one, one), 1) == 1.0

    def test_second_coordinate_picks_up_imaginary_part(self):
        # p = i (A = i, B = 0) times q = 1 leaves pi_2 = 1.
        p = Quaternion.from_complex_pair(1j, 0)
        q = Quaternion.from_complex_pair(1, 0)
        assert quat_project(quat_mul(p, q), 2) == 1.0


class TestQuaternionOctonionEmbedding:
    @given(quat_strategy(), quat_strategy(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_embedded_product_agrees(self, a, b, player):
        direct = quat_to_oct(quat_mul(a, b), player)
        embedded = oct_mul(quat_to_oct(a, player), quat_to_oct(b, player))
        npt.assert_allclose(embedded.c, direct.c, atol=1e-12)
        # The two-player closed form's 16-term table on player 1's
        # subalgebra, read on each factor's four coordinates there, whose
        # rows are the coordinates 1, j, k and i.
        ca, cb = (quat_to_oct(q, 1).c[[0, 1, 2, 4], np.newaxis] for q in (a, b))
        gathered = run_plan(_QUATERNION_PLAN, ca, cb, 4)[:, 0]
        npt.assert_allclose(gathered, quat_mul(a, b).coeffs()[[0, 2, 3, 1]], atol=1e-12)

    def test_round_trip(self):
        q = Quaternion(0.1, -0.2, 0.3, -0.4)
        for player in (1, 2, 3):
            back = oct_to_quat(quat_to_oct(q, player), player)
            npt.assert_array_equal(back.coeffs(), q.coeffs())

    def test_rejects_vectors_outside_subalgebra(self):
        stray = np.zeros(8)
        stray[0] = 1.0
        stray[2] = 0.5  # i2 lies outside player 2's span
        with pytest.raises(ValueError):
            oct_to_quat(stray, 2)


class TestWrapperErgonomics:
    def test_operator_product_returns_octonion(self):
        prod = Octonion.basis(1) * Octonion.basis(2)
        assert isinstance(prod, Octonion)
        npt.assert_array_equal(prod.c, Octonion.basis(4).c)

    def test_mixed_input_returns_array(self):
        out = oct_mul(Octonion.basis(1), np.eye(8)[2])
        assert isinstance(out, np.ndarray)

    def test_addition_and_negation(self):
        s = Octonion.basis(0) + Octonion.basis(1)
        npt.assert_array_equal((-s).c, -s.c)
        npt.assert_array_equal((s - Octonion.basis(1)).c, Octonion.basis(0).c)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Octonion(np.zeros(7))
        with pytest.raises(ValueError):
            oct_mul(np.zeros(7), np.zeros(8))

    def test_repr_smoke(self):
        assert "i1" in repr(Octonion.basis(1))
