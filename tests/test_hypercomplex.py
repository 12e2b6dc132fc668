import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames.hypercomplex import (
    FANO_LINES,
    OCT_TENSOR,
    SUBALGEBRA_UNITS,
    Octonion,
    Quaternion,
    compile_rows,
    gather_mul,
    gather_table,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_project,
    oct_to_quat,
    quat_mul,
    quat_project,
    quat_to_oct,
)


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
        assert oct_project(oct_mul(unit(1), unit(2)), 4) == 1.0
        assert oct_project(oct_mul(unit(2), unit(1)), 4) == -1.0
        assert oct_project(oct_mul(unit(1), unit(4)), 2) == -1.0
        assert oct_project(oct_mul(unit(1), unit(5)), 6) == 1.0
        assert oct_project(oct_mul(unit(1), unit(6)), 5) == -1.0
        assert oct_project(oct_mul(unit(1), unit(3)), 7) == 1.0
        assert oct_project(oct_mul(unit(1), unit(7)), 3) == -1.0

    def test_triple_product_reaching_i1_across_subalgebras(self):
        # (i4 i6) i7 = i1: i4 i6 = i3, then i3 i7 = i1.
        step = oct_mul(unit(4), unit(6))
        npt.assert_array_equal(step.c, unit(3).c)
        full = oct_mul(step, unit(7))
        npt.assert_array_equal(full.c, unit(1).c)
        assert oct_project(full, 1) == 1.0

    def test_anticommutativity_of_distinct_units(self):
        for j in range(1, 8):
            for k in range(1, 8):
                if j != k:
                    jk = oct_mul(unit(j), unit(k))
                    kj = oct_mul(unit(k), unit(j))
                    npt.assert_array_equal(jk.c, (-kj).c)

    def test_projection_index_bounds(self):
        with pytest.raises(IndexError):
            oct_project(unit(0), 8)
        with pytest.raises(IndexError):
            oct_project(unit(0), -1)


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
    """oct_mul reads the multiplication rule off tables derived from OCT_TENSOR;
    the dense einsum over the whole tensor is the reference."""

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

    def test_restricted_table_lists_exactly_the_nonzero_terms(self):
        left, right, outputs = (0, 1, 2, 4), (0, 1, 5, 6), (2, 4, 5, 6)
        i, j, sign = gather_table(left, right, outputs)
        expected = {
            (a, b, k, OCT_TENSOR[a, b, k])
            for a in left
            for b in right
            for k in outputs
            if OCT_TENSOR[a, b, k]
        }
        listed = {
            (i[t, c], j[t, c], outputs[c], sign[t, c])
            for t in range(i.shape[0])
            for c in range(len(outputs))
        }
        assert listed == expected and len(expected) == i.size

    def test_restricted_product_reads_only_its_supports(self):
        rng = np.random.default_rng(53)
        a, b = rng.standard_normal((2, 8, 10))
        table = compile_rows(gather_table((0, 1, 2, 4), (0, 1, 5, 6), (3, 7)))
        junk_a, junk_b = a.copy(), b.copy()
        junk_a[[3, 5, 6, 7]] = np.nan
        junk_b[[2, 3, 4, 7]] = np.nan
        npt.assert_array_equal(
            gather_mul(junk_a, junk_b, table), gather_mul(a, b, table)
        )
        keep_a, keep_b = np.zeros_like(a), np.zeros_like(b)
        keep_a[[0, 1, 2, 4]] = a[[0, 1, 2, 4]]
        keep_b[[0, 1, 5, 6]] = b[[0, 1, 5, 6]]
        full = self.dense(keep_a.T, keep_b.T)
        npt.assert_allclose(gather_mul(a, b, table), full[:, [3, 7]].T, rtol=1e-15)


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
        assert "Quaternion" in repr(Quaternion(1, 0, 0, 0))
