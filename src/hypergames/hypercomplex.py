"""Octonion arithmetic over an explicit oriented Fano table: the one
product engine of both closed forms.

Octonions are represented as arrays of eight real coefficients on the ordered
basis (1, i1, i2, i3, i4, i5, i6, i7). The product of imaginary units is
encoded by the seven oriented lines of the Fano plane; the orientation used
here is the index-doubling one, where each line (a, b, c) satisfies
i_a i_b = i_c cyclically and doubling all indices mod 7 maps lines to lines.

Everything is vectorized: the binary operations accept stacked coefficient
arrays of shape (..., 8) and broadcast, which keeps large Monte-Carlo sweeps
out of Python loops.

Products are read at import off the structure tensor OCT_TENSOR, the one
statement of the multiplication rule.  Of its 512 entries only 64 are
non-zero, so product_terms lists, for one output coordinate, just its
(left index, right index, sign) terms; restricting the left and right
supports and the outputs drops more.  The term lists are compiled once into
plans, lists of np.multiply, np.add and np.subtract steps between rows,
which gather_mul, the one product engine, runs in place.  Each output adds
its terms one at a time in list order, so the result does not depend on the
batch shape.  Round to nearest is symmetric, so a plan never negates a row:
a sum that starts negative is held negated, and the sign is read into the
steps that use it (sum_steps).  oct_mul is the full-support case; the
closed forms in coordgame restrict the products to the players'
four-coordinate subalgebras, and the two-player quaternion product runs on
player 1's, {1, i1, i2, i4}.
"""

import numpy as np

# Oriented Fano lines: for (a, b, c), i_a i_b = i_c, i_b i_c = i_a,
# i_c i_a = i_b; swapping two factors flips the sign.
FANO_LINES = (
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (5, 6, 1),
    (6, 7, 2),
    (7, 1, 3),
)

# Quaternion subalgebras used by the three players of the coordinatized game:
# span{1, i_a, i_b, i_c} with i_a i_b = i_c, keyed by player number.
SUBALGEBRA_UNITS = {1: (1, 2, 4), 2: (1, 5, 6), 3: (1, 3, 7)}


def _structure_tensor():
    """Build M with (a b)_k = sum_ij a_i b_j M[i, j, k]."""
    m = np.zeros((8, 8, 8))
    m[0, 0, 0] = 1.0
    for j in range(1, 8):
        m[0, j, j] = 1.0
        m[j, 0, j] = 1.0
        m[j, j, 0] = -1.0
    for line in FANO_LINES:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            m[a, b, c] = 1.0
            m[b, a, c] = -1.0
    return m


OCT_TENSOR = _structure_tensor()
BASIS = tuple(range(8))


def product_terms(left, right, k):
    """The terms a_i b_j of coordinate k of the product a b with i in left
    and j in right, as (i, j, sign) for each non-zero OCT_TENSOR[i, j, k],
    ordered by the position of i in left, then of j in right."""
    return [(i, j, OCT_TENSOR[i, j, k]) for i in left for j in right if OCT_TENSOR[i, j, k]]


def sum_steps(terms, out, term):
    """Steps that sum the products of rows x and y, each times its sign, for
    (x, y, sign) in terms, one at a time in order: the first is formed in
    row out, each later one in row term and folded in by np.add or
    np.subtract.  Returns (steps, held), out holding held times the sum.

    No step negates a row.  A sum that starts negative is held negated, and
    round to nearest is symmetric, so -x - y rounds to -(x + y); a positive
    term brings it back as term - out.  While a sum is held negated an exact
    zero may take the other sign, which no square sees.
    """
    (x, y, held), *later = terms
    steps = [(np.multiply, x, y, out)]
    for x, y, sign in later:
        if held > 0:
            fold = (np.add if sign > 0 else np.subtract, out, term, out)
        elif sign > 0:
            fold, held = (np.subtract, term, out, out), 1
        else:
            fold = (np.add, out, term, out)
        steps += [(np.multiply, x, y, term), fold]
    return steps, held


def compile_rows(left=BASIS, right=BASIS, outputs=BASIS):
    """The plan gather_mul runs on registers a, b, out and (term,) for the
    product restricted to the given supports: a's rows are the coordinates
    left lists, in its order, and b's those right lists, then one output row
    per coordinate outputs lists, each the sum of its product_terms in
    order, then the term row."""
    plan, first = [], len(left) + len(right)
    for n, k in enumerate(outputs):
        terms = [(left.index(i), len(left) + right.index(j), sign)
                 for i, j, sign in product_terms(left, right, k)]
        steps, held = sum_steps(terms, first + n, first + len(outputs))
        if held < 0:
            raise ValueError("output %d would end negated" % k)
        plan += steps
    return tuple(plan)


_FULL_PLAN = compile_rows()


def coordinate_first(*coeffs):
    """Views of (..., 8) coefficient arrays with the coordinate axis first.

    Leading axes of size 1 are prepended so all views have the same number
    of axes and broadcast row by row.
    """
    ndim = max(c.ndim for c in coeffs)
    axes = (ndim - 1,) + tuple(range(ndim - 1))
    return [c.reshape((1,) * (ndim - c.ndim) + c.shape).transpose(axes) for c in coeffs]


def coordinate_last(c):
    """The (..., 8) view of a coordinate-first array; undoes coordinate_first."""
    return c.transpose(tuple(range(1, c.ndim)) + (0,))


def gather_mul(plan, *registers):
    """Run a compiled plan, the one product engine, over row registers.

    A register is a coordinate-first array of two or more axes, whose rows
    are its coefficient arrays, or a tuple of rows; the rows are numbered in
    order.  Each step (ufunc, x, y, out) of plan calls ufunc(row x, row y,
    row out), np.multiply, np.add or np.subtract, so every product and sum
    is written in place into a row that the caller allocated.  A plan adds
    each output's terms one at a time in a fixed order, so every element is
    rounded the same way whatever the batch shape.
    """
    rows = [row for register in registers for row in register]
    for ufunc, x, y, out in plan:
        ufunc(rows[x], rows[y], rows[out])


def _coeffs(a):
    c = a.c if isinstance(a, Octonion) else np.asarray(a, dtype=float)
    if c.shape[-1] != 8:
        raise ValueError("octonion coefficients must have trailing length 8")
    return c


def oct_mul(a, b):
    """Octonion product, bilinear over the Fano table.

    Accepts Octonion instances or coefficient arrays shaped (..., 8) and
    broadcasts. Returns an Octonion when both inputs are Octonions, else a
    coefficient array.  The full-support case of gather_mul.
    """
    # A leading batch axis of one, so that a single octonion's rows are
    # arrays; out's ninth row is the plan's term row.
    ca, cb = coordinate_first(_coeffs(a)[np.newaxis], _coeffs(b)[np.newaxis])
    out = np.empty((9,) + np.broadcast_shapes(ca.shape[1:], cb.shape[1:]))
    gather_mul(_FULL_PLAN, ca, cb, out)
    out = coordinate_last(out[:8])[0]
    if isinstance(a, Octonion) and isinstance(b, Octonion):
        return Octonion(out)
    return out


def oct_conj(a):
    """Conjugate: negate the seven imaginary coefficients."""
    c = _coeffs(a).copy()
    c[..., 1:] *= -1.0
    return Octonion(c) if isinstance(a, Octonion) else c


def oct_norm(a):
    return np.sqrt(np.sum(_coeffs(a) ** 2, axis=-1))


class Octonion:
    """Octonion as eight real coefficients on the basis (1, i1..i7)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("an Octonion holds exactly 8 real coefficients")
        self.c = c

    @classmethod
    def basis(cls, k):
        c = np.zeros(8)
        c[k] = 1.0
        return cls(c)

    def conj(self):
        return oct_conj(self)

    def norm(self):
        return float(oct_norm(self))

    def __mul__(self, other):
        return oct_mul(self, other)

    def __add__(self, other):
        return Octonion(self.c + _coeffs(other))

    def __sub__(self, other):
        return Octonion(self.c - _coeffs(other))

    def __neg__(self):
        return Octonion(-self.c)

    def __repr__(self):
        terms = []
        names = ["1"] + ["i%d" % j for j in range(1, 8)]
        for coeff, name in zip(self.c, names):
            if coeff != 0.0:
                terms.append("%+g*%s" % (coeff, name))
        return "Octonion(%s)" % (" ".join(terms) or "0")

