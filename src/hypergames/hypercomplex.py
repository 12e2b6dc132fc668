"""Quaternion and octonion arithmetic over an explicit oriented Fano table.

Octonions are represented as arrays of eight real coefficients on the ordered
basis (1, i1, i2, i3, i4, i5, i6, i7). The product of imaginary units is
encoded by the seven oriented lines of the Fano plane; the orientation used
here is the index-doubling one, where each line (a, b, c) satisfies
i_a i_b = i_c cyclically and doubling all indices mod 7 maps lines to lines.

Everything is vectorized: the binary operations accept stacked coefficient
arrays of shape (..., 8) and broadcast, which keeps large Monte-Carlo sweeps
out of Python loops.

Products are formed from signed-gather tables derived at import from the
structure tensor OCT_TENSOR, the one statement of the multiplication rule.
Of its 512 entries only 64 are non-zero, so a table lists, for each output
coordinate, just its (left index, right index, sign) terms; restricting the
left and right supports and the outputs drops more.  Each table is compiled
once into per-row term lists, and gather_mul writes the product one output
row at a time into preallocated buffers, with no temporary arrays.  The
terms are added in the table's order, so the result does not depend on the
batch shape.  oct_mul is the full-support case, and the closed form in
coordgame uses restricted tables on each player's four-coordinate
subalgebra.
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


def gather_table(left=BASIS, right=BASIS, outputs=BASIS):
    """Signed-gather table of the product restricted to the given supports.

    Lists the terms a_i b_j of each coordinate k in outputs with i in left,
    j in right and OCT_TENSOR[i, j, k] non-zero, ordered by the position of
    i in left, then of j in right.
    Returns (left index, right index, sign), each of shape (terms,
    len(outputs)): term-first, then one column per output coordinate.
    """
    sub = OCT_TENSOR[np.ix_(left, right, outputs)].transpose(2, 0, 1)
    k, i, j = np.nonzero(sub)
    count = np.bincount(k, minlength=len(outputs))
    if np.any(count != count[0]):
        raise ValueError("output coordinates have unequal term counts")
    shape = (len(outputs), count[0])
    return (
        np.asarray(left)[i].reshape(shape).T,
        np.asarray(right)[j].reshape(shape).T,
        sub[k, i, j].reshape(shape).T,
    )


def compile_rows(table):
    """A signed-gather table as per-row term lists, the form gather_mul runs.

    The index arrays of table have shape (terms,) + lead.  Returns (lead,
    rows), one row per lead index in C order, each (index, i, j, negate,
    later): index selects the row of a coordinate-first output of any batch
    shape, a[i] b[j] is the first term and negate whether it enters
    negated, and later lists the other terms, in the table's order, as
    (i, j, fold) with fold np.add or np.subtract.  Everything is Python
    ints, index tuples and ufuncs, compiled once, so gather_mul does no work
    on the table.
    """
    i, j, sign = (np.asarray(part) for part in table)
    rows = []
    for lead in np.ndindex(i.shape[1:]):
        col = (slice(None),) + lead
        terms = [
            ((a, ...), (b, ...), s < 0)
            for a, b, s in zip(i[col].tolist(), j[col].tolist(), sign[col].tolist())
        ]
        (a, b, negate), later = terms[0], terms[1:]
        folds = tuple((c, d, np.subtract if neg else np.add) for c, d, neg in later)
        rows.append((lead + (...,), a, b, negate, folds))
    return i.shape[1:], tuple(rows)


_FULL_ROWS = compile_rows(gather_table())


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


def gather_mul(a, b, table, out=None, term=None):
    """Product of coordinate-first operands over a compiled gather table.

    a[i] and b[j] are the coefficient arrays of basis elements i and j, of
    equal number of axes (see coordinate_first); rows outside the table's
    supports are never read.  table comes from compile_rows, and the result
    has shape lead + the broadcast batch shape.

    Each output row is formed in place, with no temporaries: the first term
    is multiplied straight into the row (and negated if its sign is -1),
    each later term into one term row, and np.add or np.subtract folds it
    into the output row.  out, and term of the batch shape, may be passed
    in to reuse them.  Terms are added one at a time in table order, so
    every element is rounded the same way whatever the batch shape.
    """
    lead, rows = table
    if out is None:
        out = np.empty(lead + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    if term is None:
        term = np.empty(out.shape[len(lead):])
    for index, i, j, negate, later in rows:
        row = out[index]
        np.multiply(a[i], b[j], row)
        if negate:
            np.negative(row, row)
        for i, j, fold in later:
            np.multiply(a[i], b[j], term)
            fold(row, term, row)
    return out


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
    ca, cb = coordinate_first(_coeffs(a), _coeffs(b))
    out = coordinate_last(gather_mul(ca, cb, _FULL_ROWS))
    if isinstance(a, Octonion) and isinstance(b, Octonion):
        return Octonion(out)
    return out


def oct_conj(a):
    """Conjugate: negate the seven imaginary coefficients."""
    c = _coeffs(a).copy()
    c[..., 1:] *= -1.0
    return Octonion(c) if isinstance(a, Octonion) else c


def oct_project(a, k):
    """Coefficient of basis element k, with k = 0 the real part."""
    if not 0 <= k <= 7:
        raise IndexError("octonion basis index must lie in 0..7")
    return _coeffs(a)[..., k]


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

    def __mul__(self, other):
        return quat_mul(self, other)

    def __add__(self, other):
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __repr__(self):
        return "Quaternion(%g, %g, %g, %g)" % (self.w, self.x, self.y, self.z)


def complex_pair_mul(a0, a1, b0, b1):
    """Hamilton product in complex-pair coordinates, broadcasting.

    (a0 + a1 j)(b0 + b1 j) = (a0 b0 - a1 conj(b1)) + (a1 conj(b0) + a0 b1) j,
    which is the bilinear extension of z*j = j*conj(z).  Accepts complex
    scalars or stacked arrays and returns the product's pair.

    The conjugates are bound to names before they are multiplied.  From
    256 KiB numpy would otherwise compute a1 * conj(b1) in the temporary
    conjugate's buffer with the operands swapped, which rounds differently,
    and a large batch's rows would differ from the same rows alone.
    """
    b0c, b1c = np.conj(b0), np.conj(b1)
    return a0 * b0 - a1 * b1c, a1 * b0c + a0 * b1


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
    c = _coeffs(o)
    ia, ib, ic = SUBALGEBRA_UNITS[player]
    keep = {0, ia, ib, ic}
    outside = [j for j in range(8) if j not in keep and c[j] != 0.0]
    if outside:
        raise ValueError("octonion lies outside the player-%d subalgebra" % player)
    return Quaternion(c[0], c[ia], c[ib], c[ic])
