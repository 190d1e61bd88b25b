"""Truncated multivariate Taylor (jet) arithmetic.

A :class:`Jet` carries all partial derivatives of a scalar quantity up to a
fixed total order (at most 4) in up to 4 independent variables.  Arithmetic
on jets propagates derivatives exactly: products are truncated Cauchy
products, and analytic functions (square root, reciprocal, real powers) are
composed through their univariate Taylor expansion around the jet's constant
term.  Truncation below the cutoff is silent and exact; there is no
finite-difference noise anywhere.

Conventions
-----------
* Coefficients are stored in Taylor convention, i.e. ``coeff[mu]`` equals the
  partial derivative divided by ``mu!``.  The factorial normalization is
  applied exactly once, by :meth:`Jet.extract`.
* Storage is dense over all monomials of total degree <= ``max_order``,
  enumerated grade by grade, so truncating to a lower order is a prefix
  slice.
* The truncation order is fixed at construction.  Combining jets of
  different orders (or different variable counts) raises ``ValueError``;
  use :meth:`Jet.truncated` to lower an operand explicitly.

Coefficients may be scalars or NumPy arrays of a common batch shape, in
which case every operation acts elementwise across the batch; batch shapes
broadcast as NumPy's do, a single-lane (0-d) jet against any batch.  Jets
are immutable values: operations return fresh jets and never write to
their operands, so they are safe to share between threads.  The one write
is private: ``_compose`` adds each Horner constant to the constant term of
the product it has just made, a fresh array no caller has seen.

Summation order
---------------
Floating-point sums depend on their order, and reordering a product's sums
moves the flag curvature by up to 6e-8 relative on the acceptance grids, so
the order of every product is fixed and written down.  The pairs ``(i, j)``
of output ``k`` are sorted; call their products ``p0 ... p(n-1)`` and let
``q0 ... q(m-1)`` be ``p1 ... p(n-1)``.  Then ``c_k = p0 + S`` with

* ``S = ((q0 + q1) + q2) + ...`` left to right when ``m < 8``;
* ``S = ((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))``, then ``+ q8``,
  ``+ q9``, ... left to right, when ``8 <= m < 16``.

It is the order in which NumPy's ``add.reduceat`` sums a segment
(pairwise summation, see Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 4.2).  :func:`_ordered_sum` writes it out for every
kind of coefficient: single lanes, lane batches and objects (the nodes
:mod:`keplerflag.tape` records).  It adds one pair at a time across the
lanes of all outputs with as many pairs; ``reduceat`` itself would make
one strided call per output coefficient and lane, and sums objects left
to right.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError

MAX_VARS = 4
MAX_ORDER = 4

__all__ = ["Jet", "MAX_VARS", "MAX_ORDER"]


def _aligned(a, b):
    """Coefficient arrays with their batch axes lined up: the one with
    fewer gains leading unit batch axes, so a single-lane jet broadcasts
    against any batch, as a ``(1,)`` batch does."""
    if a.ndim < b.ndim:
        a = a.reshape(a.shape[:1] + (1,) * (b.ndim - a.ndim) + a.shape[1:])
    elif b.ndim < a.ndim:
        b = b.reshape(b.shape[:1] + (1,) * (a.ndim - b.ndim) + b.shape[1:])
    return a, b


def _ordered_sum(p):
    """``p0 + S`` over one output's pair products, as the module docstring
    writes it down."""
    q = list(p[1:])
    if len(q) >= 8:
        q[:8] = [((q[0] + q[1]) + (q[2] + q[3])) + ((q[4] + q[5]) + (q[6] + q[7]))]
    return p[0] + reduce(operator.add, q) if q else p[0]


class _JetSpace:
    """Precomputed index tables for one (num_vars, max_order) algebra."""

    __slots__ = ("num_vars", "max_order", "monomials", "index", "ncoeff", "unit",
                 "_sums", "_d_src", "_d_fac")

    def __init__(self, num_vars, max_order):
        self.num_vars = num_vars
        self.max_order = max_order
        # Graded enumeration: the exponent tuples in lexicographic order,
        # sorted (stably) by degree.
        self.monomials = tuple(sorted(
            (m for m in itertools.product(range(max_order + 1), repeat=num_vars)
             if sum(m) <= max_order), key=sum))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoeff = len(self.monomials)
        # Position of each variable's first-order coefficient (None at order
        # 0).  It is a first derivative's value: derivative() multiplies it
        # by 1.  The graded order puts x0 last, so it is not 1 + var.
        self.unit = tuple(
            self.index.get(tuple(int(k == var) for k in range(num_vars)))
            for var in range(num_vars)
        )

        # A monomial's code reads its exponents as digits in base
        # max_order + 1, so a product of degree <= max_order has the sum of
        # its factors' codes, and ``slot`` maps a code to its index.
        place = [(max_order + 1) ** (num_vars - 1 - var) for var in range(num_vars)]
        mono = np.array(self.monomials, dtype=np.intp)
        code = mono @ place
        slot = np.zeros((max_order + 1) ** num_vars, np.intp)
        slot[code] = np.arange(self.ncoeff)
        degree = mono.sum(1)
        # The order below has this enumeration's first ``small`` monomials.
        small = math.comb(num_vars + max_order - 1, num_vars) if max_order else 0

        # Truncated Cauchy product: all (k, i, j) with deg_i + deg_j <=
        # max_order, sorted, hence grouped by the output index k in the
        # order the module docstring sums them.  nonzero() lists (i, j) in
        # order and a stable sort on k keeps it.
        mul_i, mul_j = (degree[:, None] + degree <= max_order).nonzero()
        mul_k = slot[code[mul_i] + code[mul_j]]
        order = mul_k.argsort(kind="stable")
        mul_k, mul_i, mul_j = mul_k[order], mul_i[order], mul_j[order]
        # A graded product's left operand stops one order short (_compose):
        # its missing top-degree entries pair only with b[0], and these
        # indices read a[0] there.  Not its last entry, as "clip" would:
        # that one can be infinite where a[0] is not, and inf * 0 is NaN.
        mul_lo_i = np.where(mul_i < small, mul_i, 0)
        # Outputs with as many pairs sum as one batch: rows, (pairs, rows) operand
        # indices.  Every output has at least one pair (with the constant
        # monomial).  From 17 pairs on, NumPy's 8 accumulators take a second
        # term each, which _ordered_sum does not do; 4 variables at order 4
        # reach 16.
        n = np.bincount(mul_k)
        assert n.max() <= 16
        starts = np.searchsorted(mul_k, np.arange(self.ncoeff))
        self._sums = []
        for m in sorted(set(n.tolist())):
            rows = (n == m).nonzero()[0]
            p = (starts[rows, None] + np.arange(m)).T
            self._sums.append((rows, mul_i[p], mul_lo_i[p], mul_j[p]))

        # Partial-derivative tables, target order max_order - 1: the source
        # of target monomial mu is mu + e_var, with factor mu[var] + 1.
        vars_ = range(num_vars) if max_order >= 1 else ()
        self._d_src = [slot[code[:small] + place[var]] for var in vars_]
        self._d_fac = [mono[:small, var] + 1.0 for var in vars_]

    def product(self, a, b, graded=False):
        """The truncated product of coefficient arrays, each output summed
        by :func:`_ordered_sum`.  With ``graded``, ``a`` lacks this space's
        top degree and ``b[0]`` is zero, so a pair reads ``a[0]`` for a
        missing entry of ``a``."""
        a, b = _aligned(a, b)
        out = np.empty((self.ncoeff,) + np.broadcast(a[:1], b[:1]).shape[1:],
                       np.result_type(a, b))
        for rows, i, lo_i, j in self._sums:
            out[rows] = _ordered_sum(a.take(lo_i if graded else i, 0) * b.take(j, 0))
        return out


@lru_cache(maxsize=None)
def _space(num_vars, max_order):
    if not 1 <= num_vars <= MAX_VARS:
        raise ValueError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 0..{MAX_ORDER}, got {max_order}")
    return _JetSpace(num_vars, max_order)


def _factorial_of(mu):
    out = 1
    for m in mu:
        out *= math.factorial(m)
    return out


def _added(jet, other, op):
    """``op(jet, other)`` for ``op`` one of ``operator.add`` and
    ``operator.sub``, ``other`` a jet or a number."""
    if isinstance(other, Jet):
        if other._space is not jet._space:
            jet._check_compatible(other)
        a, b = jet.coeffs, other.coeffs
        if a.ndim != b.ndim:
            a, b = _aligned(a, b)
        return Jet(jet._space, op(a, b))
    out = jet.coeffs.copy()
    out[0] = op(out[0], other)
    return Jet(jet._space, out)


class Jet:
    """Truncated Taylor expansion of a scalar quantity at a point."""

    __slots__ = ("_space", "coeffs")
    # an array operand defers to the jet: a lane array times a jet scales each lane
    __array_ufunc__ = None

    def __init__(self, space, coeffs):
        self._space = space
        self.coeffs = coeffs

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def variable(cls, index, value, num_vars, max_order):
        """Jet of the coordinate function ``x_index`` at ``value``.

        ``value`` may be a scalar or an array (batched evaluation).
        """
        if not 1 <= max_order <= MAX_ORDER:
            raise ValueError(
                f"max_order must be in 1..{MAX_ORDER} to seed a variable, "
                f"got {max_order}"
            )
        sp = _space(num_vars, max_order)
        if not 0 <= index < num_vars:
            raise ValueError(
                f"variable index {index} out of range for {num_vars} variables"
            )
        jet = cls.constant(value, num_vars, max_order)
        jet.coeffs[sp.unit[index]] = 1.0
        return jet

    @classmethod
    def constant(cls, value, num_vars, max_order):
        """Jet of a constant: floats, or objects such as tape nodes."""
        sp = _space(num_vars, max_order)
        value = np.asarray(value)
        coeffs = np.zeros((sp.ncoeff,) + value.shape, object if value.dtype.hasobject else float)
        coeffs[:1] = value  # a 0-d object array gives its element
        return cls(sp, coeffs)

    # ------------------------------------------------------------------
    # introspection

    @property
    def num_vars(self):
        return self._space.num_vars

    @property
    def max_order(self):
        return self._space.max_order

    @property
    def value(self):
        """Constant term (the value of the quantity at the point)."""
        v = self.coeffs[0]
        return float(v) if v.ndim == 0 else v

    def coefficient(self, mu):
        """Raw Taylor coefficient of the monomial ``mu``."""
        mu = tuple(int(m) for m in mu)
        idx = self._space.index.get(mu)
        if idx is None:
            raise ValueError(
                f"multi-index {mu} not representable in a jet of "
                f"{self.num_vars} variables at order {self.max_order}"
            )
        v = self.coeffs[idx]
        return float(v) if v.ndim == 0 else v

    def extract(self, mu):
        """Partial derivative for the multi-index ``mu`` (factorials applied)."""
        return self.coefficient(mu) * _factorial_of(mu)

    # ------------------------------------------------------------------
    # ring operations

    def _check_compatible(self, other):
        if other._space is not self._space:
            raise ValueError(
                f"incompatible jets: ({self.num_vars} vars, order "
                f"{self.max_order}) vs ({other.num_vars} vars, order "
                f"{other.max_order}); truncate explicitly to mix orders"
            )

    def __add__(self, other):
        return _added(self, other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self._space, -self.coeffs)

    def __sub__(self, other):
        return _added(self, other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        sp = self._space
        if not isinstance(other, Jet):
            return Jet(sp, self.coeffs * other)
        if other._space is not sp:
            self._check_compatible(other)
        return Jet(sp, sp.product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self._space, self.coeffs / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # ------------------------------------------------------------------
    # calculus

    def derivative(self, index):
        """Jet of the partial derivative; truncation order drops by one."""
        if self.max_order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        if not 0 <= index < self.num_vars:
            raise ValueError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )
        sp = self._space
        target = _space(sp.num_vars, sp.max_order - 1)
        fac = sp._d_fac[index].reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(target, self.coeffs[sp._d_src[index]] * fac)

    def truncated(self, max_order):
        """Copy of this jet truncated to a lower order."""
        if not 0 <= max_order <= self.max_order:
            raise ValueError(
                f"cannot truncate an order-{self.max_order} jet to order {max_order}"
            )
        target = _space(self.num_vars, max_order)
        return Jet(target, self.coeffs[: target.ncoeff].copy())

    # ------------------------------------------------------------------
    # analytic functions

    def _compose(self, series):
        """Evaluate sum_k series[k] * (self - c0)^k by degree-graded Horner.

        ``delta = self - c0`` has a zero constant term, so while ``s``
        products with ``delta`` are still to come, only the degrees up to
        ``max_order - s`` of the running result reach the output.  The
        first step scales ``delta`` by ``series[-1]`` on degrees up to 1
        (the product with a constant jet adds only exact zeros); step ``q``
        then multiplies by ``delta`` in the order-``q`` space, the result
        so far holding degrees below ``q`` (:meth:`_JetSpace.product` with
        ``graded``).  The graded enumeration makes that space a prefix of
        this one, with the same pairs per coefficient, the same sort order
        and the same summation schedule, so each coefficient kept is the
        full product's: an order-4 compose in 3 variables gathers
        28 + 84 + 210 pair rows, where full-order steps gather 3 x 210.
        Each constant goes into the product just made, which nothing else
        holds.
        """
        sp = self._space
        delta = self.coeffs.copy()
        if len(series) == 1:  # order 0
            delta[0] = series[0]
            return Jet(sp, delta)
        delta[0] = 0.0
        result = delta[: 1 + sp.num_vars] * series[-1]
        result[0] += series[-2]
        for q, ck in enumerate(series[-3::-1], 2):
            step = _space(sp.num_vars, q)
            result = step.product(result, delta[: step.ncoeff], graded=True)
            result[0] += ck
        return Jet(sp, result)

    def power(self, p):
        """Composition with ``z -> z**p``, exact to the truncation order.

        Non-negative integer powers are formed by repeated multiplication and
        need no domain restriction.  Otherwise, non-integer ``p`` requires a
        positive constant term and negative integer ``p`` a nonzero one.
        """
        p = float(p)
        if p.is_integer() and p >= 0:
            n = int(p)
            result = Jet.constant(
                np.ones(self.coeffs.shape[1:]), self.num_vars, self.max_order
            )
            base = self
            while n:
                if n & 1:
                    result = result * base
                n >>= 1
                if n:
                    base = base * base
            return result
        c0 = self.coeffs[0]
        if p.is_integer():
            if np.any(c0 == 0.0):
                raise DomainError(
                    "negative integer power of a jet with zero constant term",
                    value=0.0,
                )
        elif np.any(c0 <= 0.0):
            raise DomainError(
                f"power {p} of a jet requires a positive constant term, "
                f"got {float(np.min(c0))}",
                value=float(np.min(c0)),
            )
        e = int(p) if p.is_integer() else p
        series = []
        binom = 1.0
        for k in range(self.max_order + 1):
            series.append(binom * c0 ** (e - k))
            binom *= (p - k) / (k + 1.0)
        return self._compose(series)

    def sqrt(self):
        """Square root, ``power(0.5)``: the constant term must be positive."""
        return self.power(0.5)

    def reciprocal(self):
        """Multiplicative inverse, ``power(-1)``: the constant term must be
        nonzero."""
        return self.power(-1.0)

    # ------------------------------------------------------------------

    def __repr__(self):
        batch = self.coeffs.shape[1:]
        tag = f", batch={batch}" if batch else ""
        return (
            f"Jet(num_vars={self.num_vars}, max_order={self.max_order}, "
            f"value={self.value!r}{tag})"
        )
