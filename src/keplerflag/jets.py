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
which case every operation acts elementwise across the batch.  Jets are
immutable values: operations return fresh jets and never write to their
operands, so they are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_VARS = 4
MAX_ORDER = 4

__all__ = ["Jet", "MAX_VARS", "MAX_ORDER"]


def _monomials(num_vars, max_order):
    out = []
    for total in range(max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=num_vars):
            if sum(combo) == total:
                out.append(combo)
    return tuple(out)


class _JetSpace:
    """Precomputed index tables for one (num_vars, max_order) algebra."""

    __slots__ = (
        "num_vars", "max_order", "monomials", "index", "ncoeff",
        "_mul_i", "_mul_j", "_mul_starts", "_d_src", "_d_fac",
    )

    def __init__(self, num_vars, max_order):
        self.num_vars = num_vars
        self.max_order = max_order
        self.monomials = _monomials(num_vars, max_order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoeff = len(self.monomials)

        # Truncated Cauchy product: all (i, j) with deg_i + deg_j <= max_order,
        # grouped by the output index so a product is one gather + one reduceat.
        pairs = []
        degrees = [sum(m) for m in self.monomials]
        for i, mi in enumerate(self.monomials):
            for j, mj in enumerate(self.monomials):
                if degrees[i] + degrees[j] <= max_order:
                    k = self.index[tuple(a + b for a, b in zip(mi, mj))]
                    pairs.append((k, i, j))
        pairs.sort()
        mul_k = np.array([p[0] for p in pairs], dtype=np.intp)
        self._mul_i = np.array([p[1] for p in pairs], dtype=np.intp)
        self._mul_j = np.array([p[2] for p in pairs], dtype=np.intp)
        # Every output index occurs at least once (pair with the constant
        # monomial), so these reduceat segments are never empty.
        self._mul_starts = np.searchsorted(mul_k, np.arange(self.ncoeff))

        # Partial-derivative tables, target order max_order - 1.  The target
        # monomials are exactly the prefix of this space's graded enumeration.
        self._d_src = []
        self._d_fac = []
        if max_order >= 1:
            small = _monomials(num_vars, max_order - 1)
            for var in range(num_vars):
                src = np.empty(len(small), dtype=np.intp)
                fac = np.empty(len(small))
                for s, mu in enumerate(small):
                    shifted = tuple(
                        m + 1 if k == var else m for k, m in enumerate(mu)
                    )
                    src[s] = self.index[shifted]
                    fac[s] = mu[var] + 1
                self._d_src.append(src)
                self._d_fac.append(fac)


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


class Jet:
    """Truncated Taylor expansion of a scalar quantity at a point."""

    __slots__ = ("_space", "coeffs")

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
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((sp.ncoeff,) + value.shape)
        coeffs[0] = value
        unit = tuple(1 if k == index else 0 for k in range(num_vars))
        coeffs[sp.index[unit]] = 1.0
        return cls(sp, coeffs)

    @classmethod
    def constant(cls, value, num_vars, max_order):
        sp = _space(num_vars, max_order)
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((sp.ncoeff,) + value.shape)
        coeffs[0] = value
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
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self._space, self.coeffs + other.coeffs)
        out = self.coeffs.copy()
        out[0] = out[0] + other
        return Jet(self._space, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self._space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self._space, self.coeffs - other.coeffs)
        out = self.coeffs.copy()
        out[0] = out[0] - other
        return Jet(self._space, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self._space, self.coeffs * other)
        self._check_compatible(other)
        sp = self._space
        prod = self.coeffs[sp._mul_i] * other.coeffs[sp._mul_j]
        return Jet(sp, np.add.reduceat(prod, sp._mul_starts, axis=0))

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
        """Evaluate sum_k series[k] * (self - c0)^k by Horner.

        The first step scales ``delta`` by ``series[-1]`` instead of taking
        the product of a constant jet with ``delta``: the pairs that product
        adds beyond ``series[-1] * delta[k]`` are exact zeros.
        """
        if len(series) == 1:
            return Jet.constant(
                np.broadcast_to(series[0], self.coeffs.shape[1:]),
                self.num_vars, self.max_order,
            )
        delta_coeffs = self.coeffs.copy()
        delta_coeffs[0] = 0.0
        delta = Jet(self._space, delta_coeffs)
        result = delta * series[-1] + series[-2]
        for ck in series[-3::-1]:
            result = result * delta + ck
        return result

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
            exps = [int(p) - k for k in range(self.max_order + 1)]
        else:
            if np.any(c0 <= 0.0):
                raise DomainError(
                    f"power {p} of a jet requires a positive constant term, "
                    f"got {float(np.min(c0))}",
                    value=float(np.min(c0)),
                )
            exps = [p - k for k in range(self.max_order + 1)]
        series = []
        binom = 1.0
        for k, e in enumerate(exps):
            series.append(binom * c0**e)
            binom *= (p - k) / (k + 1.0)
        return self._compose(series)

    def sqrt(self):
        """Square root; the constant term must be strictly positive."""
        c0 = self.coeffs[0]
        if np.any(c0 <= 0.0):
            raise DomainError(
                f"sqrt of a jet requires a positive constant term, got "
                f"{float(np.min(c0))}",
                value=float(np.min(c0)),
            )
        return self.power(0.5)

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if np.any(c0 == 0.0):
            raise DomainError(
                "reciprocal of a jet with zero constant term", value=0.0
            )
        return self.power(-1.0)

    # ------------------------------------------------------------------

    def __repr__(self):
        batch = self.coeffs.shape[1:]
        tag = f", batch={batch}" if batch else ""
        return (
            f"Jet(num_vars={self.num_vars}, max_order={self.max_order}, "
            f"value={self.value!r}{tag})"
        )
