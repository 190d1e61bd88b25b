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
operands, so they are safe to share between threads.  The writes are
private: ``_compose`` adds each Horner constant to the constant term of the
product it has just made, a fresh array no caller has seen, a shifted
product (below) adds into the array it has just made, and a batched
product gathers its operands into scratch buffers that belong to one space
and one thread (``threading.local``) and never leave the product.

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

This is the order of ``np.add.reduceat`` (NumPy's pairwise summation, see
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 4.2).
Scalar jets call ``reduceat``; batched jets run the same order as a fixed
schedule vectorised across lanes, because ``reduceat`` along the pair axis
makes one strided call per output coefficient and lane.

Structural zeros
----------------
Two kinds of pair product have a factor that is zero by construction, and
neither is formed (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13, on Taylor arithmetic):

* Horner steps in compositions.  ``delta = self - c0`` has a zero
  constant term, so while ``s`` products with ``delta`` are still to come,
  the degrees of the running result above ``max_order - s`` never reach
  the output.  Each step multiplies in the lowest space that still holds
  what matters (:meth:`Jet._compose`).
* Batched products with a coordinate jet.  A jet from
  :meth:`Jet.variable`, or one scaled by finite numbers per lane, is zero
  but for its constant term and its variable's unit position ``e``, so its
  product with ``b`` is ``c_k = lin[0] * b[k] + lin[e] * b[k - e]``
  (``_JetSpace.shifted``), whichever side it is on.  Only that scaling
  keeps the mark; every other operation drops it.  On one lane the dense
  product, a single ``reduceat``, costs less than the shifted one's
  indexing, so single-lane jets multiply densely.

The bits of every nonzero coefficient are the dense product's.  A skipped
product is ``0 * finite``, a zero, and adding a zero to a nonzero partial
sum leaves it as it is, so what remains is the same nonzero products
summed in the same order with the same roundings; IEEE ``+`` and ``*``
commute, so the side a coordinate jet is on does not matter.  Two things
can differ: the sign of a coefficient that is zero, because the skipped
zeros took part in its sum, and a NaN the dense product makes from a
structural zero and an infinite coefficient.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_VARS = 4
MAX_ORDER = 4

# A space keeps a thread's gather buffers only while each holds at most this
# many coefficients (4 MiB of doubles); wider products allocate their own.
_SCRATCH_LIMIT = 1 << 19

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
        "_mul_i", "_mul_lo_i", "_mul_j", "_mul_starts", "_sched_i", "_sched_lo_i",
        "_sched_j", "_n_long", "_n_sum", "_chain", "_unsort", "_d_src", "_d_fac",
        "unit", "_scratch",
    )

    def __init__(self, num_vars, max_order):
        self.num_vars = num_vars
        self.max_order = max_order
        self.monomials = _monomials(num_vars, max_order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoeff = len(self.monomials)
        # Position of each variable's first-order coefficient (None at order
        # 0).  It is a first derivative's value: derivative() multiplies it
        # by 1.  The graded order puts x0 last, so it is not 1 + var.
        self.unit = tuple(
            self.index.get(tuple(int(k == var) for k in range(num_vars)))
            for var in range(num_vars)
        )

        # Truncated Cauchy product: all (i, j) with deg_i + deg_j <= max_order,
        # sorted, hence grouped by the output index: a scalar product is one
        # gather + one reduceat, which sums each group in the order of the
        # module docstring.
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
        # A graded product's left operand stops one order short (_compose):
        # its missing top-degree entries pair only with b[0], and these
        # indices read a[0] there.  Not its last entry, as "clip" would:
        # that one can be infinite where a[0] is not, and inf * 0 is NaN.
        small = _monomials(num_vars, max_order - 1)
        self._mul_lo_i = np.where(self._mul_i < len(small), self._mul_i, 0)
        # Every output index occurs at least once (pair with the constant
        # monomial), so these reduceat segments are never empty.
        self._mul_starts = np.searchsorted(mul_k, np.arange(self.ncoeff))
        self._build_schedule(len(pairs))
        self._scratch = threading.local()

        # Partial-derivative tables, target order max_order - 1.  The target
        # monomials are exactly the prefix of this space's graded enumeration.
        self._d_src = []
        self._d_fac = []
        if max_order >= 1:
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

    def _build_schedule(self, npairs):
        """Gather order and steps that sum batched products like reduceat.

        An output is short if ``1 <= m < 8`` and long if ``8 <= m < 16``.
        ``S`` (module docstring) is one block of rows, one per output with
        ``m >= 1``: the short outputs by ascending ``m``, each row starting
        as its ``q0``, then the long ones by descending ``m``, each row
        starting as its 8-term tree.  Chain step ``c`` adds ``q(c)`` to the
        short rows and ``q(c+7)`` to the long rows that still have terms;
        those are a suffix of the short rows and a prefix of the long ones,
        so each step is one contiguous slice of ``S`` plus one contiguous
        block of products.  Products are gathered in the order they are
        consumed:

        * ``p0`` of every output, in ``S`` order, then the ``m = 0`` outputs;
        * ``q0`` of the short outputs, then the trees' terms as an
          ``(8, n_long)`` block whose first axis runs ``q0 q4 q2 q6 q1 q5
          q3 q7``: adding its second half to its first, three times over,
          sums them as NumPy does and leaves the trees in the rows that
          follow the short ``q0``;
        * the chain blocks.
        """
        starts = self._mul_starts.tolist()
        m = [end - start - 1 for start, end in zip(starts, starts[1:] + [npairs])]
        # 4 variables at order 4 peak at m = 15 (x0 x1 x2 x3).  From m = 16
        # on, NumPy's 8 accumulators take a second term each, which this
        # schedule does not do.
        assert max(m) < 16, "summation schedule covers m < 16 only"
        outs = range(self.ncoeff)
        short = sorted((k for k in outs if 1 <= m[k] < 8), key=lambda k: m[k])
        long_ = sorted((k for k in outs if m[k] >= 8), key=lambda k: -m[k])
        order = short + long_ + [k for k in outs if m[k] == 0]
        rows = [starts[k] for k in order] + [starts[k] + 1 for k in short]
        rows += [starts[k] + 1 + q for q in (0, 4, 2, 6, 1, 5, 3, 7) for k in long_]
        chain = []
        for c in range(1, 8):
            tail = [starts[k] + 1 + c for k in short if m[k] > c]
            head = [starts[k] + 8 + c for k in long_ if m[k] > c + 7]
            if tail or head:
                lo, hi = len(short) - len(tail), len(short) + len(head)
                chain.append((lo, hi, len(rows)))
                rows += tail + head
        assert sorted(rows) == list(range(npairs))
        self._sched_i = self._mul_i[rows]
        self._sched_lo_i = self._mul_lo_i[rows]
        self._sched_j = self._mul_j[rows]
        self._n_long, self._n_sum = len(long_), len(short) + len(long_)
        self._chain = tuple(chain)
        unsort = [0] * self.ncoeff
        for position, k in enumerate(order):
            unsort[k] = position
        self._unsort = np.array(unsort, dtype=np.intp)

    def product(self, a, b, graded=False):
        """Coefficients of the truncated product of coefficient arrays.

        With ``graded``, ``a`` holds only the degrees below this space's
        order and ``b[0]`` is zero: a pair that would read a missing
        top-degree entry of ``a`` meets ``b[0]``, so it reads ``a[0]``
        instead and its product is a zero either way.
        """
        mul_i = self._mul_lo_i if graded else self._mul_i
        # Both sum in the same order.  On one lane reduceat's single call
        # beats the schedule's fifteen; across lanes it makes one strided
        # call per coefficient and lane.
        if a.ndim == 1 and b.ndim == 1:
            prod = a[mul_i] * b[self._mul_j]
            return np.add.reduceat(prod, self._mul_starts, axis=0)
        sched_i = self._sched_lo_i if graded else self._sched_i
        if a.shape[1:] == b.shape[1:] and a.dtype == b.dtype:
            prod = self.gathered_products(a, b, sched_i)
        else:  # broadcast batches
            prod = np.take(a, sched_i, axis=0) * np.take(b, self._sched_j, axis=0)
        return self.scheduled_sum(prod)

    def gathered_products(self, a, b, sched_i):
        """Pair products of batched coefficients of one batch shape and
        dtype, ``a`` read through ``sched_i``, in schedule order, in this
        thread's reused buffers for this space.

        Fresh 210 x 256 temporaries would be mapped and unmapped by glibc
        on every product.  A thread keeps one pair per space, of at most
        ``_SCRATCH_LIMIT`` coefficients each, so at most 8 MiB per space.
        The indices are valid, so ``"clip"`` changes no value; it spares
        ``take`` the copy of ``out`` it makes under ``"raise"``.
        """
        shape = (sched_i.size,) + a.shape[1:]
        pa, pb = getattr(self._scratch, "pair", (None, None))
        if pa is None or pa.shape != shape or pa.dtype != a.dtype:
            pa, pb = np.empty(shape, a.dtype), np.empty(shape, a.dtype)
            if pa.size <= _SCRATCH_LIMIT:
                self._scratch.pair = pa, pb
        a.take(sched_i, 0, pa, "clip")
        b.take(self._sched_j, 0, pb, "clip")
        return np.multiply(pa, pb, out=pa)

    def shifted(self, lin, var, b):
        """Coefficients of the product of ``lin``, zero off its constant
        term and the unit position ``e`` of variable ``var``, with ``b``.

        ``c_k = lin[0] * b[k] + lin[e] * b[k - e]``, where ``b[k - e]`` is
        there when monomial ``k`` contains ``var``: the dense product's
        other pairs are exact zeros (module docstring).
        """
        up = self._d_src[var]
        out = lin[0] * b
        out[up] += lin[self.unit[var]] * b[: up.size]
        return out

    def scheduled_sum(self, prod):
        """Coefficients from products gathered in schedule order.

        Sums in the order of the module docstring, bit for bit equal to
        ``np.add.reduceat`` over the same products in pair order.  Works in
        place in ``prod``, which no caller may hold; the coefficients are a
        fresh array.
        """
        n_sum = self._n_sum
        S = prod[self.ncoeff : self.ncoeff + n_sum]
        if self._n_long:
            top = self.ncoeff + n_sum - self._n_long
            tree = prod[top : top + 8 * self._n_long]
            for h in (4, 2, 1):
                half = h * self._n_long
                np.add(tree[:half], tree[half : 2 * half], out=tree[:half])
        for lo, hi, row in self._chain:
            np.add(S[lo:hi], prod[row : row + hi - lo], out=S[lo:hi])
        np.add(prod[:n_sum], S, out=prod[:n_sum])
        return np.take(prod, self._unsort, axis=0)


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

    __slots__ = ("_space", "coeffs", "_var")

    def __init__(self, space, coeffs, var=None):
        self._space = space
        self.coeffs = coeffs
        # Index of the variable when this is a (scaled) coordinate jet, zero
        # but for its constant term and that variable's unit position.
        self._var = var

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
        return cls(sp, coeffs, index)

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
            if other._space is not self._space:
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
            if other._space is not self._space:
                self._check_compatible(other)
            return Jet(self._space, self.coeffs - other.coeffs)
        out = self.coeffs.copy()
        out[0] = out[0] - other
        return Jet(self._space, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # Finite values per lane keep a coordinate jet's zeros zero; a
            # coefficient-shaped factor or an infinity need not.
            var = self._var
            if var is not None and not (
                math.isfinite(other) if isinstance(other, float)
                else np.ndim(other) < self.coeffs.ndim and np.isfinite(other).all()
            ):
                var = None
            return Jet(self._space, self.coeffs * other, var)
        sp = self._space
        if other._space is not sp:
            self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        # On one lane the dense product's single reduceat is cheaper than
        # the shifted product's indexing; the nonzero bits are the same.
        if a.ndim > 1 or b.ndim > 1:
            if self._var is not None:
                return Jet(sp, sp.shifted(a, self._var, b))
            if other._var is not None:
                return Jet(sp, sp.shifted(b, other._var, a))
        return Jet(sp, sp.product(a, b))

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
        full product's.  An order-4 compose in 3 variables gathers
        28 + 84 + 210 pair rows, not 3 x 210.  Each constant goes into the
        product just made, which nothing else holds.
        """
        if len(series) == 1:
            return Jet.constant(
                np.broadcast_to(series[0], self.coeffs.shape[1:]),
                self.num_vars, self.max_order,
            )
        sp = self._space
        delta = self.coeffs.copy()
        delta[0] = 0.0
        result = delta[: 1 + sp.num_vars] * series[-1]
        result[0] += series[-2]
        for q, ck in enumerate(series[-3::-1], 2):
            step = _space(sp.num_vars, q)
            result = step.product(result, delta[: step.ncoeff], graded=True)
            result[0] += ck
        return Jet(sp, result)

    def _power_series(self, p):
        """``self**p`` for ``p`` not a non-negative integer, once the
        caller has checked the constant term."""
        c0 = self.coeffs[0]
        if p.is_integer():
            exps = [int(p) - k for k in range(self.max_order + 1)]
        else:
            exps = [p - k for k in range(self.max_order + 1)]
        series = []
        binom = 1.0
        for k, e in enumerate(exps):
            series.append(binom * c0**e)
            binom *= (p - k) / (k + 1.0)
        return self._compose(series)

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
            if (c0 == 0.0).any():
                raise DomainError(
                    "negative integer power of a jet with zero constant term",
                    value=0.0,
                )
        elif (c0 <= 0.0).any():
            raise DomainError(
                f"power {p} of a jet requires a positive constant term, "
                f"got {float(np.min(c0))}",
                value=float(np.min(c0)),
            )
        return self._power_series(p)

    def sqrt(self):
        """Square root; the constant term must be strictly positive."""
        c0 = self.coeffs[0]
        if (c0 <= 0.0).any():
            raise DomainError(
                f"sqrt of a jet requires a positive constant term, got "
                f"{float(np.min(c0))}",
                value=float(np.min(c0)),
            )
        return self._power_series(0.5)

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        if (self.coeffs[0] == 0.0).any():
            raise DomainError(
                "reciprocal of a jet with zero constant term", value=0.0
            )
        return self._power_series(-1.0)

    # ------------------------------------------------------------------

    def __repr__(self):
        batch = self.coeffs.shape[1:]
        tag = f", batch={batch}" if batch else ""
        return (
            f"Jet(num_vars={self.num_vars}, max_order={self.max_order}, "
            f"value={self.value!r}{tag})"
        )
