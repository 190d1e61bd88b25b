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
their operands, so they are safe to share between threads.  The writes are
private: ``_compose`` adds each Horner constant to the constant term of the
product it has just made, a fresh array no caller has seen, and a batched
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
Single-lane jets call ``reduceat``; batched jets run the same order as a
fixed schedule vectorised across lanes, because ``reduceat`` along the pair
axis makes one strided call per output coefficient and lane.

Sparsity masks
--------------
Every jet carries a static sparsity mask, an int whose bit ``k`` is set if
coefficient ``k`` can be nonzero (sparsity patterns, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 7, applied to the Taylor arithmetic
of ch. 13):

* :meth:`Jet.variable` is ``{0, e}``, ``e`` its unit position, and
  :meth:`Jet.constant` is ``{0}``.  A jet made from raw coefficients has
  the full mask, and so has every single-lane jet: its products are one
  dense ``reduceat``, cheaper on one lane than any indexing.
* ``+`` and ``-`` between jets OR the masks; adding a number sets bit 0.
* Negation, and scaling by a finite number or by finite values per lane,
  keep the mask.  Any other factor (nonfinite, or shaped like the
  coefficients) and division by a number give the full mask.
* :meth:`Jet.derivative` maps the mask through the derivative's source
  table; :meth:`Jet.truncated` keeps its low bits.
* A product's mask holds the outputs with a pair whose two factors are
  both in their masks.  Compositions multiply by ``delta = self - c0``,
  whose mask is the operand's without bit 0.

A batched product gathers and sums only the pairs that can be nonzero, by a
table built once per pair of masks (:meth:`_JetSpace.table`), by one rule:

* An output with a pair that can be nonzero keeps its ``p0``.  A short
  output (``m < 8``), and the tail ``q8 ...`` of a long one, drop the ``q``
  that cannot be nonzero.  Dropping an exact zero from a left fold changes
  no rounding: ``s + 0`` is ``s``.  A long output keeps its whole 8-term
  tree.
* An output with no pair that can be nonzero has no row of its own: all
  such outputs read one shared product that cannot be nonzero.
* Compositions use degree-graded Horner on top: while ``s`` products with
  ``delta`` are still to come, the degrees of the running result above
  ``max_order - s`` never reach the output, so each step multiplies in the
  lowest space that still holds what matters (:meth:`Jet._compose`).

So every nonzero coefficient has the dense product's bits: what remains is
the same nonzero products summed in the same order with the same
roundings.  Two things can differ: the sign of a coefficient that is zero,
because the skipped zeros took part in its sum, and a NaN from a structural
zero times an infinite coefficient, because the dense product meets the
pairs the table skips and an output outside the mask reads the shared
product, not its own pairs.  Outside its mask a jet's coefficients are
exactly zero on every lane where all of them are finite, and zero or NaN on
the others.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

MAX_VARS = 4
MAX_ORDER = 4

# A space keeps a thread's gather buffers only while each holds at most this
# many coefficients (4 MiB of doubles); wider products allocate their own.
_SCRATCH_LIMIT = 1 << 19
# Product tables and derivative masks kept, over all spaces; the kernel's
# expressions use a few dozen.
_CACHE_LIMIT = 4096

__all__ = ["Jet", "MAX_VARS", "MAX_ORDER"]


def _monomials(num_vars, max_order):
    out = []
    for total in range(max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=num_vars):
            if sum(combo) == total:
                out.append(combo)
    return tuple(out)


def _aligned(a, b):
    """Coefficient arrays with their batch axes lined up: the one with
    fewer gains leading unit batch axes, so a single-lane jet broadcasts
    against any batch, as a ``(1,)`` batch does."""
    if a.ndim < b.ndim:
        a = a.reshape(a.shape[:1] + (1,) * (b.ndim - a.ndim) + a.shape[1:])
    elif b.ndim < a.ndim:
        b = b.reshape(b.shape[:1] + (1,) * (a.ndim - b.ndim) + b.shape[1:])
    return a, b


class _Table(NamedTuple):
    """Gather indices and summation steps of one batched product.

    ``i`` and ``j`` index the two operands' coefficients, one row per pair
    product in the order the steps consume them.  Step ``(lo, hi, src)``
    adds the rows from ``src`` on to rows ``lo ... hi - 1``, ``unsort``
    picks each output's row after the last step, and ``mask`` is the
    product's sparsity mask.
    """

    i: np.ndarray
    j: np.ndarray
    steps: tuple
    unsort: np.ndarray
    mask: int


class _JetSpace:
    """Precomputed index tables for one (num_vars, max_order) algebra."""

    __slots__ = (
        "num_vars", "max_order", "monomials", "index", "ncoeff", "full", "unit",
        "_mul_i", "_mul_lo_i", "_mul_j", "_mul_starts", "_d_src", "_d_fac",
        "_scratch",
    )

    def __init__(self, num_vars, max_order):
        self.num_vars = num_vars
        self.max_order = max_order
        self.monomials = _monomials(num_vars, max_order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ncoeff = len(self.monomials)
        self.full = (1 << self.ncoeff) - 1
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

    # Spaces live as long as the process (_space), so caching methods keeps
    # nothing alive that would otherwise go.
    @lru_cache(maxsize=_CACHE_LIMIT)
    def table(self, ma, mb, graded=False):
        """The :class:`_Table` of batched products of coefficients with
        masks ``ma`` and ``mb``: gather order and steps that sum the pairs
        that can be nonzero as ``reduceat`` sums them all.

        An output with a pair that can be nonzero keeps ``p0`` and sums its
        ``S`` (module docstring) from its ``q`` that can be nonzero if it is
        short, and from its whole ``q0 ... q7`` tree and its tail terms that
        can be nonzero if it is long.  Every other output reads one shared
        product that cannot be nonzero.  Products are gathered in the order
        they are consumed:

        * ``p0`` of the outputs with an ``S``, the short ones by ascending
          term count and the long ones by descending tail length, then of
          the outputs whose ``S`` is empty, then the shared product;
        * ``S``: the first term of the short outputs, then the trees' terms
          as an ``(8, n)`` block, ``n`` long outputs, whose first axis runs
          ``q0 q4 q2 q6 q1 q5 q3 q7``: adding its second half to its first,
          three times over, sums them as NumPy does and leaves the trees in
          the rows that follow the short first terms;
        * one block per fold step, which adds the next term to the rows of
          ``S`` that still have one: a suffix of the short rows and a
          prefix of the long ones, so one contiguous slice.

        The tree's three halvings, the fold blocks and a last addition of
        ``S`` to its outputs' ``p0`` are the table's steps, in that order.
        With full masks this is the dense schedule.  With ``graded``, ``a``
        holds only the degrees below this space's order (:meth:`product`).
        """
        mul_i, mul_j = self._mul_i.tolist(), self._mul_j.tolist()
        live = [ma >> i & 1 and mb >> j & 1 for i, j in zip(mul_i, mul_j)]
        starts = self._mul_starts.tolist()
        spans = list(zip(starts, starts[1:] + [len(live)]))
        # 4 variables at order 4 peak at m = 15 (x0 x1 x2 x3).  From m = 16
        # on, NumPy's 8 accumulators take a second term each, which this
        # schedule does not do.
        assert max(end - start for start, end in spans) <= 16, \
            "summation schedule covers m < 16 only"
        short, long_, alone, terms = [], [], [], {}
        for k, (start, end) in enumerate(spans):
            if any(live[start:end]):
                tree = end - start > 8  # m >= 8
                terms[k] = [p for p in range(start + (9 if tree else 1), end) if live[p]]
                (long_ if tree else short if terms[k] else alone).append(k)
        short.sort(key=lambda k: len(terms[k]))
        long_.sort(key=lambda k: -len(terms[k]))
        order = short + long_ + alone
        dead = [starts[k] for k in range(self.ncoeff) if k not in terms][:1]

        rows = [starts[k] for k in order] + dead
        top, n = len(rows), len(long_)
        rows += [terms[k][0] for k in short]
        rows += [starts[k] + 1 + q for q in (0, 4, 2, 6, 1, 5, 3, 7) for k in long_]
        trees = top + len(short)
        steps = [(trees, trees + h * n, trees + h * n) for h in (4, 2, 1) if n]
        # What each row of S still adds, one term per fold step.
        rest = [terms[k][1:] for k in short] + [terms[k] for k in long_]
        for c in itertools.count():
            add = [s for s, more in enumerate(rest) if len(more) > c]
            if not add:
                break
            steps.append((top + add[0], top + add[-1] + 1, len(rows)))
            rows += [rest[s][c] for s in add]
        if rest:
            steps.append((0, len(rest), top))
        assert len(set(rows)) == len(rows) >= sum(live)
        unsort = [len(order)] * self.ncoeff
        for position, k in enumerate(order):
            unsort[k] = position
        return _Table(
            i=(self._mul_lo_i if graded else self._mul_i)[rows],
            j=self._mul_j[rows],
            steps=tuple(steps),
            unsort=np.array(unsort, dtype=np.intp),
            mask=sum(1 << k for k in terms),
        )

    @lru_cache(maxsize=_CACHE_LIMIT)
    def derived_mask(self, var, mask):
        """Mask of the derivative in ``var`` of coefficients with ``mask``."""
        src = self._d_src[var].tolist()
        return sum(1 << s for s, k in enumerate(src) if mask >> k & 1)

    def product(self, a, b, ma, mb, graded=False):
        """Coefficients and mask of the truncated product of coefficient
        arrays with masks ``ma`` and ``mb``.

        Single-lane arrays take every pair, summed by one ``reduceat``, and
        give the full mask.  Batched ones gather and sum only the pairs that
        can be nonzero (:meth:`table`), in the same order.  With ``graded``,
        ``a`` holds only the degrees below this space's order and ``b[0]``
        is zero: a pair that would read a missing top-degree entry of ``a``
        meets ``b[0]``, so it reads ``a[0]`` instead and its product is a
        zero either way.
        """
        # On one lane reduceat's single call beats any indexing and the
        # schedule's steps; across lanes it makes one strided call per
        # coefficient and lane.
        if a.ndim == 1 and b.ndim == 1:
            prod = a[self._mul_lo_i if graded else self._mul_i] * b[self._mul_j]
            return np.add.reduceat(prod, self._mul_starts, axis=0), self.full
        table = self.table(ma, mb, graded)
        if a.shape[1:] == b.shape[1:] and a.dtype == b.dtype:
            prod = self.gathered_products(a, b, table)
        else:  # broadcast batches
            a, b = _aligned(a, b)
            prod = np.take(a, table.i, axis=0) * np.take(b, table.j, axis=0)
        return self.scheduled_sum(prod, table), table.mask

    def gathered_products(self, a, b, table):
        """Pair products of batched coefficients of one batch shape and
        dtype, as ``table`` orders them, in a prefix of this thread's
        reused buffers for this space.

        Fresh 210 x 256 temporaries would be mapped and unmapped by glibc
        on every product.  A thread keeps one pair per space, sized for the
        dense product and of at most ``_SCRATCH_LIMIT`` coefficients each,
        so at most 8 MiB per space; sparser products use a prefix of it.
        The indices are valid, so ``"clip"`` changes no value; it spares
        ``take`` the copy of ``out`` it makes under ``"raise"``.
        """
        rows = table.i.size
        dense = (self._mul_j.size,) + a.shape[1:]
        pa, pb = getattr(self._scratch, "pair", (None, None))
        if pa is None or pa.shape != dense or pa.dtype != a.dtype:
            if math.prod(dense) <= _SCRATCH_LIMIT:
                pa, pb = np.empty(dense, a.dtype), np.empty(dense, a.dtype)
                self._scratch.pair = pa, pb
            else:
                shape = (rows,) + a.shape[1:]
                pa, pb = np.empty(shape, a.dtype), np.empty(shape, a.dtype)
        pa, pb = pa[:rows], pb[:rows]
        a.take(table.i, 0, pa, "clip")
        b.take(table.j, 0, pb, "clip")
        return np.multiply(pa, pb, out=pa)

    def scheduled_sum(self, prod, table):
        """Coefficients from products gathered in ``table``'s order.

        Sums in the order of the module docstring, bit for bit equal to
        ``np.add.reduceat`` over the same products in pair order.  Works in
        place in ``prod``, which no caller may hold; the coefficients are a
        fresh array.
        """
        for lo, hi, src in table.steps:
            np.add(prod[lo:hi], prod[src : src + hi - lo], out=prod[lo:hi])
        return np.take(prod, table.unsort, axis=0)


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
        return Jet(jet._space, op(a, b), jet.mask | other.mask)
    out = jet.coeffs.copy()
    out[0] = op(out[0], other)
    return Jet(jet._space, out, jet.mask | 1)


class Jet:
    """Truncated Taylor expansion of a scalar quantity at a point.

    ``mask`` is its sparsity mask: bit ``k`` is set if coefficient ``k``
    can be nonzero (module docstring).  ``None`` at construction stands for
    the full mask.
    """

    __slots__ = ("_space", "coeffs", "mask")

    def __init__(self, space, coeffs, mask=None):
        self._space = space
        self.coeffs = coeffs
        self.mask = space.full if mask is None else mask

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
        e = sp.unit[index]
        coeffs[e] = 1.0
        return cls(sp, coeffs, 1 | 1 << e if value.ndim else None)

    @classmethod
    def constant(cls, value, num_vars, max_order):
        sp = _space(num_vars, max_order)
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((sp.ncoeff,) + value.shape)
        coeffs[0] = value
        return cls(sp, coeffs, 1 if value.ndim else None)

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
        return Jet(self._space, -self.coeffs, self.mask)

    def __sub__(self, other):
        return _added(self, other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        sp = self._space
        if not isinstance(other, Jet):
            # Finite values per lane keep zero coefficients zero; a
            # coefficient-shaped factor or an infinity need not.
            mask = self.mask
            if mask != sp.full and not (
                math.isfinite(other) if isinstance(other, float)
                else np.ndim(other) < self.coeffs.ndim and np.isfinite(other).all()
            ):
                mask = None
            return Jet(sp, self.coeffs * other, mask)
        if other._space is not sp:
            self._check_compatible(other)
        return Jet(sp, *sp.product(self.coeffs, other.coeffs, self.mask, other.mask))

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
        mask = None if self.mask == sp.full else sp.derived_mask(index, self.mask)
        return Jet(target, self.coeffs[sp._d_src[index]] * fac, mask)

    def truncated(self, max_order):
        """Copy of this jet truncated to a lower order."""
        if not 0 <= max_order <= self.max_order:
            raise ValueError(
                f"cannot truncate an order-{self.max_order} jet to order {max_order}"
            )
        target = _space(self.num_vars, max_order)
        return Jet(target, self.coeffs[: target.ncoeff].copy(), self.mask & target.full)

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
        full product's.  The steps run on ``delta``'s mask, the operand's
        without bit 0, so a batched step also skips every pair with
        ``delta[0]`` and every pair with a coefficient the operand cannot
        have: an order-4 compose of a full jet in 3 variables gathers
        19 + 65 + 179 pair rows, where unmasked graded steps gather
        28 + 84 + 210 and dense ones 3 x 210.
        Each constant goes into the product just made, which nothing else
        holds.
        """
        if len(series) == 1:
            return Jet.constant(
                np.broadcast_to(series[0], self.coeffs.shape[1:]),
                self.num_vars, self.max_order,
            )
        sp = self._space
        delta = self.coeffs.copy()
        delta[0] = 0.0
        dmask = self.mask & ~1
        result = delta[: 1 + sp.num_vars] * series[-1]
        result[0] += series[-2]
        mask = dmask & ((2 << sp.num_vars) - 1) | 1
        for q, ck in enumerate(series[-3::-1], 2):
            step = _space(sp.num_vars, q)
            result, mask = step.product(result, delta[: step.ncoeff], mask,
                                        dmask & step.full, graded=True)
            result[0] += ck
            mask |= 1
        return Jet(sp, result, mask)

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
