"""Operation tapes: a jet computation recorded once as straight-line lane
operations, replayed over arrays and emitted as Python over floats
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed.).

:func:`record` runs a function on :class:`Node` inputs; jets made from
nodes run their own code, so each node is one float operation of the jets,
in their order.  It folds structural constants (``v * 0`` is ``0``;
``v * 1``, ``v + 0`` and ``v - 0`` are ``v``; two numbers give a number),
replays powers as ``x ** e`` on lanes, as the jets take them on arrays,
and keeps ``np.where(v <= 0, 1.0, v)`` as it stands.  A node compared with
zero, ``np.any(c0 <= 0)`` in :meth:`Jet.power`, reads as false and is a
domain check: the replay marks the lanes it fails on in a failure row and
gives them NaN, the jets' answer there, and raises nothing.  Any other use
of the comparison, such as a branch, raises TypeError: a tape holds one
path for all lanes.  A folded ``c0`` is a number, which the jets check as
they record: their DomainError fails the check on every lane.

A guard row is finite exactly on the lanes where the outputs have the
jets' bits, zero signs aside: ``v * 0`` is NaN where ``v`` is not finite,
so the row adds up each ``v`` a fold multiplied by zero, or a value it
flows into by sums, products and numerators.  The curvature kernel reads
``K`` as NaN where the guard is not finite.  Nodes that nothing reads are
dropped, and a buffer row is reused once its last reader has run.  Each
replay allocates its own buffer, so threads can share a tape.

:meth:`Tape.emit` writes the same operations as Python source and compiles
it in functions of at most :data:`PIECE` operations: one function of all
2,371 operations of the curvature kernel peaks at about 2 MB while it
compiles.  Handing a live value from one function to the next costs
roughly what an operation does, so the functions are cut where fewest
values are live.  A value that one operation reads, in the same function,
is written into that operation's expression (``s9 = s3 * s5 + s7 * s8``),
and every other value is a local; each operation still runs once, and an
expression gives the bits of the same operations one per line.  A call is
one lane, so a check is ``if s <= 0.0: raise DomainError``; ``np.where``
is a conditional expression, the guard row a running sum, and a power
libm's ``pow`` (:func:`math.pow`), the ``pow`` of a NumPy scalar.  On
floats the operations give the bits of the same operations on NumPy
scalars, as single-lane jets take them, except where NumPy gives an
infinity or NaN and a float operation raises.  The replay's vectorised
powers round differently (see :mod:`keplerflag.curvature`).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["Emitted", "Node", "Tape", "record"]

_NUMBER = (int, float)
PIECE = 800  # most operations in one function of emitted source
# Deepest expression the emitter nests: each level may add a pair of
# parentheses, and the tokenizer stops at 200 nested ones.
DEPTH = 50


class Node:
    """A value on a tape: an input, or an operation on nodes and numbers."""

    __slots__ = ("tape", "op", "args", "index", "folded")

    def __init__(self, tape, op, *args):
        self.tape, self.op, self.args, self.folded = tape, op, args, False
        self.index = len(tape)
        tape.append(self)

    def _op(self, op, a, b):
        other = b if a is self else a
        if isinstance(other, Node):
            return Node(self.tape, op, a, b)
        if not isinstance(other, _NUMBER):
            return NotImplemented
        if op == "mul" and other in (0, 1):
            if other == 0 and not self.folded:
                self.folded = True
                Node(self.tape, "finite", self)
            return self if other == 1 else 0.0
        if other == 0 and (op == "add" or op == "sub" and a is self):
            return self
        return Node(self.tape, op, a, b)

    def __add__(self, other): return self._op("add", self, other)
    def __radd__(self, other): return self._op("add", other, self)
    def __sub__(self, other): return self._op("sub", self, other)
    def __rsub__(self, other): return self._op("sub", other, self)
    def __mul__(self, other): return self._op("mul", self, other)
    def __rmul__(self, other): return self._op("mul", other, self)
    def __truediv__(self, other): return self._op("div", self, other)
    def __rtruediv__(self, other): return self._op("div", other, self)
    def __neg__(self): return Node(self.tape, "neg", self)
    def __pow__(self, e): return Node(self.tape, "pow", self, e)
    def __le__(self, zero): return _Test(self, "positive", zero)
    def __eq__(self, zero): return _Test(self, "nonzero", zero)


class _Test:
    """``node <= 0`` or ``node == 0``: a check for ``np.any``, or ``np.where``'s."""

    def __init__(self, node, check, zero):
        assert isinstance(zero, _NUMBER) and zero == 0, "a tape compares with zero only"
        self.node, self.check = node, check

    def __bool__(self):
        raise TypeError("a recorded function is jet arithmetic only; "
                        "a comparison can only take np.any")

    def __array_function__(self, func, types, args, kwargs):
        if func is np.any and args == (self,) and not kwargs:
            Node(self.node.tape, self.check, self.node)
            return False
        if not (func is np.where and self.check == "positive" and len(args) == 3
                and isinstance(args[1], _NUMBER) and args[1] == 1.0
                and args[2] is self.node):
            return NotImplemented
        return Node(self.node.tape, "where", self.node)


# Each lane operation takes (a, b, out) rows; a check reads only a and marks
# the failure row, and "finite" adds a node's row to the guard row.
_CHECKS = {"positive": lambda x, _, out: np.logical_or(out, x <= 0.0, out),
           "nonzero": lambda x, _, out: np.logical_or(out, x == 0.0, out)}
_LANE_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.true_divide,
    "neg": lambda x, _, out: np.negative(x, out),
    "pow": lambda x, e, out: np.copyto(out, x ** e),  # the jets' operator
    "where": lambda x, _, out: np.copyto(out, np.where(x <= 0.0, 1.0, x)),
    "const": lambda x, _, out: np.copyto(out, x),
    "finite": np.add, **_CHECKS,
}
# The same operations as Python over floats, by the replay's call: an
# expression, its precedence, and the precedences below which its left and
# right operands take parentheses ("finite" is the add into the guard row);
# a check is a statement, and its operand, like where's, is always a local.
# A power is libm's, as on the NumPy scalars of single-lane jets: where it
# raises ValueError, Python's ``**`` returns a complex number.
_FORMS = {
    np.add: ("{a} + {b}", 1, 1, 2), np.subtract: ("{a} - {b}", 1, 1, 2),
    np.multiply: ("{a} * {b}", 2, 2, 3), np.true_divide: ("{a} / {b}", 2, 2, 3),
    _LANE_OPS["neg"]: ("-{a}", 3, 4, 0), _LANE_OPS["pow"]: ("pow({a}, {b})", 4, 0, 0),
    _LANE_OPS["where"]: ("1.0 if {a} <= 0.0 else {a}", 0, 4, 0),
    _LANE_OPS["const"]: ("{a}", 3, 0, 0),
    _CHECKS["positive"]: ("if {a} <= 0.0: raise DomainError('a recorded constant term is not positive')",
                          None, 4, 0),
    _CHECKS["nonzero"]: ("if {a} == 0.0: raise DomainError('a recorded constant term is zero')",
                         None, 4, 0),
}
_LOCAL_OPERAND = {*_CHECKS.values(), _LANE_OPS["where"]}
# Operations that read only their first operand; the second repeats it.
_UNARY = {*_LOCAL_OPERAND, _LANE_OPS["neg"], _LANE_OPS["const"]}
# How many leading operands pass a value that is not finite on to the result.
_KEEPS = {"add": 2, "sub": 2, "mul": 2, "div": 1, "neg": 1}


class Tape(NamedTuple):
    """``code`` holds one ``(fn, a, b, out)`` per lane operation: indices
    into the buffer's rows, inputs first and then the guard and failure
    rows, and on into ``consts``.  ``ops`` counts the operations by kind."""

    code: tuple
    consts: tuple
    slots: int
    inputs: int
    outputs: tuple
    ops: MappingProxyType

    def replay(self, *inputs):
        """The outputs, views of this call's buffer, over the first input's
        shape, then the lanes where they have the jets' bits: the guard is
        finite, or a check failed and the outputs are NaN."""
        shape = np.shape(inputs[0])
        buf = np.empty((self.slots, int(np.prod(shape))))
        for row, value in zip(buf, inputs):
            row[...] = np.ravel(value)
        guard, fails = buf[self.inputs:self.inputs + 2]
        buf[self.inputs:self.inputs + 2] = 0.0
        v = [*buf, *self.consts]
        for fn, a, b, out in self.code:
            fn(v[a], v[b], v[out])
        fails = fails != 0.0
        buf[np.ix_(self.outputs, fails)] = np.nan
        return (*(buf[k].reshape(shape) for k in self.outputs),
                (np.isfinite(guard) | fails).reshape(shape))

    def source(self):
        """Python source of this tape over floats: ``(size, text)`` for each
        of the functions ``_0``, ``_1``, ..., which run ``size`` operations,
        at most :data:`PIECE`, and are cut where the fewest values are live.
        A value that one operation reads, in the same function, is written
        into that operation's expression (``s9 = s3 * s5 + s7 * s8``), at
        most :data:`DEPTH` deep; every other value is a local ``s<k>``, one
        name each.  Each function takes the values live before its
        operations and returns those live after them; the first takes the
        inputs and the guard, the last returns the outputs and the guard."""
        code, n, first = self.code, len(self.code), self.inputs + 1
        # Values are numbered as they are made: the inputs and the guard's
        # start, then each operation's result (a check makes none).  An
        # operand is a value or a number's text.
        made, reads, operands, value = [-1] * first, [[] for _ in range(first)], [], []
        row = [*range(first), *[None] * (self.slots - first)]  # each row's value
        for pos, (fn, a, b, out) in enumerate(code):
            operands.append([])
            for k in (a,) if fn in _UNARY else (a, b):
                if k < self.slots:
                    reads[row[k]].append(pos)
                    operands[-1].append(row[k])
                else:
                    operands[-1].append(repr(float(self.consts[k - self.slots])))
            if _FORMS[fn][1] is None:  # a check
                value.append(None)
                continue
            row[out] = len(made)
            value.append(row[out])
            made.append(pos)
            reads.append([])
        results = [row[k] for k in (*self.outputs, self.inputs)]
        for v in results:
            reads[v].append(n)

        # Cut where the fewest values are live in all, no function longer
        # than PIECE: the least total over the cuts before p, and the last
        # of them, from a window of the cheapest earlier cuts.
        live = [0] * (n + 2)
        for v, pos in enumerate(made):
            if reads[v]:
                live[pos + 1] += 1
                live[reads[v][-1] + 1] -= 1
        live = list(accumulate(live))
        total, before, window = [0] * (n + 1), [0] * (n + 1), deque([0])
        for p in range(1, n + 1):
            if window[0] < p - PIECE:
                window.popleft()
            before[p] = window[0]
            total[p] = total[before[p]] + live[p]
            while window and total[window[-1]] >= total[p]:
                window.pop()
            window.append(p)
        cuts = [n, before[n]]  # one function at least, if only to return
        while cuts[-1]:
            cuts.append(before[cuts[-1]])
        cuts.reverse()
        handed = [range(first)]
        handed += [[v for v, r in enumerate(reads) if r and made[v] < cut <= r[-1]]
                   for cut in cuts[1:-1]]
        handed.append(results)

        text = {}  # each value written into its reader: expression, precedence, depth

        def operand(u, wrap):  # u is a value or a number's text
            s, prec, depth = ((u, 3 if u.startswith("-") else 4, 0) if isinstance(u, str)
                              else text.pop(u, (f"s{u}", 4, 0)))
            return f"({s})" if prec < wrap else s, depth

        functions = []
        for k in range(len(cuts) - 1):
            lines = [f"def _{k}({''.join(f's{v}, ' for v in handed[k])}):"]
            for pos in range(cuts[k], cuts[k + 1]):
                form, prec, left, right = _FORMS[code[pos][0]]
                a, depth = operand(operands[pos][0], left)
                b, depth_b = operand(operands[pos][1], right) if len(operands[pos]) > 1 else (a, 0)
                line, depth, v = form.format(a=a, b=b), 1 + max(depth, depth_b), value[pos]
                if v is None:
                    lines.append("    " + line)
                    continue
                reader = reads[v][0]
                if (len(reads[v]) == 1 and reader < cuts[k + 1] and depth <= DEPTH
                        and code[reader][0] not in _LOCAL_OPERAND):
                    text[v] = line, prec, depth
                else:
                    lines.append(f"    s{v} = {line}")
            lines.append(f"    return ({''.join(f's{v}, ' for v in handed[k + 1])})")
            functions.append((cuts[k + 1] - cuts[k], "\n".join(lines)))
        return functions

    def emit(self):
        """This tape as an :class:`Emitted` program, compiled one function of
        :meth:`source` at a time."""
        space = {"pow": math.pow, "DomainError": DomainError, "nan": math.nan, "inf": math.inf}
        pieces, sizes = [], []
        for k, (size, text) in enumerate(self.source()):
            exec(compile(text, f"<tape piece {k}>", "exec"), space)
            pieces.append(space.pop(f"_{k}"))
            sizes.append(size)
        return Emitted(tuple(pieces), tuple(sizes))


class Emitted(NamedTuple):
    """A tape as straight-line Python over floats (:meth:`Tape.emit`):
    ``pieces`` run in turn, each on what the one before returns, and
    ``sizes`` counts the operations in each."""

    pieces: tuple
    sizes: tuple

    def __call__(self, *inputs):
        """The outputs as floats, then whether the guard is finite.

        A check raises DomainError where the replay marks a failed lane.
        Where NumPy gives an infinity or NaN, a float operation may raise
        instead: ZeroDivisionError from a division by zero, OverflowError
        from a power too large, ValueError from a power of zero or of a
        negative number."""
        values = (*map(float, inputs), 0.0)
        for piece in self.pieces:
            values = piece(*values)
        return (*values[:-1], math.isfinite(values[-1]))


def record(fn, n_inputs):
    """The :class:`Tape` of ``fn(*inputs)``, which returns nodes and
    numbers; an output that folds to a number gets a row of its own."""
    tape = []
    inputs = [Node(tape, "input") for _ in range(n_inputs)]
    outputs = [v if isinstance(v, Node) else Node(tape, "const", v) for v in fn(*inputs)]
    # A folded node needs no guard of its own where it flows into a guarded
    # one by operations that keep a value that is not finite so.
    covered = set()
    for n in reversed(tape):
        if n.folded or n.index in covered:
            covered.update(a.index for a in n.args[: _KEEPS.get(n.op, 0)]
                           if isinstance(a, Node))
    read = {n.index for n in outputs} | {
        n.index for n in tape if n.op in _CHECKS
        or n.op == "finite" and n.args[0].index not in covered}
    for n in reversed(tape):
        if n.index in read:
            read.update(a.index for a in n.args if isinstance(a, Node))
    program = [n for n in tape[n_inputs:] if n.index in read]
    tape.clear()  # nodes refer to it: drop the cycle, so they go with the recording
    last = {a.index: pos for pos, n in enumerate(program) for a in n.args
            if isinstance(a, Node)}
    last.update((n.index, len(program)) for n in outputs)

    slot = {n.index: k for k, n in enumerate(inputs)}  # the guard and failure rows next
    nslots, free, consts, code = n_inputs + 2, [], {}, []
    for pos, n in enumerate(program):
        # constants are coded ~k until the row count is known
        args = [slot[a.index] if isinstance(a, Node)
                else ~consts.setdefault((type(a), repr(a)), (len(consts), a))[0]
                for a in n.args]
        free += [slot[k] for k in {a.index for a in n.args if isinstance(a, Node)}
                 if last[k] == pos]
        if n.op == "finite":
            args, out = [n_inputs, *args], n_inputs
        elif n.op in _CHECKS:
            out = n_inputs + 1
        else:
            out = slot[n.index] = free.pop() if free else nslots
            nslots = max(nslots, out + 1)
        code.append((_LANE_OPS[n.op], *(args * 2)[:2], out))
    code = tuple((fn, *(k if k >= 0 else nslots + ~k for k in ab), out)
                 for fn, *ab, out in code)
    return Tape(code, tuple(a for _, a in consts.values()), nslots, n_inputs,
                tuple(slot[n.index] for n in outputs),
                MappingProxyType(Counter(n.op for n in program)))
