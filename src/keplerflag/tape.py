"""Operation tapes: a jet computation recorded once as straight-line lane
operations, and replayed over arrays (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed.).

:func:`record` runs a function on :class:`Node` inputs; jets made from
nodes run their own code, so each node is one float operation of the jets,
in their order.  It folds structural constants (``v * 0`` is ``0``;
``v * 1``, ``v + 0`` and ``v - 0`` are ``v``; two numbers give a number),
replays powers as ``x ** e`` on lanes, as the jets take them on arrays,
and keeps ``np.where(v <= 0, 1.0, v)`` as it stands.  A node compared with
zero, ``(c0 <= 0).any()`` in :meth:`Jet.sqrt` or ``(c0 == 0).any()`` in
:meth:`Jet.reciprocal`, reads as false and is a domain check: the replay
raises DomainError where it fails on any lane, at the jets' point.

A guard row is finite exactly on the lanes where the outputs have the
jets' bits, zero signs aside: ``v * 0`` is NaN where ``v`` is not finite,
so the row adds up each ``v`` a fold multiplied by zero, or a value it
flows into by sums, products and numerators.  Nodes that nothing reads are
dropped, and a buffer row is reused once its last reader has run.  Each
replay allocates its own buffer, so threads can share a tape.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["Node", "Tape", "record"]

_NUMBER = (int, float)


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
    """``node <= 0`` or ``node == 0``: a check for ``.any()``, or ``np.where``'s."""

    def __init__(self, node, check, zero):
        assert isinstance(zero, _NUMBER) and zero == 0, "a tape compares with zero only"
        self.node, self.check = node, check

    def any(self):
        Node(self.node.tape, self.check, self.node)
        return False

    def __array_function__(self, func, types, args, kwargs):
        if not (func is np.where and self.check == "positive" and len(args) == 3
                and isinstance(args[1], _NUMBER) and args[1] == 1.0
                and args[2] is self.node):
            return NotImplemented
        return Node(self.node.tape, "where", self.node)


def _check(fails, what):
    if fails.any():
        raise DomainError(f"a recorded constant term is {what}")


# Each lane operation takes (a, b, out) rows; a check reads only a, and
# "finite" adds a node's row to the guard row.
_CHECKS = {"positive": lambda x, *_: _check(x <= 0.0, "not positive"),
           "nonzero": lambda x, *_: _check(x == 0.0, "zero")}
_LANE_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.true_divide,
    "neg": lambda x, _, out: np.negative(x, out),
    "pow": lambda x, e, out: np.copyto(out, x ** e),  # the jets' operator
    "where": lambda x, _, out: np.copyto(out, np.where(x <= 0.0, 1.0, x)),
    "finite": np.add, **_CHECKS,
}
# How many leading operands pass a value that is not finite on to the result.
_KEEPS = {"add": 2, "sub": 2, "mul": 2, "div": 1, "neg": 1}


class Tape(NamedTuple):
    """``code`` holds one ``(fn, a, b, out)`` per lane operation: indices
    into the buffer's rows, inputs first and then the guard, and on into
    ``consts``.  ``ops`` counts the operations by kind."""

    code: tuple
    consts: tuple
    slots: int
    inputs: int
    outputs: tuple
    ops: MappingProxyType

    def replay(self, *inputs):
        """The outputs, views of this call's buffer, over the first input's
        shape, then the lanes where the guard is finite."""
        shape = np.shape(inputs[0])
        buf = np.empty((self.slots, int(np.prod(shape))))
        for row, value in zip(buf, inputs):
            row[...] = np.ravel(value)
        buf[self.inputs] = 0.0
        v = [*buf, *self.consts]
        for fn, a, b, out in self.code:
            fn(v[a], v[b], v[out])
        return (*(buf[k].reshape(shape) for k in self.outputs),
                np.isfinite(buf[self.inputs]).reshape(shape))


def record(fn, n_inputs):
    """The :class:`Tape` of ``fn(*inputs)``, which returns nodes."""
    tape = []
    inputs = [Node(tape, "input") for _ in range(n_inputs)]
    outputs = fn(*inputs)
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

    slot = {n.index: k for k, n in enumerate(inputs)}  # and the guard row next
    nslots, free, consts, code = n_inputs + 1, [], {}, []
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
            out = args[0]
        else:
            out = slot[n.index] = free.pop() if free else nslots
            nslots = max(nslots, out + 1)
        code.append((_LANE_OPS[n.op], *(args * 2)[:2], out))
    code = tuple((fn, *(k if k >= 0 else nslots + ~k for k in ab), out)
                 for fn, *ab, out in code)
    return Tape(code, tuple(a for _, a in consts.values()), nslots, n_inputs,
                tuple(slot[n.index] for n in outputs),
                MappingProxyType(Counter(n.op for n in program)))
