"""Reverse-mode automatic differentiation engine backed by numpy.

This package is the numerical substrate for the whole reproduction: the
neural-network layers in :mod:`repro.nn`, the approximate-dropout layers in
:mod:`repro.dropout` and the training loops in :mod:`repro.training` are all
built on :class:`~repro.tensor.tensor.Tensor`.

The design follows the usual define-by-run tape model: every operation on a
``Tensor`` records a backward closure; calling :meth:`Tensor.backward` walks
the tape in reverse topological order and accumulates gradients into
``Tensor.grad``.
"""

from repro.tensor.tensor import RowBlock, Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor.gradcheck import check_gradients, numerical_gradient

__all__ = [
    "RowBlock",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "check_gradients",
    "numerical_gradient",
]
