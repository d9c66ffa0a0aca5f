"""Minimal dense reverse-mode automatic differentiation on float64 arrays.

Design constraints, chosen for reproducibility over generality:

* every Tensor wraps a float64 numpy array; no other dtype exists;
* the graph is built define-by-run: each op records its parents and a
  backward closure on the result, so construction order is a topological
  order and two graphs over disjoint tensors can never interact;
* `backward()` runs only from a scalar (size-1) result and accumulates
  into existing leaf gradients, which is what gradient accumulation over
  minibatches relies on;
* broadcasting is restricted to scalars and a row vector over a matrix;
  any other shape mismatch raises, naming the op and the offending shapes;
* `clip` uses subgradient 0 exactly at the boundaries.

The Adam optimizer applies decoupled weight decay (param -= lr*wd*param)
before the bias-corrected moment update, whose two bias corrections it folds
into one step size and one scale per step (Kingma & Ba, ICLR 2015, section 2):
no array is divided by a correction, and one scratch array per parameter
holds each increment in turn.
"""
from __future__ import annotations

import numpy as np

Array = np.ndarray


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every requires_grad leaf,
        then release the graph: each graph is backpropagated once."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar result, got shape {self.shape}")
        # iterative postorder; parents are strictly older than children, so
        # the DAG admits no gray-node reordering
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        for node in topo:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
        # each backward closure holds its output node: drop the edges so the
        # graph is freed by reference counting, not by the cycle collector
        for node in topo:
            node._parents, node._backward = (), None

    # operator sugar; plain numbers and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _attach(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _check_binary(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb in ((sa[1],), (1, sa[1])):
        return
    if len(sb) == 2 and sa in ((sb[1],), (1, sb[1])):
        return
    raise ValueError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce an output gradient back to an operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    return g.sum(axis=0).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary("add", a.data.shape, b.data.shape)
    out = Tensor(a.data + b.data)

    def backward():
        g = out.grad
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return _attach(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary("sub", a.data.shape, b.data.shape)
    out = Tensor(a.data - b.data)

    def backward():
        g = out.grad
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.data.shape)

    return _attach(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary("mul", a.data.shape, b.data.shape)
    out = Tensor(a.data * b.data)

    def backward():
        g = out.grad
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _attach(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ValueError(f"matmul: incompatible shapes {sa} and {sb}")
    out = Tensor(a.data @ b.data)

    def backward():
        g = out.grad
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _attach(out, (a, b), backward)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ValueError(f"transpose: requires a matrix, got shape {a.data.shape}")
    out = Tensor(a.data.T.copy())

    def backward():
        a.grad += out.grad.T

    return _attach(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s)

    def backward():
        a.grad += out.grad * s * (1.0 - s)

    return _attach(out, (a,), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.maximum(a.data, 0.0))

    def backward():
        a.grad += out.grad * (a.data > 0.0)

    return _attach(out, (a,), backward)


def exp(a) -> Tensor:
    a = _wrap(a)
    e = np.exp(a.data)
    out = Tensor(e)

    def backward():
        a.grad += out.grad * e

    return _attach(out, (a,), backward)


def log(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.data))

    def backward():
        a.grad += out.grad / a.data

    return _attach(out, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)) in the overflow-safe split form."""
    a = _wrap(a)
    x = a.data
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

    def backward():
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        a.grad += out.grad * s

    return _attach(out, (a,), backward)


def square(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data * a.data)

    def backward():
        a.grad += out.grad * (2.0 * a.data)

    return _attach(out, (a,), backward)


def tsum(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.sum())

    def backward():
        a.grad += np.full_like(a.data, float(out.grad))

    return _attach(out, (a,), backward)


def tmean(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.mean())

    def backward():
        a.grad += np.full_like(a.data, float(out.grad) / a.data.size)

    return _attach(out, (a,), backward)


def concat_cols(a, b) -> Tensor:
    """Concatenate two matrices side by side (their rows end to end)."""
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[0] != sb[0]:
        raise ValueError(f"concat_cols: incompatible shapes {sa} and {sb}")
    out = Tensor(np.hstack([a.data, b.data]))
    na = sa[1]

    def backward():
        g = out.grad
        if a.requires_grad:
            a.grad += g[:, :na]
        if b.requires_grad:
            b.grad += g[:, na:]

    return _attach(out, (a, b), backward)


def gather_rows(a, idx) -> Tensor:
    """Select rows by integer index; backward scatter-adds (repeats allowed)."""
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ValueError(f"gather_rows: requires a matrix, got shape {a.data.shape}")
    index = np.asarray(idx, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError(f"gather_rows: index must be 1-d, got shape {index.shape}")
    out = Tensor(a.data[index])

    def backward():
        np.add.at(a.grad, index, out.grad)

    return _attach(out, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is 0 outside and exactly at the bounds."""
    a = _wrap(a)
    out = Tensor(np.clip(a.data, lo, hi))

    def backward():
        inside = (a.data > lo) & (a.data < hi)
        a.grad += out.grad * inside

    return _attach(out, (a,), backward)


class Adam:
    """Adam with bias correction and decoupled weight decay, on plain arrays.

    The decay is applied to the raw parameter before the moment update:
    param -= lr*wd*param, then param -= lr * m_hat / (sqrt(v_hat) + eps)
    with m_hat = m/bc1 and v_hat = v/bc2. The bias corrections are folded
    into two scalars per step, step = lr/bc1 and scale = 1/sqrt(bc2), so the
    update is param -= step * m / (sqrt(v)*scale + eps): the same rule, with
    eps still added to sqrt(v_hat). Its last bits differ from the unfolded
    form's.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        """Update each array in place by its gradient."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        step = self.lr / (1.0 - b1 ** self.t)
        scale = 1.0 / np.sqrt(1.0 - b2 ** self.t)
        for p, g, m, v in zip(self.params, grads, self._m, self._v, strict=True):
            if self.weight_decay != 0.0:
                p -= self.lr * self.weight_decay * p
            d = (1.0 - b1) * g
            m *= b1
            m += d
            np.multiply(g, g, out=d)
            d *= 1.0 - b2
            v *= b2
            v += d
            np.sqrt(v, out=d)
            d *= scale
            d += self.eps
            np.divide(m, d, out=d)
            d *= step
            p -= d
