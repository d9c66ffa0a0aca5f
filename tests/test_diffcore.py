"""Reverse-mode AD: per-primitive gradients, composition, optimizer algebra."""
import gc
import weakref

import numpy as np
import pytest

from gradcheck import gradcheck
from robustrec.diffcore import (Adam, Tensor, add, clip, concat_cols, exp, gather_rows,
                                log, matmul, mul, relu, sigmoid, softplus, square, sub,
                                tmean, transpose, tsum)
from robustrec.rng import SplitMix64


def _mat(seed, shape, lo=-1.5, hi=1.5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, shape)


def test_add_sub_mul_same_shape():
    a, b = _mat(0, (3, 4)), _mat(1, (3, 4))
    gradcheck(lambda x, y: tsum(add(x, y)), [a, b])
    gradcheck(lambda x, y: tsum(sub(x, y)), [a, b])
    gradcheck(lambda x, y: tsum(square(mul(x, y))), [a, b])


def test_scalar_broadcast():
    a = _mat(2, (3, 4))
    s = np.array(0.7)
    gradcheck(lambda x, y: tsum(mul(x, y)), [a, s])
    gradcheck(lambda x, y: tsum(add(y, x)), [a, s])
    gradcheck(lambda x, y: tsum(sub(y, square(x))), [a, s])


def test_row_vector_broadcast():
    a, v = _mat(3, (4, 5)), _mat(4, (5,))
    gradcheck(lambda x, y: tsum(square(add(x, y))), [a, v])
    gradcheck(lambda x, y: tsum(mul(x, y)), [a, v])
    gradcheck(lambda x, y: tsum(sub(y, x)), [a, v])
    row = _mat(5, (1, 5))
    gradcheck(lambda x, y: tsum(square(add(x, y))), [a, row])


def test_matmul_and_transpose():
    a, b = _mat(6, (3, 4)), _mat(7, (4, 2))
    gradcheck(lambda x, y: tsum(matmul(x, y)), [a, b])
    gradcheck(lambda x, y: tsum(square(matmul(x, transpose(y)))), [a, _mat(8, (2, 4))])


def test_elementwise_nonlinearities():
    a = _mat(9, (4, 3))
    gradcheck(lambda x: tsum(sigmoid(x)), [a])
    gradcheck(lambda x: tsum(softplus(x)), [a])
    gradcheck(lambda x: tsum(exp(mul(x, 0.5))), [a])
    gradcheck(lambda x: tsum(square(x)), [a])
    gradcheck(lambda x: tsum(log(x)), [_mat(10, (4, 3), lo=0.5, hi=2.0)])


def test_relu_away_from_kink():
    a = _mat(11, (5, 5))
    a[np.abs(a) < 0.05] = 0.3
    gradcheck(lambda x: tsum(relu(x)), [a])


def test_relu_and_clip_subgradients_exact():
    t = Tensor(np.array([[-1.0, 0.0, 2.0]]), requires_grad=True)
    tsum(relu(t)).backward()
    assert t.grad.tolist() == [[0.0, 0.0, 1.0]]
    t = Tensor(np.array([[-2.0, -1.0, 0.3, 1.0, 2.0]]), requires_grad=True)
    tsum(clip(t, -1.0, 1.0)).backward()
    assert t.grad.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]]


def test_clip_interior_fd():
    a = _mat(12, (3, 3))
    a = np.where(np.abs(np.abs(a) - 1.0) < 0.05, 0.5, a)  # keep off the bounds
    gradcheck(lambda x: tsum(square(clip(x, -1.0, 1.0))), [a])


def test_reductions_and_concat():
    a, b = _mat(13, (3, 2)), _mat(14, (3, 4))
    gradcheck(lambda x: tmean(square(x)), [a])
    gradcheck(lambda x, y: tsum(square(concat_cols(x, y))), [a, b])


def test_gather_rows_repeated_indices():
    a = _mat(15, (6, 3))
    idx = np.array([0, 2, 2, 5, 0, 0])
    gradcheck(lambda x: tsum(square(gather_rows(x, idx))), [a])


def test_operator_sugar():
    a = _mat(16, (2, 3))
    gradcheck(lambda x: tsum(square(-x)), [a])
    gradcheck(lambda x: tsum(1.0 - x), [a])
    gradcheck(lambda x: tsum(x * 2.0 + 1.0), [a])
    gradcheck(lambda x: tsum((2.0 * x) @ np.ones((3, 1))), [a])


def test_random_compositions_depth6():
    """Seeded random programs over same-shape nodes, depth 6, FD-checked."""
    def build(seed):
        def program(*leaves):
            r = SplitMix64(seed)
            nodes = list(leaves)
            for _ in range(6):
                a = nodes[r.randrange(len(nodes))]
                op = r.randrange(6)
                if op == 0:
                    nodes.append(sigmoid(a))
                elif op == 1:
                    nodes.append(softplus(a))
                elif op == 2:
                    nodes.append(square(mul(a, 0.5)))
                elif op == 3:
                    b = nodes[r.randrange(len(nodes))]
                    nodes.append(add(a, b))
                elif op == 4:
                    b = nodes[r.randrange(len(nodes))]
                    nodes.append(mul(a, sigmoid(b)))
                else:
                    b = nodes[r.randrange(len(nodes))]
                    nodes.append(tsum(matmul(a, transpose(b))) + a)
            total = tmean(nodes[-1])
            for n in nodes[len(leaves):-1]:
                total = total + tmean(n)
            return total
        return program

    for seed in range(12):
        leaves = [_mat(100 + seed, (3, 4)), _mat(200 + seed, (3, 4)), _mat(300 + seed, (3, 4))]
        gradcheck(build(seed), leaves)


def test_shape_errors():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        add(a, b)
    with pytest.raises(ValueError):
        matmul(a, Tensor(np.zeros((2, 2))))
    with pytest.raises(ValueError):
        transpose(Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        concat_cols(a, Tensor(np.zeros((3, 3))))
    with pytest.raises(ValueError):
        gather_rows(Tensor(np.zeros(4)), [0])


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        square(t).backward()


def test_gradient_accumulation_across_graphs():
    t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    tsum(square(t)).backward()
    first = t.grad.copy()
    tsum(square(t)).backward()
    np.testing.assert_allclose(t.grad, 2.0 * first)


def test_backward_frees_the_graph_without_the_cycle_collector():
    gc.disable()
    try:
        t = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        hidden = relu(mul(t, 2.0))
        node = weakref.ref(hidden)
        loss = tsum(square(hidden))
        del hidden
        assert node() is not None  # the loss's graph holds it
        loss.backward()
        del loss
        assert node() is None
        np.testing.assert_array_equal(t.grad, [8.0, 0.0, 24.0])
    finally:
        gc.enable()


def test_constants_never_track_gradients():
    c = Tensor(np.ones((2, 2)))
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    out = tsum(mul(c, t))
    out.backward()
    assert c.grad is None and t.grad is not None


def test_adam_first_step_is_signlike():
    p = np.array([1.0, -2.0])
    opt = Adam([p], lr=0.1)
    opt.step([np.array([0.5, -0.25])])
    # bias correction makes the first step lr * g / (|g| + eps)
    np.testing.assert_allclose(p, [0.9, -1.9], atol=1e-7)


def test_adam_decoupled_decay_applies_before_update():
    p = np.array([2.0])
    opt = Adam([p], lr=0.1, weight_decay=0.5)
    opt.step([np.array([1.0])])
    # decay first: 2 - 0.1*0.5*2 = 1.9, then the unit step: 1.9 - 0.1 = 1.8
    np.testing.assert_allclose(p, [1.8], atol=1e-7)


def test_adam_two_steps_frozen():
    p = np.array([1.0])
    opt = Adam([p], lr=0.01)
    for g in (0.3, -0.2):
        opt.step([np.array([g])])
    # hand-rolled reference of the same update rule
    m = v = 0.0
    x = 1.0
    for t, g in enumerate((0.3, -0.2), start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p, [x], rtol=0, atol=0)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_folds_its_bias_corrections_into_two_scalars(weight_decay):
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(0)
    p = rng.standard_normal((500, 64))
    x = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    opt = Adam([p], lr=lr, weight_decay=weight_decay)
    for t in range(1, 201):
        g = rng.standard_normal(p.shape)
        opt.step([g])
        if weight_decay:
            x = x - lr * weight_decay * x
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        # hand-rolled folded rule: lr/bc1 and 1/sqrt(bc2) are scalars
        step, scale = lr / (1.0 - b1 ** t), 1.0 / np.sqrt(1.0 - b2 ** t)
        update = m / (np.sqrt(v) * scale + eps) * step
        x = x - update
        np.testing.assert_array_equal(p, x)
        # the textbook rule, eps added to sqrt(v_hat); compared step by step,
        # since parameters that pass near 0 would magnify a summed drift
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        textbook = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        np.testing.assert_allclose(update, textbook, rtol=1e-13, atol=0)
