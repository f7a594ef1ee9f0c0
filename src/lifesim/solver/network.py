"""Feed-forward policy/value network with hand-written backprop.

Shared leaky-ReLU trunk with a masked-logits policy head and a scalar value
head.  Biases are folded into the weight matrices via an augmented input
column, which keeps the backward pass simple.
Everything is float64 numpy for determinism and finite-difference checks.

A forward pass stores each activation once: every trunk layer's matmul
writes straight into the augmented buffer the next layer reads (its ones
column set once, when the buffer is sized), and the leaky ReLU runs over
that whole contiguous buffer in place, through one temporary the net keeps
for its widest buffer (the ones column stays 1.0, the larger of 1.0 and
``LEAKY_SLOPE``).
No pre-activation is kept: the backward needs only the leaky ReLU's slope,
and the activation has the pre-activation's sign.  A pass with a
``ForwardCache`` writes into that cache, which the caller owns and hands to
``backward``; a pass without one writes into the net's own workspace,
reallocated when the row count changes, so two nets never share buffers,
but one net must not run forward passes from two threads at once.  A caller
that batches several passes for one ``backward`` sizes a cache for all
their rows (:meth:`PolicyValueNet.reserve`) and runs each pass into its own
row range (:meth:`ForwardCache.view`), as the A2C rollout does.  The
returned logits and values are always fresh arrays.  ``backward`` keeps its
temporaries in two buffers of the widest trunk layer, held by the cache it
is handed and sized on its first pass over that cache; they swap between
the gradient at a layer's output and that layer's slope, so a caller that
reuses one cache for every update allocates them once.  The gradients it
returns are fresh arrays.  ``Adam.step`` updates its moments and the
parameters in place, through one scratch pair the size of the largest
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEAKY_SLOPE = 0.01
MASK_FILL = -1e9
# Adam's moment decays and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class ForwardCache:
    # augmented layer inputs: the observations, then each hidden layer's
    # activation but the last's, each followed by its ones column
    inputs: list[np.ndarray] = field(default_factory=list)
    trunk_out: np.ndarray | None = None   # augmented trunk output (last activation)
    # backward's two flat buffers of rows x widest layer, the rows of one
    # array: each holds a layer's output gradient or its slope in turn
    scratch: np.ndarray | None = None

    def view(self, start: int, stop: int) -> "ForwardCache":
        """The rows ``start:stop`` of this (sized) cache: a forward pass into
        the view writes those rows of every buffer."""
        return ForwardCache([x[start:stop] for x in self.inputs], self.trunk_out[start:stop])


def parameter_shapes(obs_dim: int, n_actions: int, hidden: tuple[int, ...]) -> list[tuple[int, int]]:
    """Each parameter's shape, in the order of ``parameters``: the trunk
    layers', then the policy and value heads', each with its bias row last."""
    sizes = [obs_dim, *hidden]
    heads = [(sizes[-1] + 1, n_actions), (sizes[-1] + 1, 1)]
    return [(n_in + 1, n_out) for n_in, n_out in zip(sizes, sizes[1:])] + heads


class PolicyValueNet:
    """MLP trunk + policy/value heads over a fixed discrete action catalogue."""

    def __init__(self, obs_dim: int, n_actions: int, hidden: tuple[int, ...], seed: int) -> None:
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        params = []
        for k, shape in enumerate(parameter_shapes(obs_dim, n_actions, hidden)):
            w = rng.standard_normal(shape) * (np.sqrt(2.0 / (shape[0] - 1)) if k < len(hidden) else 0.01)
            w[-1, :] = 0.0   # the bias row
            params.append(w)
        self.trunk, self.w_policy, self.w_value = params[:-2], params[-2], params[-1]
        self._workspace, self._scaled = ForwardCache(), np.empty(0)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [*self.trunk, self.w_policy, self.w_value]

    @classmethod
    def from_parameters(cls, obs_dim: int, n_actions: int, hidden: tuple[int, ...],
                        params: list[np.ndarray]) -> "PolicyValueNet":
        """A net of that shape holding copies of ``params`` (in the order of
        :meth:`parameters`) and buffers of its own; it draws no initial
        weights, which the constructor would."""
        net = object.__new__(cls)
        net.obs_dim, net.n_actions, net.hidden = obs_dim, n_actions, tuple(hidden)
        net.set_parameters(params)
        net._workspace, net._scaled = ForwardCache(), np.empty(0)
        return net

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = len(self.hidden)
        self.trunk = [p.copy() for p in params[:n]]
        self.w_policy = params[n].copy()
        self.w_value = params[n + 1].copy()

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def clone(self) -> "PolicyValueNet":
        """A twin with copies of the parameters (:meth:`from_parameters`)."""
        return PolicyValueNet.from_parameters(self.obs_dim, self.n_actions, self.hidden, self.parameters())

    # -- forward / backward -------------------------------------------------

    def reserve(self, cache: ForwardCache, rows: int) -> None:
        """Size ``cache`` for ``rows`` rows, unless it already holds that
        many: the augmented buffers get their ones column here, and passes
        only overwrite the columns before it."""
        if cache.trunk_out is not None and cache.trunk_out.shape[0] == rows:
            return
        cache.inputs = [np.ones((rows, w.shape[0])) for w in self.trunk]
        cache.trunk_out = np.ones((rows, self.w_policy.shape[0]))

    def forward(self, obs: np.ndarray, cache: ForwardCache | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs[None, :]
        if cache is None:
            cache = self._workspace
        rows = obs.shape[0]
        self.reserve(cache, rows)
        widest = max(self.hidden) + 1
        if self._scaled.size < rows * widest:
            self._scaled = np.empty(rows * widest)
        x = cache.inputs[0]
        x[:, :-1] = obs
        for w, x_next in zip(self.trunk, [*cache.inputs[1:], cache.trunk_out]):
            np.matmul(x, w, out=x_next[:, :-1])   # the pre-activation z, in the next layer's input
            scaled = np.multiply(x_next, LEAKY_SLOPE, out=self._scaled[:x_next.size].reshape(x_next.shape))
            np.maximum(x_next, scaled, out=x_next)   # leaky ReLU, the bits of where(z > 0, z, slope * z)
            x = x_next
        logits = x @ self.w_policy
        values = (x @ self.w_value)[:, 0]
        return logits, values

    def backward(self, cache: ForwardCache, d_logits: np.ndarray, d_values: np.ndarray
                 ) -> list[np.ndarray]:
        """Gradients for every parameter given head-output gradients.

        The temporaries live in the cache's two scratch buffers: one holds
        the gradient at a layer's output, made d/dz in place, while the
        other takes that layer's slope and then the gradient at the layer
        below's output, and the two swap roles."""
        x_out = cache.trunk_out
        rows = x_out.shape[0]
        size = rows * max(self.hidden)
        if cache.scratch is None or cache.scratch.shape[1] != size:
            cache.scratch = np.empty((2, size))
        grad, spare = cache.scratch

        def rows_of(buf: np.ndarray, width: int) -> np.ndarray:
            return buf[:rows * width].reshape(rows, width)

        g_policy = x_out.T @ d_logits
        g_value = x_out.T @ d_values[:, None]
        d_h = np.matmul(d_logits, self.w_policy[:-1].T, out=rows_of(grad, self.hidden[-1]))
        d_h += np.matmul(d_values[:, None], self.w_value[:-1].T, out=rows_of(spare, self.hidden[-1]))

        activations = [x[:, :-1] for x in (*cache.inputs[1:], x_out)]
        grads_trunk: list[np.ndarray] = [None] * len(self.trunk)  # type: ignore[list-item]
        for i in range(len(self.trunk) - 1, -1, -1):
            # The leaky ReLU's slope: 1.0 where z > 0, else LEAKY_SLOPE (z NaN
            # included), read from the activation, which has z's sign.
            slope = np.sign(activations[i], out=rows_of(spare, d_h.shape[1]))
            np.fmax(slope, LEAKY_SLOPE, out=slope)
            d_h *= slope   # now d/dz
            grads_trunk[i] = cache.inputs[i].T @ d_h
            if i > 0:
                w = self.trunk[i]
                d_h = np.matmul(d_h, w[:-1].T, out=rows_of(spare, w.shape[0] - 1))
                grad, spare = spare, grad
        return [*grads_trunk, g_policy, g_value]

    # -- inference helpers --------------------------------------------------

    def masked_logits(self, obs: np.ndarray, masks: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(obs)
        return np.where(masks, logits, MASK_FILL)

    def value(self, obs: np.ndarray) -> np.ndarray:
        _, v = self.forward(obs)
        return v


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def masked_distribution(logits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    masked = np.where(masks, logits, MASK_FILL)
    p = np.exp(log_softmax(masked))
    p = np.where(masks, p, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def sample_masked(logits: np.ndarray, masks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One action per row, drawn by inverting the cumulative masked
    distribution of ``logits`` at that row's uniform in ``u``.  Rounding can
    leave a row's cumulative probability short of 1, and a uniform can be
    0.0, so each draw is clamped to the row's first and last legal actions:
    no draw falls outside the catalogue or on a masked action."""
    cdf = np.cumsum(masked_distribution(logits, masks), axis=1)
    last = masks.shape[1] - 1 - masks[:, ::-1].argmax(axis=1)
    return np.maximum(np.minimum((cdf < u[:, None]).sum(axis=1), last), masks.argmax(axis=1))


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float) -> None:
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = np.empty((2, max(p.size for p in params)))
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)`` (``ADAM_BETA1``,
        ``ADAM_BETA2``, ``ADAM_EPS``), each operation in that order, written
        into the scratch pair's leading ``p.size`` entries."""
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            a, b = (s[:p.size].reshape(p.shape) for s in self._scratch)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            p -= np.divide(a, b, out=a)


def clip_grads(grads: list[np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total
