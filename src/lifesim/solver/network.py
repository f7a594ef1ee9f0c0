"""Feed-forward policy/value network with hand-written backprop.

Shared leaky-ReLU trunk with a masked-logits policy head and a scalar value
head.  Biases are folded into the weight matrices via an augmented input
column, which keeps the backward pass and the Kronecker factors simple.
Everything is float64 numpy for determinism and finite-difference checks.

A forward pass writes every trunk layer into preallocated augmented buffers
whose ones column is set once.  A pass with a ``ForwardCache`` writes into
that cache, which the caller owns and hands to ``backward``; a pass without
one writes into the net's own workspace, reallocated when the row count
changes, so two nets never share buffers, but one net must not run forward
passes from two threads at once.  The returned logits and values are always
fresh arrays.  ``backward`` keeps its temporaries in the cache it is handed,
sized on its first pass over that cache, so a caller that reuses one cache
for every update allocates them once; the gradients it returns are fresh
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEAKY_SLOPE = 0.01
MASK_FILL = -1e9


@dataclass
class ForwardCache:
    inputs: list[np.ndarray] = field(default_factory=list)   # augmented layer inputs
    preacts: list[np.ndarray] = field(default_factory=list)  # trunk pre-activations
    trunk_out: np.ndarray | None = None                      # augmented trunk output
    # backward's temporaries: the gradient at each trunk layer's output, and
    # room for one layer's leaky-ReLU slope
    grad_outputs: list[np.ndarray] = field(default_factory=list)
    slope: np.ndarray | None = None


class PolicyValueNet:
    """MLP trunk + policy/value heads over a fixed discrete action catalogue."""

    def __init__(self, obs_dim: int, n_actions: int, hidden: tuple[int, ...] = (256, 256, 128),
                 seed: int = 0) -> None:
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        sizes = [obs_dim, *hidden]
        self.trunk: list[np.ndarray] = []
        for n_in, n_out in zip(sizes, sizes[1:]):
            w = rng.standard_normal((n_in + 1, n_out)) * np.sqrt(2.0 / n_in)
            w[-1, :] = 0.0
            self.trunk.append(w)
        last = sizes[-1]
        self.w_policy = rng.standard_normal((last + 1, n_actions)) * 0.01
        self.w_policy[-1, :] = 0.0
        self.w_value = rng.standard_normal((last + 1, 1)) * 0.01
        self.w_value[-1, :] = 0.0
        self._workspace = ForwardCache()

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [*self.trunk, self.w_policy, self.w_value]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = len(self.trunk)
        self.trunk = [p.copy() for p in params[:n]]
        self.w_policy = params[n].copy()
        self.w_value = params[n + 1].copy()

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        out = []
        i = 0
        for p in self.parameters():
            out.append(flat[i: i + p.size].reshape(p.shape).copy())
            i += p.size
        self.set_parameters(out)

    def clone(self) -> "PolicyValueNet":
        twin = PolicyValueNet(self.obs_dim, self.n_actions, self.hidden, seed=0)
        twin.set_parameters(self.parameters())
        return twin

    # -- forward / backward -------------------------------------------------

    def _buffers(self, cache: ForwardCache, rows: int) -> None:
        """Size ``cache`` for ``rows`` rows: the augmented buffers get their
        ones column here, and passes only overwrite the columns before it."""
        if cache.trunk_out is not None and cache.trunk_out.shape[0] == rows:
            return
        cache.inputs = [np.ones((rows, w.shape[0])) for w in self.trunk]
        cache.preacts = [np.empty((rows, w.shape[1])) for w in self.trunk]
        cache.trunk_out = np.ones((rows, self.w_policy.shape[0]))

    def forward(self, obs: np.ndarray, cache: ForwardCache | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs[None, :]
        if cache is None:
            cache = self._workspace
        self._buffers(cache, obs.shape[0])
        x = cache.inputs[0]
        x[:, :-1] = obs
        for w, z, x_next in zip(self.trunk, cache.preacts, [*cache.inputs[1:], cache.trunk_out]):
            np.matmul(x, w, out=z)
            h = x_next[:, :-1]
            np.multiply(z, LEAKY_SLOPE, out=h)
            np.maximum(z, h, out=h)   # leaky ReLU, the bits of where(z > 0, z, slope * z)
            x = x_next
        logits = x @ self.w_policy
        values = (x @ self.w_value)[:, 0]
        return logits, values

    def backward(self, cache: ForwardCache, d_logits: np.ndarray, d_values: np.ndarray,
                 stats: dict | None = None) -> list[np.ndarray]:
        """Gradients for every parameter given head-output gradients.

        When ``stats`` is given it is filled with the per-layer augmented
        inputs and output gradients (trunk layers then heads), which is what
        the Kronecker-factored preconditioner consumes.  Its trunk arrays are
        ``cache``'s buffers, valid until the next pass over ``cache``.
        """
        x_out = cache.trunk_out
        rows = x_out.shape[0]
        widths = [w.shape[1] for w in self.trunk]
        if cache.slope is None or cache.grad_outputs[0].shape[0] != rows:
            cache.grad_outputs = [np.empty((rows, width)) for width in widths]
            cache.slope = np.empty(rows * max(widths))
        g_policy = x_out.T @ d_logits
        g_value = x_out.T @ d_values[:, None]
        d_h = cache.grad_outputs[-1]
        np.matmul(d_logits, self.w_policy[:-1].T, out=d_h)
        d_h += np.matmul(d_values[:, None], self.w_value[:-1].T,
                         out=cache.slope[:d_h.size].reshape(d_h.shape))

        grads_trunk: list[np.ndarray] = [None] * len(self.trunk)  # type: ignore[list-item]
        for i in range(len(self.trunk) - 1, -1, -1):
            d_z = cache.grad_outputs[i]   # the gradient at this layer's output, made d/dz in place
            # The leaky ReLU's slope: 1.0 where z > 0, else LEAKY_SLOPE (z NaN included).
            slope = np.sign(cache.preacts[i], out=cache.slope[:d_z.size].reshape(d_z.shape))
            np.fmax(slope, LEAKY_SLOPE, out=slope)
            d_z *= slope
            grads_trunk[i] = cache.inputs[i].T @ d_z
            if i > 0:
                np.matmul(d_z, self.trunk[i][:-1].T, out=cache.grad_outputs[i - 1])
        if stats is not None:
            stats["inputs"] = [*cache.inputs, x_out, x_out]
            stats["grad_outputs"] = [*cache.grad_outputs, d_logits, d_values[:, None]]
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
    distribution of ``logits`` at that row's uniform in ``u``."""
    cdf = np.cumsum(masked_distribution(logits, masks), axis=1)
    return (cdf < u[:, None]).sum(axis=1)


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float = 7e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def clip_grads(grads: list[np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total
