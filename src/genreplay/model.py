"""Small feed-forward detector: ReLU hidden layers, logistic head, manual backprop.

Features are the activations of the last hidden layer; the head maps them to a
single forgery probability. Backward works on a cached forward record, so the
gradient always corresponds to the params the record was computed with.
"""

import numpy as np

PROB_CLAMP = 1e-7


class ForwardRecord:
    """Per-batch forward cache: pre-activations, activations, features, y_p."""

    def __init__(self, x, pre_acts, acts, features, y_p, u):
        self.x = x
        self.pre_acts = pre_acts
        self.acts = acts
        self.features = features
        self.y_p = y_p
        self.u = u


class MLP:
    """Feature extractor plus scalar logistic head.

    widths is [input_dim, hidden1, ..., hiddenL]; the feature dimension is
    widths[-1] and the head adds widths[-1] + 1 parameters. All parameters
    live in one flat array, params, laid out per layer as weights (row-major)
    then biases, then head_w, then head_b; weights, biases and head_w are
    views into it, so an in-place update of params is what forward sees.
    """

    def __init__(self, widths, rng, scale=1.0):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError("architecture needs an input width and >=1 hidden layer")
        if scale < 0:
            raise ValueError("scale must be >= 0")
        self.widths = list(widths)
        n = sum(a * b + b for a, b in zip(widths[:-1], widths[1:])) + widths[-1] + 1
        self.params = np.zeros(n)
        self.weights, self.biases, self.head_w = self._views(self.params)
        for fan_in, w in zip(widths[:-1], self.weights):
            half = scale / np.sqrt(fan_in)
            w[...] = rng.uniform(-half, half, w.shape)
        half = scale / np.sqrt(widths[-1])
        self.head_w[...] = rng.uniform(-half, half, widths[-1])

    def _views(self, flat):
        """Per-layer weight and bias views, and the head_w view, of a flat buffer."""
        weights, biases = [], []
        i = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            weights.append(flat[i : i + fan_in * fan_out].reshape(fan_in, fan_out))
            i += fan_in * fan_out
            biases.append(flat[i : i + fan_out])
            i += fan_out
        return tuple(weights), tuple(biases), flat[i : i + self.widths[-1]]

    @property
    def head_b(self):
        return self.params[-1]

    @head_b.setter
    def head_b(self, value):
        self.params[-1] = value

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def feature_dim(self):
        return self.widths[-1]

    @property
    def n_params(self):
        return self.params.size

    def get_flat(self):
        return self.params.copy()

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} params, got {flat.size}")
        self.params[...] = flat

    def forward(self, x):
        """Forward a batch (n, input_dim) or single vector (input_dim,)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != model dim {self.input_dim}")
        a = x
        pre_acts = []
        acts = []
        for w, b in zip(self.weights, self.biases):
            z = a @ w
            z += b
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        u = a @ self.head_w
        u += self.head_b
        # clip(1 / (1 + exp(-u)), PROB_CLAMP, 1 - PROB_CLAMP), in place on one array
        y_p = np.exp(-u)
        y_p += 1.0
        np.divide(1.0, y_p, out=y_p)
        np.maximum(y_p, PROB_CLAMP, out=y_p)
        np.minimum(y_p, 1.0 - PROB_CLAMP, out=y_p)
        return ForwardRecord(x, pre_acts, acts, a, y_p, u)

    def backward(self, record, d_yp=None, d_features=None):
        """Flat gradient of a scalar loss given upstream grads on y_p/features.

        Upstream grads must already carry the loss's own batch averaging; this
        only applies the chain rule through head and hidden layers.
        """
        n = record.x.shape[0]
        if d_yp is None:
            d_yp = np.zeros(n)
        d_yp = np.asarray(d_yp, dtype=float)
        if d_yp.shape != (n,):
            raise ValueError("d_yp length must match the batch size")
        grad = np.empty(self.n_params)
        g_ws, g_bs, g_head_w = self._views(grad)
        # du = d_yp * y_p * (1 - y_p), in that order
        du = d_yp * record.y_p
        du *= 1.0 - record.y_p
        np.matmul(record.features.T, du, out=g_head_w)
        grad[-1] = du.sum()
        da = du[:, None] * self.head_w
        if d_features is not None:
            d_features = np.asarray(d_features, dtype=float)
            if d_features.shape != record.features.shape:
                raise ValueError("d_features shape must match features")
            da += d_features

        for li in range(len(self.weights) - 1, -1, -1):
            # da is this step's own array, so the ReLU mask applies in place
            dz = da
            dz *= record.pre_acts[li] > 0
            a_prev = record.x if li == 0 else record.acts[li - 1]
            np.matmul(a_prev.T, dz, out=g_ws[li])
            dz.sum(axis=0, out=g_bs[li])
            if li:
                # no caller reads the gradient with respect to the input
                da = dz @ self.weights[li].T
        return grad
