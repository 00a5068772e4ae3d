"""Small feed-forward detector: ReLU hidden layers, logistic head, manual backprop.

Features are the activations of the last hidden layer; the head maps them to a
single forgery probability. Backward works on a cached forward record, so the
gradient always corresponds to the params the record was computed with.
Callers that need no gradient read features and scores, which give forward's
bits without keeping a record.
"""

import numpy as np

PROB_CLAMP = 1e-7
# the most rows MLP.features feeds through a hidden layer at once
BLOCK_ROWS = 64
# MLP.features splits rows only when every hidden width is a multiple of this
BLOCK_WIDTH_STEP = 8


class ForwardRecord:
    """Per-batch forward cache: pre-activations, activations, features, y_p."""

    def __init__(self, x, pre_acts, acts, features, y_p):
        self.x = x
        self.pre_acts = pre_acts
        self.acts = acts
        self.features = features
        self.y_p = y_p


class MLP:
    """Feature extractor plus scalar logistic head.

    widths is [input_dim, hidden1, ..., hiddenL]; the feature dimension is
    widths[-1] and the head adds widths[-1] + 1 parameters. All parameters
    live in one flat array, params, laid out per layer as weights (row-major)
    then biases, then head_w, then head_b; weights, biases and head_w are
    views into it, so an in-place update of params is what forward sees; a
    copied or unpickled model rebuilds them as views into its own params.
    Each layer's weights, and head_w, start uniform on +-1/sqrt(fan_in); the
    biases and head_b start at 0.
    """

    def __init__(self, widths, rng):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError("architecture needs an input width and >=1 hidden layer")
        self._lay_out(widths)
        for fan_in, w in zip(widths[:-1], self.weights):
            half = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-half, half, w.shape)
        half = 1.0 / np.sqrt(widths[-1])
        self.head_w[...] = rng.uniform(-half, half, widths[-1])

    def _lay_out(self, widths, params=None):
        """Set widths, the slot layout, params (zeros when None) and its views."""
        self.widths = list(widths)
        # where each layer's weights (slice, shape) and biases (slice) sit in a flat buffer,
        # then head_w; worked out once, as every backward lays out its gradient by it
        self._weight_slots, self._bias_slots, i = [], [], 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            j = i + fan_in * fan_out
            self._weight_slots.append((slice(i, j), (fan_in, fan_out)))
            self._bias_slots.append(slice(j, j + fan_out))
            i = j + fan_out
        self._head_w_slot = slice(i, i + widths[-1])
        self.params = np.zeros(i + widths[-1] + 1) if params is None else params
        # the last gradient buffer backward wrote, with its views
        self._out_views = (None, None)
        self.weights, self.biases, self.head_w = self._views(self.params)

    def __getstate__(self):
        # a copied view would be an array of its own that no update of params reaches,
        # so a copy or an unpickled model keeps only these and rebuilds its views
        return {"widths": self.widths, "params": self.params}

    def __setstate__(self, state):
        self._lay_out(state["widths"], state["params"])

    def _views(self, flat):
        """Per-layer weight and bias views, and the head_w view, of a flat buffer."""
        weights = tuple([flat[s].reshape(shape) for s, shape in self._weight_slots])
        return weights, tuple([flat[s] for s in self._bias_slots]), flat[self._head_w_slot]

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
    def n_params(self):
        return self.params.size

    def get_flat(self):
        return self.params.copy()

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} params, got {flat.size}")
        self.params[...] = flat

    def _rows(self, x):
        """x as a float (n, input_dim) array; any other shape raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"input shape {x.shape} is not (n, input_dim {self.input_dim})")
        return x

    def _pre_act(self, li, a, out=None):
        """Hidden layer li's pre-activation a @ w + b, written into out when given."""
        z = np.matmul(a, self.weights[li], out=out)
        z += self.biases[li]
        return z

    def _head(self, features):
        """Forgery probabilities (n,) of an (n, width) feature array."""
        u = features @ self.head_w
        u += self.head_b
        # clip(1 / (1 + exp(-u)), PROB_CLAMP, 1 - PROB_CLAMP), in place on one array
        y_p = np.exp(-u)
        y_p += 1.0
        np.divide(1.0, y_p, out=y_p)
        np.maximum(y_p, PROB_CLAMP, out=y_p)
        np.minimum(y_p, 1.0 - PROB_CLAMP, out=y_p)
        return y_p

    def forward(self, x):
        """Forward a batch (n, input_dim), keeping what backward needs."""
        x = self._rows(x)
        a = x
        pre_acts = []
        acts = []
        for li in range(len(self.weights)):
            z = self._pre_act(li, a)
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        return ForwardRecord(x, pre_acts, acts, a, self._head(a))

    def features(self, x):
        """The (n, width) features of x, forward(x).features bit for bit, with no forward record.

        The hidden layers run over balanced row blocks of at most BLOCK_ROWS
        rows, reusing one block buffer per layer and writing the last layer
        straight into the output, so a large n allocates only its result. A
        one-row or one-column product takes numpy's matrix-vector path, which
        rounds differently from the matrix product forward makes, so no block
        holds a single row unless n is 1 (balanced blocks of n >= 2 rows hold
        at least 2). A product whose column count is not a multiple of
        BLOCK_WIDTH_STEP can round its last columns differently when its row
        count changes, so a model with such a hidden width (width 1 included)
        runs as one block.
        """
        x = self._rows(x)
        n = len(x)
        out = np.empty((n, self.widths[-1]))
        blockable = all(w % BLOCK_WIDTH_STEP == 0 for w in self.widths[1:])
        n_blocks = max(1, -(-n // BLOCK_ROWS)) if blockable else 1
        edges = [n * i // n_blocks for i in range(n_blocks + 1)]
        bufs = [np.empty((-(-n // n_blocks), w)) for w in self.widths[1:-1]]
        for lo, hi in zip(edges, edges[1:]):
            a = x[lo:hi]
            for li, buf in enumerate(bufs + [out[lo:hi]]):
                a = self._pre_act(li, a, out=buf[: hi - lo])
                np.maximum(a, 0.0, out=a)
        return out

    def scores(self, x):
        """forward(x).y_p bit for bit: the head applied once to all of features(x)."""
        return self._head(self.features(x))

    def backward(self, record, d_yp, d_features=None, out=None):
        """Flat gradient of a scalar loss given upstream grads on y_p (n,) and, unless None, features.

        Upstream grads must already carry the loss's own batch averaging; this
        only applies the chain rule through head and hidden layers. The
        gradient goes into a fresh array, or into out when given: a
        contiguous float64 array of shape (n_params,), which is returned. The
        layer views of the buffer written are kept from one call to the next,
        so a caller that passes the same out every step builds them once.
        """
        n = record.x.shape[0]
        d_yp = np.asarray(d_yp, dtype=float)
        if d_yp.shape != (n,):
            raise ValueError("d_yp length must match the batch size")
        grad = np.empty(self.n_params) if out is None else out
        g_ws, g_bs, g_head_w = self._buffer_views(grad)
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

    def _buffer_views(self, out):
        """_views(out), built only when out is not the buffer of the previous call."""
        buf, views = self._out_views
        if out is not buf:
            if not (
                isinstance(out, np.ndarray)
                and out.dtype == np.float64
                and out.shape == (self.n_params,)
                and out.flags.c_contiguous
            ):
                raise ValueError(f"out must be a contiguous float64 array of shape ({self.n_params},)")
            views = self._views(out)
            self._out_views = (out, views)
        return views
