"""Independent brute-force reference implementations used only by tests.

Everything here is written as plain loops over definitions, deliberately
ignoring how the package computes the same quantities.
"""

from pathlib import Path

import numpy as np

from penet.data import (PointCloud, _read_part_labels, _text_lines,
                        canonical_start, farthest_point_sample)
from penet.errors import EmptyCloudError, FormatError
from penet.heads import predict
from penet.train import MetricsReport, category_parts, shape_miou


def naive_linear(x, w, b):
    n, din = x.shape
    dout = w.shape[1]
    out = np.zeros((n, dout), dtype=np.float64)
    for i in range(n):
        for j in range(dout):
            acc = 0.0
            for k in range(din):
                acc += float(x[i, k]) * float(w[k, j])
            out[i, j] = acc + float(b[j])
    return out


def naive_conv2d(x, kernels, b, stride, pad):
    n, c, h, w = x.shape
    co, _, kh, kw = kernels.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for ni in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += float(xp[ni, ci, i * stride + u,
                                                j * stride + v]) * \
                                       float(kernels[o, ci, u, v])
                    out[ni, o, i, j] = acc + float(b[o])
    return out


def gather_conv2d(x, w, b, pad):
    """Stride-1 convolution by im2col over a sliding_window_view gather.
    Returns (out, backward); backward(dout) returns (dx, dw, db), with dx
    scattered into a zero NCHW buffer tap by tap in (u, v) order."""
    n, c, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh, ow = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, -1)
    wmat = w.reshape(cout, -1)
    out = np.ascontiguousarray((cols @ wmat.T + b).transpose(0, 3, 1, 2))

    def backward(dout):
        d_flat = dout.transpose(0, 2, 3, 1).reshape(-1, cout)
        dw = (d_flat.T @ cols.reshape(-1, cols.shape[-1])).reshape(w.shape)
        db = d_flat.sum(axis=0)
        dcols = (d_flat @ wmat).reshape(n, oh, ow, c, k, k)
        dx_pad = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=dout.dtype)
        for u in range(k):
            for v in range(k):
                dx_pad[:, :, u:u + oh, v:v + ow] += \
                    dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
        return dx_pad[:, :, pad:pad + h, pad:pad + wd], dw, db

    return out, backward


def naive_maxpool2d(x, window, stride):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    out[ni, ci, i, j] = x[ni, ci,
                                          i * stride:i * stride + window,
                                          j * stride:j * stride + window].max()
    return out


def argmax_maxpool2d(x, window):
    """Non-overlapping max pooling by first-index argmax over each window's
    row-major cells. Returns (out, backward); backward(dout) scatter-adds
    dout into zeros at the argmax cells, trailing cells staying zero."""
    n, c, h, w = x.shape
    k = window
    oh, ow = h // k, w // k
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::k, ::k, :, :].reshape(n, c, oh, ow, k * k)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def backward(dout):
        dx = np.zeros(x.shape, dtype=dout.dtype)
        ii, jj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        rows = ii * k + arg // k
        cols = jj * k + arg % k
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(dx, (ni, ci, rows, cols), dout)
        return dx

    return out, backward


def where_relu(x):
    """ReLU as np.where on the x > 0 mask. Returns (out, backward);
    backward(dout) multiplies dout by that mask."""
    mask = x > 0
    out = np.where(mask, x, x.dtype.type(0))
    return out, lambda dout: dout * mask


def relu_then_pool_forward(head, grid):
    """ClassHead.forward with each ReLU applied before its pool."""
    h = head.pool1.forward(head.relu1.forward(head.conv1.forward(grid)))
    h = head.pool2.forward(head.relu2.forward(head.conv2.forward(h)))
    head._conv_out_shape = h.shape
    h = head.relu3.forward(head.fc1.forward(h.reshape(h.shape[0], -1)))
    return head.fc2.forward(h)


def relu_then_pool_backward(head, dlogits):
    """The backward of relu_then_pool_forward."""
    g = head.fc1.backward(head.relu3.backward(head.fc2.backward(dlogits)))
    g = g.reshape(head._conv_out_shape)
    g = head.conv2.backward(head.relu2.backward(head.pool2.backward(g)))
    return head.conv1.backward(head.relu1.backward(head.pool1.backward(g)))


def reference_adam_step(opt, params):
    """One Adam step on an Adam instance's state, written with whole-array
    temporaries in the update's defining operation order."""
    opt.step_count += 1
    t = opt.step_count
    for p in params:
        m = opt._m.setdefault(p.name, np.zeros_like(p.value))
        v = opt._v.setdefault(p.name, np.zeros_like(p.value))
        m *= opt.beta1
        m += (1.0 - opt.beta1) * p.grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * p.grad * p.grad
        mhat = m / (1.0 - opt.beta1 ** t)
        vhat = v / (1.0 - opt.beta2 ** t)
        p.value -= (opt.lr * mhat / (np.sqrt(vhat) + opt.eps)).astype(p.value.dtype)


def reference_sgd_step(opt, params):
    """One SGD step that casts the scaled gradient to the parameter dtype
    with a copy."""
    for p in params:
        p.value -= (p.value.dtype.type(opt.lr) * p.grad).astype(p.value.dtype)
    opt.step_count += 1


def naive_fps(points, n, start=0):
    """Recompute the full min-distance-to-selected for every candidate at
    every step. O(n * N^2)."""
    total = len(points)
    chosen = [start]
    for _ in range(1, n):
        best_idx, best_d = None, -1.0
        for cand in range(total):
            d = min(float(np.sum((points[cand] - points[s]) ** 2))
                    for s in chosen)
            if d > best_d:
                best_d, best_idx = d, cand
        chosen.append(best_idx)
    return chosen


def reference_fps_indices(planes, n, start):
    """(bs, n) greedy FPS indices of a planar (3, bs, T) batch, each step
    gathering the chosen points plane by plane and subtracting them into
    fresh arrays: the kernel farthest_point_sample used to run."""
    rows = np.arange(planes.shape[1])

    def sq_dist(idx):
        dx, dy, dz = (p - p[rows, idx, None] for p in planes)
        dx *= dx
        dy *= dy
        dz *= dz
        dx += dy
        dx += dz
        return dx

    chosen = np.empty((planes.shape[1], n), dtype=np.int64)
    chosen[:, 0] = start
    min_d2 = sq_dist(start)
    for i in range(1, n):
        idx = min_d2.argmax(axis=1)
        chosen[:, i] = idx
        np.minimum(min_d2, sq_dist(idx), out=min_d2)
    return chosen


def numeric_grad(loss_fn, array, eps=1e-5):
    """Central finite differences of loss_fn() w.r.t. every entry of array
    (mutated in place and restored)."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_fn()
        flat[i] = orig - eps
        lm = loss_fn()
        flat[i] = orig
        grad.reshape(-1)[i] = (lp - lm) / (2 * eps)
    return grad


def naive_miou(gt, pred, parts):
    """Set-arithmetic IoU per part, empty union counts as 1."""
    scores = []
    for part in parts:
        g = {i for i, l in enumerate(gt) if l == part}
        p = {i for i, l in enumerate(pred) if l == part}
        union = g | p
        scores.append(1.0 if not union else len(g & p) / len(union))
    return sum(scores) / len(scores)


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / denom)


def unpooled_pass(model, x, dlogits):
    """A Classifier's or Segmenter's forward and backward in the per-point
    order: embed every point with the 2-D encoder path, take each cloud's
    mean of its (N, k) embeddings, min-max it with GlobalPool, run the head,
    and backprop the same chain. Returns (logits, {param name: grad});
    leaves grads set."""
    bs, n, din = x.shape
    enc = model.encoder
    model.zero_grads()
    classify = model.task == "classify"
    tap = None if classify else model.LOCAL_LAYER
    emb = enc.forward(x.reshape(bs * n, din), tap=tap)
    feat = model.pool.forward(emb.reshape(bs, n, model.k).mean(axis=1))
    if classify:
        g = int(round(model.k ** 0.5))
        logits = model.head.forward(feat.reshape(bs, 1, g, g))
        dfeat = model.head.backward(dlogits).reshape(bs, model.k)
        d_tapped = None
    else:
        width = enc.tapped.shape[1]
        logits = model.head.forward(enc.tapped.reshape(bs, n, width), feat)
        d_local, dfeat = model.head.backward(dlogits)
        d_tapped = d_local.reshape(bs * n, width)
    dmean = model.pool.backward(dfeat)
    enc.backward(np.repeat(dmean / n, n, axis=0), d_tapped=d_tapped)
    return logits.copy(), {p.name: p.grad.copy() for p in model.params()}


# -- the pooled body before the encoder took each cloud's mean ----------------
# GlobalPool used to take the mean over the point axis itself, and the
# encoder had a separate (m, din) per-point path; these keep both as the
# references the (bs, k) GlobalPool and the one blockwise encoder pass must
# match byte for byte.


class ReferenceGlobalPool:
    """Mean over N of (bs, N, k) embeddings, then rowwise min-max; backward
    scatters the min/max subgradient with np.subtract.at / np.add.at and
    broadcasts the mean's gradient, divided by N, to every point."""

    def forward(self, e):
        m = e.mean(axis=1)
        rows = np.arange(m.shape[0])
        imin, imax = m.argmin(axis=1), m.argmax(axis=1)
        lo = m[rows, imin]
        span = m[rows, imax] - lo
        degenerate = span == 0
        span = np.where(degenerate, 1.0, span)
        out = (m - lo[:, None]) / span[:, None]
        out[degenerate] = 0.0
        self._cache = (e.shape, imin, imax, span, degenerate, out)
        return out

    def backward(self, dout):
        shape, imin, imax, span, degenerate, out = self._cache
        bs, n, k = shape
        rows = np.arange(bs)
        dmean = dout / span[:, None]
        s_all = dout.sum(axis=1) / span
        s_span = (dout * out).sum(axis=1) / span
        np.subtract.at(dmean, (rows, imin), s_all)
        np.subtract.at(dmean, (rows, imax), s_span)
        np.add.at(dmean, (rows, imin), s_span)
        dmean[degenerate] = 0.0
        return np.broadcast_to((dmean / n)[:, None, :], (bs, n, k)).astype(
            dout.dtype).copy()


def reference_point_encoder(encoder, x):
    """The encoder's old (m, din) path over its weights: every layer on
    the points as rows, ReLU after each layer but the last. Returns
    ((m, k) embeddings, [post-ReLU activation of each hidden layer])."""
    h, hidden = x, []
    for i, layer in enumerate(encoder.layers):
        h = h @ layer.w.value + layer.b.value
        if i < len(encoder.layers) - 1:
            h = np.maximum(h, h.dtype.type(0))
            hidden.append(h)
    return h, hidden


def concat_seg_head(head, local, glob, dlogits):
    """SegHead's forward and backward over the literal join: repeat each
    cloud's global feature to its N points, concatenate the local feature
    and run dense layers with ReLU on the (bs*N, k + local_dim) matrix.
    Returns (logits, d_local, d_global, {param name: grad})."""
    bs, n, d = local.shape
    k = glob.shape[1]
    x = np.concatenate([np.repeat(glob[:, None, :], n, axis=1), local],
                       axis=2).reshape(bs * n, k + d)
    layers = [head.fc1, head.fc2, head.fc3]
    inputs, pre = [], []
    h = x
    for i, layer in enumerate(layers):
        inputs.append(h)
        z = h @ layer.w.value + layer.b.value
        pre.append(z)
        h = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    logits = h.reshape(bs, n, -1)

    grads = {}
    g = dlogits.reshape(bs * n, -1)
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            g = g * (pre[i] > 0)
        layer = layers[i]
        grads[layer.w.name] = inputs[i].T @ g
        grads[layer.b.name] = g.sum(axis=0)
        g = g @ layer.w.value.T
    g = g.reshape(bs, n, k + d)
    return logits, g[:, :, k:], g[:, :, :k].sum(axis=1), grads


# -- evaluation as the per-count, per-cloud pipeline ---------------------------
# The sweep used to evaluate one count at a time, sampling every batch
# afresh for each count and building a centered PointCloud per cloud; these
# keep that pipeline as the reference the batch-major path must match byte
# for byte. They sample with the package's FPS, which has its own oracle.


def reference_zero_mean_normalize(cloud):
    """Center one cloud on its (N, 3) column mean and divide by the largest
    np.linalg.norm, unless that is 0."""
    pts = cloud.points - cloud.points.mean(axis=0)
    radius = float(np.linalg.norm(pts, axis=1).max())
    if radius > 0:
        pts = pts / radius
    return PointCloud(pts, normals=cloud.normals,
                      part_labels=cloud.part_labels,
                      class_label=cloud.class_label)


def reference_augment(cloud, cfg):
    """The PointCloud-in, PointCloud-out augment with its seed in the
    config: ``cfg`` has AugmentConfig's fields plus ``seed``. Jitter,
    shift and scale are drawn in that order from default_rng(cfg.seed)."""
    rng = np.random.default_rng(cfg.seed)
    n = len(cloud)
    jitter = np.clip(rng.normal(0.0, cfg.jitter_sigma, size=(n, 3))
                     if cfg.jitter_sigma > 0 else np.zeros((n, 3)),
                     -cfg.jitter_clip, cfg.jitter_clip)
    shift = rng.uniform(-cfg.shift_range, cfg.shift_range, size=3)
    scale = rng.uniform(cfg.scale_range[0], cfg.scale_range[1])
    pts = (cloud.points + jitter) * scale + shift
    return PointCloud(pts.astype(np.float32), normals=cloud.normals,
                      part_labels=cloud.part_labels,
                      class_label=cloud.class_label)


def reference_save_cloud_text(cloud, path):
    """The per-value text writer: one f"{v:.6f}" per value, rows joined by
    newlines plus a final one, and a .seg sidecar of str(int(label)) lines
    when the cloud has part labels."""
    path = Path(path)
    cols = cloud.features()
    lines = [" ".join(f"{v:.6f}" for v in row) for row in cols]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if cloud.part_labels is not None:
        seg = path.with_suffix(path.suffix + ".seg")
        seg.write_text("\n".join(str(int(l)) for l in cloud.part_labels) + "\n",
                       encoding="utf-8")


def reference_load_cloud_text(path, seg_path=None):
    """The per-token text parser: one float() per token as each line is
    read, each row a list of Python floats, then one conversion of the
    list of rows to float32."""
    path = Path(path)
    rows = []
    ncols = None
    for lineno, line in _text_lines(path):
        toks = line.split()
        if not toks:
            continue
        if ncols is None:
            ncols = len(toks)
            if ncols not in (3, 6):
                raise FormatError(
                    f"{path}:{lineno}: expected 3 or 6 columns, got {ncols}")
        elif len(toks) != ncols:
            raise FormatError(
                f"{path}:{lineno}: ragged row, expected {ncols} columns, "
                f"got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-numeric token: {exc}")
    if not rows:
        raise EmptyCloudError(f"{path}: no points")
    with np.errstate(over="ignore"):
        arr = np.asarray(rows, dtype=np.float32)
    normals = arr[:, 3:6] if ncols == 6 else None
    part_labels = None
    if seg_path is None:
        sidecar = path.with_suffix(path.suffix + ".seg")
        seg_path = sidecar if sidecar.exists() else None
    if seg_path is not None:
        part_labels = _read_part_labels(seg_path, len(arr))
    return PointCloud(arr[:, :3], normals=normals, part_labels=part_labels)


def reference_prepare_batch(clouds, n):
    """One FPS call for the clouds not already of size n, each from its
    canonical start, then one reference_zero_mean_normalize per cloud."""
    to_sample = [c for c in clouds if len(c) != n]
    sampled = {}
    if to_sample:
        sampled = dict(zip(map(id, to_sample), farthest_point_sample(
            to_sample, n, [canonical_start(c) for c in to_sample])))
    return [reference_zero_mean_normalize(sampled.get(id(c), c))
            for c in clouds]


def reference_eval_batches(model, clouds, n, batch_size=32):
    """(prepared clouds, logits) per batch, the input stacked from each
    prepared cloud's features."""
    for b0 in range(0, len(clouds), batch_size):
        prepared = reference_prepare_batch(clouds[b0:b0 + batch_size], n)
        yield prepared, model.forward(
            np.stack([c.features() for c in prepared]))


def reference_classification(model, clouds, n):
    """evaluate_classification's MetricsReport, seconds left at 0."""
    total, hit = {}, {}
    for prepared, logits in reference_eval_batches(model, clouds, n):
        for cloud, pred in zip(prepared, predict(logits)):
            y = cloud.class_label
            total[y] = total.get(y, 0) + 1
            if pred == y:
                hit[y] = hit.get(y, 0) + 1
    return MetricsReport(
        instance_accuracy=sum(hit.values()) / len(clouds),
        class_accuracy=float(np.mean([hit.get(c, 0) / t
                                      for c, t in total.items()])),
        per_class_counts=total)


def reference_segmentation(model, clouds, n):
    """evaluate_segmentation's MetricsReport, seconds left at 0, with the
    part sets taken from the clouds' ground truth."""
    parts_by_category = category_parts(clouds)
    scores, all_scores, correct, total = {}, [], 0, 0
    for prepared, logits in reference_eval_batches(model, clouds, n):
        for cloud, cloud_logits in zip(prepared, logits):
            pred = predict(cloud_logits)
            score = shape_miou(cloud.part_labels, pred,
                               parts_by_category[cloud.class_label])
            scores.setdefault(cloud.class_label, []).append(score)
            all_scores.append(score)
            correct += int((pred == cloud.part_labels).sum())
            total += len(pred)
    return MetricsReport(
        instance_accuracy=correct / total,
        per_category_miou={c: float(np.mean(s)) for c, s in scores.items()},
        mean_miou=float(np.mean(all_scores)))


def reference_sweep(model, clouds, counts, out_csv=None):
    """sweep_point_count one count at a time, in the given order."""
    rows = []
    for n in counts:
        report = reference_classification(model, clouds, n)
        rows.append((n, report.instance_accuracy, report.class_accuracy))
    if out_csv is not None:
        lines = ["n_points,instance_acc,class_acc"]
        lines += [f"{n},{i:.6f},{c:.6f}" for n, i, c in rows]
        out_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows
