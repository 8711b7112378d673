"""Independent brute-force reference implementations used by tests only.

These recompute metrics directly from raw (prediction, label) pairs with
plain counters, doing the ratio arithmetic in exact rationals (as the
library documents), sharing no code with it.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np


def oracle_metrics(preds, labels, k, averaging):
    n = len(preds)
    tp = {c: 0 for c in range(k)}
    fp = {c: 0 for c in range(k)}
    fn = {c: 0 for c in range(k)}
    correct = 0
    for p, t in zip(preds, labels):
        if p == t:
            correct += 1
            tp[p] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    support = {c: tp[c] + fn[c] for c in range(k)}

    def div(a, b):
        return Fraction(a, b) if b else Fraction(0)

    pc_p = [div(tp[c], tp[c] + fp[c]) for c in range(k)]
    pc_r = [div(tp[c], tp[c] + fn[c]) for c in range(k)]
    pc_f = [2 * pc_p[c] * pc_r[c] / (pc_p[c] + pc_r[c])
            if pc_p[c] + pc_r[c] else Fraction(0) for c in range(k)]
    if averaging == "micro":
        tps = sum(tp.values())
        fps = sum(fp.values())
        fns = sum(fn.values())
        prec = div(tps, tps + fps)
        rec = div(tps, tps + fns)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else Fraction(0)
    elif averaging == "macro":
        prec = sum(pc_p) / k
        rec = sum(pc_r) / k
        f1 = sum(pc_f) / k
    else:
        prec = sum(support[c] * pc_p[c] for c in range(k)) / n
        rec = sum(support[c] * pc_r[c] for c in range(k)) / n
        f1 = sum(support[c] * pc_f[c] for c in range(k)) / n

    pred_marg = {c: tp[c] + fp[c] for c in range(k)}
    true_marg = support
    num = correct * n - sum(true_marg[c] * pred_marg[c] for c in range(k))
    d1 = n * n - sum(pred_marg[c] ** 2 for c in range(k))
    d2 = n * n - sum(true_marg[c] ** 2 for c in range(k))
    mcc = num / math.sqrt(d1 * d2) if d1 * d2 else 0.0
    return correct / n, float(prec), float(rec), float(f1), mcc


def oracle_mcc_covariance(preds, labels, k):
    """Second route for the correlation coefficient: summed covariances of
    one-hot indicator vectors."""
    x = np.eye(k)[np.asarray(preds)]
    y = np.eye(k)[np.asarray(labels)]
    cov = sum(np.mean(x[:, c] * y[:, c]) - x[:, c].mean() * y[:, c].mean()
              for c in range(k))
    vx = sum(x[:, c].var() for c in range(k))
    vy = sum(y[:, c].var() for c in range(k))
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def closed_form_backbone_count(depths, dims, num_classes, in_channels=3, mlp=4):
    """Layer-by-layer parameter count written out independently."""
    total = dims[0] * in_channels * 16 + dims[0]
    total += 2 * dims[0]
    for s in range(4):
        c = dims[s]
        if s > 0:
            total += 2 * dims[s - 1] + c * dims[s - 1] * 4 + c
        per_block = (49 * c + c + 2 * c + mlp * c * c + mlp * c
                     + 2 * mlp * c + mlp * c * c + c)
        total += depths[s] * per_block
    total += 2 * dims[3] + num_classes * dims[3] + num_classes
    return total


def depthwise_conv2d_loops(x, k, pad):
    """Per-channel cross-correlation as explicit loops over output
    positions and kernel taps; out-of-range input reads count as zero."""
    n, c, h, w = x.shape
    kh, kw = k.shape[2:]
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    y = np.zeros((n, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            for p in range(kh):
                for q in range(kw):
                    r, s = i + p - pad, j + q - pad
                    if 0 <= r < h and 0 <= s < w:
                        y[:, :, i, j] += k[:, 0, p, q] * x[:, :, r, s]
    return y


def depthwise_conv2d_vjps_loops(x, k, g, pad):
    """Input and kernel gradients of ``depthwise_conv2d_loops`` for an
    upstream gradient g, by the same loops."""
    n, c, h, w = x.shape
    kh, kw = k.shape[2:]
    dx = np.zeros(x.shape)
    dk = np.zeros(k.shape)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            for p in range(kh):
                for q in range(kw):
                    r, s = i + p - pad, j + q - pad
                    if 0 <= r < h and 0 <= s < w:
                        dx[:, :, r, s] += k[:, 0, p, q] * g[:, :, i, j]
                        dk[:, 0, p, q] += (x[:, :, r, s] * g[:, :, i, j]).sum(axis=0)
    return dx, dk


def _reflect_index(idx, n):
    # symmetric reflection without edge repetition, period 2n - 2
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def rotate_bilinear_per_image(img, degrees):
    """One-image bilinear rotation with reflect padding, an index-folding
    formulation independent of the library's padded batch gather."""
    if degrees == 0.0:
        return img.astype(np.float32, copy=False)
    h, w = img.shape[:2]
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_y = cos_t * yy + sin_t * xx + cy
    src_x = -sin_t * yy + cos_t * xx + cx
    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    wy = (src_y - y0)[..., None]
    wx = (src_x - x0)[..., None]
    img = img.astype(np.float32, copy=False)

    def g(yi, xi):
        return img[_reflect_index(yi, h), _reflect_index(xi, w)]

    top = g(y0, x0) * (1 - wx) + g(y0, x0 + 1) * wx
    bot = g(y0 + 1, x0) * (1 - wx) + g(y0 + 1, x0 + 1) * wx
    return top * (1 - wy) + bot * wy


def adapted_linear_chain(x, w, b, adapter, train_mode=False, rng=None):
    """``lora.adapted_linear`` as the chain of six tape ops it was before
    ``tensor.lora_linear``: linear, dropout, linear (A), linear (B), scale
    and add. The reference the fused op must match bit for bit."""
    from convlora import tensor as T

    base = T.linear(x, w, b)
    h = x
    p = adapter.dropout_p
    if train_mode and p != 0.0:
        mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
        h = T._node(x.data * mask, "dropout", (x,), (lambda g: g * mask,))
    delta = T.linear(T.linear(h, adapter.A), adapter.B)
    return T.add(base, T.scale(delta, adapter.scaling))


def shift_sum_per_pixel(src, taps, ho, wo):
    """``tensor._shift_sum`` as it was before it viewed the map as flat
    rows: each tap's multiply-accumulate runs over [N, ho, wo, C] with
    loops C long. The reference the flat-row kernel must match bit for bit."""
    out = src[:, :ho, :wo] * taps[0, 0]
    tmp = np.empty_like(out)
    for p in range(taps.shape[0]):
        for q in range(taps.shape[1]):
            if p or q:
                np.multiply(src[:, p:p + ho, q:q + wo], taps[p, q], out=tmp)
                out += tmp
    return out


def merge_with_temporaries(w, adapter):
    """``lora.merge`` as it was before it worked in one buffer; the
    reference the one-buffer merge must match bit for bit."""
    from convlora import tensor as T

    ba = adapter.B.data @ adapter.A.data
    if ba.shape != w.shape:
        raise T.ShapeError(f"merge: delta shape {ba.shape} does not match weight {w.shape}")
    return w + adapter.scaling * ba.astype(w.dtype)


def load_batch_per_sample(manifest, split_name, indices, augment, train_mode,
                          seed, epoch=0):
    """Decode, resize, augment and normalize one sample at a time: the
    reference the batched ``data.load_batch`` must match bit for bit."""
    from convlora import images

    mean = np.asarray(augment.normalize_mean, dtype=np.float32)
    std = np.asarray(augment.normalize_std, dtype=np.float32)
    xs = np.empty((len(indices), 3, augment.resize, augment.resize), dtype=np.float32)
    ys = np.empty(len(indices), dtype=np.int64)
    for row, i in enumerate(indices):
        sample = manifest.samples[int(i)]
        assert sample.split == split_name
        img = images.read_image(sample.path).astype(np.float32)
        img = images.resize_bilinear(img, augment.resize, augment.resize)
        if train_mode:
            rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, int(i)]))
            if augment.hflip_prob > 0 and rng.random() < augment.hflip_prob:
                img = images.hflip(img)
            if augment.rotation_max_deg > 0:
                angle = rng.uniform(-augment.rotation_max_deg, augment.rotation_max_deg)
                img = rotate_bilinear_per_image(img, angle)
        img = (img / 255.0 - mean) / std
        xs[row] = img.transpose(2, 0, 1)
        ys[row] = sample.class_id
    return xs, ys


def _read_pnm_header(data, magic):
    from convlora.images import ImageFormatError

    if not data.startswith(magic):
        raise ImageFormatError(f"not a {magic.decode()} file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated header")
        field = data[start:pos]
        if not field.isdigit():
            raise ImageFormatError(f"non-numeric header field {field[:16]!r}")
        fields.append(int(field))
    if 0 in fields[:2]:
        raise ImageFormatError(f"empty image ({fields[0]}x{fields[1]})")
    return fields, pos + 1  # single whitespace after maxval


def read_ppm_bytewise(path):
    """Decode a binary P6 file by walking its header byte by byte: the
    reference for ``images.read_ppm``'s pattern-based header parse."""
    from convlora.images import ImageFormatError

    data = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(data, b"P6")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    need = width * height * 3
    if len(data) - offset < need:
        raise ImageFormatError(f"truncated pixel data in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    return pixels.reshape(height, width, 3).copy()


def read_pgm_bytewise(path):
    """The P5 counterpart of ``read_ppm_bytewise``."""
    from convlora.images import ImageFormatError

    data = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(data, b"P5")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    need = width * height
    if len(data) - offset < need:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return np.frombuffer(data, dtype=np.uint8, count=need,
                         offset=offset).reshape(height, width).copy()


def split_rescanning_classes(manifest, ratios=(0.8, 0.1, 0.1), seed=0, by_group=False):
    """``data.split`` as it was written before it went one pass: each sample
    copied with ``dataclasses.replace``, and all samples rescanned once per
    class. The reference the one-pass split must match."""
    import warnings
    from dataclasses import replace

    from convlora.data import SPLITS, DatasetManifest, _apportion

    if len(ratios) != 3:
        raise ValueError("ratios must have three entries (train, val, test)")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ValueError(f"ratios must be finite and non-negative, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    out = [replace(s) for s in manifest.samples]
    rng = np.random.default_rng(seed)

    if by_group:
        group_members = {}
        for i, s in enumerate(out):
            key = s.group_key if s.group_key is not None else f"__solo_{i}"
            group_members.setdefault(key, []).append(i)
        keys = sorted(group_members)
        rng.shuffle(keys)
        total = len(out)
        targets = [total * r for r in ratios]
        filled = [0, 0, 0]
        for key in keys:
            members = group_members[key]
            deficits = [targets[j] - filled[j] for j in range(3)]
            j = max(range(3), key=lambda jj: (deficits[jj], -jj))
            for i in members:
                out[i].split = SPLITS[j]
            filled[j] += len(members)
    else:
        for class_id in range(manifest.num_classes):
            idx = [i for i, s in enumerate(out) if s.class_id == class_id]
            if not idx:
                continue
            if len(idx) < len(SPLITS):
                warnings.warn(
                    f"class {manifest.class_names[class_id]!r} has only "
                    f"{len(idx)} samples; placing all in train")
                for i in idx:
                    out[i].split = "train"
                continue
            idx = np.array(idx)
            rng.shuffle(idx)
            counts = _apportion(len(idx), ratios)
            pos = 0
            for split_name, n in zip(SPLITS, counts):
                for i in idx[pos : pos + n]:
                    out[int(i)].split = split_name
                pos += n

    result = DatasetManifest(samples=out, class_names=list(manifest.class_names),
                             root=manifest.root)
    result.validate()
    return result
