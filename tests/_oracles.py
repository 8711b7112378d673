"""Independent brute-force reference implementations used by tests only.

These recompute metrics directly from raw (prediction, label) pairs with
plain counters, doing the ratio arithmetic in exact rationals (as the
library documents), sharing no code with it.
"""

import math
from fractions import Fraction

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
