"""Image codecs and pixel-space transforms.

Binary PPM (P6, 8-bit) is the native image format so the pipeline decodes
without third-party libraries; PNG loading is available when Pillow happens
to be installed. Saliency maps are written as binary PGM (P5).

Transforms operate on float arrays in [H, W, C] layout, values 0..255;
``rotate_bilinear`` also takes an [N, H, W, C] batch.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

try:
    from PIL import Image as _PILImage
except ImportError:
    _PILImage = None


class ImageFormatError(ValueError):
    """The file is not a supported or well-formed image."""


# three header fields, each whitespace and comments ('#' where a field would
# start, to the newline), then non-whitespace, empty only at the end of file
_PNM_HEADER = re.compile(3 * rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pnm(path: str | os.PathLike, magic: bytes, channels: int) -> np.ndarray:
    """Decode a binary PNM file of 8-bit samples with the given magic."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic):
        raise ImageFormatError(f"not a {magic.decode()} file")
    header = _PNM_HEADER.match(data, len(magic))
    fields: list[int] = []
    for field in header.groups():
        if not field:
            raise ImageFormatError("truncated header")
        if not field.isdigit():
            raise ImageFormatError(f"non-numeric header field {field[:16]!r}")
        fields.append(int(field))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise ImageFormatError(f"empty image ({width}x{height})")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    shape = (height, width) if channels == 1 else (height, width, channels)
    need = math.prod(shape)
    offset = header.end() + 1  # single whitespace after maxval
    if len(data) - offset < need:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return np.frombuffer(data, np.uint8, need, offset).reshape(shape).copy()


def _write_pnm(path: str | os.PathLike, pixels: np.ndarray, magic: bytes,
               channels: int) -> None:
    """Write uint8 pixels as a binary PNM file with the given magic."""
    pixels = np.asarray(pixels)
    tail = () if channels == 1 else (channels,)
    if pixels.ndim != 2 + len(tail) or pixels.shape[2:] != tail or pixels.dtype != np.uint8:
        layout = ("pgm expects uint8 [H, W]" if channels == 1
                  else f"ppm expects uint8 [H, W, {channels}]")
        raise ValueError(f"write_{layout}, got {pixels.dtype} {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Decode a binary P6 image to a uint8 [H, W, 3] array."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Decode a binary P5 image to a uint8 [H, W] array."""
    return _read_pnm(path, b"P5", 1)


def write_ppm(path: str | os.PathLike, pixels: np.ndarray) -> None:
    """Write a uint8 [H, W, 3] array as binary P6."""
    _write_pnm(path, pixels, b"P6", 3)


def write_pgm(path: str | os.PathLike, pixels: np.ndarray) -> None:
    """Write a uint8 [H, W] array as binary P5 (grayscale)."""
    _write_pnm(path, pixels, b"P5", 1)


def read_image(path: str | os.PathLike) -> np.ndarray:
    """Load an image file to uint8 [H, W, 3]; .ppm natively, .png via Pillow.

    The format comes from the file name by ``data.scan_dataset``'s rule: a
    non-empty stem, a dot, then the suffix in any case."""
    name = os.path.basename(path)
    stem, _, suffix = name.rpartition(".")
    suffix = suffix.lower() if stem else ""
    if suffix == "ppm":
        return read_ppm(path)
    if suffix == "png":
        if _PILImage is None:
            raise ImageFormatError("PNG support requires Pillow; use PPM instead")
        with _PILImage.open(path) as im:
            return np.asarray(im.convert("RGB"), dtype=np.uint8).copy()
    raise ImageFormatError(f"unsupported image format: {name}")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a float [H, W, C] array (half-pixel centers)."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.astype(np.float32, copy=False)
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    img = img.astype(np.float32, copy=False)
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def hflip(img: np.ndarray) -> np.ndarray:
    """Mirror a [H, W, C] array horizontally (an exact involution)."""
    return img[:, ::-1].copy()


# output pixels per rotation pass over a slice of the batch: bounds the
# float64 temporaries to a few MB whatever the batch and image size
_ROTATE_CHUNK_PIXELS = 1 << 16


def rotate_bilinear(img: np.ndarray, degrees) -> np.ndarray:
    """Rotate a float [H, W, C] image, or an [N, H, W, C] batch with one angle
    per image, around its center: bilinear sampling with reflect padding
    (period 2n - 2, no edge repetition) for out-of-frame coordinates.

    The input is cast to float32 and the result is float64, except that one
    image rotated by exactly 0 degrees comes back as the float32 cast.
    """
    if img.ndim == 3 and degrees == 0.0:
        return img.astype(np.float32, copy=False)
    batch = img if img.ndim == 4 else img[None]
    angles = list(degrees) if img.ndim == 4 else [degrees]
    if len(angles) != len(batch):
        raise ValueError(f"rotate_bilinear: {len(angles)} angles for "
                         f"{len(batch)} images")
    thetas = [math.radians(d) for d in angles]
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError("rotate_bilinear: angles must be finite")
    # math, not numpy, trigonometry: numpy's vectorised cos/sin may differ
    # from it in the last place
    cos_t = np.array([math.cos(t) for t in thetas])
    sin_t = np.array([math.sin(t) for t in thetas])
    n, h, w, c = batch.shape
    out = np.empty((c, n, h, w))
    step = max(1, _ROTATE_CHUNK_PIXELS // (h * w))
    for start in range(0, n, step):
        part = slice(start, start + step)
        _rotate_into(out[:, part], batch[part], cos_t[part], sin_t[part])
    out = out.transpose(1, 2, 3, 0)
    return out if img.ndim == 4 else out[0]


def _rotate_into(out: np.ndarray, img: np.ndarray, cos_t: np.ndarray,
                 sin_t: np.ndarray) -> None:
    """Rotate [N, H, W, C] images into the float64 [C, N, H, W] ``out``."""
    n, h, w, c = img.shape
    cos_t, sin_t = cos_t[:, None, None], sin_t[:, None, None]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    # inverse mapping: sample source coordinates for each output pixel
    wy = cos_t * yy + sin_t * xx + cy
    wx = -sin_t * yy + cos_t * xx + cx
    y0 = np.floor(wy)
    x0 = np.floor(wx)
    wy -= y0
    wx -= x0
    y0 = y0.astype(np.intp)
    x0 = x0.astype(np.intp)
    # reflect-pad every plane by the farthest source coordinate, so that each
    # bilinear corner is one flat gather
    top, left = max(0, -int(y0.min())), max(0, -int(x0.min()))
    bottom = max(0, int(y0.max()) + 2 - h)
    right = max(0, int(x0.max()) + 2 - w)
    planes = img.astype(np.float32, copy=False).transpose(3, 0, 1, 2)
    planes = np.pad(planes.astype(np.float64),
                    ((0, 0), (0, 0), (top, bottom), (left, right)), mode="reflect")
    hp, wp = planes.shape[2:]
    planes = planes.reshape(c, -1)
    idx = y0
    idx += top + np.arange(n)[:, None, None] * hp
    idx *= wp
    idx += x0
    idx += left
    omy, omx = 1 - wy, 1 - wx
    # top = g00*(1-wx) + g01*wx, bot likewise, top*(1-wy) + bot*wy: the
    # operation order of a per-image float64 lerp, so every bit matches it
    a = np.empty((n, h, w))
    b = np.empty((n, h, w))
    for plane, o in zip(planes, out):
        np.take(plane, idx, out=a, mode="clip")
        a *= omx
        np.take(plane[1:], idx, out=b, mode="clip")
        b *= wx
        a += b
        a *= omy
        np.take(plane[wp:], idx, out=b, mode="clip")
        b *= omx
        np.take(plane[wp + 1:], idx, out=o, mode="clip")
        o *= wx
        b += o
        b *= wy
        np.add(a, b, out=o)


def normalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Scale 0..255 pixels to unit range, then standardize per channel, in
    the input's precision (float64 for integer pixels)."""
    out = img / 255.0
    out -= mean
    out /= std
    return out


def denormalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (img * std + mean) * 255.0
