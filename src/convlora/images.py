"""Image codecs and pixel-space transforms.

Binary PPM (P6, 8-bit) is the native image format so the pipeline decodes
without third-party libraries; PNG loading is available when Pillow happens
to be installed. Saliency maps are written as binary PGM (P5).

Transforms operate on float arrays in [H, W, C] layout, values 0..255.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

try:
    from PIL import Image as _PILImage
except ImportError:
    _PILImage = None


class ImageFormatError(ValueError):
    """The file is not a supported or well-formed image."""


def _read_pnm_header(data: bytes, magic: bytes) -> tuple[list[int], int]:
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


def read_ppm(path: str | Path) -> np.ndarray:
    """Decode a binary P6 image to a uint8 [H, W, 3] array."""
    data = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(data, b"P6")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    need = width * height * 3
    if len(data) - offset < need:
        raise ImageFormatError(f"truncated pixel data in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    return pixels.reshape(height, width, 3).copy()


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a uint8 [H, W, 3] array as binary P6."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError(f"write_ppm expects uint8 [H, W, 3], got "
                         f"{pixels.dtype} {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a uint8 [H, W] array as binary P5 (grayscale)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError(f"write_pgm expects uint8 [H, W], got "
                         f"{pixels.dtype} {pixels.shape}")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Decode a binary P5 image to a uint8 [H, W] array."""
    data = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(data, b"P5")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    need = width * height
    if len(data) - offset < need:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return np.frombuffer(data, dtype=np.uint8, count=need,
                         offset=offset).reshape(height, width).copy()


def read_image(path: str | Path) -> np.ndarray:
    """Load an image file to uint8 [H, W, 3]; .ppm natively, .png via Pillow."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    if suffix == ".png":
        if _PILImage is None:
            raise ImageFormatError("PNG support requires Pillow; use PPM instead")
        with _PILImage.open(path) as im:
            return np.asarray(im.convert("RGB"), dtype=np.uint8).copy()
    raise ImageFormatError(f"unsupported image format: {path.name}")


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


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    # symmetric reflection without edge repetition, period 2n - 2
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def rotate_bilinear(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate a float [H, W, C] array around its center, bilinear sampling
    with reflect padding for out-of-frame coordinates."""
    if degrees == 0.0:
        return img.astype(np.float32, copy=False)
    h, w = img.shape[:2]
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    # inverse mapping: sample source coordinates for each output pixel
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


def normalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Scale 0..255 pixels to unit range, then standardize per channel."""
    return (img / 255.0 - mean) / std


def denormalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (img * std + mean) * 255.0
