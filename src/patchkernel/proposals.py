"""Object-like patch proposals and 8-way rotation augmentation.

The objectness score is a training-free center-minus-ring contrast on the
normed-gradient map: windows whose interior carries more gradient energy
than their border ring look like closed objects.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .embed import PATCH_SIDE, ROTATION_COUNT
from .raster import Image, _rotate_crop_array, resize_bilinear

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

MIN_PATCH_SIDE = 16
DEFAULT_SCALES = (32, 64, 128)
ROTATION_STEP_DEG = 45.0
# patch_rasters copies at most this many window pixels (1 MB of float64) at
# once. At default flags a 128 x 128 image keeps at most 127 windows of 32
# px, 25 of 64 px and 1 of 128 px, so none of its size groups is split.
_GATHER_PIXELS = 1 << 17


class Patch(NamedTuple):
    """Rectangular proposal with its contrast score; p[:4] is its (x, y, w, h)."""

    x: int
    y: int
    w: int
    h: int
    objectness: float


def check_patch_side(img: Image) -> None:
    """Refuse an image with a side below MIN_PATCH_SIDE: no patch fits in it."""
    if min(img.width, img.height) < MIN_PATCH_SIDE:
        raise ValueError(
            f"image {img.width}x{img.height} is below the {MIN_PATCH_SIDE}-px minimum patch side"
        )


def window_sides(img: Image, scales: tuple[int, ...] | None) -> list[int]:
    """The window sides that fit the image, ascending; scales=None means
    DEFAULT_SCALES plus the image's short side."""
    short = min(img.height, img.width)
    base = scales if scales is not None else DEFAULT_SCALES + (short,)
    return sorted({int(s) for s in base if s <= short})


def objectness_map(img: Image) -> np.ndarray:
    """Per-pixel normed gradient |g_x| + |g_y| via central differences, clipped to [0, 1]."""
    gy, gx = np.gradient(img.pixels)
    return np.clip(np.abs(gx) + np.abs(gy), 0.0, 1.0)


def iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Intersection-over-union of two (x, y, w, h) rectangles."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _center_ring_score(
    ii: np.ndarray, x: int | np.ndarray, y: int | np.ndarray, w: int, h: int
) -> float | np.ndarray:
    """Inner 50% box mean minus border-ring mean of objectness, at one origin or an array."""
    inner_sum = _box_sum(ii, y + h // 4, x + w // 4, h // 2, w // 2)
    total_sum = _box_sum(ii, y, x, h, w)
    inner_area = (h // 2) * (w // 2)
    ring_area = h * w - inner_area
    return inner_sum / inner_area - (total_sum - inner_sum) / ring_area


def _box_sum(ii: np.ndarray, y: int, x: int, h: int, w: int) -> float:
    return ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]


# Windows NMS compares in one block: its IoU temporaries stay a few hundred KB.
_NMS_BLOCK = 256


def _greedy_nms(
    y: np.ndarray, x: np.ndarray, side: np.ndarray, threshold: float, n: int
) -> np.ndarray:
    """Positions of the square windows greedy NMS keeps, at most n, in the given order.

    Each kept window drops every later one whose IoU with it is >= threshold.
    Windows go in blocks: the kept ones (at most n) first drop what they
    suppress in a block, then the block's own IoU matrix decides the rest, so
    memory stays linear in the window count. IoU is the integer intersection
    over the integer union in one true division: the float iou() returns, as
    both stay below 2**53.
    """
    right, bottom, area = x + side, y + side, side * side

    def suppresses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = a[:, None]
        ix = np.minimum(right[a], right[b]) - np.maximum(x[a], x[b])
        iy = np.minimum(bottom[a], bottom[b]) - np.maximum(y[a], y[b])
        inter = np.maximum(ix, 0) * np.maximum(iy, 0)
        return inter / (area[a] + area[b] - inter) >= threshold

    kept: list[int] = []
    for start in range(0, len(y), _NMS_BLOCK):
        rows = np.arange(start, min(start + _NMS_BLOCK, len(y)))
        rows = rows[~suppresses(np.array(kept, dtype=np.intp), rows).any(axis=0)]
        within = suppresses(rows, rows)
        alive = np.ones(len(rows), dtype=bool)
        for i in range(len(rows)):
            if alive[i]:
                kept.append(rows[i])
                if len(kept) == n:
                    return np.array(kept, dtype=np.intp)
                alive &= ~within[i]
    return np.array(kept, dtype=np.intp)


def propose(img: Image, cfg: PipelineConfig) -> list[Patch]:
    """Top N = cfg.n_proposals windows after greedy NMS at cfg.nms_iou, scores non-increasing.

    Square windows slide at each side of window_sides(img, cfg.scales) with
    stride side/4; only windows with positive center-minus-ring contrast
    compete. Ties break by (y, x, w) ascending. When fewer than N windows
    survive, the full frame is appended so every image yields at least one patch.
    An image with a side below MIN_PATCH_SIDE is refused.
    """
    check_patch_side(img)
    scales = window_sides(img, cfg.scales)
    if not scales:
        raise ValueError(
            f"image {img.width}x{img.height} smaller than every configured scale"
        )
    omap = objectness_map(img)
    ii = np.zeros((img.height + 1, img.width + 1))
    np.cumsum(np.cumsum(omap, axis=0), axis=1, out=ii[1:, 1:])

    scores, ys, xs, sides = [], [], [], []
    for scale in scales:
        stride = max(1, scale // 4)
        yy, xx = np.meshgrid(
            np.arange(0, img.height - scale + 1, stride),
            np.arange(0, img.width - scale + 1, stride),
            indexing="ij",
        )
        grid = _center_ring_score(ii, xx, yy, scale, scale)
        positive = grid > 0.0
        scores.append(grid[positive])
        ys.append(yy[positive])
        xs.append(xx[positive])
        sides.append(np.full(np.count_nonzero(positive), scale))
    score, y, x, side = (np.concatenate(parts) for parts in (scores, ys, xs, sides))
    # Each (y, x, side) is unique, so this key leaves no ties.
    order = np.lexsort((side, x, y, -score))
    score, y, x, side = score[order], y[order], x[order], side[order]
    kept = _greedy_nms(y, x, side, cfg.nms_iou, cfg.n_proposals)

    side = side[kept].tolist()
    patches = list(map(Patch, x[kept].tolist(), y[kept].tolist(), side, side, score[kept].tolist()))
    if len(patches) < cfg.n_proposals:
        frame = (0, 0, img.width, img.height)
        if frame not in (p[:4] for p in patches):
            patches.append(Patch(*frame, float(_center_ring_score(ii, *frame))))
    return patches


def patch_rasters(img: Image, patches: list[Patch]) -> np.ndarray:
    """Crop each patch from the image and resize it to P x P: an (n, P, P) array.

    Windows of one size are stacked and resized together, in blocks of at
    most _GATHER_PIXELS window pixels (one window at least); a P x P window
    is copied verbatim. The first window with a side below MIN_PATCH_SIDE, a
    negative origin or an edge beyond the image is refused by name.
    """
    rects = np.array([p[:4] for p in patches], dtype=np.intp).reshape(-1, 4)
    x, y, w, h = rects.T
    small = np.minimum(w, h) < MIN_PATCH_SIDE
    negative = np.minimum(x, y) < 0
    bad = small | negative | (x + w > img.width) | (y + h > img.height)
    if bad.any():
        i = int(bad.argmax())
        problem = (
            f"has a side below the {MIN_PATCH_SIDE}-px minimum" if small[i]
            else "has a negative origin" if negative[i]
            else f"exceeds {img.width}x{img.height} image"
        )
        raise ValueError(f"patch {tuple(rects[i].tolist())} {problem}")
    out = np.empty((len(rects), PATCH_SIDE, PATCH_SIDE))
    for size_w, size_h in np.unique(rects[:, 2:], axis=0).tolist():
        members = np.flatnonzero((w == size_w) & (h == size_h))
        windows = np.lib.stride_tricks.sliding_window_view(img.pixels, (size_h, size_w))
        step = max(1, _GATHER_PIXELS // (size_h * size_w))
        for start in range(0, len(members), step):
            block = members[start : start + step]
            out[block] = resize_bilinear(windows[y[block], x[block]], PATCH_SIDE, PATCH_SIDE)
    return out


def augment_rotations(img: Image, patches: list[Patch]) -> tuple[np.ndarray, np.ndarray]:
    """The two rasters per patch that its 8 rotated copies derive from.

    Returns (pairs, turns). pairs (n, 2, P, P) holds each patch's canonical
    quarter turn c = rot90(base, k), the k in 0..3 whose raster bytes compare
    smallest (the lowest k on a tie), and c turned by 45 degrees through a
    bilinear rotate, inscribed-square crop and resize back; turns (n,) holds
    k. Copy j of rotation_stack(base) is pair j % 2 turned a further
    (j // 2 - k) mod 4 quarter turns. A base pre-rotated by q quarter turns
    (np.rot90(base, q)) has the same canonical raster, so its pairs are
    bit-identical and its turn is k - q mod 4.
    """
    bases = patch_rasters(img, patches)
    quarters = np.stack([np.rot90(bases, k, axes=(-2, -1)) for k in range(4)], axis=1)
    turns = _first_in_byte_order(quarters)
    canonical = quarters[np.arange(len(bases)), turns]
    tilted = resize_bilinear(
        _rotate_crop_array(canonical, ROTATION_STEP_DEG), PATCH_SIDE, PATCH_SIDE
    )
    return np.clip(np.stack([canonical, tilted], axis=1), 0.0, 1.0), turns


def _first_in_byte_order(stacks: np.ndarray) -> np.ndarray:
    """Per row of an (n, m, P, P) float64 array, the index along axis 1 of the
    raster whose bytes compare smallest; the lowest index on a tie."""
    # Big-endian 64-bit words order as their bytes do.
    words = stacks.reshape(stacks.shape[0], stacks.shape[1], -1).view(">u8")
    rows = np.arange(len(words))
    best = np.zeros(len(words), dtype=np.int64)
    for k in range(1, words.shape[1]):
        held, candidate = words[rows, best], words[:, k]
        first = np.argmax(held != candidate, axis=1)
        best[candidate[rows, first] < held[rows, first]] = k
    return best


def rotation_stack(bases: np.ndarray) -> np.ndarray:
    """The 8 rotated copies of a (..., P, P) stack as (..., 8, P, P).

    Copy j is the base turned by 45 j degrees: multiples of 90 are exact pixel
    permutations, the 45 family is an exact quarter turn followed by a bilinear
    rotate, inscribed-square crop and resize back. Pre-rotating a base by 90
    degrees therefore permutes its copies bit-exactly. The pipeline embeds two
    rasters per patch instead (augment_rotations); this is the definition the
    derived copies are checked against.
    """
    out = np.empty(bases.shape[:-2] + (ROTATION_COUNT, PATCH_SIDE, PATCH_SIDE))
    for j in range(ROTATION_COUNT):
        quarter = np.rot90(bases, j // 2, axes=(-2, -1))
        if j % 2 == 0:
            out[..., j, :, :] = quarter
        else:
            tilted = _rotate_crop_array(quarter, ROTATION_STEP_DEG)
            out[..., j, :, :] = resize_bilinear(tilted, PATCH_SIDE, PATCH_SIDE)
    return np.clip(out, 0.0, 1.0)


def write_patches_csv(path: str | Path, patches: list[Patch]) -> None:
    """Serialize patches as CSV: patch_id,x,y,w,h,score with 6-digit scores."""
    lines = ["patch_id,x,y,w,h,score"]
    for i, (x, y, w, h, score) in enumerate(patches):
        lines.append(f"{i},{x},{y},{w},{h},{score:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")

