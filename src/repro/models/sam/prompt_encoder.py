"""SAM's prompt encoder: points, boxes, and (low-res) masks → tokens.

Sparse prompts (points/box corners) become tokens carrying a random-Fourier
positional code plus a learned type embedding (positive point, negative
point, first corner, second corner).  Dense mask prompts are downsampled and
projected to a per-patch bias added to the image embedding.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import zoom

from ...errors import PromptError
from ..nn import Linear, ParamFactory, RandomFourierPositionEncoding

__all__ = ["PromptEncoder"]


class PromptEncoder:
    """Encodes segmentation prompts into sparse tokens + dense bias."""

    def __init__(self, params: ParamFactory, *, embed_dim: int = 64) -> None:
        if embed_dim % 2:
            raise PromptError("embed_dim must be even (sin/cos pairs)")
        self.embed_dim = embed_dim
        self.pe = RandomFourierPositionEncoding(params, "pe", embed_dim // 2)
        # Type embeddings: [negative point, positive point, box corner 1, box corner 2]
        self.type_embed = params.normal("type_embed", (4, embed_dim), std=0.5)
        self.no_mask_embed = params.normal("no_mask", (embed_dim,), std=0.5)
        self.mask_proj = Linear(params, "mask_proj", 1, embed_dim)

    def dense_pe(self, grid: tuple[int, int]) -> np.ndarray:
        """Positional codes for the image-embedding grid, ``(gh, gw, D)``."""
        return self.pe.encode_grid(grid)

    def encode_boxes(self, image_shape: tuple[int, int], boxes: np.ndarray) -> np.ndarray:
        """Encode K box prompts at once: ``(K, 4)`` XYXY → ``(K, 2, D)`` tokens.

        One positional-encoding matmul covers all 2K corners, so the batched
        mask decoder receives its whole prompt stack from a single pass.
        Tokens are element-for-element identical to K calls of :meth:`encode`.
        """
        h, w = image_shape
        b = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        if b.shape[0] == 0:
            return np.zeros((0, 2, self.embed_dim), dtype=np.float32)
        scale = np.array([w, h, w, h], dtype=np.float32)
        corners01 = (b / scale).reshape(-1, 2, 2)  # per box: [[x0,y0],[x1,y1]]
        codes = self.pe.encode_points(corners01.reshape(-1, 2)).reshape(b.shape[0], 2, self.embed_dim)
        return (codes + self.type_embed[2:4]).astype(np.float32)

    def encode(
        self,
        image_shape: tuple[int, int],
        *,
        points: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        box: np.ndarray | None = None,
        mask_input: np.ndarray | None = None,
        grid: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Build (sparse_tokens ``(T, D)``, dense_bias ``(gh, gw, D)`` or None).

        ``points`` are (x, y) pixel coordinates; ``labels`` 1 = foreground,
        0 = background.  ``box`` is XYXY pixels.
        """
        h, w = image_shape
        tokens: list[np.ndarray] = []
        if points is not None:
            pts = np.asarray(points, dtype=np.float32).reshape(-1, 2)
            if labels is None:
                raise PromptError("labels are required with points")
            labs = np.asarray(labels).reshape(-1)
            if labs.shape[0] != pts.shape[0]:
                raise PromptError(f"{pts.shape[0]} points but {labs.shape[0]} labels")
            if not np.isin(labs, (0, 1)).all():
                raise PromptError("point labels must be 0 (background) or 1 (foreground)")
            coords01 = pts / np.array([w, h], dtype=np.float32)
            codes = self.pe.encode_points(coords01)
            for code, lab in zip(codes, labs):
                tokens.append(code + self.type_embed[int(lab)])
        if box is not None:
            b = np.asarray(box, dtype=np.float32).reshape(4)
            corners01 = np.array([[b[0] / w, b[1] / h], [b[2] / w, b[3] / h]], dtype=np.float32)
            codes = self.pe.encode_points(corners01)
            tokens.append(codes[0] + self.type_embed[2])
            tokens.append(codes[1] + self.type_embed[3])
        if not tokens:
            raise PromptError("at least one of points/box must be provided")
        sparse = np.stack(tokens, axis=0).astype(np.float32)

        dense: np.ndarray | None = None
        if mask_input is not None and grid is not None:
            gh, gw = grid
            m = np.asarray(mask_input, dtype=np.float32)
            small = zoom(m, (gh / m.shape[0], gw / m.shape[1]), order=1, mode="nearest", grid_mode=True)
            small = small[:gh, :gw]
            dense = self.mask_proj(small[:, :, None])
        return sparse, dense
