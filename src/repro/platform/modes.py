"""Mode controllers matching the paper's three UI modes.

* **Mode A** — interactive segmentation of a single image or a
  user-selected slice of a volume, with HITL rectification and Further
  Segment.
* **Mode B** — batch processing of volumes or image lists.
* **Mode C** — evaluation against ground truth.

These are thin, typed wrappers over :class:`~repro.platform.session.Session`
and the eval layer — the objects a Python-literate user scripts against,
while the JSON API serves the no-code surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.results import SliceResult, VolumeResult
from ..data.datasets import AnnotatedSlice
from ..eval.evaluator import Evaluator, MethodEvaluation
from .session import Session

__all__ = ["ModeA", "ModeB", "ModeC"]


@dataclass
class ModeA:
    """Interactive single-image workflow."""

    session: Session

    def preview(self) -> dict:
        return self.session.preview()

    def select_slice(self, index: int) -> dict:
        return self.session.select_slice(index)

    def segment(self, prompt: str, hints=None) -> SliceResult:
        return self.session.segment(prompt, hints=hints)

    def rectify(self, x: float, y: float) -> dict:
        return self.session.rectify_click(x, y)

    def further_segment(self, region, prompt: str):
        return self.session.further_segment(region, prompt)


@dataclass
class ModeB:
    """Batch volume workflow: every slice through the Mode B loop."""

    session: Session

    def segment_volume(self, prompt: str, *, temporal: bool = True) -> VolumeResult:
        return self.session.segment_volume(prompt, temporal=temporal)


@dataclass
class ModeC:
    """Evaluation workflow over annotated data."""

    methods: Mapping[str, object]

    def evaluate(self, slices: Iterable[AnnotatedSlice]) -> dict[str, MethodEvaluation]:
        return Evaluator(dict(self.methods)).evaluate(slices)  # type: ignore[arg-type]
