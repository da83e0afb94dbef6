"""Composable adaptation pipelines.

An :class:`AdaptationPipeline` is an ordered list of named steps, each a
``float01 image -> float01 image`` callable.  Pipelines are the unit the
platform exposes to no-code users ("make this AI-ready").
:func:`default_fibsem_pipeline` is a stock denoise + CLAHE recipe for
robust-normalised input, used by the Fig. 1 readiness experiment and in
tests.  The segmentation pipeline does not run it: it adapts with
:meth:`repro.core.pipeline.ZenesisPipeline._adapt_body` (two branches, one
for the detector and one for the segmenter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..data.image import ScientificImage
from ..errors import ValidationError
from .bitdepth import robust_normalize, to_float01
from .contrast import clahe, stretch_contrast
from .denoise import denoise_bilateral, denoise_gaussian, denoise_median, denoise_nlm

__all__ = ["AdaptStep", "AdaptationPipeline", "default_fibsem_pipeline", "STEP_LIBRARY"]

AdaptFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AdaptStep:
    """One named adaptation step."""

    name: str
    fn: AdaptFn

    def __call__(self, image: np.ndarray) -> np.ndarray:
        return self.fn(image)


_STEP_TARGETS: dict[str, Callable] = {
    "stretch": stretch_contrast,
    "clahe": clahe,
    "gaussian": denoise_gaussian,
    "median": denoise_median,
    "bilateral": denoise_bilateral,
    "nlm": denoise_nlm,
}


def _make_step_factory(target: Callable) -> Callable[..., AdaptFn]:
    import inspect

    valid = {
        p.name
        for p in inspect.signature(target).parameters.values()
        if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
    } - {"image"}

    def factory(**kw) -> AdaptFn:
        unknown = set(kw) - valid
        if unknown:
            raise TypeError(f"unknown parameter(s) {sorted(unknown)}; valid: {sorted(valid)}")
        return lambda img: target(img, **kw)

    return factory


#: Steps addressable by name from the no-code API (JSON step lists).
STEP_LIBRARY: dict[str, Callable[..., AdaptFn]] = {
    name: _make_step_factory(fn) for name, fn in _STEP_TARGETS.items()
}


@dataclass(frozen=True)
class AdaptationPipeline:
    """An ordered, named sequence of adaptation steps."""

    steps: tuple[AdaptStep, ...] = ()
    name: str = "custom"

    def run(self, image: np.ndarray) -> np.ndarray:
        """Apply all steps to a float [0,1] image; returns float32 [0,1]."""
        out = np.asarray(image, dtype=np.float32)
        for step in self.steps:
            out = np.asarray(step(out), dtype=np.float32)
        return out

    def run_on(self, image: ScientificImage, *, robust: bool = True) -> ScientificImage:
        """Ingest + adapt a :class:`ScientificImage`, preserving provenance."""
        raw = image.pixels
        f = robust_normalize(raw) if robust else to_float01(raw)
        ingest = "robust_normalize" if robust else "to_float01"
        out = self.run(f)
        adapted = image.with_pixels(out, ingest)
        for step in self.steps:
            adapted = adapted.with_pixels(adapted.pixels, step.name)
        return adapted

    def append(self, step: AdaptStep) -> "AdaptationPipeline":
        return AdaptationPipeline(self.steps + (step,), name=self.name)

    @classmethod
    def from_spec(cls, spec: Sequence[dict], name: str = "custom") -> "AdaptationPipeline":
        """Build a pipeline from a JSON-style spec.

        ``spec`` is a list of ``{"step": <name>, ...params}`` dicts using the
        names in :data:`STEP_LIBRARY`.
        """
        steps = []
        for item in spec:
            item = dict(item)
            kind = item.pop("step", None)
            if kind not in STEP_LIBRARY:
                raise ValidationError(f"unknown adaptation step {kind!r}; known: {sorted(STEP_LIBRARY)}")
            try:
                fn = STEP_LIBRARY[kind](**item)
            except TypeError as exc:
                raise ValidationError(f"bad parameters for step {kind!r}: {exc}") from exc
            steps.append(AdaptStep(kind, fn))
        return cls(tuple(steps), name=name)

    def describe(self) -> dict:
        return {"name": self.name, "steps": [s.name for s in self.steps]}


def default_fibsem_pipeline(*, denoise: str = "bilateral") -> AdaptationPipeline:
    """The adaptation recipe used for the paper's FIB-SEM benchmarks.

    Bilateral denoising preserves the film/background interface, then CLAHE
    recovers local contrast inside the film where the catalyst lives.
    """
    denoisers: dict[str, AdaptStep] = {
        "bilateral": AdaptStep("bilateral", lambda img: denoise_bilateral(img, sigma_spatial=1.5, sigma_range=0.12)),
        "gaussian": AdaptStep("gaussian", lambda img: denoise_gaussian(img, sigma=1.0)),
        "median": AdaptStep("median", lambda img: denoise_median(img, size=3)),
        "nlm": AdaptStep("nlm", lambda img: denoise_nlm(img, search_radius=3)),
        "none": AdaptStep("none", lambda img: img),
    }
    if denoise not in denoisers:
        raise ValidationError(f"denoise must be one of {sorted(denoisers)}, got {denoise!r}")
    steps = (
        denoisers[denoise],
        AdaptStep("clahe", lambda img: clahe(img, tiles=(8, 8), clip_limit=2.5)),
    )
    return AdaptationPipeline(steps, name=f"fibsem-{denoise}")
