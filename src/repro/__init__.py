"""repro — reproduction of Zenesis (ICPP 2025 DRAI).

*"Foundation Models for Zero-Shot Segmentation of Scientific Images
without AI-Ready Data"* — an interactive, no-code platform coupling
GroundingDINO-style text grounding with SAM-style promptable segmentation
for raw scientific images (FIB-SEM volumes of catalyst-loaded membranes).

Quickstart::

    from repro import ZenesisPipeline, make_benchmark_dataset
    from repro.metrics import iou

    dataset = make_benchmark_dataset()
    pipeline = ZenesisPipeline()
    sl = dataset.slices[0]
    result = pipeline.segment_image(sl.image, "catalyst particles")
    print(iou(result.mask, sl.gt_mask))

Subpackages
-----------
``repro.data``      containers + synthetic FIB-SEM generation (the dataset
                    substitute; see DESIGN.md).
``repro.adapt``     lightweight multi-modal adaptation + readiness scoring.
``repro.models``    GroundingDINO and SAM surrogates on a from-scratch
                    NumPy transformer stack.
``repro.core``      the Zenesis pipeline, HITL rectification, temporal and
                    hierarchical refinement, the Mode B volume driver.
``repro.baselines`` Otsu, SAM-only, and classical extras.
``repro.metrics``   accuracy / IoU / Dice / boundary metrics + aggregation.
``repro.eval``      Mode C evaluation, paper tables, HTML dashboard.
``repro.parallel``  the one-thread BLAS policy applied on import.
``repro.platform``  sessions, JSON API, HTTP server, figure rendering.
``repro.io``        from-scratch TIFF/PNG codecs and volume bundles.
``repro.resilience`` retry/deadline policies, checkpoint/resume, fault
                    injection, recovery-event counters.
``repro.observability`` span tracing (JSON/Chrome-trace export), the
                    metrics registry behind ``GET /metrics``, and run
                    manifests (``run.json`` + ``repro metrics diff``).
"""

from .core.pipeline import ZenesisConfig, ZenesisPipeline
from .data.datasets import make_benchmark_dataset, make_sample
from .errors import CheckpointError, DeadlineExceededError, ReproError, RetryExhaustedError
from .parallel.blas import pin_blas_threads

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "DeadlineExceededError",
    "ReproError",
    "RetryExhaustedError",
    "ZenesisConfig",
    "ZenesisPipeline",
    "__version__",
    "make_benchmark_dataset",
    "make_sample",
]

# The program's own threads own the cores; BLAS gets one.
pin_blas_threads()
