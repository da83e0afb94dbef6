"""Process parallelism for Mode B: slice partitions and a supervised worker pool."""

from .pool import default_worker_count, run_partitioned
from .scheduler import SlicePartition, block_partition

__all__ = [
    "SlicePartition",
    "block_partition",
    "default_worker_count",
    "run_partitioned",
]
