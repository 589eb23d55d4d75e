"""``repro.core`` — the paper's contribution: GPU-ArraySort.

Public surface:

* :class:`~repro.core.array_sort.GpuArraySort` / :func:`~repro.core.array_sort.sort_arrays`
  — the three-phase batch sorter with ``vectorized`` / ``sim`` / ``model`` engines;
* :class:`~repro.core.config.SortConfig` — bucket-size and sampling-rate tuning;
* phase building blocks (:mod:`~repro.core.splitters`,
  :mod:`~repro.core.bucketing`, :mod:`~repro.core.insertion`) for users who
  want to compose the pipeline themselves;
* :mod:`~repro.core.fused` — the fused phases-2+3 fast path
  (``SortConfig.fuse_phases``) and the batched row-wise ``searchsorted``
  primitive behind it;
* :mod:`~repro.core.kernels` — the per-thread kernels for the gpusim engine;
* :mod:`~repro.core.pipeline` — the out-of-core extension (paper Section 9);
* :mod:`~repro.core.validation` — result checkers.
"""

from .adaptive import (
    SAMPLING_STRATEGIES,
    AdaptiveSampler,
    SkewProbe,
    choose_strategy,
    probe_skew,
    select_splitters_adaptive,
)
from .array_sort import GpuArraySort, SortResult, sort_arrays, validate_batch
from .pairs import PairSortResult, sort_pairs
from .streaming import StreamCheckpoint, StreamingSorter, StreamStats
from .topk import top_k, top_k_via_sort
from .tuning import TuningResult, sweep_bucket_sizes, tune_config
from .bucketing import (
    BucketResult,
    adaptive_row_chunk,
    bucket_ids_for_row,
    bucketize,
    exclusive_scan,
)
from .config import DEFAULT_CONFIG, SortConfig
from .fused import bucket_ids_rows, fused_bucket_sort, searchsorted_rows
from .insertion import (
    insertion_sort,
    insertion_sort_inplace,
    segment_base,
    sort_buckets,
    sort_buckets_rowwise,
)
from .splitters import (
    INDEX_PLAN_CACHE_MAXSIZE,
    SplitterResult,
    clear_index_plan_cache,
    index_plan_cache_info,
    regular_sample_indices,
    select_splitters,
    splitter_pick_indices,
)
from .radix import radix_sort_rows
from .workspace import ScratchArena, WorkspaceStats
from .validation import (
    ValidationFailure,
    assert_batch_sorted,
    check_bucket_partition,
    is_sorted_rows,
    rows_are_permutations,
)

__all__ = [
    "AdaptiveSampler",
    "BucketResult",
    "DEFAULT_CONFIG",
    "PairSortResult",
    "SAMPLING_STRATEGIES",
    "SkewProbe",
    "choose_strategy",
    "probe_skew",
    "select_splitters_adaptive",
    "sort_pairs",
    "StreamCheckpoint",
    "StreamingSorter",
    "StreamStats",
    "TuningResult",
    "sweep_bucket_sizes",
    "top_k",
    "top_k_via_sort",
    "tune_config",
    "GpuArraySort",
    "INDEX_PLAN_CACHE_MAXSIZE",
    "radix_sort_rows",
    "ScratchArena",
    "SortConfig",
    "SortResult",
    "SplitterResult",
    "WorkspaceStats",
    "index_plan_cache_info",
    "ValidationFailure",
    "adaptive_row_chunk",
    "assert_batch_sorted",
    "bucket_ids_for_row",
    "bucket_ids_rows",
    "bucketize",
    "check_bucket_partition",
    "clear_index_plan_cache",
    "exclusive_scan",
    "fused_bucket_sort",
    "insertion_sort",
    "insertion_sort_inplace",
    "is_sorted_rows",
    "regular_sample_indices",
    "rows_are_permutations",
    "searchsorted_rows",
    "segment_base",
    "select_splitters",
    "sort_arrays",
    "sort_buckets",
    "sort_buckets_rowwise",
    "splitter_pick_indices",
    "validate_batch",
]
