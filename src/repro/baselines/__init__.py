"""``repro.baselines`` — comparison techniques and their substrates.

* :mod:`~repro.baselines.sta` — the paper's baseline: Sorting using Tagged
  Approach via simulated Thrust;
* :mod:`~repro.baselines.thrust` — device vectors + ``stable_sort_by_key``
  with radix-sort memory semantics;
* :mod:`~repro.baselines.radix` — the stable LSD radix sort substrate and
  its order-preserving key bijection;
* :mod:`~repro.baselines.naive` — per-array sequential sorting and the
  NumPy oracle;
* :mod:`~repro.baselines.segmented` — a modern segmented-sort comparator.
"""

from .bitonic import (
    bitonic_network,
    bitonic_sort_batch,
    compare_exchange_count,
    run_bitonic_on_device,
)
from .mergesort import (
    merge_pass_count,
    merge_sort_batch,
    run_merge_sort_on_device,
)
from .naive import numpy_rowwise_sort, sequential_sort, timed_sequential_sort
from .oddeven import odd_even_sort_batch, round_count, run_odd_even_on_device
from .radix import (
    RadixStats,
    keys_to_values,
    radix_sort,
    radix_sort_by_key,
    sortable_keys,
)
from .segmented import segmented_sort, segmented_sort_ragged
from .sta import StaResult, StaSorter, sta_sort
from .thrust import DeviceVector, ThrustCallStats, sequence, stable_sort_by_key

__all__ = [
    "DeviceVector",
    "RadixStats",
    "StaResult",
    "StaSorter",
    "ThrustCallStats",
    "bitonic_network",
    "bitonic_sort_batch",
    "compare_exchange_count",
    "keys_to_values",
    "merge_pass_count",
    "merge_sort_batch",
    "numpy_rowwise_sort",
    "odd_even_sort_batch",
    "run_merge_sort_on_device",
    "round_count",
    "run_bitonic_on_device",
    "run_odd_even_on_device",
    "radix_sort",
    "radix_sort_by_key",
    "segmented_sort",
    "segmented_sort_ragged",
    "sequence",
    "sequential_sort",
    "sortable_keys",
    "sta_sort",
    "stable_sort_by_key",
    "timed_sequential_sort",
]
