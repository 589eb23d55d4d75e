"""Tuning configuration for GPU-ArraySort.

The paper fixes two empirical constants (Section 5.1):

* **bucket size >= 20** — each array of size ``n`` is divided into
  ``p = floor(n / 20)`` buckets, "totally independent of size of individual
  array as well as total number of arrays";
* **10 % regular sampling** — "for uniformly distributed data 10 % regular
  sampling gave most evenly balanced buckets and hence the best running
  time".

:class:`SortConfig` exposes both so the ablation benchmarks can sweep them,
and computes the derived quantities (bucket count ``p``, splitter count
``q = p - 1``, sample size) with the small-``n`` clamps described in
DESIGN.md section 8.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["SortConfig", "DEFAULT_CONFIG"]


@dataclasses.dataclass(frozen=True)
class SortConfig:
    """Parameters of one GPU-ArraySort run."""

    #: Target minimum elements per bucket ("at least 20 elements per
    #: bucket", Section 5.1).
    bucket_size: int = 20
    #: Regular-sampling rate for splitter selection ("10 % regular
    #: sampling", Section 5.1).
    sampling_rate: float = 0.10
    #: Element dtype.  The paper's experiments all use ``float`` (float32).
    dtype: np.dtype = dataclasses.field(default=np.dtype(np.float32))
    #: Hard cap on buckets per array so one thread per bucket fits a block.
    max_buckets: int = 1024
    #: What to do with float rows containing NaN.  ``"raise"`` (default)
    #: rejects the batch at the API boundary — NaN has no total order, so
    #: the splitter comparisons would silently mis-bucket it.
    #: ``"sort_to_end"`` gives ``np.sort`` semantics: NaNs land after
    #: every other value (including +inf).  A radix plan sorts the batch
    #: whole; other engines route NaN-containing rows through ``np.sort``
    #: while the NaN-free rows run the normal pipeline.
    nan_policy: str = "raise"
    #: Vectorized engine only: fuse phases 2+3 into one in-place key sort
    #: (:mod:`repro.core.fused`) instead of the paper-faithful separate
    #: bucket-id / grouping / segmented-lexsort passes.  Output, ``sizes``
    #: and ``offsets`` are identical either way (property-tested); the
    #: fused path is the fast default, ``False`` keeps the phase
    #: boundaries for ablations and sim cross-checks.
    fuse_phases: bool = True

    NAN_POLICIES = ("raise", "sort_to_end")

    def __post_init__(self) -> None:
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate}"
            )
        if self.max_buckets < 1:
            raise ValueError("max_buckets must be >= 1")
        if self.nan_policy not in self.NAN_POLICIES:
            raise ValueError(
                f"nan_policy must be one of {self.NAN_POLICIES}, "
                f"got {self.nan_policy!r}"
            )
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    # -- derived quantities ---------------------------------------------------
    def num_buckets(self, n: int) -> int:
        """Buckets per array: ``p = floor(n / bucket_size)``, clamped to
        ``[1, min(max_buckets, sample_size)]``.

        The sample-size clamp keeps splitter selection well-defined for
        tiny arrays where the 10 % sample would contain fewer elements
        than requested splitters.
        """
        if n < 1:
            raise ValueError(f"array size must be >= 1, got {n}")
        p = max(1, n // self.bucket_size)
        p = min(p, self.max_buckets, max(1, self.sample_size(n)))
        return p

    def num_splitters(self, n: int) -> int:
        """Splitters per array: ``q = p - 1``."""
        return self.num_buckets(n) - 1

    def sample_size(self, n: int) -> int:
        """Elements drawn by regular sampling: ``ceil(rate * n)``, >= 1."""
        return max(1, int(np.ceil(self.sampling_rate * n)))

    def sample_stride(self, n: int) -> int:
        """Distance between consecutive regular samples in the array."""
        return max(1, n // self.sample_size(n))

    def with_(self, **updates) -> "SortConfig":
        """Functional update helper for ablation sweeps."""
        return dataclasses.replace(self, **updates)

    # -- memory footprint of the algorithm's metadata -------------------------
    def metadata_bytes_per_array(self, n: int) -> int:
        """Bytes of global metadata one array needs: splitters + bucket sizes.

        Splitters are element-typed; bucket sizes are int32.  This is what
        makes GPU-ArraySort "minimum use of any temporary run-time memory":
        metadata is O(n / bucket_size), not O(n).
        """
        q = self.num_splitters(n)
        p = self.num_buckets(n)
        return q * self.dtype.itemsize + p * 4


#: The paper's published configuration.
DEFAULT_CONFIG = SortConfig()
