"""Memory-budget planning for out-of-core capacity sorting.

The paper's Table 1 is a *capacity* claim — how many arrays fit the
device — and the capacity tier extends it to the host: given a declared
memory budget (``"8G"``), how many rows can one chunk of the hot path
hold without the process outgrowing that budget?  This module answers
with arithmetic the rest of the subsystem (and the ``RLIMIT_AS`` tests)
then verifies against real allocation behaviour:

* :func:`parse_memory_size` turns operator-facing size strings
  (``"512M"``, ``"8G"``, ``"1.5GiB"``) into bytes;
* :func:`working_set_bytes_per_row` models what one row of a chunk
  actually costs the hot path — the streaming staging copy, the
  sorter's :class:`~repro.core.workspace.ScratchArena` work buffer,
  phase-1 sample/splitter staging, fused-path metadata, and the
  per-engine headroom (:data:`ENGINE_EXTRA_COPIES`);
* :func:`plan_budget` derives the chunk schedule: the largest chunk row
  count whose modeled working set fits the budget, and how many chunks
  that takes for the whole batch.

The model is deliberately conservative (a ``SAFETY_FACTOR`` covers
NumPy temporaries and allocator slack); the driver still treats
``MemoryError`` as a planning miss and degrades — shrink the chunk,
then fall back to a row-serial path — rather than aborting a
multi-hour run (see :class:`~repro.outofcore.capacity.CapacitySorter`).
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import List, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig

__all__ = [
    "BudgetError",
    "BudgetPlan",
    "ENGINE_EXTRA_COPIES",
    "SAFETY_FACTOR",
    "format_memory_size",
    "parse_memory_size",
    "plan_budget",
    "working_set_bytes_per_row",
]

#: Headroom multiplier on the modeled working set: NumPy temporaries,
#: allocator rounding, and interpreter slack are real but unmodellable.
SAFETY_FACTOR = 1.25

#: Extra full-payload copies each execution engine needs beyond the
#: staging + work pair every path pays:
#:
#: * ``serial`` — the fused row sort works in place: no extra copy;
#: * ``radix`` — two payloads of headroom.  The row sort itself is
#:   NumPy's in-place sort; 2.0 is the headroom the spill schedule was
#:   measured with, and re-deriving it is a separate, measured change;
#: * ``auto`` — the worst case among the engines.  That is ``radix``,
#:   which ``planner="auto"`` picks for every dtype, and it also covers
#:   a custom planner that picks any engine.
ENGINE_EXTRA_COPIES = {
    "serial": 0.0,
    "radix": 2.0,
}

_SIZE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[kmgt]?i?b?)\s*$",
    re.IGNORECASE,
)

_UNIT_EXPONENT = {"": 0, "k": 1, "m": 2, "g": 3, "t": 4}


class BudgetError(ValueError):
    """A memory budget that cannot be parsed or planned against."""


def parse_memory_size(size) -> int:
    """Parse an operator-facing memory size into bytes.

    Accepts a plain ``int`` (bytes), or a string with an optional unit
    suffix: ``K``/``M``/``G``/``T``, with or without a trailing ``B`` or
    ``iB`` (``"512M"``, ``"8G"``, ``"8GB"``, ``"8GiB"``, ``"1.5G"``).
    All units are binary (``1K == 1024``) — capacity planning cares
    about allocator pages, not marketing decimals.  Raises
    :class:`BudgetError` for non-positive or unparseable sizes.

    >>> parse_memory_size("8G") == 8 * 1024**3
    True
    """
    if isinstance(size, bool):
        raise BudgetError(f"memory size must be bytes or a size string, got {size!r}")
    if isinstance(size, (int, np.integer)):
        if size <= 0:
            raise BudgetError(f"memory size must be positive, got {size}")
        return int(size)
    if not isinstance(size, str):
        raise BudgetError(
            "memory size must be an int (bytes) or a string like '512M' or "
            f"'8G', got {type(size).__name__}"
        )
    match = _SIZE_RE.match(size)
    if match is None:
        raise BudgetError(
            f"unparseable memory size {size!r}; expected e.g. '8G', '512M', "
            "'1.5GiB', or a plain byte count"
        )
    unit = match.group("unit").lower().rstrip("b").rstrip("i")
    if unit not in _UNIT_EXPONENT:
        raise BudgetError(f"unknown memory unit in {size!r}")
    nbytes = float(match.group("num")) * (1024 ** _UNIT_EXPONENT[unit])
    nbytes_int = int(nbytes)
    if nbytes_int <= 0:
        raise BudgetError(f"memory size must be positive, got {size!r}")
    return nbytes_int


def format_memory_size(nbytes: int) -> str:
    """Human-readable binary-unit rendering (``8589934592 -> '8.0G'``)."""
    value = float(nbytes)
    for unit in ("", "K", "M", "G"):
        if abs(value) < 1024.0:
            return f"{value:.1f}{unit}" if unit else f"{int(value)}"
        value /= 1024.0
    return f"{value:.1f}T"


def working_set_bytes_per_row(
    row_len: int,
    dtype,
    *,
    config: SortConfig = DEFAULT_CONFIG,
    engine: str = "auto",
) -> int:
    """Modeled peak bytes one chunk row costs the hot path.

    Components, per row of length ``n`` with itemsize ``s``:

    * **staging** (``s*n``) — the streaming/ingest copy of the row
      (``StreamingSorter`` staging, or the output slice on the in-place
      array path);
    * **work** (``s*n``) — the sorter's arena-backed work copy;
    * **phase-1 sample** (``s * sample_size``) — the regular-sampling
      matrix plus splitter staging;
    * **fused metadata** (``24 * (p + 1)``) — float64 splitters and
      int64 ``offsets``/``sizes`` recovered by the fused path;
    * **engine extras** — :data:`ENGINE_EXTRA_COPIES` full payloads.

    The total is scaled by :data:`SAFETY_FACTOR`.
    """
    if row_len < 1:
        raise BudgetError(f"row_len must be >= 1, got {row_len}")
    if engine == "auto":
        extra = max(ENGINE_EXTRA_COPIES.values())
    elif engine in ENGINE_EXTRA_COPIES:
        extra = ENGINE_EXTRA_COPIES[engine]
    else:
        raise BudgetError(
            f"unknown engine {engine!r}; choose 'auto' or one of "
            f"{sorted(ENGINE_EXTRA_COPIES)}"
        )
    itemsize = np.dtype(dtype).itemsize
    payload = itemsize * row_len
    sample = itemsize * config.sample_size(row_len)
    metadata = 24 * (config.num_buckets(row_len) + 1)
    total = payload * (2.0 + extra) + sample + metadata
    return int(math.ceil(total * SAFETY_FACTOR))


@dataclasses.dataclass(frozen=True)
class BudgetPlan:
    """Chunk schedule derived from a memory budget.

    ``cramped=True`` flags a budget smaller than even a one-row working
    set — the driver proceeds at one row per chunk and relies on its
    degradation ladder if allocation still fails.
    """

    num_rows: int
    row_len: int
    dtype: np.dtype
    engine: str
    budget_bytes: int
    bytes_per_row: int
    chunk_rows: int
    num_chunks: int
    cramped: bool

    @property
    def working_set_bytes(self) -> int:
        """Modeled peak working set of one full chunk."""
        return self.chunk_rows * self.bytes_per_row

    @property
    def total_bytes(self) -> int:
        """Payload bytes of the whole batch (what a RAM sort would hold)."""
        return self.num_rows * self.row_len * self.dtype.itemsize

    @property
    def oversubscription(self) -> float:
        """How many times larger the batch is than the budget."""
        if self.budget_bytes == 0:
            return float("inf")
        return self.total_bytes / self.budget_bytes

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        """Static ``(start_row, stop_row)`` schedule (pre-degradation)."""
        return [
            (start, min(start + self.chunk_rows, self.num_rows))
            for start in range(0, self.num_rows, self.chunk_rows)
        ]


def plan_budget(
    num_rows: int,
    row_len: int,
    dtype,
    memory_budget,
    *,
    config: SortConfig = DEFAULT_CONFIG,
    engine: str = "auto",
    max_chunk_rows: int = 0,
) -> BudgetPlan:
    """Derive the chunk schedule for sorting ``(num_rows, row_len)``
    under ``memory_budget``.

    ``engine`` selects the working-set model variant (``"auto"`` budgets
    for the worst engine any planner may pick).  ``max_chunk_rows`` caps
    the chunk even when the budget would allow more (0 = uncapped) —
    useful to force multi-chunk schedules in tests.
    """
    if num_rows < 0:
        raise BudgetError(f"num_rows must be >= 0, got {num_rows}")
    budget = parse_memory_size(memory_budget)
    dtype = np.dtype(dtype)
    per_row = working_set_bytes_per_row(
        row_len, dtype, config=config, engine=engine
    )
    chunk_rows = budget // per_row
    cramped = chunk_rows < 1
    chunk_rows = max(1, chunk_rows)
    if max_chunk_rows > 0:
        chunk_rows = min(chunk_rows, max_chunk_rows)
    if num_rows > 0:
        chunk_rows = min(chunk_rows, num_rows)
    num_chunks = -(-num_rows // chunk_rows) if num_rows else 0
    return BudgetPlan(
        num_rows=num_rows,
        row_len=row_len,
        dtype=dtype,
        engine=engine,
        budget_bytes=budget,
        bytes_per_row=per_row,
        chunk_rows=int(chunk_rows),
        num_chunks=int(num_chunks),
        cramped=cramped,
    )
