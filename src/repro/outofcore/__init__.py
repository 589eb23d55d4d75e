"""Out-of-core capacity tier: sort batches larger than RAM.

The paper's Table 1 is a capacity claim — 2M arrays of n=1000 sorted
in place on an 11.5 GB card.  This package extends that claim to the
host: given a declared memory budget, sort a batch of any size by
planning a chunk schedule (:mod:`~repro.outofcore.budget`), spilling
sorted chunks to one crash-safe spill file behind an append-only
journal (:mod:`~repro.outofcore.spill`), and sorting each chunk through
the existing planner/arena hot path (:mod:`~repro.outofcore.capacity`) —
with journaled, resumable runs and a graceful-degradation ladder
instead of ``MemoryError``.

See ``docs/capacity.md`` for the budget model, the spill directory
layout, and the resume runbook.
"""

from .budget import (
    BudgetError,
    BudgetPlan,
    ENGINE_EXTRA_COPIES,
    SAFETY_FACTOR,
    format_memory_size,
    parse_memory_size,
    plan_budget,
    working_set_bytes_per_row,
)
from .capacity import CapacityResult, CapacitySorter, CapacityStats
from .spill import (
    BatchFile,
    ChunkRecord,
    JOURNAL_SCHEMA,
    SpillCorruptionError,
    SpillDirectoryError,
    SpillError,
    SpillStore,
    read_journal,
    write_batch_file,
)

__all__ = [
    "BatchFile",
    "BudgetError",
    "BudgetPlan",
    "CapacityResult",
    "CapacitySorter",
    "CapacityStats",
    "ChunkRecord",
    "ENGINE_EXTRA_COPIES",
    "JOURNAL_SCHEMA",
    "SAFETY_FACTOR",
    "SpillCorruptionError",
    "SpillDirectoryError",
    "SpillError",
    "SpillStore",
    "format_memory_size",
    "parse_memory_size",
    "plan_budget",
    "read_journal",
    "working_set_bytes_per_row",
    "write_batch_file",
]
