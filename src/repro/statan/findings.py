"""Finding records and the rule catalog shared by every statan checker."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

#: Rule id -> one-line description.  ``statan``'s analysis rules come
#: first, through ``crash-safety``; the remaining ids are *meta* rules
#: the engine itself emits about suppressions and the baseline — they
#: cannot be suppressed, otherwise a stale allowlist could silence itself.
RULES: Dict[str, str] = {
    "guarded-by": (
        "attribute annotated '# guarded-by: <lock>' accessed outside a "
        "'with self.<lock>:' block of its class"
    ),
    "scratch-escape": (
        "arena-backed buffer or scratch row view escapes a function "
        "(returned, stored on self, or delivered) without .copy()"
    ),
    "nondeterminism": (
        "wall-clock or unseeded randomness inside core/, gpusim/, or "
        "baselines/ (time.time, random.*, np.random.default_rng())"
    ),
    "silent-except": (
        "bare 'except:' or 'except Exception: pass' swallows errors"
    ),
    "mutable-default": (
        "mutable default argument ([], {}, set()) shared across calls"
    ),
    "unused-import": (
        "module-level import never used (outside __init__.py, __all__ "
        "and string annotations)"
    ),
    "lock-order": (
        "cycle in the whole-program lock acquisition (may-acquire) "
        "graph — two threads taking the locks in different orders can "
        "deadlock"
    ),
    "crash-safety": (
        "durable write in outofcore/ or planner/ outside the tmp-write "
        "-> fsync -> rename shape (torn or empty file after a crash)"
    ),
    "parse-error": (
        "file does not parse or cannot be read; nothing was checked"
    ),
    "suppression-missing-reason": (
        "'# statan: ignore[...]' without a '-- reason' clause"
    ),
    "unused-suppression": (
        "'# statan: ignore[...]' that suppresses no finding (expired)"
    ),
    "unknown-rule": (
        "suppression or baseline entry names a rule statan does not have"
    ),
    "stale-baseline": (
        "baseline.toml entry that no longer matches any finding"
    ),
}

#: Meta rules are emitted by the engine and are never suppressable.
META_RULES = frozenset(
    {
        "parse-error",
        "suppression-missing-reason",
        "unused-suppression",
        "unknown-rule",
        "stale-baseline",
    }
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One statan diagnostic, pinned to ``file:line``."""

    rule: str
    path: str
    line: int
    message: str
    #: ``module.Class.method`` the finding sits in (baseline key part).
    qualname: Optional[str] = None

    @property
    def baseline_key(self) -> str:
        """``path::qualname`` — how ``baseline.toml`` names an escape."""
        return f"{self.path}::{self.qualname or '<module>'}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "qualname": self.qualname,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
