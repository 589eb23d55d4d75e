"""Retired planner-cache module.

The planner no longer calibrates the host or writes a cache file (see
:mod:`repro.planner.planner`).  Only :data:`CACHE_ENV` remains, because
the repo benchmark (``perfbench/_harness.py``) still points it at a
private path before each run; nothing in the package reads it.
"""

#: Environment variable that once located the planner cache file.
CACHE_ENV = "REPRO_PLANNER_CACHE"
