"""Concurrency correctness toolkit.

Two halves, one lock hierarchy:

* **Static** — :mod:`repro.analysis.lockscan` parses ``src/repro`` into
  per-function lock IR, :mod:`repro.analysis.lockgraph` evaluates it
  interprocedurally into an acquired-while-holding graph, checks
  ``guarded_by`` declarations, and :mod:`repro.analysis.baseline`
  compares the graph against the checked-in hierarchy
  (``tools/concurrency_baseline.json``).  ``tools/check_concurrency.py``
  and ``repro.cli analyze`` drive it; CI fails on any new cycle,
  guarded-by violation, or baseline drift.
* **Dynamic** — :mod:`repro.analysis.witness` wraps every named lock at
  runtime under ``REPRO_LOCK_WITNESS=1`` and raises on the first
  observed acquisition-order inversion.

See ``docs/CONCURRENCY.md`` for the hierarchy itself and the annotation
conventions.

The package re-exports nothing: every named lock imports
:mod:`repro.analysis.witness`, so a runtime process loads this package,
and it should not load the static analyzer with it.  Import the
submodules directly.
"""
