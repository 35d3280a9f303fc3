"""One module per table and figure of the paper's evaluation.

Every module exposes ``run(...)`` returning a result object with the
measured series/rows plus a ``report()`` string that prints the same
rows the paper plots, alongside the paper's own numbers for comparison.
``repro.experiments.runner`` holds the suite's table,
``ALL_EXPERIMENTS``, which ``repro experiments`` runs to render the
paper-vs-measured record used in EXPERIMENTS.md.  The package
re-exports nothing, so ``python -m repro.experiments.runner`` imports
the runner only once, as ``__main__``.
"""
