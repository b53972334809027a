"""The query generator exposed as Hypothesis strategies.

Strategies map integer *seeds* through the deterministic
:class:`~repro.fuzz.generator.QueryGenerator` rather than building
terms from composite Hypothesis strategies directly.  That keeps all
structural knowledge in one place (the generator), makes every
Hypothesis counterexample a replayable ``FuzzConfig(seed=...)``
one-liner, and lets Hypothesis shrink over the seed — the query-level
minimizer lives in :mod:`repro.fuzz.shrink`, where it can preserve
well-typedness, which Hypothesis's structural shrinking cannot.

Only test code imports this module (Hypothesis is a test-only
dependency); the ``repro.fuzz`` package itself stays importable
without it.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro.fuzz.generator import FuzzConfig, QueryGenerator

#: Seed space for drawn queries.  Large enough that Hypothesis example
#: generation keeps finding fresh shapes; bounded so failures print a
#: short replayable seed.
MAX_SEED = 1_000_000


def kola_queries(config: FuzzConfig | None = None,
                 max_seed: int = MAX_SEED) -> st.SearchStrategy:
    """Well-typed ground KOLA query terms (drawn via generator seeds).

    ``config`` tunes shape: pass ``FuzzConfig(weights={"join": 8.0})``
    to steer examples toward joins, ``max_depth`` to bound size.
    """
    base = config or FuzzConfig()
    return st.integers(0, max_seed).map(
        lambda seed: QueryGenerator(replace(base, seed=seed)).query())

