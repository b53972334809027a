"""Process-independent fingerprints of query results.

Results are compared across processes (the timed run, the reference
evaluation and the traced run each run in their own process), so they
are reduced to a canonical text first: every value carries its type,
set and bag elements are sorted by their own encoding, and objects
are named by ADT and oid.  Two results encode equally only when they
have the same type and value at every level, which is stricter than
``==`` (``frozenset({True}) == frozenset({1})``).
"""

from __future__ import annotations

import hashlib
import json


def encode(value) -> str:
    """The canonical text of one KOLA value."""
    kind = type(value).__name__
    if kind == "bool":
        return "b1" if value else "b0"
    if kind == "int":
        return f"i{value}"
    if kind == "float":
        return f"f{value!r}"
    if kind == "str":
        return "s" + json.dumps(value)
    if kind == "KPair":
        return f"({encode(value.fst)},{encode(value.snd)})"
    if kind == "Instance":
        return f"@{value.adt}#{value.oid}"
    if kind == "frozenset":
        return "{" + ",".join(sorted(encode(item) for item in value)) + "}"
    if kind == "KBag":
        return "B{" + ",".join(sorted(
            f"{encode(item)}*{count}"
            for item, count in value.counts().items())) + "}"
    if kind == "KList":
        return "[" + ",".join(encode(item) for item in value) + "]"
    raise TypeError(f"no canonical encoding for result type {kind}")


def fingerprint(value) -> str:
    """A short hash of :func:`encode`."""
    return hashlib.sha1(encode(value).encode("utf-8")).hexdigest()[:20]


def combine(parts) -> str:
    """One hash over a sequence of fingerprints (order matters)."""
    digest = hashlib.sha1()
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:20]


def plan_digest(encoded: dict) -> str:
    """A hash of what a served plan must agree on with the in-process
    replay: the chosen term (its portable form, equal exactly when the
    interned terms are identical), the estimated cost and the
    derivation's rule names.  ``encoded`` is
    ``repro.parallel.portable.encode_result`` output, before or after a
    JSON round trip."""
    best = encoded["chosen"] if encoded["chosen"] is not None \
        else encoded["untangled"]
    rules = ",".join(step[0] for step in encoded["steps"])
    return combine([json.dumps(best), repr(encoded["estimated_cost"]),
                    rules])
