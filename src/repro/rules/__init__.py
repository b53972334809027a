"""The rule pool: the paper's rules 1-24 plus an extended verified pool,
loaded from the shipped ``.kpack`` rule packs (:mod:`repro.rulepacks`)."""

from repro.rules.registry import standard_rulebase
from repro.rules.preconditions import AnnotationOracle

__all__ = ["standard_rulebase", "AnnotationOracle"]
