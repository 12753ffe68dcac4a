"""A contract calculus with casts, blame, and four cast-bookkeeping modes."""

from .metering import SpaceStats, eval_metered, space_stats
from .semantics import Machine, Outcome, OutcomeKind, eval_term, machine
from .surface import ParseError, parse, print_term, print_type
from .syntax import ALL_MODES, Mode, Term, Type, alpha_eq
from .typecheck import TypeCheckError, check_source, type_of

__all__ = [
    "ALL_MODES",
    "Machine",
    "Mode",
    "Outcome",
    "OutcomeKind",
    "ParseError",
    "SpaceStats",
    "Term",
    "Type",
    "TypeCheckError",
    "alpha_eq",
    "check_source",
    "eval_metered",
    "eval_term",
    "machine",
    "parse",
    "print_term",
    "print_type",
    "space_stats",
    "type_of",
]
