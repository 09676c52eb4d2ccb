"""Rigidity and deformation tooling for generalized Baumslag-Solitar graphs.

The package decides whether the Bass-Serre tree of a labelled graph of
groups (all vertex and edge groups infinite cyclic) is the unique
reduced tree in its deformation space, applies the elementary
deformation moves while tracking a marking of the fundamental group,
and cross-checks the decision procedure against a bounded brute-force
exploration of the deformation space.
"""

import types

from .errors import (
    AscendingCaseError,
    BoundsTooTightError,
    BrokenMarkingError,
    DifferentOriginError,
    DisconnectedError,
    EmptyGraphError,
    GbsError,
    GbsSyntaxError,
    MalformedWordError,
    NoViolationError,
    NonPositiveLabelError,
    NotAscendingError,
    NotCollapsibleError,
    NotDivisibleError,
    NotDivisorError,
    NotReducedError,
    SameEdgeError,
    UnknownEdgeError,
    UnknownGeneratorError,
    UnknownVertexError,
    UnreadableFileError,
    WordTooLongError,
    WrongOriginError,
)
from .explorer import (
    ExploreBounds,
    ExploreClass,
    ExploreReport,
    ascending_equivalent,
    enumerate_graphs,
    explore,
    fingerprint,
    reduce_state,
    witness_search,
)
from .graph import (
    Edge,
    EdgeEnd,
    GbsGraph,
    is_isomorphic,
    parse,
    parse_end,
    serialize,
    to_dot,
    validate,
)
from .moves import (
    Collapse,
    Expansion,
    Induction,
    MarkedState,
    MoveBounds,
    Slide,
    apply_move,
    collapse,
    enumerate_moves,
    expand,
    induct,
    initial_state,
    slide,
)
from .rigidity import (
    RigidityVerdict,
    ascending_modulus,
    ascending_rigid,
    check,
    is_ascending,
    is_reduced,
    is_strongly_slide_free,
    nonascending_rigid,
)
from .words import (
    PathWord,
    Presentation,
    format_word,
    free_reduce,
    invert_word,
    is_elliptic,
    is_trivial,
    normalize_word,
    parse_word,
    reduce,
    translation_length,
    word_length,
    word_modulus,
)

__version__ = "0.1.0"

# the public API is exactly what the imports above bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
