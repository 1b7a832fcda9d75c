"""Thompson's group F as reduced binary tree pair diagrams.

The package provides the combinatorial model of the group: trees and
reduced tree pairs, the unique normal form over the infinite generating
set and its bijection with reduced pairs, group operations through
common refinement, caret-count metric estimates, exact word lengths from
caret weights (``lengths``) checked by a breadth-first oracle, shift and
clone maps, embeddings of F x Z and F^m x Z^n, and a distortion harness.

No object changes after it is made, nothing takes a lock, and the
functions are pure, so anything may be shared across threads. The only
module-level values are immutable tables, such as the comb table in
``trees``. A WordMetricOracle counts its sphere sizes when it is made and
searches afresh on each ``ball`` call, and on no other.
"""

from types import ModuleType as _ModuleType

from .trees import (
    LEAF,
    ParseError,
    Tree,
    TreePair,
    caret,
    caret_count,
    format_pair,
    format_tree,
    graft_at,
    is_reduced,
    leaf_exponents,
    pair_to_dot,
    parse_pair,
    parse_tree,
    reduce_pair,
    right_subtree_of_root_empty,
    subtree_at,
    tree_from_exponents,
    tree_to_dot,
)
from .words import (
    Letter,
    NormalForm,
    format_word,
    normal_form_to_tree_pair,
    parse_word,
    rewrite_to_normal_form,
    tree_pair_to_normal_form,
    word_inverse,
    x,
    xinv,
)
from .group import (
    GroupElement,
    commutator,
    commutator_is_trivial,
    element_of_word,
    generator,
    identity,
    inverse,
    multiply,
    power,
    verify_relators,
)
from .embeddings import (
    address_interval,
    clone_map,
    embed_f_z,
    embed_product,
    is_prefix_free,
    right_subtree_claims,
    shift,
    z_generator,
)
from .metric import (
    EmbeddingSpec,
    MetricEstimate,
    WordMetricOracle,
    affine_fit,
    check_bounds_on_ball,
    distortion_envelopes,
    distortion_sweep,
    envelope_fit,
    f_z_spec,
    length_bounds,
    metric_estimate,
    product_spec,
    random_element,
    random_tree,
    sweep_to_csv,
)

__version__ = "0.1.0"

# the exports are the names imported above, less the submodules they bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
