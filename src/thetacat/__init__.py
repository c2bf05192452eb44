"""Exact combinatorics of generalized simplices and their presheaves."""

__version__ = "0.1.0"

from .delta import MonotoneMap, compose_mono, enumerate_monos, epi_mono_factor
from .theta import (
    MorphismClass,
    Shape,
    automorphism_report,
    compose_classes,
    enumerate_hom,
    face_class,
    faces_of,
    identity_class,
    parse_shape,
    shape,
)
from .subshapes import (
    SubOfRepresentable,
    WindowSpec,
    boundary,
    face_membership,
    horn,
    pullback_along,
    spine,
    sub_algebra,
)
from .presheaves import (
    Presheaf,
    Representable,
    check_functoriality,
    extend,
    product,
    truncate,
)
from .checkers import check, horn_filling, inner_fibration_check
from .anodyne import certify_union_inclusion, spine_probe, verify_certificate
from .groups import FiniteGroup, builtin_group, cocycle_tools
from .nerves import (
    cocycle_to_map,
    homotopy_classes,
    map_to_cocycle,
    nerve_b1,
    nerve_b2_em,
    nerve_b2_strict,
)
