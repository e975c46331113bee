"""Exact models for single-column affine crystals and their graded characters.

The package provides root-system data (`lie_data`), the parabolic quantum
Bruhat graph on the orbit of lambda (`quantum_bruhat`), the alcove walk
model (`alcove_model`), the rational path model (`qls_model`), the crystal
graphs both models build and their tensor products (`crystal`), the forgetful
bijection between the two models and its checks (`correspondence`), graded
characters with an independent multiplicity oracle (`characters`),
perfectness tests (`perfectness`), and a command line front end (`cli`).
"""

from qalcove.alcove_model import enumerate_admissible, lex_chain
from qalcove.characters import (
    GradedCharacter,
    character_from_alcove,
    character_from_qls,
    verify_p_equals_x,
    weyl_character,
)
from qalcove.correspondence import forgetful
from qalcove.lie_data import (
    InputError,
    InternalError,
    RootDatum,
    Weight,
    build_root_datum,
)
from qalcove.perfectness import check_perfect, minimal_elements
from qalcove.qls_model import build_crystal, qls_path, straight_path

__all__ = [
    "GradedCharacter",
    "InputError",
    "InternalError",
    "RootDatum",
    "Weight",
    "build_crystal",
    "build_root_datum",
    "character_from_alcove",
    "character_from_qls",
    "check_perfect",
    "enumerate_admissible",
    "forgetful",
    "lex_chain",
    "minimal_elements",
    "qls_path",
    "straight_path",
    "verify_p_equals_x",
    "weyl_character",
]

__version__ = "0.1.0"
