"""Exact branching for simple and affine Lie algebra modules via splints.

The names below resolve on first access (PEP 562), so that importing the
package loads no submodule and a command loads only the modules it runs.
"""

_EXPORTS = {
    "rootsystem": ("RootSystem", "build_root_system"),
    "characters": ("FormalCharacter", "character_via_weyl", "freudenthal_character",
                   "singular_element", "weyl_denominator", "weyl_dimension"),
    "splints": ("Embedding", "Fan", "Splint", "branch_direct", "branch_via_splint",
                "check_embedding", "check_splint", "fan_coefficients", "find_splint",
                "splint_catalog", "tilde_weight"),
    "affine": ("AffineWeight", "BranchingSeries", "GradedCharacter", "MultiplicityMatrix",
               "affine_character", "affine_freudenthal", "branch_affine_direct",
               "branch_affine_to_subalgebra", "graded_branch_to_g",
               "invert_multiplicity_matrix", "multiplicity_matrix", "q_dimension",
               "string_function"),
    "qseries": ("QSeries", "denominator_product", "eta", "euler_product", "theta",
                "verify_denominator_splint", "verify_theta_products", "verify_theta_sums"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")     # which binds the submodule here
        return globals()[name]
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
