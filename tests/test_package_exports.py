"""The package's public names resolve on first access.

`import splintbranch` loads no submodule (tests/test_cli.py checks that in a
fresh interpreter); here every exported name, and each of the five
submodules, is the object its defining module binds, a star import binds
all 45 of them, and an unknown name raises AttributeError.
"""

import importlib

import pytest

import splintbranch

# the exports and their defining modules, as the package imported them eagerly
EXPORTS = {
    "rootsystem": ["RootSystem", "build_root_system"],
    "characters": ["FormalCharacter", "character_via_weyl", "freudenthal_character",
                   "singular_element", "weyl_denominator", "weyl_dimension"],
    "splints": ["Embedding", "Fan", "Splint", "branch_direct", "branch_via_splint",
                "check_embedding", "check_splint", "fan_coefficients", "find_splint",
                "splint_catalog", "tilde_weight"],
    "affine": ["AffineWeight", "BranchingSeries", "GradedCharacter", "MultiplicityMatrix",
               "affine_character", "affine_freudenthal", "branch_affine_direct",
               "branch_affine_to_subalgebra", "graded_branch_to_g",
               "invert_multiplicity_matrix", "multiplicity_matrix", "q_dimension",
               "string_function"],
    "qseries": ["QSeries", "denominator_product", "eta", "euler_product", "theta",
                "verify_denominator_splint", "verify_theta_products", "verify_theta_sums"],
}
NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_star_import_binds_the_45_names():
    namespace = {}
    exec("from splintbranch import *", namespace)
    del namespace["__builtins__"]
    assert len(NAMES) == 45
    assert sorted(namespace) == NAMES
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"splintbranch.{module}")
        assert namespace[module] is defining
        for name in names:
            assert namespace[name] is getattr(defining, name), name


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_are_their_modules_attributes(module):
    defining = importlib.import_module(f"splintbranch.{module}")
    assert getattr(splintbranch, module) is defining
    for name in EXPORTS[module]:
        assert getattr(splintbranch, name) is getattr(defining, name), name


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(splintbranch))
    assert splintbranch.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        splintbranch.no_such_name
    assert not hasattr(splintbranch, "Report")      # defined in splints, not exported
    with pytest.raises(ImportError):
        from splintbranch import no_such_name  # noqa: F401
