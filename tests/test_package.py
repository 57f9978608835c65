"""The package's public names resolve on first use, and are the same names as before they did."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polylog

# the names `polylog` bound when its __init__ imported every submodule up front, by the submodule
# that defines them today
PUBLIC_NAMES = {
    "nc_core": ["AlphabetError", "InvalidIndexError", "NCPoly", "NotInImageError", "PolylogError", "as_rat"],
    "words": ["Word", "index_from_word", "word_from_index", "word_from_text", "x_word", "y_word"],
    "dense": ["NPoly", "TaylorTrunc"],
    "products": ["conc", "exp_stuffle", "shuffle", "shuffle_pow", "stuffle", "stuffle_pow"],
    "coding": [
        "PlaneStarBase", "QSeriesTrunc", "in_image", "pi_x", "pi_x_word", "pi_y", "pi_y_word",
        "plane_to_umbra", "umbra_to_plane",
    ],
    "stars": [
        "LetterStarForm", "PlaneStar", "X1StarPoly", "check_kstar_shuffle_power", "letter_star_li",
        "one_param_group", "plane_star_expand", "plane_star_inverse", "plane_star_stuffle",
        "x1star_expand", "ykstar_exp_identity",
    ],
    "negindex": [
        "NotRepresentableError", "RatFuncAtOne", "li_nonpositive", "li_nonpositive_stars",
        "ratfunc_to_x1star", "regularize_trailing_x0", "theta_derivative", "x1star_to_ratfunc",
    ],
    "harmonic": [
        "h_negindex_closed_form", "h_poly_eval", "h_signed_eval", "h_word_eval", "h_x1star_closed_form",
    ],
    "polylog_num": [
        "PrecisionError", "check_surjection_lemma", "div_one_minus_z", "hadamard", "li_eval", "li_taylor_coeffs",
        "stirling2",
    ],
    "checks": [
        "DomRadiusReport", "check_derivative_recursion", "check_hadamard_identity", "check_shuffle_morphism",
        "dom_radius_demo", "h_stuffle_check",
    ],
}
ALL_NAMES = [name for names in PUBLIC_NAMES.values() for name in names]


def test_all_is_the_public_names():
    assert sorted(polylog.__all__) == sorted(ALL_NAMES)
    assert len(set(polylog.__all__)) == len(polylog.__all__)


def test_each_name_resolves_to_its_definition():
    for module, names in PUBLIC_NAMES.items():
        source = importlib.import_module(f"polylog.{module}")
        assert all(getattr(polylog, name) is getattr(source, name) for name in names)


def test_star_import_binds_each_name():
    namespace = {}
    exec("from polylog import *", namespace)
    assert all(namespace[name] is getattr(polylog, name) for name in ALL_NAMES)


def _fresh(probe: str):
    """The JSON that ``probe`` prints in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_dir_lists_each_name():
    # before any name is resolved, in a fresh interpreter
    assert set(ALL_NAMES) <= set(_fresh("import json, polylog; print(json.dumps(dir(polylog)))"))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        polylog.no_such_name
    assert not hasattr(polylog, "checks_suites")


def test_submodules_import_by_name():
    from polylog import checks, harmonic

    assert harmonic.h_signed_eval is polylog.h_signed_eval
    assert "stirling" in checks.SUITES


def test_import_loads_no_submodule():
    # `import polylog` loads nothing, and a name loads its module and that module's imports only
    before, after = _fresh(
        "import json, sys, polylog; before = [m for m in sys.modules if m.startswith('polylog')]; "
        "polylog.shuffle; after = [m for m in sys.modules if m.startswith('polylog')]; "
        "print(json.dumps([before, after]))"
    )
    assert before == ["polylog"]
    assert sorted(after) == ["polylog", "polylog.nc_core", "polylog.products"]
