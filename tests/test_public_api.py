"""The package's public names and version, pinned.

Removing a public name is a breaking change: it goes with a version bump
and a line in README's list of removed names.  Each layer declares its
own public names in its __all__, and the package's __all__ is their union.
"""

import re
from pathlib import Path

import pytest

import overlap_lab
from overlap_lab import asymptotics, counting, errors, oracle, wordcore

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PUBLIC = {
    "Alphabet",
    "BudgetExceededError",
    "CountCache",
    "DEFAULT_PAIR_BUDGET",
    "InvalidInputError",
    "LimitReport",
    "OverlapProfile",
    "PairCensus",
    "PairClass",
    "QUANTITIES",
    "RatInterval",
    "ViolationReport",
    "Word",
    "bordered_count",
    "census_by_lso",
    "ensure_within_budget",
    "enumerate_pair_census",
    "expected_lso_finite",
    "expected_lso_limit",
    "extremal_pair",
    "format_decimal",
    "limit_M",
    "limit_R",
    "limit_U",
    "limit_report",
    "max_overlap_sum",
    "mutually_bordered_count",
    "mutually_unbordered_count",
    "overlap_profile",
    "right_bordered_count",
    "s_count",
    "unbordered_count",
    "unbordered_density_limit",
    "verify_decomposition",
    "verify_shortest_unbordered",
    "__version__",
}

LAYERS = (asymptotics, counting, errors, oracle, wordcore)

# removed in 0.2.0; each has one replacement, listed in README
REMOVED = (
    "border_lengths",
    "is_unbordered",
    "right_border_lengths",
    "left_border_lengths",
    "shortest_right_border",
    "classify",
    "g_count",
    "unbordered_density",
)


def test_all_lists_the_public_names():
    assert len(overlap_lab.__all__) == len(PUBLIC)
    assert set(overlap_lab.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(overlap_lab, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(overlap_lab, name), name


def test_version_matches_pyproject():
    # a regex, since tomllib is not in Python 3.10's standard library
    (version,) = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(), flags=re.M)
    assert overlap_lab.__version__ == version


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_layer_all_resolves_to_the_package_names(layer):
    for name in layer.__all__:
        assert hasattr(layer, name), name
        assert getattr(overlap_lab, name) is getattr(layer, name), name


def test_layer_lists_are_disjoint_and_compose_the_package_all():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(names) == len(set(names))
    assert len(overlap_lab.__all__) == len(set(overlap_lab.__all__))
    assert set(overlap_lab.__all__) == {*names, "__version__"}


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_star_import_binds_exactly_the_layer_all(layer):
    namespace: dict = {}
    exec(f"from {layer.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(layer.__all__)
