"""The package's public names: which there are, and where each is defined."""

import importlib

import kfour

# each module's __all__, in its own order
PUBLIC = {
    "abelian": [
        "Element",
        "FgGroup",
        "GroupStructureReport",
        "InfiniteGroupError",
        "IntMatrix",
        "group_from_relations",
        "smith_normal_form",
    ],
    "cohomology": [
        "CohomologyRing",
        "CupForm",
        "InvalidRingError",
        "ValidationIssue",
        "ValidationReport",
        "validate_ring",
    ],
    "dsl": ["ParseError", "eval_expr", "parse_ring", "serialize_ring"],
    "kclasses": [
        "KClass",
        "MixedRingError",
        "choose2",
        "decompose",
        "integer_class",
        "k_add",
        "k_mul",
        "k_neg",
        "k_pow",
        "k_scale",
        "line_class",
        "rank2_class",
        "reduced_part",
    ],
    "oracle": [
        "Counterexample",
        "OracleComparison",
        "RelationCheck",
        "VerificationReport",
        "oracle_compare",
        "oracle_reduced_group",
        "verify_relations",
        "verify_ring_axioms",
    ],
    "structure": ["full_k_structure", "reduced_k_structure"],
}


def test_package_all_is_the_sorted_union_of_the_modules():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(names) == len(set(names)) == 40
    assert kfour.__all__ == sorted(names)


def test_each_module_all_is_unchanged():
    for module, names in PUBLIC.items():
        assert importlib.import_module(f"kfour.{module}").__all__ == names


def test_each_public_name_is_the_object_its_module_defines():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"kfour.{module}")
        for name in names:
            assert getattr(kfour, name) is getattr(defining, name), f"kfour.{name}"
