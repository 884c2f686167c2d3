"""Bad input fails loudly: one table of refused inputs per module.

A row is (error class, document, call, command line).  With a document,
the document is written to a file and ``call`` gets its path; the command
line, if any, names that file as DOC and must exit 2 (schema) through
``cli.main``.  Without one, ``call`` gets None.
"""

import json
from importlib.resources import files
from pathlib import Path

import pytest

from enritch import fileio, verify
from enritch.categories import QCategory, QFunctor, require_functor, require_valid
from enritch.cli import main
from enritch.diagonals import diagonal_quantaloid
from enritch.errors import (
    PreconditionError,
    SchemaError,
    ShapeMismatchError,
    UnsupportedQuantaleError,
)
from enritch.hull import (
    column_admissible,
    full_subcategory,
    is_hypercomplete,
    is_tight_column,
    one_point_extensions,
    tight_span,
    tight_span_restriction,
)
from enritch.parmet import ParMetSpace, RadiusFunction, ambient_violation
from enritch.quantale import LAWVERE, FiniteQuantale
from enritch.rationals import ZERO, ExtRat
from enritch.relations import QRelation, TypedSet

from conftest import make_category, shipped_quantale, swapped_diamond, value
from oracles import Presheaf, rel_identity

DATA = Path(str(files("enritch") / "data"))
SPACE = str(DATA / "two_point_classical.json")
MU = str(DATA / "mu_13.json")
BOOLEAN_DOC = fileio.read_json(DATA / "boolean.json")

BOOL = shipped_quantale("boolean")
SWAP = swapped_diamond()
DQ = diagonal_quantaloid(BOOL)
ZERO_B, ONE = value(BOOL, "0"), value(BOOL, "1")
PAIR = TypedSet(DQ, ("a", "b"), (ONE, ONE))
ABSENT = object()  # a document path with no file behind it


def refused(row, tmp_path, capsys) -> None:
    error, document, call, argv = row
    doc = None
    if document is not None:
        doc = str(tmp_path / "doc.json")
        if document is not ABSENT:
            Path(doc).write_text(json.dumps(document))
    with pytest.raises(error):
        call(doc)
    if argv is not None:
        code = main([doc if arg == "DOC" else arg for arg in argv])
        out = capsys.readouterr().out
        assert code == 2, out
        assert json.loads(out)["result"]["error"] == "schema"


def classical_space():
    return fileio.load_space(SPACE)


FILEIO_CASES = {
    "unreadable_file": (
        SchemaError, ABSENT, fileio.file_digest, ["quantale", "check", "DOC"]
    ),
    "space_not_an_object": (
        SchemaError, [["0"]], fileio.load_space, ["hull", "member", "DOC", MU]
    ),
    "space_points_not_names": (
        SchemaError,
        {"points": "ab", "alpha": []},
        fileio.load_space,
        ["hull", "member", "DOC", MU],
    ),
    "radius_values_not_a_map": (
        SchemaError,
        {"r": "0", "values": ["1", "3"]},
        lambda doc: fileio.load_radius_function(doc, classical_space()),
        ["hull", "member", SPACE, "DOC"],
    ),
    "family_not_a_list": (
        SchemaError,
        {"r": "0", "family": {"point": "a", "radius": "1"}},
        lambda doc: fileio.load_family(doc, classical_space()),
        ["hull", "hyperfamily", SPACE, "DOC"],
    ),
    "family_names_unknown_point": (
        SchemaError,
        {"r": "0", "family": [{"point": "zz", "radius": "1"}]},
        lambda doc: fileio.load_family(doc, classical_space()),
        ["hull", "hyperfamily", SPACE, "DOC"],
    ),
    "functor_map_not_names": (
        SchemaError,
        {"map": {"a": 1, "b": "b"}},
        fileio.load_mapping,
        ["hull", "dense", SPACE, SPACE, "DOC"],
    ),
}


def quantale_case(document):
    return (SchemaError, document, fileio.load_quantale, ["quantale", "check", "DOC"])


QUANTALE_CASES = {
    "duplicate_elements": quantale_case({**BOOLEAN_DOC, "elements": ["0", "0"]}),
    "unit_not_an_element": quantale_case({**BOOLEAN_DOC, "unit": "2"}),
    "table_not_square": quantale_case({**BOOLEAN_DOC, "tensor": [["0", "0"]]}),
    "involution_too_short": quantale_case({**BOOLEAN_DOC, "involution": ["0"]}),
    "document_not_an_object": quantale_case([BOOLEAN_DOC]),
}


def space_case(document):
    return (SchemaError, document, fileio.load_space, ["hull", "member", "DOC", MU])


PARMET_CASES = {
    "duplicate_points": space_case(
        {"points": ["a", "a"], "alpha": [["0", "1"], ["1", "0"]]}
    ),
    "alpha_row_missing": space_case({"points": ["a", "b"], "alpha": [["0", "1"]]}),
    "alpha_not_square": space_case(
        {"points": ["a", "b"], "alpha": [["0", "1"], ["1"]]}
    ),
    "alpha_entry_not_extrat": (
        SchemaError, None, lambda _: ParMetSpace(("a",), ((0,),)), None
    ),
    "radius_function_too_short": (
        ShapeMismatchError,
        None,
        lambda _: ambient_violation(classical_space(), RadiusFunction(ZERO, (ExtRat(1),))),
        None,
    ),
}


def in_memory(error, call):
    return (error, None, lambda _: call(), None)


KERNEL_CASES = {
    "lawvere_column_tables": in_memory(
        UnsupportedQuantaleError,
        lambda: diagonal_quantaloid(LAWVERE).column_tables(value(LAWVERE, "0")),
    ),
}

RELATION_CASES = {
    "names_and_types_differ": in_memory(
        ShapeMismatchError, lambda: TypedSet(DQ, ("a", "b"), (ONE,))
    ),
    "duplicate_names": in_memory(
        ShapeMismatchError, lambda: TypedSet(DQ, ("a", "a"), (ONE, ONE))
    ),
    "type_not_fixed_by_the_involution": in_memory(
        PreconditionError,
        lambda: TypedSet(diagonal_quantaloid(SWAP), ("a",), (value(SWAP, "a"),)),
    ),
    "different_quantaloids": in_memory(
        ShapeMismatchError,
        lambda: QRelation(PAIR, TypedSet(diagonal_quantaloid(SWAP), (), ()), ((), ())),
    ),
    "row_too_short": in_memory(
        ShapeMismatchError, lambda: QRelation(PAIR, PAIR, ((ONE, ONE), (ONE,)))
    ),
}


def discrete_pair():
    """Two points with hom(a, b) = hom(b, a) = 0: a valid symmetric category."""
    return make_category(BOOL, ["a", "b"], ["1", "1"], [["1", "0"], ["0", "1"]])


def indiscrete_pair():
    return make_category(BOOL, ["a", "b"], ["1", "1"], [["1", "1"], ["1", "1"]])


def one_way_pair():
    """hom(a, b) = 1, hom(b, a) = 0: a valid category that is not symmetric."""
    return make_category(BOOL, ["a", "b"], ["1", "1"], [["1", "1"], ["0", "1"]])


CATEGORY_CASES = {
    "hom_not_on_the_carrier": in_memory(
        ShapeMismatchError,
        lambda: QCategory(PAIR, rel_identity(TypedSet(DQ, ("a",), (ONE,)))),
    ),
    "not_reflexive": in_memory(
        PreconditionError,
        lambda: require_valid(make_category(BOOL, ["a"], ["1"], [["0"]])),
    ),
    "assignment_too_short": in_memory(
        ShapeMismatchError, lambda: QFunctor(discrete_pair(), discrete_pair(), (0,))
    ),
    # an assignment is a tuple of codomain positions, 0 <= k < len(codomain)
    "assignment_leaves_the_codomain": in_memory(
        ShapeMismatchError, lambda: QFunctor(discrete_pair(), discrete_pair(), (0, 2))
    ),
    "assignment_below_the_codomain": in_memory(
        ShapeMismatchError, lambda: QFunctor(discrete_pair(), discrete_pair(), (0, -1))
    ),
    "assignment_by_name": in_memory(
        ShapeMismatchError, lambda: QFunctor(discrete_pair(), discrete_pair(), (0, "b"))
    ),
    "assignment_by_bool": in_memory(
        ShapeMismatchError, lambda: QFunctor(discrete_pair(), discrete_pair(), (0, True))
    ),
    "not_hom_increasing": in_memory(
        PreconditionError,
        lambda: require_functor(QFunctor(indiscrete_pair(), discrete_pair(), (0, 1))),
    ),
    "presheaf_type_not_fixed": in_memory(
        PreconditionError,
        lambda: Presheaf(
            make_category(SWAP, ["x"], ["top"], [["top"]]),
            value(SWAP, "a"),
            (value(SWAP, "bot"),),
        ),
    ),
    "presheaf_too_short": in_memory(
        ShapeMismatchError, lambda: Presheaf(discrete_pair(), ONE, (ONE,))
    ),
    "presheaf_value_not_a_diagonal": in_memory(
        PreconditionError,
        lambda: Presheaf(make_category(BOOL, ["x"], ["0"], [["0"]]), ZERO_B, (ONE,)),
    ),
    "presheaves_on_different_bases": in_memory(
        ShapeMismatchError,
        lambda: tight_span_restriction(
            QFunctor(indiscrete_pair(), indiscrete_pair(), (0, 1)), tight_span(discrete_pair())
        ),
    ),
}

LUK3 = shipped_quantale("lukasiewicz3")
LUK3_ONE = value(LUK3, "1")


def column_of_length(check, length: int):
    """``check`` on a column of ``length`` values over the discrete
    lukasiewicz3 pair, a valid symmetric category of two objects."""
    pair = make_category(LUK3, ["a", "b"], ["1", "1"], [["1", "0"], ["0", "1"]])
    return in_memory(ShapeMismatchError, lambda: check(pair, LUK3_ONE, (LUK3_ONE,) * length))


# A raw column must have one value per object; zip and indexing would
# otherwise truncate it or fail with an IndexError.
HULL_CASES = {
    f"{check.__name__}_{length}_values": column_of_length(check, length)
    for check in (column_admissible, is_tight_column)
    for length in (0, 1, 3)
}

VERIFY_CASES = {
    "unknown_suite": in_memory(ValueError, lambda: verify.run_suite("t99", BOOL, 1)),
    # t44 and t54 read no witness typing, so a lax run would be a strict one
    "lax_t44": in_memory(
        PreconditionError, lambda: verify.run_suite("t44", BOOL, 1, strict=False)
    ),
    "lax_t54": in_memory(
        PreconditionError, lambda: verify.run_suite("t54", BOOL, 1, strict=False)
    ),
}


@pytest.mark.parametrize("case", sorted(FILEIO_CASES))
def test_fileio_refuses(case, tmp_path, capsys):
    refused(FILEIO_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(QUANTALE_CASES))
def test_finite_quantale_refuses(case, tmp_path, capsys):
    refused(QUANTALE_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(PARMET_CASES))
def test_parmet_refuses(case, tmp_path, capsys):
    refused(PARMET_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_refuses(case, tmp_path, capsys):
    refused(KERNEL_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(RELATION_CASES))
def test_relations_refuse(case, tmp_path, capsys):
    refused(RELATION_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(CATEGORY_CASES))
def test_categories_refuse(case, tmp_path, capsys):
    refused(CATEGORY_CASES[case], tmp_path, capsys)


def test_list_assignment_is_stored_as_a_tuple():
    c = discrete_pair()
    f = QFunctor(c, c, [1, 0])
    assert type(f.assignment) is tuple and f.assignment == (1, 0)
    assert f == QFunctor(c, c, (1, 0)) and f.as_dict() == {"a": "b", "b": "a"}


# A category is decided symmetric once and the answer kept on it; a refusal
# is not kept, so every later call refuses again with the same message.  A
# full subcategory inherits the answer only from a parent that was checked.
NOT_SYMMETRIC_INPUTS = {
    "not_valid": (lambda: make_category(BOOL, ["a"], ["1"], [["0"]]), "not a valid category"),
    "not_symmetric": (one_way_pair, "the category must be symmetric"),
    "not_symmetric_subcategory": (
        lambda: full_subcategory(one_way_pair(), ["a", "b"]),
        "the category must be symmetric",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_SYMMETRIC_INPUTS))
def test_symmetry_refusal_repeats(case):
    build, message = NOT_SYMMETRIC_INPUTS[case]
    c = build()
    for call in (tight_span, is_hypercomplete, lambda c: list(one_point_extensions(c))) * 3:
        with pytest.raises(PreconditionError, match=message):
            call(c)
    assert "_symmetric" not in vars(c)


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_hull_refuses(case, tmp_path, capsys):
    refused(HULL_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_refuses(case, tmp_path, capsys):
    refused(VERIFY_CASES[case], tmp_path, capsys)
