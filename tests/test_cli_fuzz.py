"""Every job document, however malformed, gives either exit 0 with
"ok": true or exit 2 with the error document: the CLI never shows a
traceback."""

import contextlib
import copy
import io
import json
import sys

import pytest

from saitoforms.cli import SCHEMA, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ELLIPTIC = {"variables": ["z1", "z2", "z3"],
            "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
            "weights": ["1/3", "1/3", "1/3"]}
E6 = {"variables": ["x", "y"], "f": "x^3 + y^4", "weights": ["1/3", "1/4"]}

VALID = [
    {"command": "analyze", "singularity": E6},
    {"command": "moduli", "singularity": ELLIPTIC},
    {"command": "primitive-form", "singularity": ELLIPTIC, "N": 3,
     "mask": [8], "c": {"8,1": "1"}},
    {"command": "primitive-form", "singularity": {"model": "p1", "q": "2"},
     "N": 3, "exponentiate": True},
    {"command": "verify", "singularity": E6, "N": 2,
     "rep": [{"t": 0, "z": "1", "u": "u1", "coeff": "1/2"}]},
    {"command": "pairing", "singularity": {"variables": ["z"], "f": "z^3",
                                           "weights": ["1/3"]},
     "t_order": 3, "pairs": [["z", "1"], ["1", "z^2"]]},
]

# Replacement values: wrong types, out-of-range numbers (N stays <= 3)
# and random strings, some of them drawn from the polynomial alphabet.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6), st.text(alphabet="xyz1230/^*+-() ", max_size=10),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)),
             max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
)


def _paths(node, prefix=()):
    """Every key or index path into a JSON document."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def job_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    doc["schema"] = SCHEMA
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    value = draw(JUNK)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run_main(doc):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--job", "-"])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("doc", VALID)
def test_valid_documents_succeed(doc):
    code, out = run_main(dict(doc, schema=SCHEMA))
    assert code == 0 and out["ok"] is True


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(job_documents())
# these used to end in a RecursionError or RuntimeError traceback
@hypothesis.example({"schema": SCHEMA, "command": "analyze",
                     "singularity": dict(E6, f="(" * 3000 + "x" + ")" * 3000)})
@hypothesis.example({"schema": SCHEMA, "command": "analyze",
                     "singularity": dict(E6, f="-" * 3000 + "x^3 + y^4")})
@hypothesis.example({"schema": SCHEMA, "command": "analyze",
                     "singularity": {"variables": ["x", "y"],
                                     "f": "x^400 + y^400",
                                     "weights": ["1/400", "1/400"]}})
def test_mutated_documents_give_a_result_or_the_error_document(doc):
    code, out = run_main(doc)
    if code == 0:
        assert out["ok"] is True and out["schema"] == SCHEMA
    else:
        assert code == 2
        assert out == {"schema": SCHEMA, "ok": False,
                       "error": {"type": out["error"]["type"],
                                 "message": out["error"]["message"]}}
        assert isinstance(out["error"]["message"], str)
