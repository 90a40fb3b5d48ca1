"""verify on mutated documents: an exit code of 0, 1 or 2, nothing raised, fast.

A rotated block list is still a valid document and verifies with exit 0.
"""

import contextlib
import copy
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rookpaths.cli import main

SOURCES = (("generate", "--n", "5"), ("examples", "k9"), ("examples", "diag4"))


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def json_paths(value, prefix=()):
    """Every key/index path inside ``value``, parents before children."""
    yield prefix
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from json_paths(child, prefix + (key,))


DOCUMENTS = [json.loads(cli(*argv)[1]) for argv in SOURCES]
# per document and top-level key, so the short graph, group and base
# sections are mutated as often as the long block lists
PATHS = [[list(json_paths(doc[key], (key,))) for key in doc] for doc in DOCUMENTS]
# paths of list entries, the ones a duplication can apply to, in the sections that have them
ENTRIES = [
    [entries for paths in doc if (entries := [p for p in paths if isinstance(p[-1], int)])]
    for doc in PATHS
]
VALUES = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    st.just(10**9),
)


def mutate(doc, path, action, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "replace":
        parent[key] = value
    elif action == "delete":
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return out


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    source=st.integers(0, len(SOURCES) - 1),
    section=st.integers(0, 4),
    where=st.integers(0, 10**6),
    action=st.sampled_from(("replace", "delete", "duplicate", "rotate")),
    value=VALUES,
)
def test_verify_survives_mutated_documents(tmp_path_factory, source, section, where, action, value):
    if action == "rotate":
        blocks = DOCUMENTS[source]["blocks"]
        turn = 1 + where % (len(blocks) - 1)
        doc = dict(DOCUMENTS[source], blocks=blocks[turn:] + blocks[:turn])
    else:
        sections = (ENTRIES if action == "duplicate" else PATHS)[source]
        paths = sections[section % len(sections)]
        doc = mutate(DOCUMENTS[source], paths[where % len(paths)], action, value)
    target = tmp_path_factory.getbasetemp() / "fuzz.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    started = time.perf_counter()
    code, _, err = cli("verify", "--input", str(target))
    assert time.perf_counter() - started < 1.0
    assert code in ((0,) if action == "rotate" else (0, 1, 2))
    assert "Traceback" not in err
