"""The array validator against a scalar reference, and fuzzing of the
graph readers.

The reference below checks edges one at a time in input order, as the
package did when a graph stored its edges as a tuple of pairs: range,
then self-loop, then duplicate, the first offending edge winning.  Its one
addition is the rule that an endpoint must fit int64, the edge array's
dtype; that rule only decides for a graph of more than 2**63 vertices.
For every input, ``build_graph``, ``parse_edge_list``, ``parse_graph_json``
and ``load_graph`` must give the reference's canonical edges, or raise the
reference's error class with its message.
"""

import contextlib
import io
import json
import string

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from rcorona import (
    DuplicateEdgeError,
    EndpointRangeError,
    Graph,
    GraphValidationError,
    HypothesisError,
    SelfLoopError,
    build_graph,
    format_graph,
    generate,
    load_graph,
    parse_edge_list,
    parse_graph_json,
)
from rcorona.cli import main
from rcorona.graphs import _KEY_MAX_N

INT64_MAX = 2**63 - 1


# --- the scalar reference ----------------------------------------------------


def reference_build(n, edges):
    if n < 0:
        raise GraphValidationError(f"vertex count must be non-negative, got {n}")
    canonical, seen = [], set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise EndpointRangeError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if not (-INT64_MAX - 1 <= min(u, v) and max(u, v) <= INT64_MAX):
            raise EndpointRangeError(
                f"edge ({u},{v}) has an endpoint beyond {INT64_MAX}, the largest vertex index"
            )
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        canonical.append((u, v))
    return n, tuple(canonical)


def reference_parse_edge_list(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphValidationError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphValidationError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise GraphValidationError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphValidationError(f"edge line must be 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return reference_build(n, edges)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def reference_parse_graph_json(text):
    try:
        obj = json.loads(text)
    except RecursionError:
        raise GraphValidationError("graph JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphValidationError('graph JSON must be an object with keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not _is_int(n):
        raise GraphValidationError(f'graph JSON "n" must be an integer, got {n!r}')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e) for e in edges
    ):
        raise GraphValidationError('graph JSON "edges" must be a list of integer pairs [u, v]')
    return reference_build(n, [tuple(e) for e in edges])


def reference_load(text):
    if text.lstrip().startswith("{"):
        return reference_parse_graph_json(text)
    return reference_parse_edge_list(text)


def outcome(fn, *args):
    """("graph", n, edges) or ("error", class, message)."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, Graph):
        return ("graph", result.vertex_count, tuple(map(tuple, result.ends.tolist())))
    return ("graph", *result)


def assert_exit_2_class(fn, *args):
    """fn returns, or raises an error the CLI reports as a usage error
    (exit 2): a ValueError that is not a violated hypothesis (exit 3)."""
    try:
        fn(*args)
    except ValueError as exc:
        assert not isinstance(exc, HypothesisError), exc


# --- strategies --------------------------------------------------------------

def _weighted(*choices):
    """One of the strategies, each drawn in proportion to its weight."""
    return st.sampled_from([s for s, weight in choices for _ in range(weight)]).flatmap(lambda s: s)


# integers near the ends of int64 and beyond it
_EXTREME = (INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2, 10**20, -(10**20))
endpoints = st.one_of(st.integers(-2, 9), st.sampled_from(_EXTREME))
orders = st.one_of(st.integers(-2, 9), st.sampled_from((INT64_MAX, INT64_MAX + 1, 2**64, 10**30)))
edge_lists = st.lists(st.tuples(endpoints, endpoints), max_size=12)

# tokens that int() and numpy both accept, tokens both refuse, and tokens
# beyond int64
_TOKENS = ("+3", "3_0", "٣", "００７", "-0", "007", "3.0", "1e3", "0x10", "x", "½", "--1", "3_",
           "9" * 19, "-" + "9" * 19, str(INT64_MAX), str(INT64_MAX + 1), str(-INT64_MAX - 1),
           str(-INT64_MAX - 2))
_small = st.integers(-2, 9).map(str)
tokens = _weighted((_small, 8), (st.sampled_from(_TOKENS), 1))
_SPACES = st.sampled_from((" ", "  ", "\t", "\xa0", " \u3000 "))
_BREAKS = st.sampled_from(("\n",) * 6 + ("\r\n", "\r", "\x0b", "\x1c", "\u2028", "\n \n"))
# mostly well-formed lines of two tokens
rows = st.sampled_from((2,) * 20 + (0, 1, 3)).flatmap(
    lambda k: st.lists(tokens, min_size=k, max_size=k))


@st.composite
def edge_list_texts(draw):
    """Edge-list texts near the format: a header and lines of 0 to 3
    tokens, the header's edge count mostly right."""
    lines = draw(st.lists(rows, max_size=8))
    declared = sum(map(bool, lines)) + draw(st.sampled_from((0,) * 10 + (1, -1)))
    header = [draw(st.one_of(orders.map(str), tokens)), str(declared)]
    if draw(st.sampled_from((False,) * 15 + (True,))):
        header = draw(rows)
    text = ""
    for row in [header, *lines]:
        text += draw(_SPACES).join(row) + draw(_BREAKS)
    return text


json_values = st.one_of(
    endpoints, st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.none(),
    st.text(max_size=3),
)
_pairs = st.lists(endpoints, min_size=2, max_size=2)
json_edges = st.lists(
    _weighted((_pairs, 20), (st.lists(json_values, min_size=0, max_size=3), 1), (json_values, 1)),
    max_size=8,
)


@st.composite
def graph_json_texts(draw):
    """Graph JSON near the format: mostly an integer "n" and a list of
    pairs, sometimes a key missing or a value of another type."""
    obj = {"n": draw(_weighted((orders, 8), (json_values, 1))),
           "edges": draw(_weighted((json_edges, 8), (json_values, 1)))}
    if draw(st.sampled_from((False,) * 15 + (True,))):
        del obj[draw(st.sampled_from(("n", "edges")))]
    return json.dumps(obj, ensure_ascii=draw(st.booleans()))


# --- differential tests --------------------------------------------------------


# the largest vertex count whose repeated edges are found by one int64 key
KEY_MAX_N = 3_037_000_499


def test_key_bound():
    assert _KEY_MAX_N == KEY_MAX_N
    assert KEY_MAX_N**2 <= INT64_MAX < (KEY_MAX_N + 1) ** 2


def _on_both_sides_of_the_key_bound(test):
    """@examples at n just below and just above KEY_MAX_N: valid edges near
    the top, a duplicate, a self-loop and an endpoint out of range."""
    for n in (KEY_MAX_N - 1, KEY_MAX_N, KEY_MAX_N + 1, KEY_MAX_N + 2):
        top = n - 1
        for edges in ([(top, top - 1), (0, top), (top - 2, 1)],
                      [(top - 1, top), (0, top), (top, top - 1)],
                      [(0, top), (top - 1, top - 1), (top, 0)],
                      [(top, 0), (1, n), (0, top)],
                      [(top, 1), (top, -1), (1, top)]):
            test = example(n, edges)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(orders, edge_lists)
# keys lo * n + hi that collide: (1, 2) and (0, 7) at n = 5, either way round
@example(5, [(1, 2), (0, 7)])
@example(5, [(0, 7), (1, 2)])
@example(5, [(2, 1), (7, 0), (1, 2)])
# negative endpoints: (-1, 7) has the key of (0, 2) at n = 5
@example(5, [(0, 2), (-1, 7)])
@example(5, [(-1, 7), (0, 2)])
@example(5, [(-2, -1), (-1, -2)])
@example(3, [(1, -2), (0, 1), (1, 0)])
# a duplicate with an out-of-range edge, of the same key, between its copies
@example(5, [(1, 2), (0, 7), (1, 2)])
@example(5, [(1, 2), (0, 7), (2, 1), (0, 7)])
@example(5, [(0, 2), (-1, 7), (2, 0)])
@_on_both_sides_of_the_key_bound
def test_build_graph_matches_reference(n, edges):
    assert outcome(build_graph, n, edges) == outcome(reference_build, n, edges)


@settings(max_examples=100, deadline=None)
@given(orders, edge_lists)
def test_build_graph_from_an_array_matches_reference(n, edges):
    edges = [(u, v) for u, v in edges if -INT64_MAX - 1 <= min(u, v) and max(u, v) <= INT64_MAX]
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert outcome(build_graph, n, ends) == outcome(reference_build, n, edges)


# texts at the edges of the form save_graph writes, which is read in one
# pass over its bytes: each is read that way, or by the tokenizer
_NINES = "9" * 19
PLAIN_EDGES = (
    "3 2\n0 1\n1 2",  # no final LF
    "3 0", "3 0\n",  # a header alone
    "3 1\n0 1\n\n",  # a trailing blank line
    "3 1\n0 \n", "3 1\n 0\n",  # an empty token
    "3 1\n0  1\n",  # a double space
    f"{INT64_MAX} 1\n0 1\n", f"{INT64_MAX - 1} 1\n0 {INT64_MAX - 2}\n", f"{INT64_MAX - 1} 0\n",
    f"3 1\n0 {INT64_MAX}\n", f"3 1\n0 {INT64_MAX - 1}\n", f"{_NINES} 1\n0 1\n", f"3 1\n{_NINES} 1\n",
    f"{_NINES}9 1\n0 1\n",
    "003 01\n000 02\n",  # leading zeros
    "3 2\n0 1\n", "3 0\n0 1\n",  # a header count off by one
    "3 1\r\n0 1\r\n", "3 1\r0 1\r",  # other line ends
    "",
)


def _with_plain_examples(test):
    for text in PLAIN_EDGES:
        test = example(text=text)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(text=edge_list_texts())
@_with_plain_examples
def test_parse_edge_list_matches_reference(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_a_large_plain_text_matches_reference():
    # the 100 000 edges of circulant(50 000; 1, 2), shuffled, about half of
    # them written the other way round
    rng = np.random.default_rng(5)
    ends = generate("circulant", 50_000, 1, 2).ends[rng.permutation(100_000)]
    flip = rng.random(len(ends)) < 0.5
    ends[flip] = ends[flip, ::-1]
    text = "50000 100000\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist())
    got = outcome(parse_edge_list, text)
    assert got[0] == "graph" and got == outcome(reference_parse_edge_list, text)


def test_plain_text_never_reaches_the_tokenizer(monkeypatch):
    def forbidden(text):
        raise AssertionError("a plain text went to the tokenizer")

    g = generate("petersen")
    monkeypatch.setattr("rcorona.graphs._tokenized_edge_list", forbidden)
    assert parse_edge_list(format_graph(g, "edgelist")) == g
    assert parse_edge_list(format_graph(g, "edgelist").rstrip("\n")) == g
    with pytest.raises(AssertionError, match="tokenizer"):
        parse_edge_list("10 0\r\n")


def test_plain_file_never_reaches_the_tokenizer(tmp_path, monkeypatch):
    # load_graph reads the bytes, with text mode's newlines
    def forbidden(text):
        raise AssertionError("a plain file went to the tokenizer")

    g = generate("petersen")
    monkeypatch.setattr("rcorona.graphs._tokenized_edge_list", forbidden)
    path = tmp_path / "g.el"
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes(format_graph(g, "edgelist").replace("\n", newline).encode())
        assert load_graph(str(path)) == g


@pytest.mark.parametrize("data", [b"3 1\n0\xc3 1\n", b"3 1\r\n0 1\r\n" * 3000 + b"\xff"],
                         ids=["near", "far-after-crlf"])
def test_load_graph_decode_error_as_text_mode(tmp_path, data):
    path = tmp_path / "g.el"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as text_mode:
        path.read_text(encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as loaded:
        load_graph(str(path))
    assert str(loaded.value) == str(text_mode.value)


@settings(max_examples=300, deadline=None)
@given(graph_json_texts())
def test_parse_graph_json_matches_reference(text):
    assert outcome(parse_graph_json, text) == outcome(reference_parse_graph_json, text)


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(edge_list_texts(), graph_json_texts()))
@_with_plain_examples
def test_load_graph_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "graph.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_graph, str(path)) == outcome(reference_load, text)


@pytest.mark.parametrize("text, expected", [
    ("3 1\n+1 ٢\n", ("graph", 3, ((1, 2),))),
    ("3_0 1\n0 2_9\n", ("graph", 30, ((0, 29),))),
    ("3 2\n0 1\n1 0\n", ("error", DuplicateEdgeError, "duplicate edge (0,1)")),
    ("3 2\n1 1\n0 5\n", ("error", SelfLoopError, "self-loop at vertex 1")),
    ("3 2\n0 5\n1 1\n", ("error", EndpointRangeError, "edge (0,5) has an endpoint outside 0..2")),
    ("3 2\n0 1 2\nx 1\n", ("error", GraphValidationError, "edge line must be 'u v', got '0 1 2'")),
    ("3 2\nx 1\n0 1 2\n", ("error", ValueError, "invalid literal for int() with base 10: 'x'")),
    ("3 2\n0 99999999999999999999\nx 1\n",
     ("error", ValueError, "invalid literal for int() with base 10: 'x'")),
    ("3 2\n1 1\n0 99999999999999999999\n", ("error", SelfLoopError, "self-loop at vertex 1")),
    ("3 1\n0 -99999999999999999999\n",
     ("error", EndpointRangeError, "edge (0,-99999999999999999999) has an endpoint outside 0..2")),
    # at the edges of the form save_graph writes
    ("3 2\n0 1\n1 2", ("graph", 3, ((0, 1), (1, 2)))),
    ("3 0", ("graph", 3, ())),
    ("3 0\n", ("graph", 3, ())),
    ("3 1\n0 1\n\n", ("graph", 3, ((0, 1),))),
    ("3 1\n0 \n", ("error", GraphValidationError, "edge line must be 'u v', got '0 '")),
    ("3 1\n0  1\n", ("graph", 3, ((0, 1),))),
    (f"{INT64_MAX} 1\n0 {INT64_MAX - 1}\n", ("graph", INT64_MAX, ((0, INT64_MAX - 1),))),
    (f"{INT64_MAX - 1} 1\n0 {INT64_MAX - 2}\n", ("graph", INT64_MAX - 1, ((0, INT64_MAX - 2),))),
    (f"3 1\n0 {INT64_MAX}\n",
     ("error", EndpointRangeError, f"edge (0,{INT64_MAX}) has an endpoint outside 0..2")),
    (f"3 1\n0 {INT64_MAX - 1}\n",
     ("error", EndpointRangeError, f"edge (0,{INT64_MAX - 1}) has an endpoint outside 0..2")),
    (f"{_NINES} 1\n0 1\n", ("graph", int(_NINES), ((0, 1),))),
    (f"3 1\n{_NINES} 1\n", ("error", EndpointRangeError, f"edge ({_NINES},1) has an endpoint outside 0..2")),
    ("003 01\n000 02\n", ("graph", 3, ((0, 2),))),
    ("3 2\n0 1\n", ("error", GraphValidationError, "header declares 2 edges but 1 lines follow")),
    ("3 0\n0 1\n", ("error", GraphValidationError, "header declares 0 edges but 1 lines follow")),
    ("", ("error", GraphValidationError, "empty edge-list input")),
])
def test_first_offending_edge_wins(text, expected):
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text) == expected


def test_endpoint_beyond_int64_in_a_larger_graph():
    n = 2**64
    with pytest.raises(EndpointRangeError, match="beyond 9223372036854775807"):
        build_graph(n, [(0, 1), (2, 2**63)])
    g = build_graph(n, [(0, INT64_MAX)])
    assert g.vertex_count == n and g.ends.tolist() == [[0, INT64_MAX]]


def test_token_beyond_int64_exits_2_with_its_message(tmp_path):
    path = tmp_path / "big.el"
    path.write_text("3 1\n0 99999999999999999999\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["spectrum", str(path)]) == 2
    assert err.getvalue() == "error: edge (0,99999999999999999999) has an endpoint outside 0..2\n"


# --- fuzzing -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.digits + " \n\r\t-+_x{}[],:\"ne٣", max_size=60))
def test_fuzzed_text_raises_only_usage_errors(text):
    assert_exit_2_class(parse_edge_list, text)
    assert_exit_2_class(parse_graph_json, text)
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_fuzzed_unicode_raises_only_usage_errors(text):
    assert_exit_2_class(parse_edge_list, text)
    assert_exit_2_class(parse_graph_json, text)
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)
