import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpvkit import core
from mpvkit import (
    FormatError,
    Graph,
    Instance,
    PartitionedGraph,
    WeightedInstance,
    emit_graph,
    emit_instance,
    emit_solution,
    mcc_to_cmpv,
    parse_graph,
    parse_instance,
    parse_solution,
    random_instance,
    to_weighted,
    verify,
)

from conftest import e1

E1_TEXT = """mpv 1
variant C
agents 2
candidates 3
stages 3
k 1
ell 2
x 1
profile 1: 1 1
profile 2: 2 2
profile 3: 1 3
"""


def test_emit_matches_reference(e1_cmpv):
    assert emit_instance(e1_cmpv) == E1_TEXT


def test_parse_matches_reference(e1_cmpv):
    assert parse_instance(E1_TEXT) == e1_cmpv


def test_weighted_round_trip(e1_cmpv):
    w = to_weighted(e1_cmpv)
    text = emit_instance(w)
    assert "agents" not in text
    assert "weights 1: 2 0 0" in text
    back = parse_instance(text)
    assert isinstance(back, WeightedInstance)
    assert back == w
    assert emit_instance(back) == text


def test_weighted_arbitrary_precision():
    w = WeightedInstance(
        variant="R", m=2, weights=((0, 10**40, 1),), k=1, ell=0, x=10**39
    )
    assert parse_instance(emit_instance(w)) == w


@given(
    n=st.integers(0, 4),
    m=st.integers(1, 6),
    tau=st.integers(1, 4),
    k=st.integers(1, 3),
    ell=st.integers(0, 5),
    x=st.integers(1, 4),
    variant=st.sampled_from(["C", "R"]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_round_trip_identity(n, m, tau, k, ell, x, variant, seed):
    inst = random_instance(n, m, tau, k, ell, x, variant,
                           abstain_probability=0.3, seed=seed)
    text = emit_instance(inst)
    assert parse_instance(text) == inst
    assert emit_instance(parse_instance(text)) == text


@pytest.mark.parametrize(
    "mutation,line",
    [
        (lambda t: t.replace("mpv 1", "mpv 2"), 1),
        (lambda t: t.replace("variant C", "variant Q"), 2),
        (lambda t: t.replace("agents 2", "agents two"), 3),
        (lambda t: t.replace("candidates 3", "authors 3"), 4),
        (lambda t: t.replace("stages 3", "stages 0"), 5),
        (lambda t: t.replace("k 1", "k 0"), 6),
        (lambda t: t.replace("ell 2", "ell -1"), 7),
        (lambda t: t.replace("x 1", "x 0"), 8),
        (lambda t: t.replace("profile 1: 1 1", "profile 1: 1 1 1"), 9),
        (lambda t: t.replace("profile 2: 2 2", "profile 2: 2 4"), 10),
        (lambda t: t + "profile 4: 1 1\n", 12),
        (lambda t: t.replace("profile 3: 1 3\n", ""), 11),
    ],
)
def test_parse_errors_name_the_line(mutation, line):
    with pytest.raises(FormatError) as err:
        parse_instance(mutation(E1_TEXT))
    assert err.value.line == line


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("", 1, "empty input"),
        ("mpv 1\n", 2, "expected 'variant C' or 'variant R'"),
        (E1_TEXT.replace("variant C", "variant"), 2, "expected 'variant C' or 'variant R'"),
        ("mpv 1\nvariant C\nagents 2\ncandidates 3\n", 5, "missing 'stages' line"),
        (
            "mpv 1\nvariant C\ncandidates 3\nstages 1\nk 1\nell 0\nx 1\nweights 1: 1 2\n",
            8,
            "expected 3 weights, got 2",
        ),
    ],
)
def test_parse_errors_pin_line_and_message(text, line, message):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


COUNT_TEXT = E1_TEXT.replace("agents 2", "agents 3").replace(
    "profile 1: 1 1\nprofile 2: 2 2\nprofile 3: 1 3\n",
    "weights 1: 2 0 0\nweights 2: 0 2 0\nweights 3: 1 0 1\n",
)


def test_count_rows_under_agents_give_a_counts_built_instance(monkeypatch):
    def no_ballots(*args):
        raise AssertionError("count rows were tallied or spelled")

    monkeypatch.setattr(core, "_tally", no_ballots)
    monkeypatch.setattr(core, "_spell", no_ballots)
    inst = parse_instance(COUNT_TEXT)
    assert type(inst) is Instance and inst._ballots is None and inst.n == 3
    counts = [(0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 0, 1)]
    assert inst == Instance._of_counts("C", 3, counts, 3, 1, 2, 1)
    assert emit_instance(inst) == COUNT_TEXT
    huge = parse_instance(COUNT_TEXT.replace("agents 3", "agents 1000000000000"))
    assert huge.n == 10**12 and huge.counts == inst.counts


@pytest.mark.parametrize(
    "old,new,line,message",
    [
        ("weights 1: 2 0 0", "weights 1: 2 1 1", 9, "4 approvals exceed 3 agents"),
        ("weights 3: 1 0 1", "weights 3: 0 0 4", 11, "4 approvals exceed 3 agents"),
        ("weights 2: 0 2 0", "weights 2: 0 -2 0", 10, "negative weight -2"),
        ("weights 3: 1 0 1", "weights 3: 1 0", 11, "expected 3 weights, got 2"),
        ("weights 3: 1 0 1", "weights 3: 1 0 1 0", 11, "expected 3 weights, got 4"),
        (
            "weights 2: 0 2 0", "profile 2: 2 2 0",
            10, "expected 'weights 2: ...', got 'profile 2: 2 2 0'",
        ),
        (
            "weights 1: 2 0 0", "profile 1: 1 1 0",
            10, "expected 'profile 2: ...', got 'weights 2: 0 2 0'",
        ),
    ],
    ids=[
        "sum-first-row", "sum-last-row", "negative", "short", "long", "profile-after",
        "profile-first",
    ],
)
def test_count_rows_are_checked(old, new, line, message):
    assert old in COUNT_TEXT
    with pytest.raises(FormatError) as err:
        parse_instance(COUNT_TEXT.replace(old, new))
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_bool_ballot_entries_round_trip():
    inst = Instance("C", 2, ((True, 0), (1, 2)), 1, 0, 1)
    text = emit_instance(inst)
    assert "profile 1: 1 0\n" in text
    assert parse_instance(text) == inst
    assert emit_instance(parse_instance(text)) == text


def test_numpy_ballot_entries_emit_like_ints():
    rows = ((1, 0, 3), (2, 2, 0))
    plain = Instance("R", 3, rows, 1, 1, 1)
    for dtype in (np.int64, np.uint8, np.int32):
        numpy_rows = tuple(tuple(dtype(e) for e in row) for row in rows)
        assert emit_instance(Instance("R", 3, numpy_rows, 1, 1, 1)) == emit_instance(plain)


def test_gadget_round_trip_at_scale():
    pg = PartitionedGraph(
        parts=({1, 2, 3}, {4, 5, 6}, {7, 8, 9}),
        edges=((1, 4), (1, 7), (4, 7), (2, 5), (2, 9), (3, 6), (5, 8), (6, 9)),
    )
    inst = mcc_to_cmpv(pg)
    assert inst.n > 1000
    assert inst.n * inst.tau > core.TALLY_PYTHON_MAX
    text = emit_instance(inst)
    back = parse_instance(text)
    assert back == inst
    assert emit_instance(back) == text


def test_emit_refuses_what_parse_would_refuse():
    from mpvkit.formats import MAX_CANDIDATES, MAX_COUNTS

    widest = random_instance(1, MAX_CANDIDATES, 1, 1, 0, 1, "C", seed=0)
    assert parse_instance(emit_instance(widest)) == widest
    row = (0, 1) + (0,) * (MAX_COUNTS // 100 - 2)  # 100 stages of this row hold MAX_COUNTS
    longest = Instance._of_counts("C", len(row) - 1, (row,) * 100, 1, 1, 0, 1)
    assert parse_instance(emit_instance(longest)) == longest
    wide_row = (0, 1) + (0,) * MAX_CANDIDATES
    too_wide = WeightedInstance._of_counts("C", MAX_CANDIDATES + 1, [wide_row], None, 1, 0, 1)
    with pytest.raises(ValueError, match=f"MAX_CANDIDATES={MAX_CANDIDATES}"):
        emit_instance(too_wide)
    too_long = Instance._of_counts("C", len(row) - 1, (row,) * 101, 1, 1, 0, 1)
    with pytest.raises(ValueError, match=f"MAX_COUNTS={MAX_COUNTS}"):
        emit_instance(too_long)


def test_non_canonical_tokens_still_parse():
    text = E1_TEXT.replace("candidates 3", "candidates 12").replace("agents 2", "agents 3")
    text = text.replace("profile 1: 1 1", "profile 1: 1 1 10")
    text = text.replace("profile 2: 2 2", "profile 2: 2 2 0")
    text = text.replace("profile 3: 1 3", "profile 3: 1 3 12")
    canonical = parse_instance(text)
    for old, new in (
        ("profile 1: 1 1 10", "profile 1: 01 1 10"),
        ("profile 2: 2 2 0", "profile 2: +2 2 00"),
        ("profile 1: 1 1 10", "profile 1: 1 1 1_0"),
        ("profile 3: 1 3 12", "profile 3: 1 0003 +1_2"),
    ):
        assert old in text
        assert parse_instance(text.replace(old, new)) == canonical


@pytest.mark.parametrize(
    "last,message",
    [("4", "ballot entry 4 outside 0..3"), ("1.5", "entry must be an integer, got '1.5'")],
)
def test_bad_last_token_of_a_long_row(last, message):
    n = 5000
    row = " ".join(["1", "2", "3", "0"] * (n // 4))
    text = E1_TEXT.replace("agents 2", f"agents {n}")
    text = text.replace("profile 1: 1 1", f"profile 1: {row}")
    text = text.replace("profile 2: 2 2", f"profile 2: {row}")
    text = text.replace("profile 3: 1 3", f"profile 3: {row}")
    assert parse_instance(text).n == n
    bad = text.replace(f"profile 2: {row}", f"profile 2: {row[:-1]}{last}")
    with pytest.raises(FormatError) as err:
        parse_instance(bad)
    assert err.value.line == 10
    assert str(err.value) == f"line 10: {message}"


def _counts_built(rng, m, n, tau):
    # seeded count rows over n agents, among them an all-abstain row and
    # one without abstentions; 1, 10 and 11 share token prefixes
    rows = [[0] * (m + 1) for _ in range(tau)]
    for _ in range(n):
        rows[1][rng.randint(1, m)] += 1
    for row in rows[2:]:
        for _ in range(rng.randint(0, n)):
            row[rng.choice((1, 10, 11, rng.randint(1, m)))] += 1
    rng.shuffle(rows)
    return Instance._of_counts(rng.choice("CR"), m, rows, n, 2, 1, 3)


def test_counts_built_instances_round_trip_as_count_rows():
    rng = random.Random(20)
    for trial in range(80):
        m = rng.randint(11, 14)
        n = 8 * (m + 1) + rng.choice((-9, -1, 0, 1, 37, 400))
        built = _counts_built(rng, m, n, rng.randint(2, 5))
        text = emit_instance(built)
        assert f"\nagents {n}\n" in text and "profile" not in text
        rows = [
            f"weights {t}: " + " ".join(map(str, row[1:])) for t, row in enumerate(built.counts, 1)
        ]
        assert text.endswith("\n".join(rows) + "\n")
        spelled = Instance(built.variant, m, built.ballots, built.k, built.ell, built.x)
        assert "weights" not in emit_instance(spelled)  # given ballots keep profile rows
        back = parse_instance(text)
        assert back._ballots is None and type(back) is Instance
        assert (back.counts, back.n, back.ballots) == (built.counts, n, built.ballots)
        assert back == built == spelled and emit_instance(back) == text


_ROW1 = " 1" * 30 + " 10" * 40 + " 11" * 30 + " 0" * 10
_ROW2 = " 2" * 50 + " 12" * 60
_ROW3 = " 0" * 110


def _long_text(rows=(_ROW1, _ROW2, _ROW3), tail=""):
    # 110 agents and 12 candidates
    head = "mpv 1\nvariant C\nagents 110\ncandidates 12\nstages 3\nk 2\nell 1\nx 40\n"
    return head + "".join(f"profile {t}:{row}\n" for t, row in enumerate(rows, 1)) + tail


def test_long_canonical_profile_rows_keep_their_ballots():
    inst = parse_instance(_long_text())
    assert inst._ballots is not None
    assert inst.ballots[0] == (1,) * 30 + (10,) * 40 + (11,) * 30 + (0,) * 10
    assert inst.counts[0] == (0, 30) + (0,) * 8 + (40, 30, 0)
    assert inst.counts[1] == (0, 0, 50) + (0,) * 9 + (60,) and inst.counts[2] == (0,) * 13
    assert emit_instance(inst) == _long_text()


@pytest.mark.parametrize(
    "text,error",
    [
        (_long_text((" 11" * 30 + " 10" * 40 + " 1" * 30 + " 0" * 10, _ROW2, _ROW3)), None),
        (
            _long_text(
                (" 1" * 20 + " 10" * 40 + " 1" * 10 + " 11" * 30 + " 0" * 10, _ROW2, _ROW3)
            ),
            None,
        ),
        (_long_text((" 1" * 30 + " 0" * 10 + " 10" * 40 + " 11" * 30, _ROW2, _ROW3)), None),
        (_long_text((" 01" + _ROW1[2:], _ROW2, _ROW3)), None),
        (_long_text((_ROW1, " +2" + _ROW2[2:], _ROW3)), None),
        (_long_text((_ROW1.replace(" 10", " 1_0", 1), _ROW2, _ROW3)), None),
        (_long_text((_ROW1.replace(" 10", "  10", 1), _ROW2, _ROW3)), None),
        (_long_text((_ROW1 + " ", _ROW2, _ROW3)), None),
        (_long_text((_ROW1.replace(" 11", "\t11", 1), _ROW2, _ROW3)), None),
        (_long_text((_ROW1[:-2], _ROW2, _ROW3)), (9, "expected 110 ballot entries, got 109")),
        (_long_text((_ROW1 + " 0", _ROW2, _ROW3)), (9, "expected 110 ballot entries, got 111")),
        (_long_text((_ROW1, _ROW2 + " 12", _ROW3)), (10, "expected 110 ballot entries, got 111")),
        (_long_text((_ROW1[:-2] + " 13", _ROW2, _ROW3)), (9, "ballot entry 13 outside 0..12")),
        (_long_text((_ROW1, _ROW2)), (11, "missing 'profile 3' line")),
        (_long_text(tail="profile 4: 1\n"), (12, "unexpected trailing line 'profile 4: 1'")),
        (
            _long_text().replace("profile 2:", "profile 5:"),
            (10, f"expected 'profile 2: ...', got 'profile 5:{_ROW2}'"),
        ),
    ],
    ids=[
        "descending-ids", "split-run", "zeros-mid-row", "leading-zero", "plus-sign",
        "underscore", "double-space", "trailing-space", "tab", "short-row", "long-row",
        "long-row-without-abstentions", "out-of-range", "missing-line", "trailing-line", "wrong-stage",
    ],
)
def test_long_rows_that_are_not_canonical_read_as_token_rows(text, error):
    # the per-token reader's instance, kept with its ballots, or its error
    if error is not None:
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert (err.value.line, str(err.value)) == (error[0], f"line {error[0]}: {error[1]}")
        return
    inst = parse_instance(text)
    rows = [line.partition(":")[2].split() for line in text.splitlines()[8:]]
    ballots = tuple(tuple(int(token) for token in row) for row in rows)
    assert inst._ballots is not None and inst.ballots == ballots
    assert inst == Instance("C", 12, ballots, 2, 1, 40)


def test_negative_weight_message_names_the_first():
    text = emit_instance(to_weighted(e1()))
    bad = text.replace("weights 2: 0 2 0", "weights 2: 0 -2 -7")
    with pytest.raises(FormatError) as err:
        parse_instance(bad)
    assert str(err.value) == "line 9: negative weight -2"


def test_out_of_order_directives_rejected():
    scrambled = E1_TEXT.replace(
        "agents 2\ncandidates 3", "candidates 3\nagents 2"
    )
    with pytest.raises(FormatError):
        parse_instance(scrambled)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def test_solution_round_trip(e1_rmpv):
    seq = (frozenset({1}), frozenset({2}), frozenset({1}))
    text = emit_solution(seq)
    assert text == "stage 1: 1\nstage 2: 2\nstage 3: 1\n"
    assert parse_solution(text, e1_rmpv) == seq


def test_solution_empty_committees(e1_rmpv):
    seq = (frozenset(), frozenset({1, 2}), frozenset())
    text = emit_solution(seq)
    assert "stage 1:\n" in text
    assert parse_solution(text, e1_rmpv) == seq


def test_bool_and_numpy_ids_are_written_as_integers(e1_rmpv):
    # verify and Instance take True as candidate 1, so the file must say 1
    seq = ({True, 2}, {np.int64(3), np.int8(1)}, {True, np.int32(3)})
    text = emit_solution(seq)
    assert text == "stage 1: 1 2\nstage 2: 1 3\nstage 3: 1 3\n"
    back = parse_solution(text, e1_rmpv)
    assert back == tuple(map(frozenset, seq))
    assert all(type(c) is int for committee in back for c in committee)


@pytest.mark.parametrize("bad", [2.5, 1.0, np.True_, "1"], ids=["2.5", "1.0", "np-bool", "str"])
def test_ids_verify_refuses_are_not_written(e1_rmpv, bad):
    # %d would write 2.5 as 2 and np.True_ as 1; verify refuses both
    seq = ({bad}, {1}, {1})
    with pytest.raises(ValueError):
        verify(e1_rmpv, seq)
    with pytest.raises(TypeError):
        emit_solution(seq)


def test_solution_errors(e1_rmpv):
    with pytest.raises(FormatError):
        parse_solution("stage 1: 1\n", e1_rmpv)  # too few stages
    with pytest.raises(FormatError):
        parse_solution("stage 1: 4\nstage 2: 1\nstage 3: 1\n", e1_rmpv)
    with pytest.raises(FormatError) as err:
        parse_solution("stage 1: 1 1\nstage 2: 1\nstage 3: 1\n", e1_rmpv)
    assert "repeated" in str(err.value)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_graph_round_trip():
    g = Graph(4, ((1, 2), (2, 4), (1, 3)))
    text = emit_graph(g)
    assert text.startswith("graph 4 3\n")
    assert parse_graph(text) == g
    assert emit_graph(parse_graph(text)) == text


def test_partitioned_graph_round_trip():
    pg = PartitionedGraph(parts=({1, 2}, {3}, {4, 5}), edges=((1, 3), (3, 5)))
    text = emit_graph(pg)
    assert "parts 3" in text
    back = parse_graph(text)
    assert isinstance(back, PartitionedGraph)
    assert back == pg


def test_graph_errors():
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("graph 2\n")
    with pytest.raises(FormatError) as err:
        parse_graph("graph 2 1\n1 1\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_graph("graph 2 1\n1 2\n1 2\n")  # trailing junk
    with pytest.raises(FormatError):
        parse_graph("graph 4 2\n1 2\n1 2\n")  # duplicate edge
    with pytest.raises(FormatError):
        parse_graph("graph 4 0\nparts 2\n1 2\n3\n")  # vertex 4 in no part
    for text, line, message in (
        ("graph 3 2\n1 2\n", 3, "missing edge line"),
        ("graph 3 1\n1 2 3\n", 2, "expected 'u v', got '1 2 3'"),
        ("graph 3 1\n1 4\n", 2, "edge (1, 4) outside 1..3"),
        ("graph 4 0\nparts 2\n1 2\n", 4, "missing part line"),
        # PartitionedGraph's own errors name the 'parts' line, 2 + ne
        ("graph 4 2\n1 2\n1 3\nparts 2\n1 2\n3 4\n", 4, "edge (1, 2) stays inside one part"),
        # a vertex listed twice or outside 1..nv is reported on the part line that lists it
        ("graph 4 1\n1 3\nparts 2\n1 1 2\n3 4\n", 4, "vertex 1 listed twice"),
        ("graph 4 1\n1 3\nparts 2\n1 2\n3 2 4\n", 5, "vertex 2 listed twice"),
        ("graph 4 1\n1 2\nparts 2\n1 2\n3 99\n", 5, "vertex 99 outside 1..4"),
        ("graph 4 1\n1 2\nparts 2\n1 2\n0 3 4\n", 5, "vertex 0 outside 1..4"),
    ):
        with pytest.raises(FormatError, match=re.escape(message)) as err:
            parse_graph(text)
        assert err.value.line == line
