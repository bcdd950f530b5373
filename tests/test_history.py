import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_history
from wsikv.history import (
    HistoryParseError,
    NotAdmissibleError,
    TooManyTransactionsError,
    construct_serial,
    is_serializable,
    observe,
    parse,
    rejected,
    replay_policy,
    verdict_line,
    view_equivalent,
)
from wsikv.oracle import IsolationPolicy

SI, WSI = IsolationPolicy.SI, IsolationPolicy.WSI

WRITE_SKEW_DISJOINT = "r1[x] r2[y] w1[y] w2[x] c1 c2"
WRITE_SKEW_CONSTRAINT = "r1[x] r1[y] r2[x] r2[y] w1[x] w2[y] c1 c2"
LOST_UPDATE = "r1[x] r2[x] w2[x] w1[x] c1 c2"
BLIND_WRITE = "r1[x] w2[x] w1[x] c1 c2"
BLIND_WRITE_SERIAL = "r1[x] w1[x] c1 w2[x] c2"
CONSERVATIVE_REJECT = "r1[x] r2[z] w2[x] w1[y] c2 c1"
CONSERVATIVE_SERIAL = "r1[x] w1[y] c1 r2[z] w2[x] c2"


# -- parsing ---------------------------------------------------------------------


def test_parse_counts_events():
    assert len(parse(WRITE_SKEW_DISJOINT).events) == 6
    assert len(parse(BLIND_WRITE).events) == 5


def test_parse_duplicate_commit_is_error():
    with pytest.raises(HistoryParseError):
        parse("c1 c1")
    with pytest.raises(HistoryParseError):
        parse("w1[x] c1 a1")


def test_parse_operation_after_terminal_is_error():
    with pytest.raises(HistoryParseError):
        parse("c1 r1[x]")


def test_parse_terminal_for_operationless_transaction_is_allowed():
    h = parse("c1 a2")
    assert h.committed_txns() == [1]
    assert [ev.txn for ev in h.events if ev.kind == "a"] == [2]


def test_parse_malformed_token_reports_column():
    with pytest.raises(HistoryParseError) as err:
        parse("r1[x] w2[]")
    assert err.value.column == 7


def test_parse_read_with_value_is_error():
    with pytest.raises(HistoryParseError):
        parse("r1[x=3]")


def test_parse_explicit_write_values_round_trip():
    text = "w1[x=alpha] r2[x] c1 c2"
    assert parse(text).format() == text


def test_format_is_whitespace_normalization():
    text = "  r1[x]   w2[y]\tc1  c2 "
    assert parse(text).format() == " ".join(text.split())


@st.composite
def history_texts(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    h = random_history(rng)
    # sprinkle irregular whitespace between tokens
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    return sep.join(ev.token() for ev in h.events)


@settings(max_examples=100, deadline=None)
@given(history_texts())
def test_parse_format_round_trip(text):
    assert parse(text).format() == " ".join(text.split())


# -- policy replay ----------------------------------------------------------------


def rejected_txns(text, policy):
    return rejected(parse(text), policy)


def admissible(text, policy):
    return not rejected_txns(text, policy)


def test_replay_decisions_carry_abort_causes():
    d = replay_policy(parse("r1[x] r2[x] w2[x] w1[x] c1 c2 w3[y] a3"), SI)
    assert [(d[t].committed, d[t].cause) for t in (1, 2, 3)] == [
        (True, None),
        (False, "conflict"),
        (False, "client"),
    ]


def test_disjoint_write_skew_admissible_under_si_only():
    assert admissible(WRITE_SKEW_DISJOINT, SI)
    assert rejected_txns(WRITE_SKEW_DISJOINT, WSI) == [2]  # second committer


def test_constraint_write_skew_admissible_under_si_only():
    assert admissible(WRITE_SKEW_CONSTRAINT, SI)
    assert rejected_txns(WRITE_SKEW_CONSTRAINT, WSI) == [2]


def test_lost_update_rejected_by_both_policies():
    assert rejected_txns(LOST_UPDATE, SI) == [2]
    assert rejected_txns(LOST_UPDATE, WSI) == [2]


def test_blind_write_rejected_by_si_allowed_by_wsi():
    assert rejected_txns(BLIND_WRITE, SI) == [2]
    assert admissible(BLIND_WRITE, WSI)


def test_conservative_rejection_is_wsi_only():
    assert admissible(CONSERVATIVE_REJECT, SI)
    assert rejected_txns(CONSERVATIVE_REJECT, WSI) == [1]


def test_serial_histories_admissible_under_both():
    for text in (BLIND_WRITE_SERIAL, CONSERVATIVE_SERIAL):
        assert admissible(text, SI)
        assert admissible(text, WSI)


# -- serializability oracle ---------------------------------------------------------


def test_serializability_verdicts_for_classic_histories():
    assert not is_serializable(parse(WRITE_SKEW_DISJOINT)).serializable
    assert not is_serializable(parse(WRITE_SKEW_CONSTRAINT)).serializable
    assert not is_serializable(parse(LOST_UPDATE)).serializable
    v4 = is_serializable(parse(BLIND_WRITE))
    assert v4.serializable and v4.witness_order == (1, 2)
    v6 = is_serializable(parse(CONSERVATIVE_REJECT))
    assert v6.serializable and v6.witness_order == (1, 2)


def test_witness_search_is_lexicographic():
    # both orders are witnesses for two disjoint transactions; (1,2) is reported
    v = is_serializable(parse("w1[x] w2[y] c1 c2"))
    assert v.witness_order == (1, 2)


def test_aborted_transactions_are_excluded():
    v = is_serializable(parse("r1[x] w2[x] a2 w1[x] c1"))
    assert v.serializable and v.witness_order == (1,)


def test_capacity_limit_is_enforced():
    text = " ".join(f"c{t}" for t in range(1, 10))
    with pytest.raises(TooManyTransactionsError):
        is_serializable(parse(text))


# -- serial construction --------------------------------------------------------------


def test_blind_write_serializes_to_its_serial_form():
    assert construct_serial(parse(BLIND_WRITE)).format() == BLIND_WRITE_SERIAL


def test_single_transaction_history_maps_to_itself():
    text = "r1[x] w1[y] c1"
    assert construct_serial(parse(text)).format() == text


def test_construction_refused_for_inadmissible_history():
    with pytest.raises(NotAdmissibleError):
        construct_serial(parse(CONSERVATIVE_REJECT))


def test_read_only_transaction_relocates_to_its_start():
    # txn2 is read-only and starts before txn1 commits; its reads must stay
    # contiguous at its start position and the serial history stays equivalent
    h = parse("r1[x] r2[x] w1[x] r2[y] c2 c1")
    serial = construct_serial(h)
    assert serial.format() == "r2[x] r2[y] c2 r1[x] w1[x] c1"
    assert view_equivalent(h, serial)


def test_aborted_transactions_are_dropped_from_serial_form():
    h = parse("r1[x] w2[x] a2 w1[y] c1")
    serial = construct_serial(h)
    assert serial.format() == "r1[x] w1[y] c1"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_wsi_admissible_histories_are_serializable_with_equivalent_serial_form(seed):
    rng = random.Random(seed)
    h = random_history(rng)
    decisions = replay_policy(h, WSI)
    if not all(decisions[t].committed for t in h.committed_txns()):
        return  # not admissible: out of scope for the soundness claim
    verdict = is_serializable(h)
    assert verdict.serializable
    serial = construct_serial(h)
    # serial form has no interleaving: each transaction's events are contiguous
    seen = []
    for ev in serial.events:
        if not seen or seen[-1] != ev.txn:
            assert ev.txn not in seen
            seen.append(ev.txn)
    assert view_equivalent(h, serial)


def test_verdict_lines_for_classic_histories():
    assert (
        verdict_line(parse(WRITE_SKEW_CONSTRAINT))
        == "SI:admissible WSI:txn2-aborted SER:no"
    )
    assert (
        verdict_line(parse(BLIND_WRITE))
        == "SI:txn2-aborted WSI:admissible SER:yes witness=(1,2)"
    )


def test_observed_reads_use_writer_identity():
    run = observe(parse("r1[x] w2[x] c2 r1[x] r3[x] c1 c3").events)
    # txn1 reads the initial state twice (snapshot fixed at start)
    assert run.reads[1] == [("x", 0), ("x", 0)]
    # txn3 starts after txn2 commits
    assert run.reads[3] == [("x", 2)]
    assert run.finals == {"x": 2}
