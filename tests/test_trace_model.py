import random
from hashlib import sha256

import pytest

from dtn_cluster_sim.synthetic import SyntheticParams, generate_synthetic_trace
from dtn_cluster_sim.trace_files import (parse_contact_trace, parse_interest_profiles,
                                         serialize_contact_trace, serialize_profiles)
from dtn_cluster_sim.trace_model import (ContactTrace, InvalidParams, InterestProfile,
                                         TraceError, validate_scenario)
from oracles import reference_assemble


class TestParseTabular:
    def test_two_events(self):
        trace = parse_contact_trace("0 10 1 2\n5 12 2 3\n")
        assert len(trace.events) == 2
        assert trace.duration == 12.0
        assert trace.node_count == 3
        assert trace.nodes == (1, 2, 3)
        assert trace.events[0] == (0.0, 10.0, 1, 2)
        assert trace.events[1] == (5.0, 12.0, 2, 3)

    def test_empty_input(self):
        trace = parse_contact_trace("")
        assert trace.events == ()
        assert trace.duration == 0.0
        assert trace.node_count == 0

    def test_comments_ignored(self):
        trace = parse_contact_trace("# a comment\n0 10 1 2\n")
        assert len(trace.events) == 1

    def test_duration_header_overrides_upward(self):
        trace = parse_contact_trace("# duration: 99\n0 10 1 2\n")
        assert trace.duration == 99.0

    def test_nodes_header_overrides_upward(self):
        trace = parse_contact_trace("# nodes: 7\n0 10 1 2\n")
        assert trace.node_count == 7

    def test_duration_header_below_last_end_rejected(self):
        with pytest.raises(InvalidParams):
            parse_contact_trace("# duration: 5\n0 10 1 2\n")

    def test_nodes_header_below_distinct_ids_rejected(self):
        with pytest.raises(InvalidParams, match="node_count"):
            parse_contact_trace("# nodes: 1\n0 10 1 2\n")

    def test_unsorted_input_resorted(self):
        trace = parse_contact_trace("5 12 2 3\n0 10 1 2\n")
        starts = [t_start for t_start, _, _, _ in trace.events]
        assert starts == sorted(starts)

    def test_sort_tiebreak_lexicographic(self):
        trace = parse_contact_trace("0 10 4 5\n0 10 1 2\n0 8 2 3\n")
        assert list(trace.events) == sorted(trace.events)

    def test_pair_normalized_and_overlaps_merged(self):
        trace = parse_contact_trace("0 10 2 1\n5 12 1 2\n")
        assert trace.events == ((0.0, 12.0, 1, 2),)

    def test_touching_intervals_merge(self):
        trace = parse_contact_trace("0 5 1 2\n5 10 1 2\n")
        assert trace.events == ((0.0, 10.0, 1, 2),)

    def test_disjoint_intervals_kept(self):
        trace = parse_contact_trace("0 5 1 2\n6 10 1 2\n")
        assert len(trace.events) == 2

    def test_malformed_line_number(self):
        with pytest.raises(TraceError, match="line 2: malformed line") as err:
            parse_contact_trace("0 10 1 2\n0 10 1\n")
        assert err.value.line_no == 2

    def test_unparsable_field(self):
        with pytest.raises(TraceError, match="unparsable field"):
            parse_contact_trace("0 ten 1 2\n")

    def test_inverted_interval(self):
        with pytest.raises(TraceError, match="t_start >= t_end") as err:
            parse_contact_trace("10 10 1 2\n")
        assert err.value.line_no == 1

    def test_self_contact(self):
        with pytest.raises(TraceError, match="with itself") as err:
            parse_contact_trace("0 10 3 3\n")
        assert err.value.line_no == 1

    def test_negative_time(self):
        with pytest.raises(TraceError, match="negative value") as err:
            parse_contact_trace("0 5 1 2\n-1 5 1 2\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line", ["nan 10 1 2", "0 inf 1 2", "0 nan 1 2",
                                      "inf inf 1 2", "0 1e400 1 2"])
    def test_non_finite_time_rejected(self, line):
        with pytest.raises(TraceError, match="non-finite") as err:
            parse_contact_trace("0 5 1 2\n" + line + "\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_duration_header_rejected(self, value):
        with pytest.raises(TraceError, match="bad duration header") as err:
            parse_contact_trace(f"0 10 1 2\n# duration: {value}\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("comment", ["# nodes in this trace are phones",
                                         "# duration of the study: one day",
                                         "# durations: 5", "# duration 99",
                                         # only data and header lines must be
                                         # ASCII without `_`
                                         "# caf\u00e9 at 1_0, nodes \u0663"])
    def test_free_text_comment_is_not_a_header(self, comment):
        trace = parse_contact_trace(comment + "\n0 10 1 2\n")
        assert trace.duration == 10.0
        assert trace.node_count == 2

    @pytest.mark.parametrize("header", ["# duration: abc", "# nodes = many",
                                        "## duration=1 day", "# duration:"])
    def test_bad_header_value_rejected(self, header):
        with pytest.raises(TraceError, match="header") as err:
            parse_contact_trace("0 10 1 2\n" + header + "\n")
        assert err.value.line_no == 2

    def test_header_with_equals_sign(self):
        trace = parse_contact_trace("#duration = 99\n##  nodes=7\n0 10 1 2\n")
        assert trace.duration == 99.0
        assert trace.node_count == 7


class TestParseOneEvents:
    def test_pairing_up_down(self):
        trace = parse_contact_trace("3.0 CONN 1 2 up\n9.0 CONN 1 2 down\n")
        assert trace.events == ((3.0, 9.0, 1, 2),)
        assert trace.duration == 9.0

    def test_interleaved_pairs_pair_in_file_order(self):
        text = ("1.0 CONN 1 2 up\n"
                "2.0 CONN 2 3 up\n"
                "4.0 CONN 1 2 down\n"
                "6.0 CONN 2 3 down\n")
        trace = parse_contact_trace(text)
        assert trace.events == ((1.0, 4.0, 1, 2),
                                (2.0, 6.0, 2, 3))

    def test_unclosed_up_ends_at_trace_duration(self):
        text = "1.0 CONN 1 2 up\n8.0 CONN 3 4 up\n9.0 CONN 3 4 down\n"
        trace = parse_contact_trace(text)
        assert (1.0, 9.0, 1, 2) in trace.events

    def test_stray_down_ignored(self):
        trace = parse_contact_trace("5.0 CONN 1 2 down\n7.0 CONN 1 2 up\n9.0 CONN 1 2 down\n")
        assert trace.events == ((7.0, 9.0, 1, 2),)

    def test_down_before_up_time_is_inverted(self):
        with pytest.raises(TraceError, match="t_start >= t_end"):
            parse_contact_trace("5.0 CONN 1 2 up\n5.0 CONN 1 2 down\n")

    def test_malformed_line(self):
        with pytest.raises(TraceError, match="line 2: .*CONN"):
            parse_contact_trace("1.0 CONN 1 2 up\n5.0 DISCO 1 2 up\n")

    def test_duration_is_last_timestamp(self):
        text = "1.0 CONN 1 2 up\n4.0 CONN 1 2 down\n9.0 CONN 1 2 up\n"
        trace = parse_contact_trace(text)
        # the trailing up at the last timestamp closes into an empty
        # interval and is dropped, but the duration still covers it
        assert trace.duration == 9.0
        assert trace.events == ((1.0, 4.0, 1, 2),)

    def test_unknown_state(self):
        with pytest.raises(TraceError, match="unknown state 'sideways'"):
            parse_contact_trace("5.0 CONN 1 2 sideways\n")

    @pytest.mark.parametrize("text", ["nan CONN 1 2 down\n",
                                      "1.0 CONN 1 2 up\ninf CONN 1 2 down\n",
                                      "1.0 CONN 1 2 up\nnan CONN 3 4 up\n"])
    def test_non_finite_time_rejected(self, text):
        with pytest.raises(TraceError, match="non-finite") as err:
            parse_contact_trace(text)
        assert err.value.line_no == text.count("\n")


class TestDetectFormat:
    """The first data line decides the format: one_events when its second
    field is `CONN` in any case, tabular otherwise."""

    def test_comments_and_headers_come_before_the_first_data_line(self):
        text = "# from The ONE\n# duration: 20\n\n1 conn 1 2 UP\n4 Conn 2 1 down\n"
        trace = parse_contact_trace(text)
        assert trace.events == ((1.0, 4.0, 1, 2),)
        assert trace.duration == 20.0

    @pytest.mark.parametrize("text, error", [
        ("1 CONN 1 2 up\n0 5 1 2\n",
         "line 2: malformed line (expected `time CONN a b up|down`)"),
        ("# c\n1 CONN 1 2 up\n2 CONN 1 2\n",
         "line 3: malformed line (expected `time CONN a b up|down`)"),
        ("0 5 1 2\n1 CONN 1 2 up\n", "line 2: malformed line (expected 4 fields, got 5)"),
        ("5 CONN 1 2\n", "line 1: malformed line (expected `time CONN a b up|down`)"),
        ("5\n", "line 1: malformed line (expected 4 fields, got 1)"),
    ], ids=["tabular_after_conn", "short_conn_after_conn", "conn_after_tabular",
            "short_conn_first", "one_field_first"])
    def test_a_line_of_the_other_format_is_malformed(self, text, error):
        with pytest.raises(TraceError) as err:
            parse_contact_trace(text)
        assert str(err.value) == error

    @pytest.mark.parametrize("text, duration, nodes", [
        ("", 0.0, 0), ("# only a comment\n\n", 0.0, 0),
        ("# duration: 7\n# nodes: 3\n", 7.0, 3)], ids=["empty", "comment", "headers"])
    def test_no_data_line_gives_the_empty_trace(self, text, duration, nodes):
        """What both formats give a text with no data line."""
        assert parse_contact_trace(text) == ContactTrace(events=(), duration=duration,
                                                         node_count=nodes, nodes=())


# contacts of nodes 2, 3 and 7 in each format, with node 7 written as
# `{7}` on its later lines
SPELLED_7 = {
    "tabular": "0 4 7 3\n5 9 3 {7}\n6 8 {7} 2\n12 14 2 {7}\n",
    "one_events": "0 CONN 7 3 up\n4 CONN 3 {7} down\n5 CONN {7} 2 up\n"
                  "8 CONN 2 {7} down\n9 CONN 2 3 up\n",
}


class TestNodeIds:
    """A parse reads each distinct node-id text through `int()` once; ids
    and errors are as if it read every field."""

    @pytest.mark.parametrize("spelling", ["07", "+7", "+007"])
    @pytest.mark.parametrize("kind", sorted(SPELLED_7))
    def test_spellings_of_one_id_are_one_node(self, kind, spelling):
        plain = parse_contact_trace(SPELLED_7[kind].replace("{7}", "7"))
        assert plain.nodes == (2, 3, 7)
        assert parse_contact_trace(SPELLED_7[kind].replace("{7}", spelling)) == plain

    @pytest.mark.parametrize("bad, error", [("x", "unparsable field"),
                                            ("7.0", "unparsable field"),
                                            ("-7", "negative value"),
                                            ("-3", "negative value")])
    @pytest.mark.parametrize("kind", sorted(SPELLED_7))
    def test_bad_id_after_good_ones_names_its_line(self, kind, bad, error):
        # node 7 is read on line 1; its bad spelling first stands on line 3
        text = SPELLED_7[kind].replace("{7}", "7", 1).replace("{7}", bad, 1)
        with pytest.raises(TraceError, match=error) as err:
            parse_contact_trace(text)
        assert err.value.line_no == 3


class TestRoundTrip:
    def test_serialize_reparse_identity(self):
        text = "0 10 1 2\n5 12 2 3\n30 31 7 9\n"
        trace = parse_contact_trace(text)
        again = parse_contact_trace(serialize_contact_trace(trace))
        assert again == trace

    def test_round_trip_preserves_duration_and_node_count(self):
        params = SyntheticParams(node_count=12, duration=500.0, contact_rate=0.001,
                                 n_categories=3, interest_prob=0.5)
        trace, _ = generate_synthetic_trace(params, seed=4)
        again = parse_contact_trace(serialize_contact_trace(trace))
        assert again == trace
        assert again.duration == 500.0
        assert again.node_count == 12


class TestParseProfiles:
    def test_basic(self):
        profiles = parse_interest_profiles("7 0 1\n9 1 0\n")
        assert profiles == [InterestProfile(7, (0, 1)), InterestProfile(9, (1, 0))]

    def test_wrong_arity(self):
        """The first data line fixes the bit count; a later line that
        differs is named."""
        for text, named in (("7 0 1\n8 0 1 1\n",
                             "line 2: expected 2 interest bits, got 3"),
                            ("# hdr\n7 0 1 1\n\n8 0 1 1\n9 1\n",
                             "line 5: expected 3 interest bits, got 1")):
            with pytest.raises(TraceError) as err:
                parse_interest_profiles(text)
            assert str(err.value) == named

    def test_only_comments_parse_to_nothing(self):
        assert parse_interest_profiles("# only comments\n\n#7 0 1\n") == []

    def test_non_binary(self):
        with pytest.raises(TraceError, match="must be 0 or 1") as err:
            parse_interest_profiles("7 0 2\n")
        assert err.value.line_no == 1

    def test_duplicate_node(self):
        with pytest.raises(TraceError) as err:
            parse_interest_profiles("1 0\n# c\n1 1\n")
        assert str(err.value) == "line 3: duplicate profile for node 1"
        assert err.value.line_no == 3

    def test_profiles_compare_by_value(self):
        assert InterestProfile(1, (1, 0)) == InterestProfile(1, (1, 0))
        assert InterestProfile(1, (1, 0)) != InterestProfile(1, (0, 1))

    def test_comments_and_sorting(self):
        profiles = parse_interest_profiles("# hdr\n9 1\n7 0\n")
        assert [p.node for p in profiles] == [7, 9]

    def test_profile_round_trip(self):
        profiles = parse_interest_profiles("7 0 1\n9 1 0\n")
        assert parse_interest_profiles(serialize_profiles(profiles)) == profiles


class TestSynthetic:
    PARAMS = SyntheticParams(node_count=10, duration=1000.0,
                             contact_rate=50 / (45 * 1000.0),
                             n_categories=2, interest_prob=0.5)

    def test_deterministic_byte_identical(self):
        t1, p1 = generate_synthetic_trace(self.PARAMS, seed=11)
        t2, p2 = generate_synthetic_trace(self.PARAMS, seed=11)
        assert serialize_contact_trace(t1) == serialize_contact_trace(t2)
        assert serialize_profiles(p1) == serialize_profiles(p2)

    def test_different_seeds_differ(self):
        t1, _ = generate_synthetic_trace(self.PARAMS, seed=1)
        t2, _ = generate_synthetic_trace(self.PARAMS, seed=2)
        assert t1.events != t2.events

    # sha256 of the serialized output of PINNED_PARAMS at seed 5; 32 of its
    # 66 node pairs share an interest, so a wrong shared-interest test
    # moves the trace at a bias other than 1
    PINNED_PARAMS = SyntheticParams(node_count=12, duration=500.0, contact_rate=0.002,
                                    n_categories=4, interest_prob=0.3,
                                    mean_contact_duration=20.0)
    PINNED_PROFILES = "dcfeea2fcceca60ca5fd3ec0dfa2d3da1a2900a1bd653bce717d5324cdc0e91c"

    @pytest.mark.parametrize("bias, trace_sha256", [
        (1.0, "ff07e63cfd415aba5946c8d5a53091f0a1e41b1c3314ff430999f00cecb59e93"),
        (3.0, "9ba2b2d4f1443c3cf9509f5637d10720f5fa9caf91ed122e4850f0ded81a4dc8"),
    ])
    def test_output_pinned(self, bias, trace_sha256):
        params = self.PINNED_PARAMS._replace(shared_interest_bias=bias)
        trace, profiles = generate_synthetic_trace(params, seed=5)
        assert sha256(serialize_contact_trace(trace).encode()).hexdigest() == trace_sha256
        assert sha256(serialize_profiles(profiles).encode()).hexdigest() == \
            self.PINNED_PROFILES

    # sha256 of the serialized trace of the benchmark's flood-100 (5
    # categories) and bounded-sweep (2 categories) networks at seeds 1 and 2,
    # as `Random.expovariate` drew them
    @pytest.mark.parametrize("duration, n, seed, trace_sha256", [
        (2000.0, 5, 1, "0025f1ffa42b5df32c21b316d67436d50406349564bcd7fe040fa14c2eab2ecb"),
        (2000.0, 5, 2, "5a53d85609a6d195441a7d47ce20c62222c66c37dd5d88bf429ea5b68c08a5da"),
        (600.0, 2, 1, "96e8c579483b70b77ca064459f882b850a9003a95b96d4c725721c257a8615b7"),
        (600.0, 2, 2, "aefbe7b67900948eea7e858fd9419f63c89a65a689199c03717cdbee82148ced"),
    ], ids=["flood-100-s1", "flood-100-s2", "bounded-sweep-s1", "bounded-sweep-s2"])
    def test_draws_rest_on_random_alone(self, monkeypatch, duration, n, seed, trace_sha256):
        """Exponential draws are written out from `Random.random`, whose
        sequence Python keeps across versions, and give the floats that
        `expovariate` gave."""
        def refuse(self, lambd=1.0):
            raise AssertionError("expovariate called")
        monkeypatch.setattr(random.Random, "expovariate", refuse)
        params = SyntheticParams(node_count=100, duration=duration, contact_rate=5.1e-4,
                                 n_categories=n, interest_prob=0.3)
        trace, _ = generate_synthetic_trace(params, seed)
        assert sha256(serialize_contact_trace(trace).encode()).hexdigest() == trace_sha256

    def test_int_duration_gives_the_float_trace(self):
        """An end clipped at an int duration is the float end the same
        duration as a float gives, so the two serialize byte for byte."""
        params = self.PARAMS._replace(mean_contact_duration=100.0)
        as_float, _ = generate_synthetic_trace(params, seed=3)
        as_int, _ = generate_synthetic_trace(params._replace(duration=1000), seed=3)
        assert any(t_end == 1000 for _, t_end, _, _ in as_float.events)   # one is clipped
        assert serialize_contact_trace(as_int) == serialize_contact_trace(as_float)

    def test_event_count_concentrates_around_expectation(self):
        # expected meetings ~= 50 per seed; Poisson concentration keeps the
        # count well inside [25, 100]
        for seed in range(20):
            trace, _ = generate_synthetic_trace(self.PARAMS, seed)
            assert 25 <= len(trace.events) <= 100

    def test_invariants_hold(self):
        trace, profiles = generate_synthetic_trace(self.PARAMS, seed=3)
        for t_start, t_end, a, b in trace.events:
            assert 0.0 <= t_start < t_end <= trace.duration
            assert a < b
        assert list(trace.events) == sorted(trace.events)
        assert len(profiles) == 10
        assert all(len(p.interests) == 2 for p in profiles)
        # the generator skips the parsers' check of each contact: every
        # contact it makes passes that check, and the trace comes out of
        # a parse of its text unchanged
        flood_100 = SyntheticParams(node_count=100, duration=2000.0, contact_rate=5.1e-4,
                                    n_categories=5, interest_prob=0.3)
        cases = [(self.PARAMS, seed) for seed in range(20)]
        cases += [(self.PINNED_PARAMS._replace(shared_interest_bias=3.0), 5), (flood_100, 1)]
        for params, seed in cases:
            trace, _ = generate_synthetic_trace(params, seed)
            assert parse_contact_trace(serialize_contact_trace(trace)) == trace


class TestValidateScenario:
    def test_consistent(self):
        trace = parse_contact_trace("0 10 1 2\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,))]
        assert validate_scenario(trace, profiles) == []

    def test_missing_profile(self):
        trace = parse_contact_trace("0 10 1 2\n5 8 2 3\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,))]
        assert validate_scenario(trace, profiles) == ["nodes in trace without a profile: 3"]

    def test_unused_profile(self):
        trace = parse_contact_trace("0 10 1 2\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,)),
                    InterestProfile(9, (1,))]
        assert validate_scenario(trace, profiles) == ["profiles for nodes absent from trace: 9"]

    def test_both_gaps_in_order_with_ids_ascending(self):
        trace = parse_contact_trace("0 10 12 2\n5 8 2 3\n6 7 1 2\n")
        profiles = [InterestProfile(n, (1,)) for n in (40, 1, 9, 2)]
        assert validate_scenario(trace, profiles) == [
            "nodes in trace without a profile: 3 12",
            "profiles for nodes absent from trace: 9 40"]


def _random_raw_contacts(rng: random.Random) -> list[tuple[float, float, int, int]]:
    """Valid raw contacts among a few nodes, half of them on a coarse time
    grid, so that reversed pairs, duplicates, touching and nested
    intervals and one-interval pairs are all common."""
    nodes = rng.randint(2, 7)
    raw = []
    for _ in range(rng.randint(0, 40)):
        a, b = rng.sample(range(nodes), 2)
        if rng.random() < 0.5:
            start = float(rng.randint(0, 30))
            end = start + rng.randint(1, 6)
        else:
            start = rng.uniform(0, 30)
            end = start + rng.uniform(0.01, 6)
        raw.append((start, end, a, b))
        shape = rng.random()
        if shape < 0.1:
            raw.append(rng.choice(raw))                          # duplicate
        elif shape < 0.2:
            raw.append((end, end + rng.randint(1, 3), b, a))     # touching
        elif shape < 0.3:
            quarter = (end - start) / 4
            raw.append((start + quarter, end - quarter, b, a))   # nested
    rng.shuffle(raw)
    return raw


def test_build_and_parse_match_reference_normalization():
    """The tabular parser against the reference merge and keyed sort in
    tests/oracles.py, on seeded raw contact lists."""
    shapes = dict.fromkeys(("reversed", "duplicate", "touching", "nested", "single"), 0)
    rng = random.Random(2024)
    for _ in range(300):
        raw = _random_raw_contacts(rng)
        expected = reference_assemble(raw)
        text = "".join(f"{s!r} {e!r} {a} {b}\n" for s, e, a, b in raw)
        trace = parse_contact_trace(text)
        assert all(type(e) is tuple for e in trace.events)
        assert trace == expected
        assert trace.nodes == tuple(sorted({n for ev in trace.events for n in ev[2:]}))

        by_pair: dict = {}
        for s, e, a, b in raw:
            shapes["reversed"] += a > b
            by_pair.setdefault((min(a, b), max(a, b)), []).append((s, e))
        for intervals in by_pair.values():
            shapes["single"] += len(intervals) == 1
            shapes["duplicate"] += len(set(intervals)) < len(intervals)
            shapes["touching"] += any(e == s2 for _, e in intervals for s2, _ in intervals)
            shapes["nested"] += any(s1 < s2 and e2 < e1 for s1, e1 in intervals
                                    for s2, e2 in intervals)
    assert min(shapes.values()) >= 50, shapes


def _tied_raw_contacts(rng: random.Random) -> list[tuple[float, float, int, int]]:
    """Valid raw contacts on a grid of whole seconds, as ints or as floats:
    starts shared across pairs are common, and so are duplicates,
    overlapping and touching intervals of one pair, in either endpoint
    order."""
    nodes = rng.randint(2, 6)
    raw = []
    for _ in range(rng.randint(1, 30)):
        a, b = rng.sample(range(nodes), 2)
        start = rng.randint(0, 12)
        end = start + rng.randint(1, 4)
        raw.append((start, end, a, b))
        shape = rng.random()
        if shape < 0.15:
            raw.append((start, end, b, a))                                 # duplicate
        elif shape < 0.3:
            raw.append((end, end + rng.randint(1, 3), b, a))               # touching
        elif shape < 0.45:
            raw.append((start + rng.randint(0, end - start - 1), end + 2, a, b))  # overlap
        elif shape < 0.6:
            c, d = rng.sample(range(nodes), 2)
            raw.append((start, start + rng.randint(1, 4), c, d))           # same start
    if rng.random() < 0.5:
        raw = [(float(s), float(e), a, b) for s, e, a, b in raw]
    rng.shuffle(raw)
    return raw


def _one_events_text(trace, rng: random.Random) -> str:
    """The trace's intervals as `time CONN a b up|down` lines in time
    order, the endpoints of each line in a random order."""
    lines = []
    for s, e, a, b in trace.events:
        for time, state in ((s, "up"), (e, "down")):
            x, y = (a, b) if rng.random() < 0.5 else (b, a)
            lines.append((time, f"{time!r} CONN {x} {y} {state}\n"))
    lines.sort(key=lambda line: line[0])
    return "".join(line for _, line in lines)


def test_assembly_matches_reference_assemble():
    """The tabular parser against the per-pair sort-and-merge of
    tests/oracles.py on seeded raw lists with whole-second times: one
    pair's duplicates, overlaps and touching intervals, starts shared
    across pairs, both endpoint orders and times written as ints. Both
    parsers read the reference's serialized text back to it."""
    shapes = dict.fromkeys(("duplicate", "overlap", "touching", "shared start",
                            "reversed", "int times"), 0)
    rng = random.Random(18)
    for _ in range(300):
        raw = _tied_raw_contacts(rng)
        expected = reference_assemble(raw)
        text = "".join(f"{s!r} {e!r} {a} {b}\n" for s, e, a, b in raw)
        assert parse_contact_trace(text) == expected
        duration, nodes = expected.duration + rng.randint(0, 5), expected.node_count + 1
        assert (parse_contact_trace(f"# duration: {duration!r}\n# nodes: {nodes}\n" + text)
                == reference_assemble(raw, duration, nodes))
        assert parse_contact_trace(serialize_contact_trace(expected)) == expected
        assert parse_contact_trace(_one_events_text(expected, rng)) == expected

        by_pair: dict = {}
        for s, e, a, b in raw:
            shapes["reversed"] += a > b
            shapes["int times"] += type(s) is int
            by_pair.setdefault((min(a, b), max(a, b)), []).append((s, e))
        for intervals in by_pair.values():
            shapes["duplicate"] += len(set(intervals)) < len(intervals)
            shapes["overlap"] += any(s1 < s2 < e1 < e2 for s1, e1 in intervals
                                     for s2, e2 in intervals)
            shapes["touching"] += any(e == s2 for _, e in intervals for s2, _ in intervals)
        starts = [s for s, _, _, _ in expected.events]
        shapes["shared start"] += len(set(starts)) < len(starts)
    assert min(shapes.values()) >= 50, shapes
