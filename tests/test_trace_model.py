import random
from hashlib import sha256

import pytest

from dtn_cluster_sim.trace_model import (InvalidParams, InterestProfile,
                                         SyntheticParams, TraceError, build_trace,
                                         generate_synthetic_trace,
                                         parse_contact_trace, parse_interest_profiles,
                                         serialize_contact_trace,
                                         serialize_profiles, validate_scenario)
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

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_contact_trace("", fmt="pcap")

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
                                         "# durations: 5", "# duration 99"])
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
        trace = parse_contact_trace("3.0 CONN 1 2 up\n9.0 CONN 1 2 down\n",
                                    fmt="one_events")
        assert trace.events == ((3.0, 9.0, 1, 2),)
        assert trace.duration == 9.0

    def test_interleaved_pairs_pair_in_file_order(self):
        text = ("1.0 CONN 1 2 up\n"
                "2.0 CONN 2 3 up\n"
                "4.0 CONN 1 2 down\n"
                "6.0 CONN 2 3 down\n")
        trace = parse_contact_trace(text, fmt="one_events")
        assert trace.events == ((1.0, 4.0, 1, 2),
                                (2.0, 6.0, 2, 3))

    def test_unclosed_up_ends_at_trace_duration(self):
        text = "1.0 CONN 1 2 up\n8.0 CONN 3 4 up\n9.0 CONN 3 4 down\n"
        trace = parse_contact_trace(text, fmt="one_events")
        assert (1.0, 9.0, 1, 2) in trace.events

    def test_stray_down_ignored(self):
        trace = parse_contact_trace("5.0 CONN 1 2 down\n7.0 CONN 1 2 up\n9.0 CONN 1 2 down\n",
                                    fmt="one_events")
        assert trace.events == ((7.0, 9.0, 1, 2),)

    def test_down_before_up_time_is_inverted(self):
        with pytest.raises(TraceError, match="t_start >= t_end"):
            parse_contact_trace("5.0 CONN 1 2 up\n5.0 CONN 1 2 down\n",
                                fmt="one_events")

    def test_malformed_line(self):
        with pytest.raises(TraceError, match="CONN"):
            parse_contact_trace("5.0 DISCO 1 2 up\n", fmt="one_events")

    def test_duration_is_last_timestamp(self):
        text = "1.0 CONN 1 2 up\n4.0 CONN 1 2 down\n9.0 CONN 1 2 up\n"
        trace = parse_contact_trace(text, fmt="one_events")
        # the trailing up at the last timestamp closes into an empty
        # interval and is dropped, but the duration still covers it
        assert trace.duration == 9.0
        assert trace.events == ((1.0, 4.0, 1, 2),)

    def test_unknown_state(self):
        with pytest.raises(TraceError, match="unknown state 'sideways'"):
            parse_contact_trace("5.0 CONN 1 2 sideways\n", fmt="one_events")

    @pytest.mark.parametrize("text", ["nan CONN 1 2 down\n",
                                      "1.0 CONN 1 2 up\ninf CONN 1 2 down\n",
                                      "1.0 CONN 1 2 up\nnan CONN 3 4 up\n"])
    def test_non_finite_time_rejected(self, text):
        with pytest.raises(TraceError, match="non-finite") as err:
            parse_contact_trace(text, fmt="one_events")
        assert err.value.line_no == text.count("\n")


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
        # the generator skips build_trace's check of each contact: every
        # trace it makes passes that check and comes out of it unchanged
        flood_100 = SyntheticParams(node_count=100, duration=2000.0, contact_rate=5.1e-4,
                                    n_categories=5, interest_prob=0.3)
        cases = [(self.PARAMS, seed) for seed in range(20)]
        cases += [(self.PINNED_PARAMS._replace(shared_interest_bias=3.0), 5), (flood_100, 1)]
        for params, seed in cases:
            trace, _ = generate_synthetic_trace(params, seed)
            assert build_trace(trace.events, duration=trace.duration,
                               node_count=trace.node_count) == trace


class TestValidateScenario:
    def test_consistent(self):
        trace = parse_contact_trace("0 10 1 2\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,))]
        report = validate_scenario(trace, profiles)
        assert report.ok
        assert report.lines() == ["scenario consistent"]

    def test_missing_profile(self):
        trace = parse_contact_trace("0 10 1 2\n5 8 2 3\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,))]
        report = validate_scenario(trace, profiles)
        assert report.missing_profile == (3,)
        assert report.unused_profile == ()

    def test_unused_profile(self):
        trace = parse_contact_trace("0 10 1 2\n")
        profiles = [InterestProfile(1, (1,)), InterestProfile(2, (0,)),
                    InterestProfile(9, (1,))]
        report = validate_scenario(trace, profiles)
        assert report.unused_profile == (9,)
        assert not report.ok


class TestBuildTrace:
    def test_rejects_shrunk_node_count(self):
        with pytest.raises(InvalidParams):
            build_trace([(0.0, 1.0, 1, 2)], node_count=1)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            build_trace([(0.0, 1.0, 1, 2), (5.0, 5.0, 1, 2)])
        with pytest.raises(ValueError):
            build_trace([(0.0, 5.0, 2, 2)])
        with pytest.raises(ValueError):
            build_trace([(-1.0, 5.0, 1, 2)])

    @pytest.mark.parametrize("raw", [(float("nan"), 5.0, 1, 2), (0.0, float("nan"), 1, 2),
                                     (0.0, float("inf"), 1, 2), (0.0, 5.0, -1, 2)])
    def test_rejects_non_finite_or_negative(self, raw):
        with pytest.raises(ValueError):
            build_trace([raw])

    def test_merge_is_idempotent(self):
        rng = random.Random(0)
        raw = [(t, t + rng.uniform(0.5, 5.0), rng.randint(0, 4), rng.randint(5, 9))
               for t in [rng.uniform(0, 50) for _ in range(40)]]
        once = build_trace(raw)
        twice = build_trace(once.events)
        assert once.events == twice.events


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
    """build_trace and the tabular parser against the reference merge and
    keyed sort in tests/oracles.py, on seeded raw contact lists."""
    shapes = dict.fromkeys(("reversed", "duplicate", "touching", "nested", "single"), 0)
    rng = random.Random(2024)
    for _ in range(300):
        raw = _random_raw_contacts(rng)
        expected = reference_assemble(raw)
        text = "".join(f"{s!r} {e!r} {a} {b}\n" for s, e, a, b in raw)
        for trace in (build_trace(raw), parse_contact_trace(text)):
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
    """build_trace against the per-pair sort-and-merge of tests/oracles.py
    on seeded raw lists with whole-second times: one pair's duplicates,
    overlaps and touching intervals, starts shared across pairs, both
    endpoint orders and int times, which must come out as given. Both
    parsers read the reference's serialized text back to it."""
    shapes = dict.fromkeys(("duplicate", "overlap", "touching", "shared start",
                            "reversed", "int times"), 0)
    rng = random.Random(18)
    for _ in range(300):
        raw = _tied_raw_contacts(rng)
        expected = reference_assemble(raw)
        assert repr(build_trace(raw)) == repr(expected)
        duration, nodes = expected.duration + rng.randint(0, 5), expected.node_count + 1
        assert build_trace(raw, duration, nodes) == reference_assemble(raw, duration, nodes)
        assert parse_contact_trace(serialize_contact_trace(expected)) == expected
        assert parse_contact_trace(_one_events_text(expected, rng), "one_events") == expected

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
