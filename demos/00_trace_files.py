"""
Contact traces on disk
======================

Two supported formats: a plain tabular interval file and the event-pair
style (`time CONN a b up|down`). Both normalize to the same model:
symmetric pairs, merged overlaps, events sorted. Scenario consistency
between a trace and its interest profiles is a one-call check.
"""

from dtn_cluster_sim import (parse_contact_trace, parse_interest_profiles,
                             serialize_contact_trace, serialize_profiles,
                             validate_scenario)

tabular = """
# duration: 60
0 10 1 2
5 12 2 3
8 9 2 1
"""
trace = parse_contact_trace(tabular)
print("tabular ->", trace.events)          # the 8-9 retry of pair 1-2 is absorbed
print("duration", trace.duration, "nodes", trace.node_count)

event_pairs = """
3.0 CONN 1 2 up
9.0 CONN 1 2 down
7.5 CONN 2 3 up
"""
trace2 = parse_contact_trace(event_pairs, fmt="one_events")
print("\none_events ->", trace2.events)    # unclosed 2-3 link ends with the trace

# canonical serialization round-trips exactly
assert parse_contact_trace(serialize_contact_trace(trace2)) == trace2
print("\ncanonical form:")
print(serialize_contact_trace(trace2))

profiles = parse_interest_profiles("1 1 0\n2 0 1\n9 1 1\n")
print("profiles:")
print(serialize_profiles(profiles))

report = validate_scenario(trace, profiles)
for line in report.lines():
    print(line)                            # node 3 has no profile, node 9 no contacts
