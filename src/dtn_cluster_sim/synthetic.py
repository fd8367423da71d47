"""The generated input path: the seeded synthetic scenario generator and
its parameters. The generator builds each contact by the files' contact
rules, so it skips their check and hands its contacts straight to
`trace_model._assemble`."""

import random
from math import log
from typing import NamedTuple

from .trace_model import (ContactTrace, InterestProfile, InvalidParams, _assemble,
                          _check_categories, _checked, _is_int, _is_real)


# the most node pairs, and the most expected contacts, the generator takes on:
# 40 times the 238,678 contacts of a four-day, 100-node trace
MAX_GENERATOR_WORK = 10**7


@_checked
class SyntheticParams(NamedTuple):
    """Knobs for the synthetic scenario generator.

    contact_rate is the mean number of meetings per node pair per second;
    pairs sharing at least one interest meet shared_interest_bias times as
    often, and that product must be positive and finite as a float.
    Meeting lengths are exponential with mean_contact_duration. The
    generator's work is bounded: at most MAX_GENERATOR_WORK node pairs
    and as many expected contacts, node pairs x duration x the larger of
    the two rates.
    """

    node_count: int
    duration: float
    contact_rate: float
    n_categories: int
    interest_prob: float
    mean_contact_duration: float = 10.0
    shared_interest_bias: float = 1.0

    def _check(self):
        if not (_is_int(self.node_count) and self.node_count >= 2):
            raise InvalidParams("node_count", "need an integer of at least 2 nodes")
        _check_categories(self.n_categories)
        if not (_is_real(self.interest_prob) and 0.0 <= self.interest_prob <= 1.0):
            raise InvalidParams("interest_prob", "must lie in [0, 1]")
        for name in ("duration", "contact_rate", "mean_contact_duration",
                     "shared_interest_bias"):
            if not (_is_real(getattr(self, name)) and getattr(self, name) > 0):
                raise InvalidParams(name, "must be positive and finite")
        shared_rate = self.contact_rate * self.shared_interest_bias
        if not (_is_real(shared_rate) and shared_rate > 0):
            raise InvalidParams("shared_interest_bias", "contact_rate times it "
                                "must be positive and finite")
        pairs = self.node_count * (self.node_count - 1) // 2
        if pairs > MAX_GENERATOR_WORK:   # the generator draws once per pair at least
            raise InvalidParams("node_count", f"more than the limit of "
                                f"{MAX_GENERATOR_WORK:,} node pairs")
        # in floats, so that a product of large ints cannot outgrow them
        expected = float(pairs) * self.duration * max(self.contact_rate, shared_rate)
        if expected > MAX_GENERATOR_WORK:
            raise InvalidParams("contact_rate", f"{expected:.3g} expected contacts "
                                f"({pairs} pairs x duration x rate), more than "
                                f"the limit of {MAX_GENERATOR_WORK:,}")


def generate_synthetic_trace(params: SyntheticParams,
                             seed: int) -> tuple[ContactTrace, list[InterestProfile]]:
    """Seeded synthetic scenario: Bernoulli interest bits per node, then a
    memoryless (Poisson) meeting process per node pair.

    A pure function of (params, seed): the same inputs always produce
    byte-identical serialized traces and profiles. Each contact is built
    valid (0 <= t_start < t_end <= duration, a < b), so none is checked.
    """
    rng = random.Random(seed)

    profiles = []
    for node in range(params.node_count):
        bits = tuple(1 if rng.random() < params.interest_prob else 0
                     for _ in range(params.n_categories))
        profiles.append(InterestProfile(node, bits))
    # one bit per category, so two nodes share an interest iff masks overlap
    masks = [sum(bit << i for i, bit in enumerate(p.interests)) for p in profiles]
    shared_rate = params.contact_rate * params.shared_interest_bias

    # exponential draws written out as -log(1 - u) / rate, the formula of
    # `Random.expovariate` in CPython 3.10-3.13: the same floats without a
    # call per draw, and a scenario that rests on `Random.random` alone
    draw = rng.random
    duration = float(params.duration)   # so that an end clipped to it is a float
    length_rate = 1.0 / params.mean_contact_duration
    raw = []
    for a in range(params.node_count):
        for b in range(a + 1, params.node_count):
            rate = shared_rate if masks[a] & masks[b] else params.contact_rate
            t = -log(1.0 - draw()) / rate
            while t < duration:
                end = t + -log(1.0 - draw()) / length_rate
                if end > duration:
                    end = duration
                if end > t:
                    raw.append((t, end, a, b))
                t += -log(1.0 - draw()) / rate

    return _assemble(raw, duration, params.node_count), profiles
