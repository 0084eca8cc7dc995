"""UNIT001 fixture: raw numeric literals in unit-bearing positions.

Never imported — read as text by test_lint_engine.py.  ``Channel`` etc.
are taken as parameters so the file needs no repro imports.
"""


def keyword_literals(sim, Channel):
    return Channel(
        sim,
        bandwidth=4.0,  # expect: UNIT001
        latency=120.0,  # expect: UNIT001
        name="bad-link",
    )


def positional_literal(sim, Channel):
    return Channel(
        sim,
        2.5,  # expect: UNIT001
    )


def raw_timeout(sim):
    return sim.timeout(100)  # expect: UNIT001


def raw_timeout_class(sim, Timeout):
    return Timeout(sim, 35.0)  # expect: UNIT001


def all_fine(sim, Channel, GBps, ns):
    link = Channel(sim, bandwidth=GBps(4.0), latency=ns(120.0), name="ok")
    zero = sim.timeout(0)  # 0 is unit-free
    derived = sim.timeout(ns(50) * 2)
    return link, zero, derived
