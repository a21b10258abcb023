"""The fault harness: the crucible, its invariant registry, and the adversary.

It sits above every layer it drives: random composite fault schedules run
against a whole world (SCION network, end hosts, supervisor, monitor) while
the invariants check it and the Byzantine adversary attacks it.
"""
