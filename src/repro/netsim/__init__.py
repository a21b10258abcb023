"""Network simulation substrate.

This package provides the simulated "physical world" that the SCION stack
and the SCIERA deployment run on: a discrete-event simulator, a geographic
latency model, links with failure state, failure/maintenance schedules, and
a BGP-like single-path baseline standing in for the IP Internet.
"""
