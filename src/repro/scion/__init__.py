"""A from-scratch SCION protocol stack in Python.

Subpackages:

* :mod:`repro.scion.addr` — ISD/AS/IA addressing.
* :mod:`repro.scion.topology` — AS-level topology and inter-AS links.
* :mod:`repro.scion.crypto` — RSA, TRCs, CP-PKI, CA, hop-field MACs.
* :mod:`repro.scion.control` — beaconing, path servers, segment combination.
* :mod:`repro.scion.dataplane` — border routers, delivery, the end-host data path.
* :mod:`repro.scion.network` — the orchestration layer tying it together.
"""
