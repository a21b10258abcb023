"""Reproduction of "Scaling SCIERA" (SIGCOMM 2025).

Public API entry points:

* :class:`repro.scion.network.ScionNetwork` — a full SCION network over any topology.
* :func:`repro.sciera.build.build_sciera` — the SCIERA deployment itself.
* :mod:`repro.endhost` — daemon, bootstrapper, and the PAN app library.
* :mod:`repro.experiments` — one module per paper figure/table.
"""

__version__ = "1.0.0"
