"""Overload control and retry: the toolkit services and clients share.

It depends on nothing but :mod:`repro.errors` and :mod:`repro.obs`, so the
SCION services, the end-host stack and the supervisor all build on it.
"""
