"""The SCION end-host stack: daemon, bootstrapper, and application library.

Section 2 of the paper: "The end-host stack for a SCION network can be
broadly divided into three core components: the daemon, bootstrapper, and
application library." All three live here, together with the path policies.
"""
