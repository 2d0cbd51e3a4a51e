"""End-to-end benchmark harness: drives a real shard cluster over the wire.

Everything here measures the program from outside — client-side timing, the
span tree the server returns, ``metrics``-op scrapes, ``/proc`` and direct
calls into public functions.  Nothing under ``src/`` is modified or patched.
"""
