"""End-to-end and per-layer benchmark of the approximate-random-dropout repo.

``python3 perfbench/run.py`` runs every workload, each in its own process;
``--workload NAME`` runs one.  See ``perfbench/README.md``.
"""
