"""The repo benchmark: end-to-end metrics plus a per-layer ledger.

Entry point: ``python3 perf/run.py`` (see ``perf/README.md``).
"""
