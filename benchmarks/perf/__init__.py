"""The repo's performance benchmark: real workloads, named metrics, spans.

Run it with ``python3 benchmarks/perf/__main__.py`` (or ``python3 -m
benchmarks.perf``) from the repository root; the contract (command,
workloads, metric names, units, regression bounds) is ``BENCHMARK.json``
at the root, and ``README.md`` next to this file says what every
workload and metric is for.

Importing this package does nothing: the BLAS thread pins and the
``src`` path are applied by :func:`benchmarks.perf.env.prepare`, which
the entry point calls before anything imports ``numpy``.
"""
