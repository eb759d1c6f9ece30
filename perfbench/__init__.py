"""The repository's performance benchmark (see ``BENCHMARK.json`` and README.md).

``run.py`` is the command; it runs each set-up and each timed job of a
workload in a fresh child process (``job.py``): set-ups one at a time,
timed jobs one per CPU on up to two CPUs.
``workloads.py`` defines the workloads and their output checks;
``spans.py`` is the tracer behind ``--trace 1``.
"""

WORKLOADS = ("pipeline", "measure", "predict")
