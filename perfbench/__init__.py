"""The repository benchmark: end-to-end and per-layer measurements.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout.  With
``--trace 0`` it times closed-loop passes through the public API and
prints the end-to-end metrics; with ``--trace 1`` it replays one pass
serially in-process, timing each layer's public functions from outside,
and prints the per-layer metrics.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""
