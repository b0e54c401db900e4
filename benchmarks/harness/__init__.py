"""Layered campaign benchmark for entbound.

`workloads` defines the config matrices and runs one batch of campaigns
through the package's public entry points; `oracle` re-derives sampled
records with plain numpy; `tracing` wraps the package's public functions
to record spans; `layers` turns those spans into per-layer metrics.
`benchmarks/run.py` is the command that ties them together.
"""
