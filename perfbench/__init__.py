"""feedrank's benchmark: seeded offline workloads, run by ``perfbench/run.py``."""
