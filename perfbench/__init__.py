"""Benchmark harness for dualstyle: workloads, tracer and the run command."""
