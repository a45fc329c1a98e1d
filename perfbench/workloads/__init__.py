"""Benchmark workloads: inputs, independent references and one timed pass.

Each module provides ``generate(seed, workdir)`` (numpy/scipy only),
``references(inputs)`` (numpy/scipy only, never chainscope) and
``run_pass(chainscope, inputs, references)`` returning a checked ``Pass``.
"""
