"""Reference implementations the optimized kernels are tested against.

Each oracle is the straightforward version of a kernel the library
replaced with a faster one that must produce identical results.
"""
