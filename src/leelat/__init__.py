"""Exact-arithmetic lattice codes in the Lee and Manhattan metrics."""
