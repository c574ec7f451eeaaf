"""Exact arithmetic for elliptic fibrations: torsion transforms on a
rational torus, gluing data over sampled nerves, and cohomology tables
for the associated total spaces.  Everything is computed over Q with
fractions, so every result is reproducible bit for bit.

The package root exports nothing and loads no submodule: import each
name from its submodule (ellfib.torus, ellfib.bundles, ...).
"""
