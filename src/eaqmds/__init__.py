"""Entanglement-assisted quantum MDS codes of length (q^2+1)/5 from
cyclic codes: construction, classification, and independent verification.

The modules are the API: primes, gf, cosets, codes, eaqecc, families,
oracle, crosscheck, errata and cli.
"""

__version__ = "0.1.0"
