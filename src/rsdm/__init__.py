"""Redeemable self-decaying money toolkit.

Exact arithmetic for tokens whose collateral claim decays by a fixed
daily factor, the issuer solvency analysis that motivates the decay,
exact 0-1 selection of currencies for a multi-monetary system, the
money supply/demand equilibrium, and an event-sourced token ledger.
"""

__version__ = "0.1.0"
