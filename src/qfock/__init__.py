"""Exact q-series engine: Fock-space trace oracles, closed-form correlation
functions and q-dimensions for the infinite-rank algebras of types a/c/d,
with a cross-verification suite."""

from .qseries import (  # noqa: F401
    CapExceeded,
    DegenerateParameter,
    IllegalPower,
    NonTruncatable,
    NotInvertible,
    Param,
    QSeriesError,
    Series,
    c_term,
    first_difference,
    pochhammer_inf,
    pochhammer_n,
    power,
    qhyper,
    series_equal,
    series_from_json,
    series_to_json,
    theta,
    theta_jet,
)

__version__ = "0.1.0"
