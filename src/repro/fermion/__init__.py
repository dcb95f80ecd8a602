"""Fermionic operator substrate: ladder operators and Majorana algebra."""

from .majorana import MajoranaOperator
from .operators import Action, FermionOperator

__all__ = [
    "FermionOperator",
    "MajoranaOperator",
    "Action",
]
