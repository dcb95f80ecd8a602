"""Pluggable Hamiltonian frontends (the ``HamiltonianSource`` API).

Resolve a URI-style spec to a source and build its operator:

    >>> from repro.sources import resolve
    >>> src = resolve("hubbard:2x3")
    >>> src.n_modes
    12
    >>> h = src.build()

Spec grammar (see ``repro cases --json`` / README for the full table):

    hubbard:<AxB>[,t=..,u=..,bc=..,ordering=..]   built-in lattice models
    neutrino:<NxFF>[,mu=..]                       collective oscillations
    electronic:<name>  |  <name>                  built-in chemistry cases
    npz:<path>                                    archived operators
    fcidump:<path>                                external integral files
    random:syk:n=..,seed=..[,j=..]                seeded synthetic ensembles

Importing this package registers the built-in families; user code adds
its own with :func:`register_source` (``examples/custom_source.py``).
Every built-in family opts in to :meth:`HamiltonianSource.identity`, which
lets the compilation service serve a repeated spec without building or
fingerprinting it; third-party sources stay opted out unless they declare
``identity_version``.
"""

from .base import (
    HamiltonianSource,
    OperatorSource,
    as_source,
    format_number,
    format_params,
    parse_params,
)
from .registry import (
    SourceInfo,
    build_case,
    canonical_spec,
    register_source,
    registered_prefixes,
    resolve,
    source_catalog,
)
from .builtin import ElectronicSource, HubbardSource, NeutrinoSource
from .files import (
    FcidumpSource,
    NpzSource,
    load_npz,
    read_fcidump,
    save_npz,
    write_fcidump,
)
from .synthetic import SykSource

__all__ = [
    "HamiltonianSource",
    "OperatorSource",
    "as_source",
    "SourceInfo",
    "register_source",
    "registered_prefixes",
    "resolve",
    "canonical_spec",
    "build_case",
    "source_catalog",
    "parse_params",
    "format_params",
    "format_number",
    "HubbardSource",
    "NeutrinoSource",
    "ElectronicSource",
    "NpzSource",
    "FcidumpSource",
    "SykSource",
    "save_npz",
    "load_npz",
    "read_fcidump",
    "write_fcidump",
]
