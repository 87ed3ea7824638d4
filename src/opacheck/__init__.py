"""Opacity verification for partially observed nondeterministic finite
automata: standard and strong current-/initial-state opacity plus strong
infinite-step opacity, decided on observer and synchronized-product
constructions and cross-checked by an independent subset-pair oracle.
"""

from .constructions import (
    build_gdss,
    build_ghat,
)
from .fileformat import (
    AutomatonDocument,
    FormatError,
    export_dot,
    load,
    parse,
    serialize,
)
from .model import (
    Automaton,
    AutomatonWarning,
    Run,
    ValidationError,
    validate,
)
from .oracle import (
    MalformedWitness,
    oracle_cso,
    oracle_inf_sso,
    oracle_iso,
    oracle_scso,
    oracle_siso,
    replay_witness,
)
from .verifiers import (
    PROPERTIES,
    Verdict,
    Witness,
    check,
    check_all,
)

__version__ = "0.6.0"

__all__ = [
    "Automaton",
    "AutomatonDocument",
    "AutomatonWarning",
    "FormatError",
    "MalformedWitness",
    "PROPERTIES",
    "Run",
    "ValidationError",
    "Verdict",
    "Witness",
    "build_gdss",
    "build_ghat",
    "check",
    "check_all",
    "export_dot",
    "load",
    "oracle_cso",
    "oracle_inf_sso",
    "oracle_iso",
    "oracle_scso",
    "oracle_siso",
    "parse",
    "replay_witness",
    "serialize",
    "validate",
]
