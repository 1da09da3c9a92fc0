"""Self-similar group actions on rooted m-trees.

Construct tree automorphisms by wreath recursion (explicit tables, Mealy
automata, or group data made of virtual endomorphisms), act on strings,
compare to depth, enumerate states, inflate to block alphabets, and export
automata as text or DOT.
"""

from .perm_word import GroupWord, Perm, commutator, parse_word
from .tree_core import (
    Automorphism,
    Portrait,
    SelfSimilarMachine,
    StateSet,
    TableMachine,
    equal_to_depth,
    find_moving_string,
    format_orbit_type,
    inflate,
    orbit_type,
    portrait,
    states,
    trivial_to_depth,
)
from .gdata_engine import (
    CosetSpace,
    EngineMachine,
    GData,
    GroupModel,
    SequenceModel,
    VirtualEndo,
    WitnessReport,
    build_representation,
    direct_power_data,
    fcore_witness_check,
    schreier,
    lamp_extension_data,
    wreath_by_regular_data,
)
from . import wreath_models
from .wreath_models import concatenate
from .mealy import builtin_machine, emit, machine_to_mealy, parse, to_dot

__all__ = [name for name in dir() if not name.startswith("_")]
