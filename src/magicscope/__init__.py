"""Witnessing and quantifying nonstabilizerness from few Pauli measurements."""

from .pauli import (
    MeasurementSet,
    PauliError,
    PauliString,
    commutes,
    format_pauli,
    multiply,
    pad,
    parse_pauli,
    pauli_expectation,
    read_measurement_file,
)
from .fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from .polytope import VertexSet, admissible_signs, size_bound, v_representation
from .rom import (
    ExpectationVector,
    RomResult,
    reduced_rom,
    sample_complexity,
)
from .spinchain import (
    SpinChainSpec,
    build_hamiltonian,
    ground_state,
    hamiltonian_measurement_set,
    sweep,
)

__version__ = "0.1.0"
