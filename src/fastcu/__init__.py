"""Simulator and compiler for single-round nonlocal controlled-unitary protocols.

The exact protocol implements controlled unitaries whose blocks sit inside a
projective representation of a finite group, consuming one rank-N entangled
pair and a single simultaneous exchange of classical messages.  The
approximate protocol replaces the group by a right quasigroup carrying an
approximate unitary family, and the compiler turns an arbitrary controlled
unitary into such an instance with a machine-checked error certificate and
entanglement-cost report.
"""

from .algebra import (
    ApproxRepCertificate,
    FactorSystem,
    FiniteGroup,
    ProjectiveRep,
    RightQuasigroup,
    certify_approx_rep,
    cyclic_group,
    group_from_cayley,
    klein_four_group,
    ordinary_rep,
    projective_rep,
    right_quasigroup_from_table,
)
from .approx_protocol import (
    dilation_error,
    hidden_variant_choi,
    run_hidden_variant,
    run_measured_variant,
)
from .compiler import (
    CompileTargets,
    compile_target,
    error_budget,
    normalize_su,
)
from .exact_protocol import (
    ControlledGroupUnitary,
    HighRankControlledUnitary,
    QuasigroupProtocolSpec,
    lift_highrank,
    one_round_gates,
    run_exact_protocol,
    run_lifted_protocol,
)
from .net import NetFamily, advisory_m, base_generators, build_net, nearest_in_net, two_level_decompose
from .qgbuilder import (
    BuiltQuasigroup,
    CompatGraph,
    assemble_quasigroup,
    build_graph,
    hall_deficiency_witness,
    max_matching,
)
from .qsim import (
    Branches,
    PureState,
    RegisterLayout,
    apply_controlled,
    apply_on,
    maximally_entangled,
    measure_registers,
    operator_norm,
)

__version__ = "0.1.0"
