"""Determinant invariant and multiplicative character of Steinberg
symbols of smooth circle loops, with the supporting Toeplitz, Fredholm,
cyclic-chain and group-homology machinery.  The imports below are the one
list of public names; ``__all__`` is read off the names they bind."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from ._errors import FredK2Error, InputError, InvariantViolation, NumericalError
from .fourier_loops import (
    FourierLoop,
    LoopLog,
    circle_integral,
    from_samples,
    log_split,
    pairing_integral,
    winding_number,
)
from .toeplitz_calculus import (
    DEFAULT_WINDOW,
    HankelWindow,
    ToeplitzOp,
    commutator,
    commutator_trace_closed,
    coshift_op,
    exp_op,
    identity_op,
    mul,
    op_trace,
    schatten2_commutator_F,
    shift_conjugation_trace,
    shift_op,
    toeplitz,
    zero_op,
)
from .fredholm import (
    OperatorPath,
    det1p,
    det_exp_pair,
    det_exp_pair_verify,
    mult_commutator_det,
    path_log_det,
)
from .cyclic_chains import (
    Block2,
    Block3,
    BlockOp,
    CyclicChain,
    SimplexPath,
    TwoByTwoOp,
    cyclic_b,
    cyclic_project,
    cyclic_t,
    dN,
    gamma_log,
    tau_cocycle,
    tilde_gamma,
)
from .group_homology import (
    FiniteGroup,
    GroupChain,
    GroupHom,
    HomologyResult,
    KernelQuotient,
    bar_boundary,
    boundary_to_relative,
    builtin_catalog,
    coker_representative,
    cycle_basis,
    f_phi_section,
    homology,
    load_catalog_file,
    psi,
    smith_normal_form,
)
from .invariants import (
    LoopLabel,
    SteinbergSymbol,
    det_invariant_closed,
    det_invariant_integral,
    det_invariant_operator,
    f_commutator_schatten2,
    h2_psi_representative,
    h2_representative_det,
    hankel_op,
    mult_character,
    relative_boundary_trace,
    rho,
    rho_z,
    rho_zinv,
    steinberg_to_h2_cycle,
    t1_section,
    w0_representative,
)

__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)]
