"""Specialising divisor classes on odd hyperelliptic curves y^2 = f(x)
into ideal classes of imaginary quadratic orders Z[sqrt(f(n))].

The pipeline: a divisor class Q on the Jacobian (Mumford coordinates,
Cantor arithmetic) is rewritten as an integral triple (A, B, C) with
denominator e; evaluating at an integer n with f(n) < 0 yields the ideal
(A(n), e*sqrt(f(n)) - B(n)) of Z[sqrt(f(n))], whose class delta_n(Q) is a
group homomorphism in Q; pushing into the maximal order gives the value of
the class-group pairing against the section x = n.  Scans over ranges of n
exhibit nontrivial and unboundedly large orders.
"""

from .curve import OddHyperellipticCurve, new_curve
from .errors import (
    BadDegreeError,
    ClassNumberBoundError,
    ConfigError,
    DegreeTooLargeError,
    DiscriminantMismatchError,
    DivisibilityError,
    FactorizationBoundError,
    HyperclassError,
    InternalInconsistencyError,
    InvalidDivisorError,
    NonInvertibleError,
    NotMonicError,
    NotPrimitiveError,
    NotSquarefreeError,
    OrderBoundError,
    PointNotOnCurveError,
    PositiveValueError,
)
from .integral_forms import (
    AltMumfordForm,
    CongruenceData,
    congruence_data,
    coprime_shift,
    nontriviality_threshold,
    to_alt_mumford,
)
from .jacobian import (
    MumfordDivisor,
    check_divisor,
    from_point,
    identity,
    jac_add,
    jac_neg,
    jac_smul,
)
from .polyarith import IntPoly, RatPoly, discriminant, first_nonnegative, \
    fixed_divisor, is_squarefree
from .quadring import (
    ConductorData,
    IdealClass,
    IntBinaryForm,
    QuadIdeal,
    class_number,
    class_number_disc,
    class_number_from_conductor,
    conductor_data,
    extend_ideal,
    factorint,
    form_to_ideal,
    ideal_from_generators,
    ideal_mul,
    ideal_norm,
    ideal_to_class,
    kernel_order,
    push_to_maximal,
    reduce_form,
    square_part,
    unit_ideal,
)
from .specialize import (
    Specialisation,
    SpecializationRow,
    delta_n,
    find_order_at_least,
    is_n_primitive,
    pairing_value,
    scan,
    specialize_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
