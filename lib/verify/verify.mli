(** Differential-oracle catalogue for the property suite.

    Each group is a list of named {!Proptest} checks that pin one layer
    of the stack against an independent reference: matrix algebra
    against schoolbook definitions, Weyl-chamber canonicalization
    against its invariance laws, NuOp against KAK and the Cirq-like
    baseline on expressible targets, the three simulators against each
    other on the same circuits, and the serializers against their own
    round trips.

    The thunks raise {!Proptest.Failed} with a shrunk, seed-replayable
    counterexample; [test/test_properties.ml] runs the whole catalogue
    under alcotest.  Case counts are bounded for CI and can be cranked
    up with [NUOP_PROPTEST_COUNT] (see {!Proptest}). *)

val mat : (string * (unit -> unit)) list
(** Algebraic laws of {!Linalg.Mat}: [mul] vs the schoolbook triple
    loop, [mul_into] vs [mul], the unrolled 4x4 product bit for bit
    against the generic loop's operation order (signed zeros included),
    [hs_inner] vs [trace(A^dag B)], kron
    mixed product, multiplicative determinants, [solve] round trips,
    Haar-sample unitarity. *)

val weyl : (string * (unit -> unit)) list
(** Weyl-chamber canonicalization: canonical ordering of coordinates,
    local equivalence of the canonical representative, invariance of
    coordinates and CNOT counts under single-qubit dressing. *)

val optimize : (string * (unit -> unit)) list
(** BFGS reaches [grad_tol] on random convex quadratics (the
    stagnation-exit regression) and never increases the objective. *)

val decompose : (string * (unit -> unit)) list
(** NuOp vs KAK vs the Cirq-like baseline: reconstruction, fidelity
    recomputed from the implemented unitary, the SBM lower bound,
    agreement on single-gate-expressible targets, and template
    evaluation against the explicit product of U3 krons and
    instantiated gates for fixed types and every family at 0-6 layers. *)

val sim : (string * (unit -> unit)) list
(** State-vector vs density vs trajectory simulators on the same ideal
    and noisy circuits. *)

val roundtrip : (string * (unit -> unit)) list
(** QASM and JSON serialization: round trips on generated values, and
    garbled QASM always yielding a located parse error instead of a
    generic crash. *)

val compiler : (string * (unit -> unit)) list
(** The default pass stack reproduces [compile_reference] bit for bit
    on random circuits — timed-executable duration and critical depth
    included. *)

val schedule_group : (string * (unit -> unit)) list
(** The timing layer against its laws: ASAP moments are
    dependency-sound with moment count = circuit depth under uniform
    durations, per-qubit busy + idle time closes to the total, the
    scheduled runner matches the plain runner when decoherence is off,
    and the analytic ESP tracks density-sim success within 5% on small
    noisy circuits. *)

val isa : (string * (unit -> unit)) list
(** Set design: a search restricted to a Table II set's own types
    reconstructs that set, Pareto frontiers are undominated and cover
    the input, and the scorer is Domain-pool-size invariant. *)

val device : (string * (unit -> unit)) list
(** Devices as data: JSON snapshots round-trip every stored float bit
    for bit, the registry is total (and case-insensitive) over its own
    names, and {!Calibration.Drift.perturb} is pure and only ever
    inflates stored errors (multipliers >= 1, hours accumulating). *)

val persist : (string * (unit -> unit)) list
(** Curve persistence: save -> load round-trips every entry bit for bit,
    corrupted snapshots (truncated, wrong schema, garbage, empty) load as
    clean [Error]s rather than exceptions, disk entries never clobber the
    curve already in memory under the same key, and a compile served from
    a loaded snapshot equals the cold compile structurally while its
    reuse shows up in the warm-hit counter. *)

val service_group : (string * (unit -> unit)) list
(** The resident server against its laws: the response multiset is
    byte-identical at pool sizes 1 and 3 (concurrent ≡ sequential), a
    full queue always answers [overloaded] synchronously and never
    drops an accepted job, and deadline-exceeded requests answer
    [timeout] — whether they expired queued or mid-execution — with
    the worker slot reclaimed for the next request. *)

val all : (string * (string * (unit -> unit)) list) list
(** Every group above, keyed by name, in dependency order. *)
