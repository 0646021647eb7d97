(** NuOp template circuits (Fig 4 of the paper).

    A template with [i] layers alternates arbitrary single-qubit rotation
    pairs (6 angles each) with the target hardware two-qubit gate; for a
    continuous family each gate layer carries its own free angles.
    {!evaluate} reuses workspace scratch matrices and never allocates;
    {!fidelity} allocates only its boxed trace and result (5 words). *)

open Linalg

type t

val create : Gates.Gate_type.t -> layers:int -> t
val gate_type : t -> Gates.Gate_type.t
val layers : t -> int

val param_count : t -> int
(** [6*(layers+1) + layers * Gate_type.param_count]. *)

val evaluate : t -> float array -> Mat.t
(** Template unitary at the given parameters. The result aliases workspace
    storage: copy it before the next [evaluate] call if you keep it. *)

val fidelity : t -> float array -> target:Mat.t -> float
(** Decomposition fidelity F_d = |Tr(U_d^dag U_t)| / 4 (Eq 1). *)

val infidelity : t -> float array -> target:Mat.t -> float

val gate_angles : t -> float array -> int -> float array
(** Angles of the k-th two-qubit layer (1-based); empty for fixed types. *)
