(** NuOp template circuits (Fig 4 of the paper).

    A template with [i] layers alternates arbitrary single-qubit rotation
    pairs (6 angles each) with the target hardware two-qubit gate; for a
    continuous family each gate layer carries its own free angles.
    {!evaluate} reuses workspace matrices and never allocates;
    {!fidelity} allocates only its boxed trace and result (5 words).
    Gates zero outside the fSim pattern ({!Linalg.Mat.has_fsim_pattern}:
    every family and every fixed type of the paper's sets) multiply
    through {!Linalg.Mat.mul_fsim_into}, any other gate through
    {!Linalg.Mat.mul_into}, with the same bits. *)

open Linalg

type t

val create : Gates.Gate_type.t -> layers:int -> t
val gate_type : t -> Gates.Gate_type.t
val layers : t -> int

val dim : Gates.Gate_type.t -> layers:int -> int
(** [6*(layers+1) + layers * Gate_type.param_count]: the parameter count
    of a template, without building one. *)

val param_count : t -> int
(** {!dim} of the template's type and layer count. *)

val evaluate : t -> float array -> Mat.t
(** Template unitary at the given parameters. The result aliases workspace
    storage: copy it before the next [evaluate] or {!gradient} call if
    you keep it. *)

val fidelity : t -> float array -> target:Mat.t -> float
(** Decomposition fidelity F_d = |Tr(U_d^dag U_t)| / 4 (Eq 1). *)

val infidelity : t -> float array -> target:Mat.t -> float

val gradient : t -> h:float -> float array -> target:Mat.t -> g:float array -> unit
(** [gradient t ~h x ~target ~g] writes into [g] the central-difference
    gradient of [infidelity t ~target] at [x], bit for bit what
    [Optimize.Grad.central ~h] computes over {!infidelity}: the same 2n
    probes, each restarted from the stored layers below the parameter it
    moves.  [x] and [g] have {!param_count} entries; each probe
    allocates what {!fidelity} does (5 words), and nothing else is
    allocated. *)

val gate_angles : Gates.Gate_type.t -> layers:int -> float array -> int -> float array
(** Angles of the k-th two-qubit layer (1-based) of a template with
    [layers] layers and these parameters; empty for fixed types. *)
