(** NuOp: numerical-optimization gate decomposition (the paper's core
    contribution, Sec V). *)

open Linalg

type options = {
  min_layers : int;  (** smallest template size (paper: 1) *)
  max_layers : int;
  starts : int;
  bfgs : Optimize.Bfgs.options;
  seed : int;
  convergence_fd : float;
}

val default_options : options

type t = {
  gate_type : Gates.Gate_type.t;
  layers : int;  (** number of two-qubit gate applications *)
  params : float array;
  fd : float;  (** decomposition fidelity F_d (Eq 1) *)
  fh : float;  (** hardware fidelity F_h (1.0 when ignored) *)
}

val overall_fidelity : t -> float
(** F_u = F_d * F_h (Eq 2). *)

val optimize_layers :
  ?options:options ->
  Gates.Gate_type.t ->
  layers:int ->
  target:Mat.t ->
  float array * float
(** Best (params, F_d) for a fixed template size. *)

val fd_curve :
  ?options:options ->
  Gates.Gate_type.t ->
  target:Mat.t ->
  (int * float array * float) array
(** Best (layers, params, F_d) per layer count from [min_layers] up,
    until F_d converges or [max_layers] is reached.  Shared by both
    decomposition modes and memoized by {!Cache}. *)

val default_threshold : float
(** 1 - 1e-6: the F_d an exact decomposition must reach.  Every
    exact-count reader defaults to it. *)

val exact_of_curve :
  ?threshold:float -> Gates.Gate_type.t -> (int * float array * float) array -> t

val approx_of_curve :
  fh:(int -> float) -> Gates.Gate_type.t -> (int * float array * float) array -> t

val decompose_exact :
  ?options:options -> ?threshold:float -> Gates.Gate_type.t -> target:Mat.t -> t
(** Smallest template reaching the F_d threshold (default
    {!default_threshold});
    falls back to the best template found within [max_layers]. *)

val decompose_approx :
  ?options:options -> fh:(int -> float) -> Gates.Gate_type.t -> target:Mat.t -> t
(** Hardware-aware approximate decomposition: maximizes F_d(i) * fh(i)
    over layer counts i (Eq 2).  [fh i] must give the hardware fidelity
    of a template using [i] two-qubit gates. *)

val select_best : t list -> t
(** Highest-overall-fidelity candidate — noise adaptivity across gate
    types. Raises [Invalid_argument] on an empty list. *)

val to_instrs : t -> qubits:int * int -> Qcir.Instr.t list
val to_circuit : t -> n_qubits:int -> qubits:int * int -> Qcir.Circuit.t

val implemented_unitary : t -> Mat.t
(** The unitary the decomposition actually implements (for tests). *)
