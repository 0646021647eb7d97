(** Noise channels (Kraus sets) and their superoperator forms. *)

open Linalg

type t

val make : string -> Mat.t list -> t
(** Raises [Invalid_argument] if the Kraus set is empty or not trace
    preserving. *)

val name : t -> string
val kraus : t -> Mat.t list

val superoperator : t -> Mat.t
(** S = sum_m K_m (x) conj(K_m); a d^2 x d^2 matrix applied by the
    vectorized density simulator on (ket, bra) index-qubit groups. *)

val identity : int -> t
val depolarizing_1q : float -> t
val depolarizing_2q : float -> t
val amplitude_damping : float -> t
val phase_damping : float -> t

val damping_params : t1:float -> t2:float -> duration:float -> float * float
(** (gamma, lambda) for amplitude/phase damping over a gate duration. *)

val apply_readout_error : error_rates:float array -> float array -> float array
(** Classical per-qubit bit-flip confusion applied to a probability
    vector. *)
