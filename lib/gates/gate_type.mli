(** Hardware two-qubit gate types as seen by NuOp and the ISA study.

    Either a fixed calibrated unitary or a continuous family whose angles
    become optimization variables (the paper's Full_XY / Full_fSim). *)

open Linalg

type t =
  | Fixed of { name : string; unitary : Mat.t }
  | Fsim_family
  | Xy_family
  | Cphase_family  (** CZ(phi) continuous set (Lacroix et al.) *)

val fixed : string -> Mat.t -> t
(** Raises [Invalid_argument] unless the matrix is 4x4. *)

val name : t -> string
val equal : t -> t -> bool

val param_count : t -> int
(** Number of free angles (0 for fixed types). *)

val instantiate : t -> float array -> Mat.t
val is_family : t -> bool

val fsim_type : float -> float -> t
(** A fixed gate type at a point of the fSim family. *)

(** Table II's named gate types. *)

val s1 : t  (** SYC = fSim(pi/2, pi/6) *)

val s2 : t  (** sqrt(iSWAP) = fSim(pi/4, 0) *)

val s3 : t  (** CZ = fSim(0, pi) *)

val s4 : t  (** iSWAP = fSim(pi/2, 0) *)

val s5 : t  (** fSim(pi/3, 0) *)

val s6 : t  (** fSim(3pi/8, 0) *)

val s7 : t  (** fSim(pi/6, pi) *)

val swap_type : t
val cnot_type : t
val xy_pi : t  (** XY(pi), Rigetti Aspen-8's native XY gate *)
