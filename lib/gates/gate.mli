(** Circuit-level gate: a named unitary with its qubit arity. *)

open Linalg

type t

val make : ?params:float array -> string -> Mat.t -> t
(** [make name matrix] builds a gate from a 2^k x 2^k unitary. Raises
    [Invalid_argument] on non-square or non-power-of-two dimensions.
    [params] records the gate's continuous parameters at full precision
    (the display name rounds them). *)

val name : t -> string
val matrix : t -> Mat.t
val arity : t -> int

val params : t -> float array
(** Full-precision parameters ([||] for fixed gates). *)

(** Convenience constructors for common gates. *)

val u3 : float -> float -> float -> t
val h : t
val x : t
val rx : float -> t
val rz : float -> t
val cz : t
val swap : t
val cphase : float -> t
val fsim : float -> float -> t
val xy : float -> t
val zz : float -> t
val hopping : float -> t

val su4 : ?label:string -> Mat.t -> t
(** Wrap an arbitrary 4x4 unitary as an application gate. *)
