(** Complex scalar helpers on top of [Stdlib.Complex].

    Boxed complex values are used at API boundaries and in tests; the hot
    numerical kernels work on interleaved float arrays inside {!Mat}. *)

type t = Complex.t = { re : float; im : float }

val zero : t
val one : t

val make : float -> float -> t
val re : t -> float
val im : t -> float
val of_float : float -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val conj : t -> t

val norm : t -> float
(** Modulus |z|. *)

val arg : t -> float
val polar : float -> float -> t

val cis : float -> t
(** [cis theta] is [e^{i theta}]. *)

val scale : float -> t -> t
val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
end
