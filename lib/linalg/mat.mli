(** Dense complex matrices on interleaved [re; im] float arrays.

    OCaml unboxes [float array], so this layout keeps the NuOp/BFGS hot
    loops allocation-free.  All dimensions are checked with assertions. *)

type t

val rows : t -> int
val cols : t -> int

val create : int -> int -> t
(** Zero-filled matrix. *)

val zero : int -> int -> t
val identity : int -> t
val copy : t -> t
val init : int -> int -> (int -> int -> Complex.t) -> t
val of_rows : Complex.t list list -> t
val to_lists : t -> Complex.t list list
val map : (Complex.t -> Complex.t) -> t -> t

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Complex.t -> t -> t
val scale_real : float -> t -> t

val mul : t -> t -> t

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b] writes [a * b] into [dst] without allocating.
    [dst] must not alias [a] or [b]. *)

val has_fsim_pattern : t -> bool
(** [a] is 4x4 and zero (of either sign) outside the fSim pattern
    (0,0), (1,1), (1,2), (2,1), (2,2), (3,3), as every fSim, XY and
    CPHASE gate is. *)

val mul_fsim_into : dst:t -> t -> t -> unit
(** [mul_fsim_into ~dst a b] is [mul_into ~dst a b] for 4x4 operands
    whose [a] satisfies {!has_fsim_pattern}, bit for bit when [b] is
    finite, reading only [a]'s six pattern entries (24 complex products
    where the dense kernel makes 64).  [dst] must not alias [a] or
    [b]. *)

val transpose : t -> t
val conj : t -> t
val dagger : t -> t

val trace : t -> Complex.t

val hs_inner : t -> t -> Complex.t
(** Hilbert-Schmidt inner product [Tr(A^dag B)], computed without forming
    the product matrix. *)

val kron : t -> t -> t
(** Kronecker product. *)

val frobenius_norm : t -> float
val max_abs_entry : t -> float

val equal : ?eps:float -> t -> t -> bool
val is_unitary : ?eps:float -> t -> bool

val equal_up_to_phase : ?eps:float -> t -> t -> bool
(** Equality of unitaries modulo a global phase. *)

val lu_decompose : t -> t * int array * int
(** LU with partial pivoting: packed LU factors, row permutation, sign. *)

val det : t -> Complex.t
val solve : t -> t -> t
(** [solve a b] solves [a x = b] column-by-column. Raises
    [Invalid_argument] on singular systems. *)

val inverse : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val digest : t -> Digest.t
(** Content key (entries rounded to 1e-12), used for decomposition
    memoization. *)

val unsafe_data : t -> float array
(** The interleaved [re; im] backing store (row-major). Exposed for the
    allocation-free template evaluation in the decomposition engine. *)
