(** Structured KAK (Kraus-Cirac) decomposition:
    U = (A1 (x) A2) N(c1, c2, c3) (B1 (x) B2) up to a global phase. *)

open Linalg

exception Failed

type t = {
  coordinates : float * float * float;
  a1 : Mat.t;
  a2 : Mat.t;
  b1 : Mat.t;
  b2 : Mat.t;
  global_phase : float;
}

val decompose : Mat.t -> t
(** Verified factorization (the result reconstructs the input up to
    phase within 1e-6), fitted from up to 6 seeded random starts; raises
    [Failed] if verification fails and [Invalid_argument] on non-4x4
    input. *)

val reconstruct : t -> Mat.t
(** (A1 (x) A2) N(c) (B1 (x) B2) times the global phase. *)

val interaction_strength : t -> float
(** c1 + c2 + |c3| — the total interaction content. *)

val pp : Format.formatter -> t -> unit
