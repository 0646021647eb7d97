(** Random graphs for QAOA MaxCut instances. *)

open Linalg

type t

val n : t -> int
val edges : t -> (int * int) list
val edge_count : t -> int

val erdos_renyi : Rng.t -> int -> t
(** G(n, 1/2), with the edge (0, 1) when the draw leaves none. *)

val complete : int -> t
val ring : int -> t
val three_regular : Rng.t -> int -> t

val cut_value : t -> bool array -> int
val max_cut_brute_force : t -> int
(** Exact MaxCut by enumeration (n <= 20). *)
