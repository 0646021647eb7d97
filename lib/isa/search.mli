(** Automated set design: deterministic beam search over a candidate
    gate-type pool, emitting the best set of each size costed on a
    concrete topology, plus the Pareto-frontier filter. *)

open Linalg

type options = {
  max_types : int;  (** largest set size explored (default 8) *)
  beam_width : int;  (** sets kept per size level (default 2) *)
  nuop : Decompose.Nuop.options;
}

val default_options : options

type point = { set : Set.t; score : Score.t; cost : Cost.t }

val default_pool : unit -> Gates.Gate_type.t list
(** Discrete candidates: S1-S7, SWAP, CNOT, XY(pi), plus off-Table-II
    fSim/XY/CZ grid points near the Fig 8 expressivity optima. *)

val run :
  ?options:options ->
  samples:(string * Mat.t list) list ->
  topology:Device.Topology.t ->
  Gates.Gate_type.t list ->
  point list
(** One point per set size 1..[max_types] (pool deduplicated by type
    name; raises [Invalid_argument] when empty).  The scoring table is
    built once, at {!Score}'s default threshold and error rate, so the
    search costs one decomposition per (pool type, sample unitary)
    regardless of how many subsets it ranks.  Fully
    deterministic: ties break by mean layers, then by the sorted
    type-name key. *)

val pareto_by : cost:('a -> float) -> value:('a -> float) -> 'a list -> 'a list
(** Undominated points: keep [p] unless some [q] has [cost q <= cost p]
    and [value q >= value p] with at least one strict. *)

val pareto : point list -> point list
(** {!pareto_by} on (calibration circuits, mean fidelity), sorted by
    ascending circuits. *)
