(** The one expressivity scorer (replaces the ad-hoc copies that used to
    live in the Fig 6/8 drivers and [examples/isa_design.ml]).

    A set's expressivity on a unitary is the best its gate types can do:
    fewest exact NuOp layers and highest overall fidelity
    [F_u = F_d * F_h] (Eq 2) under a per-layer hardware error rate; the
    score is the mean of those bests over application-unitary samples.
    All decompositions are memoized through {!Decompose.Cache} and maps
    run Domain-pool-parallel with order-preserving, deterministic
    results at any pool size. *)

open Linalg

val default_error_rate : float
(** 0.0062 — Sycamore's mean two-qubit Pauli error, the reference
    hardware fidelity for the F_h term. *)

val default_threshold : float
(** {!Decompose.Nuop.default_threshold}, the exact-decomposition
    fidelity threshold. *)

type per_app = { app : string; app_mean_layers : float; app_mean_fidelity : float }

type t = {
  set_name : string;
  mean_layers : float;  (** mean best exact layers per unitary *)
  mean_fidelity : float;  (** mean best F_u per unitary — the expressivity *)
  per_app : per_app list;
}

val samples :
  ?counts:(Apps.Su4_unitaries.application * int) list ->
  Rng.t ->
  (string * Mat.t list) list
(** Labelled application-unitary samples; applications with a
    non-positive count are omitted.  Defaults to
    {!Apps.Su4_unitaries.default_counts}. *)

type table
(** Per-(gate type, unitary) exact layers and best F_u, computed once
    for a candidate pool so that {!of_table} can score any subset
    without re-optimizing — the workhorse of {!Search}. *)

val table :
  ?options:Decompose.Nuop.options ->
  ?threshold:float ->
  ?error_rate:float ->
  ?domains:int ->
  samples:(string * Mat.t list) list ->
  Gates.Gate_type.t list ->
  table
(** Gate types are deduplicated by name.  Raises [Invalid_argument] on
    an empty sample set or type list. *)

val of_table : table -> Set.t -> t
(** Score a set against a precomputed table.  Raises [Invalid_argument]
    if the set contains a type the table does not cover. *)

val score :
  ?options:Decompose.Nuop.options ->
  ?error_rate:float ->
  ?domains:int ->
  samples:(string * Mat.t list) list ->
  Set.t ->
  t
(** [of_table] over a table of exactly the set's own gate types, at
    {!default_threshold}. *)

type type_stats = {
  layers : float;  (** mean layers per unitary *)
  error : float;  (** mean decomposition error 1 - F_d *)
}

val stats_for_type :
  ?options:Decompose.Nuop.options ->
  ?domains:int ->
  mode:[ `Exact of float | `Approx of float ] ->
  Gates.Gate_type.t ->
  Mat.t list ->
  type_stats
(** Per-type evaluation used by the Fig 6/8 drivers: [`Exact threshold]
    is classic exact decomposition, [`Approx f] the hardware-aware mode
    with per-layer fidelity [f] (so [fh layers = f ** layers]). *)

val mean_layers_for_type :
  ?options:Decompose.Nuop.options -> ?domains:int -> Gates.Gate_type.t -> Mat.t list -> float
(** Mean exact-decomposition layer count of one gate type over a sample
    at {!default_threshold} (the Fig 8 heatmap cell). *)
