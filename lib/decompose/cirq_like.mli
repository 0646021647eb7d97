(** Cirq v0.8.2-equivalent baseline decomposer (Fig 6 comparison).

    Reproduces Cirq's published per-target gate counts; returns [None]
    for target/unitary combinations Cirq did not support. *)

open Linalg

type result = { gate_count : int; decomposition_error : float }

val kak_error : float

val decompose : target_gate:Gates.Gate_type.t -> Mat.t -> result option
val is_controlled_phase_class : Mat.t -> bool
