(** Rigetti Aspen-8 device model (first 8-qubit ring of the device).

    Per-edge CZ / XY(pi) fidelities are synthesized to match Fig 3's
    spread; arbitrary XY(theta) types draw uniformly from the 95-99%
    fidelity band the paper models. *)

val type_durations : (Gates.Gate_type.t * float) list
(** Per-type gate durations (seconds) written into every device
    instance; CZ holds the full 180 ns flux pulse, SWAP costs three.
    Types not listed fall back to the 180 ns device scalar. *)

val ring_device : ?seed:int -> unit -> Calibration.t
(** The ring populated with the gate types of Table II's R-sets (the
    XY-family members plus CZ) and SWAP, XY(pi), drawn from RNG [seed]
    (default 11). *)

val fidelity_table : unit -> ((int * int) * float * float) list
(** The Fig 3 table: edge, CZ fidelity, XY(pi) fidelity. *)
