(** Per-device calibration data: gate fidelities, coherence and timing.

    Fixed gate types have per-edge measured error rates; continuous
    families are served by a per-edge error function of the family
    angles. *)

type t

val make :
  topology:Topology.t ->
  oneq_error:float array ->
  readout_error:float array ->
  t1:float array ->
  t2:float array ->
  duration_1q:float ->
  duration_2q:float ->
  family_error:((int * int) -> float array -> float) ->
  ?family_error_scale:float ->
  unit ->
  t

val topology : t -> Topology.t

val set_twoq_error : t -> int * int -> Gates.Gate_type.t -> float -> unit
(** Record the measured error rate of a fixed gate type on an edge.
    Raises [Invalid_argument] naming the pair and gate type when the pair
    is not an edge of the topology. *)

val twoq_error : t -> int * int -> Gates.Gate_type.t -> float
(** Error rate of a gate type on an edge.  For family types, evaluates the
    per-edge family error (angle-independent form).  Raises
    [Invalid_argument] naming the pair and gate type when the pair is not
    an edge of the topology, or when a fixed type has no data on the
    edge. *)

val family_angle_error : t -> int * int -> float array -> float
(** Error rate for a continuous-family gate at specific angles. *)

val twoq_fidelity : t -> int * int -> Gates.Gate_type.t -> float

val set_twoq_duration : t -> int * int -> Gates.Gate_type.t -> float -> unit
(** Record the measured duration (seconds) of a gate type on an edge.
    Raises [Invalid_argument] unless the duration is positive. *)

val twoq_duration : t -> int * int -> Gates.Gate_type.t -> float
(** Duration of a gate type on an edge; falls back to the device-wide
    [duration_2q] scalar when the type has no entry (the pre-refactor
    behaviour).  Raises [Invalid_argument] naming the pair and gate type
    when the pair is not an edge of the topology. *)

val twoq_duration_by_name : t -> int * int -> string -> float
(** Same lookup keyed by gate name — the form compiled instructions use
    (their gates carry names, not {!Gates.Gate_type.t} values). *)

val mean_twoq_duration : t -> Gates.Gate_type.t -> float
(** Mean duration of a type across the device's edges. *)

val oneq_error : t -> int -> float
val oneq_fidelity : t -> int -> float
val readout_error : t -> int -> float
val t1 : t -> int -> float
val t2 : t -> int -> float
val duration_1q : t -> float
val duration_2q : t -> float

val with_family_error_scale : t -> float -> t
(** Degrade (or improve) only the continuous family's error rates — the
    paper's Full_fSim 1x/1.5x/2x/2.5x study. *)

val with_error_scale : t -> float -> t
(** Rescale every error rate — 1Q, 2Q, continuous-family and readout
    alike (error-rate sweep experiments).  Durations and T1/T2 are
    timing data, not error rates, and are left untouched. *)

val map_twoq_errors : t -> ((int * int) -> string -> float -> float) -> unit
(** In-place transform of every stored fixed-type error rate (clamped);
    used by the calibration-drift simulation. *)

val mean_twoq_error : t -> Gates.Gate_type.t -> float

(** {2 Snapshot access}

    Structural accessors used by device JSON snapshots and the drift
    simulation.  They expose copies, never the internal tables. *)

val copy : t -> t
(** Deep copy: mutating the copy's errors or durations leaves the
    original untouched (the continuous-family closure is shared — it is
    immutable by construction). *)

val oneq_errors : t -> float array
val readout_errors : t -> float array
val t1_times : t -> float array
val t2_times : t -> float array

val family_error_scale : t -> float

val family_base_error : t -> int * int -> float
(** The unscaled per-edge continuous-family base error (evaluated at the
    empty angle vector) — the value device snapshots persist. *)

val twoq_error_entries : t -> ((int * int) * string * float) list
(** Every stored fixed-type error as [(edge, type name, error)], sorted
    for deterministic serialization. *)

val twoq_duration_entries : t -> ((int * int) * string * float) list

val set_twoq_error_by_name : t -> int * int -> string -> float -> unit
(** {!set_twoq_error} keyed by gate name (snapshot loading). *)

val set_twoq_duration_by_name : t -> int * int -> string -> float -> unit
