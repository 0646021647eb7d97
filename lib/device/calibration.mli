(** Per-device calibration data: gate fidelities, coherence and timing,
    as one immutable snapshot.

    Two-qubit errors and durations are keyed by canonical edge and
    gate-type name.  A continuous family's error on an edge is the edge's
    base error times one device-wide scale.  {!make} validates every
    table once; nothing changes a calibration afterwards, and derived
    snapshots ({!with_family_error_scale}, {!map_twoq_errors}) are new
    values that share nothing mutable with their source. *)

type t

type entry = (int * int) * string * float
(** One stored two-qubit value: [(edge, gate-type name, value)]. *)

val make :
  topology:Topology.t ->
  oneq_error:float array ->
  readout_error:float array ->
  t1:float array ->
  t2:float array ->
  duration_1q:float ->
  duration_2q:float ->
  twoq_error:entry list ->
  twoq_duration:entry list ->
  family_base:((int * int) * float) list ->
  ?family_error_scale:float ->
  unit ->
  t
(** Build a calibration from complete tables; entries fill them in list
    order.  Raises [Invalid_argument] naming the table (["twoq_error"],
    ["twoq_duration"], ["base"], ["scale"] or a per-qubit array) when an
    entry lies off the topology's edges, an error is outside [0, 1), a
    two-qubit duration or the family scale is not positive, a key
    appears twice, an edge has no family base, or a per-qubit array has
    the wrong length.  It also raises, naming the field and the qubit,
    for a one-qubit or readout error outside [0, 1) and a T1 or T2 that
    is not positive (+infinity is allowed: no decay), and, naming the
    field, for a negative [duration_1q] or [duration_2q] (zero is
    allowed: an ideal device).  Every range refuses nan. *)

val topology : t -> Topology.t

val twoq_error : t -> int * int -> Gates.Gate_type.t -> float
(** Error rate of a gate type on an edge: the stored entry for a fixed
    type, the scaled family base (clamped to [1e-6, 0.5]) for a
    continuous family.  Raises [Invalid_argument] naming the pair and
    gate type when the pair is not an edge of the topology, or when a
    fixed type has no data on the edge. *)

val twoq_fidelity : t -> int * int -> Gates.Gate_type.t -> float

val calibrates : t -> Gates.Gate_type.t -> bool
(** Whether a fixed gate type has an error entry on at least one edge;
    always true for a continuous family, whose error every edge's family
    base gives.  One lookup among {!calibrated_types}. *)

val calibrated_types : t -> string list
(** The distinct fixed gate-type names the error table holds, sorted —
    the one record of which fixed types a device runs, recorded by
    {!make}. *)

val twoq_duration : t -> int * int -> string -> float
(** Duration (seconds) of a gate type, by name, on an edge — compiled
    instructions carry gate names.  Falls back to the device-wide
    [duration_2q] scalar when the type has no entry.  Raises
    [Invalid_argument] naming the pair and gate type when the pair is
    not an edge of the topology. *)

val mean_twoq_duration : t -> string -> float
(** Mean duration of a gate type, by name, across the device's edges. *)

val mean_twoq_error : t -> string -> float
(** Mean stored error of a fixed gate type, by name, across the device's
    edges.  Raises [Invalid_argument] naming the type and the first
    edge without an entry. *)

val oneq_error : t -> int -> float
val oneq_fidelity : t -> int -> float
val readout_error : t -> int -> float
val t1 : t -> int -> float
val t2 : t -> int -> float
val duration_1q : t -> float
val duration_2q : t -> float

(** {2 Derived snapshots} *)

val with_family_error_scale : t -> float -> t
(** The same calibration with another continuous-family scale — the
    paper's Full_fSim 1x/1.5x/2x/2.5x study, and drift.  Raises
    [Invalid_argument] unless the scale is positive. *)

val map_twoq_errors : t -> ((int * int) -> string -> float -> float) -> t
(** A calibration whose every stored fixed-type error is [f edge name e],
    clamped to [1e-6, 0.5].  [f] sees the entries in the error table's
    fold order, and the result keeps that order, so a seeded function
    (calibration drift) draws the same stream on every call. *)

(** {2 Snapshot access}

    Structural accessors used by device JSON snapshots and the drift
    simulation.  They return copies, never the internal tables. *)

val oneq_errors : t -> float array
val readout_errors : t -> float array
val t1_times : t -> float array
val t2_times : t -> float array

val family_error_scale : t -> float

val family_base_error : t -> int * int -> float
(** The unscaled continuous-family base error of an edge. *)

val twoq_error_entries : t -> entry list
(** Every stored fixed-type error, sorted for deterministic
    serialization. *)

val twoq_duration_entries : t -> entry list
