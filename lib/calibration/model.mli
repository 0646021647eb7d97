(** fSim calibration cost model (Sec IX). *)

type t = {
  circuits_per_angle : int;
  angle_tuneups_per_type : int;
  tomography_circuits : int;
  xeb_rounds : int;
  circuits_per_xeb_round : int;
  hours_per_type_per_pair : float;
}

val default : t

val circuits_per_type_pair : t -> int
val total_circuits : t -> n_pairs:int -> n_types:int -> int

val time_hours_serial : t -> n_pairs:int -> n_types:int -> float
val time_hours_parallel : t -> n_types:int -> float
(** Parallel calibration time in 4 batches (a grid's edge coloring),
    for callers with no topology such as
    {!Drift.evaluate_policy}; {!time_hours_parallel_on} counts the
    batches of a real device graph. *)

val time_hours_parallel_on : t -> topology:Device.Topology.t -> n_types:int -> float
(** Parallel calibration time with batch count from the real edge
    coloring of the device graph. *)

val continuous_family_types : int
(** 525 — the fSim instances Foxen et al. calibrated. *)

val continuous_overhead_factor : n_types:int -> float
(** Calibration-overhead ratio of the continuous family vs a discrete
    set of [n_types] gates (the paper's "two orders of magnitude"). *)
