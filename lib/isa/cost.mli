(** Calibration cost of an instruction set on a concrete device
    topology (Sec IX model, topology-aware).

    The pair count is the device graph's edge count and the
    parallel-batch count its greedy edge-coloring class count, replacing
    the hard-coded grid approximations callers used to apply by hand.
    Continuous families are charged
    {!Calibration.Model.continuous_family_types} calibrated types. *)

type t = {
  n_pairs : int;  (** couplers calibrated (edge count of the topology) *)
  n_types : int;  (** effective calibrated gate types (families count 525) *)
  circuits : int;  (** total calibration/benchmarking circuits *)
  batches : int;  (** parallel calibration batches (edge-coloring classes) *)
  hours_serial : float;
  hours_parallel : float;
}

val effective_types : Set.t -> int
(** Discrete types count 1 each; each continuous family counts
    {!Calibration.Model.continuous_family_types}. *)

val grid_topology : int -> Device.Topology.t
(** Near-square grid of n qubits: the first n, in row-major order, of
    round(sqrt n) rows of ceil(n / rows) qubits (93 couplers at 54
    qubits).  Raises [Invalid_argument] below 2 qubits. *)

val of_type_count : topology:Device.Topology.t -> int -> t
(** Cost under {!Calibration.Model.default} of calibrating a given number
    of effective types on the topology; raises [Invalid_argument] on a
    non-positive count. *)

val on : topology:Device.Topology.t -> Set.t -> t
val grid : n_qubits:int -> Set.t -> t
