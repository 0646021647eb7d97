(** Calibration cost of an instruction set on a concrete device topology
    (Sec IX): per-step circuit counts after Foxen et al., pairs = the
    topology's edge count, parallel batches = its greedy edge-coloring
    class count, and {!continuous_family_types} calibrated types per
    continuous family. *)

type t = {
  n_pairs : int;  (** couplers calibrated (edge count of the topology) *)
  n_types : int;  (** effective calibrated gate types (families count 525) *)
  circuits : int;  (** total calibration/benchmarking circuits *)
  batches : int;  (** parallel calibration batches (edge-coloring classes) *)
  hours_serial : float;  (** 2 h per type per pair, one pair at a time *)
  hours_parallel : float;  (** 2 h per type per batch *)
}

val circuits_per_type_pair : int
(** 10,750: five angle tune-ups of 100 circuits, 250 tomography circuits
    and 1000 XEB rounds of 10 circuits per gate type per pair. *)

val continuous_family_types : int
(** 525 — the fSim instances Foxen et al. calibrated. *)

val continuous_overhead_factor : n_types:int -> float
(** Calibration-overhead ratio of the continuous family vs a discrete
    set of [n_types] gates (the paper's "two orders of magnitude"). *)

val effective_types : Set.t -> int
(** Discrete types count 1 each; each continuous family counts
    {!continuous_family_types}. *)

val grid_topology : int -> Device.Topology.t
(** Near-square grid of n qubits: the first n, in row-major order, of
    round(sqrt n) rows of ceil(n / rows) qubits (93 couplers at 54
    qubits).  Raises [Invalid_argument] below 2 qubits. *)

val of_type_count : topology:Device.Topology.t -> int -> t
(** Cost of calibrating a given number of effective types on the
    topology; raises [Invalid_argument] on a non-positive count. *)

val on : topology:Device.Topology.t -> Set.t -> t
val grid : n_qubits:int -> Set.t -> t
