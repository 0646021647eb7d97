(** Initial qubit placement on the device. *)

val best_line : Device.Calibration.t -> Isa.Set.t -> int -> int array option
(** Noise-aware placement: the simple path of k device qubits whose edges
    have the best available fidelities for the instruction set, among
    the first 4,000 paths {!enumerate_paths} finds. *)

val trivial : Device.Calibration.t -> int -> int array option
(** First simple path found, fidelity-blind. *)

val enumerate_paths : Device.Topology.t -> int -> limit:int -> int list list
val path_score : Device.Calibration.t -> Isa.Set.t -> int list -> float
