(* Calibration cost of an instruction set on a concrete device topology
   (Sec IX, after Foxen et al. [4]).

   Calibrating one fSim(theta, phi) gate type on one qubit pair takes
   10,750 circuits and, conservatively, ~2 h:
   1. CPHASE calibration at angles {phi, pi}      (2 angle tune-ups)
   2. iSWAP-like calibration at angles {0, pi/2}  (2 angle tune-ups)
   3. theta tune-up with CPHASE angle pi          (1 angle tune-up)
      at 100 circuits per angle tune-up;
   4. unitary tomography of the composed pulse    (250 circuits)
   5. fidelity characterization: XEB, 1000 rounds of 10 circuits.

   This is the paper's conservative model: each type calibrated
   individually on isolated pairs; pulse-overlap and crosstalk
   calibration would only add to it.  It reproduces the paper's headline
   scale: ~10^7 circuits to calibrate 10 gate types on a 54-qubit
   device.  The pair count is the device graph's edge count (a
   near-square grid of n qubits is [grid_topology n]); parallel
   calibration runs one batch per class of the graph's greedy edge
   coloring (4 on large grids), since pairs in one class share no
   qubit.  A continuous family costs Foxen et al.'s 525 calibrated fSim
   instances. *)

type t = {
  n_pairs : int;
  n_types : int;
  circuits : int;
  batches : int;
  hours_serial : float;
  hours_parallel : float;
}

let circuits_per_type_pair = (5 * 100) + 250 + (1000 * 10)
let hours_per_type_per_pair = 2.0
let continuous_family_types = 525

let continuous_overhead_factor ~n_types =
  assert (n_types > 0);
  float_of_int continuous_family_types /. float_of_int n_types

let effective_types set =
  List.fold_left
    (fun acc ty -> acc + if Gates.Gate_type.is_family ty then continuous_family_types else 1)
    0 (Set.gate_types set)

let grid_topology n_qubits =
  if n_qubits < 2 then invalid_arg "Isa.Cost.grid_topology: need at least 2 qubits";
  (* the first n qubits, in row-major order, of r = round(sqrt n) rows of
     c = ceil(n / r): a full grid drops the couplers of its unused slots *)
  let r = max 1 (int_of_float (Float.round (Float.sqrt (float_of_int n_qubits)))) in
  let c = (n_qubits + r - 1) / r in
  Device.Topology.of_edges n_qubits
    (List.filter
       (fun (a, b) -> a < n_qubits && b < n_qubits)
       (Device.Topology.edges (Device.Topology.grid r c)))

let of_type_count ~topology n_types =
  if n_types <= 0 then invalid_arg "Isa.Cost.of_type_count: need at least one type";
  let n_pairs = Device.Topology.edge_count topology in
  let batches = Device.Topology.coloring_classes topology in
  let hours per_type = hours_per_type_per_pair *. float_of_int (per_type * n_types) in
  {
    n_pairs;
    n_types;
    circuits = n_pairs * n_types * circuits_per_type_pair;
    batches;
    hours_serial = hours n_pairs;
    hours_parallel = hours batches;
  }

let on ~topology set = of_type_count ~topology (effective_types set)
let grid ~n_qubits set = on ~topology:(grid_topology n_qubits) set
