(* Calibration cost of an instruction set on a concrete device topology
   (Sec IX model, topology-aware).

   Wraps Calibration.Model with the two pieces of device knowledge the
   raw model leaves to its callers: the pair count is the device graph's
   edge count (a near-square grid of n qubits is [grid_topology n]), and
   the parallel-batch count comes from the graph's greedy edge coloring
   (4 on large grids) instead of a hard-coded constant.  A continuous
   family costs [Calibration.Model.continuous_family_types] calibrated
   types (Foxen et al.'s 525 fSim instances). *)

type t = {
  n_pairs : int;
  n_types : int;
  circuits : int;
  batches : int;
  hours_serial : float;
  hours_parallel : float;
}

let effective_types set =
  List.fold_left
    (fun acc ty ->
      acc
      + if Gates.Gate_type.is_family ty then Calibration.Model.continuous_family_types
        else 1)
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
  let model = Calibration.Model.default in
  let n_pairs = Device.Topology.edge_count topology in
  {
    n_pairs;
    n_types;
    circuits = Calibration.Model.total_circuits model ~n_pairs ~n_types;
    batches = Device.Topology.coloring_classes topology;
    hours_serial = Calibration.Model.time_hours_serial model ~n_pairs ~n_types;
    hours_parallel = Calibration.Model.time_hours_parallel_on model ~topology ~n_types;
  }

let on ~topology set = of_type_count ~topology (effective_types set)
let grid ~n_qubits set = on ~topology:(grid_topology n_qubits) set
