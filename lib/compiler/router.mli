(** SWAP-insertion routing (greedy shortest-path, direction-aware). *)

type routed = {
  circuit : Qcir.Circuit.t;
      (** on device qubits; every two-qubit gate acts on adjacent qubits *)
  swap_count : int;
  final_layout : int array;
}

val route :
  ?edge_cost:(int * int -> float) ->
  topology:Device.Topology.t ->
  placement:int array ->
  Qcir.Circuit.t ->
  routed
(** [route ~topology ~placement circuit] relabels logical qubits onto the
    placement and inserts application-level SWAP gates where needed.
    Both walk directions need the same SWAPs for the current gate, so
    the router picks the endpoint to walk by the SWAPs the next gate
    touching either operand would then need; ties break toward the chain
    with the lower [edge_cost] sum (e.g. calibrated error rates) when
    given, and toward walking the first operand otherwise.  Raises on
    gates beyond two qubits. *)
